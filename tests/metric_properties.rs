//! Property tests: metric invariants hold for arbitrary predictions,
//! and feature standardisation stays finite on arbitrary inputs.

use debunk::debunk_core::metrics::{accuracy, confusion_matrix, macro_f1, micro_f1};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metric_invariants(
        labels in proptest::collection::vec(0u16..6, 1..100),
        preds_seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(preds_seed);
        let preds: Vec<u16> = labels.iter().map(|_| rng.gen_range(0..6)).collect();
        let acc = accuracy(&preds, &labels);
        let f1 = macro_f1(&preds, &labels, 6);
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert_eq!(micro_f1(&preds, &labels), acc);
        // confusion matrix row sums equal per-class supports
        let m = confusion_matrix(&preds, &labels, 6);
        for c in 0..6u16 {
            let support = labels.iter().filter(|&&l| l == c).count() as u32;
            let row_sum: u32 = m[usize::from(c)].iter().sum();
            prop_assert_eq!(row_sum, support);
        }
        // perfect prediction maxes both metrics
        prop_assert_eq!(accuracy(&labels, &labels), 1.0);
        prop_assert_eq!(macro_f1(&labels, &labels, 6), 1.0);
    }

    #[test]
    fn standardizer_always_finite(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f32..1e6, 3),
            2..30,
        ),
    ) {
        use debunk::debunk_core::standardize::Standardizer;
        use debunk::nn::Tensor;
        let mut train = Tensor::from_rows(&rows);
        let mut test = Tensor::from_rows(&rows[..1.min(rows.len())].to_vec());
        Standardizer::fit_apply(&mut train, &mut test);
        prop_assert!(train.data.iter().all(|v| v.is_finite()));
        prop_assert!(test.data.iter().all(|v| v.is_finite()));
    }
}
