//! Bagged random forest with Gini feature importance (Fig. 5).

use crate::tree::{walk, DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (max_features defaults to √d if `None`).
    pub tree: TreeParams,
    /// Bootstrap-sample size per tree (`None` = n).
    pub sample_size: Option<usize>,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self { n_trees: 30, tree: TreeParams::default(), sample_size: None }
    }
}

/// A trained random forest.
///
/// ```
/// use shallow::forest::{ForestParams, RandomForest};
/// let x: Vec<Vec<f32>> = (0..40).map(|i| vec![f32::from(u8::from(i % 2 == 0)), i as f32]).collect();
/// let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
/// let y: Vec<u16> = (0..40).map(|i| (i % 2) as u16).collect();
/// let rf = RandomForest::fit(&rows, &y, 2, ForestParams::default(), 7);
/// assert_eq!(rf.predict_one(&[1.0, 3.0]), 0);
/// assert_eq!(rf.predict_one(&[0.0, 3.0]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Fit on feature rows and labels.
    pub fn fit(
        x: &[&[f32]],
        y: &[u16],
        n_classes: usize,
        params: ForestParams,
        seed: u64,
    ) -> RandomForest {
        assert!(!x.is_empty(), "empty training set");
        let n = x.len();
        let d = x[0].len();
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some(((d as f64).sqrt().ceil() as usize).max(1));
        }
        let sample = params.sample_size.unwrap_or(n).min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        for t in 0..params.n_trees {
            // bootstrap sample (features and labels drawn together)
            let mut bxx = Vec::with_capacity(sample);
            let mut byy = Vec::with_capacity(sample);
            for _ in 0..sample {
                let i = rng.gen_range(0..n);
                bxx.push(x[i]);
                byy.push(y[i]);
            }
            trees.push(DecisionTree::fit(
                &bxx,
                &byy,
                n_classes,
                tree_params,
                seed.wrapping_add(t as u64),
            ));
        }
        RandomForest { trees, n_classes, n_features: d }
    }

    /// Majority-vote labels of `rows` into `out`, with the caller's
    /// per-row `votes` scratch. Ties go to the largest label.
    pub fn predict_into<R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        votes: &mut Vec<u32>,
        out: &mut Vec<u16>,
    ) {
        let nc = self.n_classes;
        votes.clear();
        votes.resize(rows.len() * nc, 0);
        let trees = self.trees.iter().map(|t| &t.tree);
        walk(trees, rows, |row, _, label| votes[row * nc + usize::from(label)] += 1);
        out.clear();
        out.extend(votes.chunks_exact(nc).map(|v| {
            v.iter().enumerate().max_by_key(|(_, &n)| n).map(|(l, _)| l as u16).unwrap_or(0)
        }));
    }

    /// Majority-vote prediction for one row.
    pub fn predict_one(&self, x: &[f32]) -> u16 {
        self.predict(&[x])[0]
    }

    /// Majority-vote predictions for many rows.
    pub fn predict(&self, x: &[&[f32]]) -> Vec<u16> {
        let mut out = Vec::new();
        self.predict_into(x, &mut Vec::new(), &mut out);
        out
    }

    /// Normalised Gini feature importance, summing to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            for (a, b) in imp.iter_mut().zip(&t.importance) {
                *a += b;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl nn::frozen::FrozenArtifact for RandomForest {
    const KIND: &'static str = "forest";

    fn write_payload(&self, w: &mut nn::envelope::PayloadWriter) {
        w.u32(self.n_classes as u32);
        w.u32(self.n_features as u32);
        w.u64(self.trees.len() as u64);
        for tree in &self.trees {
            tree.write_payload(w);
        }
    }

    fn read_payload(r: &mut nn::envelope::PayloadReader) -> Result<RandomForest, String> {
        let n_classes = r.u32()? as usize;
        let n_features = r.u32()? as usize;
        if n_classes == 0 {
            return Err("forest with zero classes".into());
        }
        let n_trees = r.u64()? as usize;
        if n_trees == 0 || n_trees > 1 << 16 {
            return Err(format!("implausible forest size {n_trees}"));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for t in 0..n_trees {
            let tree = DecisionTree::read_payload(r)?;
            // splits carry label 0, so the largest payload is a leaf's
            let max_label = tree.tree.payload.iter().copied().max().unwrap_or(0);
            if usize::from(max_label) >= n_classes {
                return Err(format!(
                    "tree {t}: leaf label {max_label} out of range (n_classes {n_classes})"
                ));
            }
            if tree.importance.len() != n_features {
                return Err(format!(
                    "tree {t}: importance length {} != n_features {n_features}",
                    tree.importance.len()
                ));
            }
            trees.push(tree);
        }
        Ok(RandomForest { trees, n_classes, n_features })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_dataset(n: usize) -> (Vec<[f32; 4]>, Vec<u16>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c: u16 = rng.gen_range(0..3);
            x.push([
                f32::from(c) * 2.0 + rng.gen_range(-0.8..0.8),
                f32::from(c) - rng.gen_range(-0.5..0.5),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn forest_beats_chance_on_noisy_data() {
        let (xv, y) = noisy_dataset(300);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let f = RandomForest::fit(&x[..200], &y[..200], 3, ForestParams::default(), 1);
        let preds = f.predict(&x[200..]);
        let acc = preds.iter().zip(&y[200..]).filter(|(p, t)| p == t).count() as f64 / 100.0;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn importance_is_normalised_and_informative() {
        let (xv, y) = noisy_dataset(300);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let f = RandomForest::fit(&x, &y, 3, ForestParams::default(), 2);
        let imp = f.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] + imp[1] > imp[2] + imp[3], "informative features dominate: {imp:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xv, y) = noisy_dataset(100);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let a = RandomForest::fit(&x, &y, 3, ForestParams::default(), 7);
        let b = RandomForest::fit(&x, &y, 3, ForestParams::default(), 7);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn frozen_round_trip_predicts_bitwise_identically() {
        use nn::frozen::FrozenArtifact;
        let (xv, y) = noisy_dataset(120);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let f = RandomForest::fit(&x, &y, 3, ForestParams::default(), 11);
        let bytes = f.to_frozen_bytes();
        assert_eq!(bytes, f.to_frozen_bytes(), "byte-stable encode");
        let back = RandomForest::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back.predict(&x), f.predict(&x));
        assert_eq!(back.feature_importance(), f.feature_importance());
        assert_eq!(back.n_trees(), f.n_trees());
    }

    #[test]
    fn corrupt_frozen_forest_is_refused() {
        use nn::frozen::FrozenArtifact;
        let (xv, y) = noisy_dataset(60);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let params = ForestParams { n_trees: 3, ..Default::default() };
        let f = RandomForest::fit(&x, &y, 3, params, 2);
        let good = f.to_frozen_bytes();
        for offset in [0usize, 5, good.len() / 4, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0x08;
            assert!(
                RandomForest::from_frozen_bytes(&bad).is_err(),
                "flip at {offset} must be refused"
            );
        }
        assert!(RandomForest::from_frozen_bytes(&good[..good.len() - 2]).is_err(), "truncated");
    }

    #[test]
    fn n_trees_respected() {
        let (xv, y) = noisy_dataset(50);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let params = ForestParams { n_trees: 5, ..Default::default() };
        let f = RandomForest::fit(&x, &y, 3, params, 1);
        assert_eq!(f.n_trees(), 5);
    }
}
