//! Packet-level experiment runner: one "cell" of Tables 3–7.
//!
//! A cell = (task, model, split policy, frozen?) trained under the
//! paper's protocol (§5): per-flow or per-packet split, balanced
//! training set, 3-fold cross-validation, frozen or unfrozen encoder,
//! accuracy + macro-F1 on the untouched test partition.

use crate::metrics::{accuracy, macro_f1};
use crate::pipeline::{PreparedTask, TokenMatrix, TokenVariant};
use dataset::record::{PacketRecord, Prepared};
use dataset::split::{balanced_undersample, kfold, subsample, Split};
use dataset::transform::{randomize_dataset_flow_ids, InputAblation};
use encoders::model::{EncoderModel, ModelKind};
use encoders::pcap_encoder::{pretrain_pcap_encoder, PcapEncoderVariant, PretrainBudget};
use encoders::pretrain::{mae_pretrain, pretrain_corpus, sbp_pretrain};
use nn::{Mlp, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Train/test split policy (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Whole flows assigned to one partition (correct).
    PerFlow,
    /// Packets shuffled freely (leaks implicit flow IDs).
    PerPacket,
}

/// Where to apply the implicit-flow-ID randomisation (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowIdAblation {
    /// Leave SeqNo/AckNo/timestamps untouched.
    None,
    /// Randomise them in the test set only.
    TestOnly,
    /// Randomise them in both partitions.
    TrainAndTest,
}

/// Hyper-parameters for one cell.
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    /// Hidden width of the 2-layer MLP head.
    pub head_hidden: usize,
    /// Epochs when the encoder is frozen (paper: 60 at lr 2e-3).
    pub frozen_epochs: usize,
    /// Epochs when the encoder is unfrozen (paper: 20 at lr 2e-5).
    pub unfrozen_epochs: usize,
    /// Head learning rate.
    pub lr: f32,
    /// Encoder learning rate for unfrozen training.
    pub lr_encoder: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// K for K-fold cross validation (paper: 3).
    pub kfolds: usize,
    /// Cap on balanced training samples (keeps single-core runs sane).
    pub max_train: usize,
    /// Cap on test samples (stratified).
    pub max_test: usize,
    /// Train fraction of the split.
    pub train_frac: f64,
    /// Long-flow packet cap (paper: 1000).
    pub max_flow_packets: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Implicit-flow-ID ablation (Table 6).
    pub flow_id_ablation: FlowIdAblation,
    /// Input ablation for Pcap-Encoder (Table 7).
    pub input_ablation: InputAblation,
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            head_hidden: 128,
            frozen_epochs: 40,
            unfrozen_epochs: 15,
            lr: 0.01,
            lr_encoder: 0.02,
            batch: 64,
            kfolds: 3,
            max_train: 9600,
            max_test: 4800,
            train_frac: 7.0 / 8.0,
            max_flow_packets: 1000,
            seed: 42,
            flow_id_ablation: FlowIdAblation::None,
            input_ablation: InputAblation::Base,
        }
    }
}

/// Metrics for one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Mean test accuracy over folds.
    pub accuracy: f64,
    /// Mean test macro-F1 over folds.
    pub macro_f1: f64,
    /// Wall-clock training time (all folds).
    pub train_secs: f64,
    /// Wall-clock inference time (all folds).
    pub infer_secs: f64,
    /// Per-fold (accuracy, macro-F1).
    pub folds: Vec<(f64, f64)>,
}

/// Build an encoder for `kind`, optionally pre-trained with its paper
/// objective (MAE for all, +SBP for ET-BERT, AE+Q&A for Pcap-Encoder).
pub fn build_encoder(
    kind: ModelKind,
    pretrained: bool,
    budget: PretrainBudget,
    seed: u64,
) -> EncoderModel {
    if !pretrained {
        return EncoderModel::new(kind, seed);
    }
    match kind {
        ModelKind::PcapEncoder => {
            pretrain_pcap_encoder(PcapEncoderVariant::AutoencoderQa, budget, seed).model
        }
        // PacRep uses an off-the-shelf text encoder with no network
        // pretext task (Table 1: "None") — nothing to pre-train here.
        ModelKind::PacRep => EncoderModel::new(kind, seed),
        _ => {
            let mut m = EncoderModel::new(kind, seed);
            let corpus = pretrain_corpus(seed ^ 0x77, budget.corpus_flows);
            mae_pretrain(&mut m, &corpus, budget.ae_epochs, budget.lr, seed ^ 0x78);
            if kind == ModelKind::EtBert {
                sbp_pretrain(&mut m, &corpus, 256, budget.lr, seed ^ 0x79);
            }
            if kind == ModelKind::Ptu {
                // SSP (same-session prediction: sessions == flows in our
                // substrate) + HIP/FIP interval prediction.
                sbp_pretrain(&mut m, &corpus, 256, budget.lr, seed ^ 0x7a);
                encoders::pretrain::interval_pretrain(
                    &mut m,
                    &corpus,
                    budget.ae_epochs,
                    budget.lr,
                    seed ^ 0x7b,
                );
            }
            m
        }
    }
}

/// Materialise (possibly transformed) records for a cell. Returns an
/// owned `Prepared` when the ablation rewrites frames, otherwise the
/// original is used as-is through the returned reference.
fn ablated_data(
    prep: &PreparedTask,
    split: &Split,
    ablation: FlowIdAblation,
    seed: u64,
) -> Option<Prepared> {
    if ablation == FlowIdAblation::None {
        return None;
    }
    let mut data = (*prep.data).clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf10);
    match ablation {
        FlowIdAblation::TestOnly => {
            // randomise only records in the test partition
            let test_set: std::collections::HashSet<usize> = split.test.iter().copied().collect();
            for (i, r) in data.records.iter_mut().enumerate() {
                if test_set.contains(&i) {
                    let one = std::slice::from_mut(r);
                    randomize_dataset_flow_ids(one, &mut rng);
                }
            }
        }
        FlowIdAblation::TrainAndTest => {
            randomize_dataset_flow_ids(&mut data.records, &mut rng);
        }
        FlowIdAblation::None => unreachable!(),
    }
    Some(data)
}

/// Run one packet-level cell.
pub fn run_cell(
    prep: &PreparedTask,
    encoder: &EncoderModel,
    split_policy: SplitPolicy,
    frozen: bool,
    cfg: &CellConfig,
) -> CellResult {
    let task = prep.task;
    let split = prep.split(split_policy, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
    let owned = ablated_data(prep, &split, cfg.flow_id_ablation, cfg.seed);
    let data: &Prepared = owned.as_ref().unwrap_or(&prep.data);

    let label_of = |r: &PacketRecord| task.label_of(data, r);
    // Balanced training set (undersample to minority), capped.
    let train_bal = balanced_undersample(data, &split.train, &label_of, cfg.seed ^ 0xb);
    let train_bal = subsample(&train_bal, cfg.max_train, cfg.seed ^ 0xc);
    let test_idx = dataset::split::stratified_sample(
        data,
        &split.test,
        (cfg.max_test as f64 / split.test.len().max(1) as f64).min(1.0),
        &label_of,
        cfg.seed ^ 0xd,
    );
    let n_classes = task.n_classes();
    let test_labels: Vec<u16> = test_idx.iter().map(|&i| label_of(&data.records[i])).collect();
    let test_recs: Vec<&PacketRecord> = test_idx.iter().map(|&i| &data.records[i]).collect();

    let mut encoder = encoder.clone();
    encoder.ablation = cfg.input_ablation;

    // Token rows depend only on the encoder's kind and input ablation —
    // never on its weights — so when the cell runs over the canonical
    // records (no flow-id ablation rewriting frames) the tokenisation is
    // shared across folds, cells, and models of the same kind through
    // the artifact cache.
    let cached_tokens = owned.is_none().then(|| prep.tokens(&encoder, TokenVariant::Repeated));
    let gather = |tok: &TokenMatrix, idx: &[usize]| -> Vec<Vec<u32>> {
        idx.iter().map(|&i| tok[i].clone()).collect()
    };

    let mut folds_out = Vec::new();
    let mut train_secs = 0.0;
    let mut infer_secs = 0.0;
    for (fold_i, (fold_train, _fold_val)) in
        kfold(&train_bal, cfg.kfolds, cfg.seed ^ 0xe).into_iter().enumerate()
    {
        let fold_seed = cfg.seed.wrapping_add(fold_i as u64);
        let train_labels: Vec<u16> =
            fold_train.iter().map(|&i| label_of(&data.records[i])).collect();
        let train_recs: Vec<&PacketRecord> = fold_train.iter().map(|&i| &data.records[i]).collect();

        let t0 = Instant::now();
        let (head, trained_encoder, standardizer) = if frozen {
            let mut x = match &cached_tokens {
                Some(tok) => encoder.encode_tokens(&gather(tok, &fold_train)),
                None => encoder.encode_packets(&train_recs),
            };
            let standardizer = crate::standardize::Standardizer::fit(&x);
            standardizer.apply(&mut x);
            let mut head = Mlp::new(&[encoder.dim(), cfg.head_hidden, n_classes], fold_seed);
            head.fit(&x, &train_labels, cfg.frozen_epochs, cfg.batch, cfg.lr, fold_seed ^ 0x1);
            (head, encoder.clone(), Some(standardizer))
        } else {
            let mut enc = encoder.clone();
            // wider encoders need proportionally smaller steps or the
            // representation churns faster than the head can track
            let lr_enc = cfg.lr_encoder * (64.0 / enc.dim() as f32).min(1.0);
            let mut head = Mlp::new(&[enc.dim(), cfg.head_hidden, n_classes], fold_seed);
            let mut rng = StdRng::seed_from_u64(fold_seed ^ 0x2);
            let mut order: Vec<usize> = (0..train_recs.len()).collect();
            let mut pooled = Tensor::default();
            let mut d_pooled = Tensor::default();
            for epoch in 0..cfg.unfrozen_epochs {
                order.shuffle(&mut rng);
                for chunk in order.chunks(cfg.batch) {
                    let recs: Vec<&PacketRecord> = chunk.iter().map(|&i| train_recs[i]).collect();
                    let labels: Vec<u16> = chunk.iter().map(|&i| train_labels[i]).collect();
                    let tokens = enc.tokenize_training_batch(&recs, epoch as u64);
                    enc.forward_tokens_into(&tokens, &mut pooled);
                    head.train_batch_into(&pooled, &labels, cfg.lr, &mut d_pooled);
                    enc.backward(&d_pooled, lr_enc);
                }
            }
            (head, enc, None)
        };
        train_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut x_test = match &cached_tokens {
            Some(tok) => trained_encoder.encode_tokens(&gather(tok, &test_idx)),
            None => trained_encoder.encode_packets(&test_recs),
        };
        if let Some(s) = &standardizer {
            s.apply(&mut x_test);
        }
        let preds = head.predict(&x_test);
        infer_secs += t1.elapsed().as_secs_f64();
        folds_out.push((accuracy(&preds, &test_labels), macro_f1(&preds, &test_labels, n_classes)));
    }
    let k = folds_out.len().max(1) as f64;
    CellResult {
        accuracy: folds_out.iter().map(|(a, _)| a).sum::<f64>() / k,
        macro_f1: folds_out.iter().map(|(_, f)| f).sum::<f64>() / k,
        train_secs,
        infer_secs,
        folds: folds_out,
    }
}

/// Compute frozen or unfrozen embeddings of a sample of test packets —
/// input to the Fig. 4 purity analysis.
pub fn embeddings_for_purity(
    prep: &PreparedTask,
    encoder: &EncoderModel,
    n: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<u16>) {
    let split = prep.split(SplitPolicy::PerFlow, 7.0 / 8.0, 1000, seed);
    let label_of = |r: &PacketRecord| prep.task.label_of(&prep.data, r);
    let idx = subsample(&split.test, n, seed ^ 0x99);
    let labels: Vec<u16> = idx.iter().map(|&i| label_of(&prep.data.records[i])).collect();
    let tok = prep.tokens(encoder, TokenVariant::Repeated);
    let rows: Vec<Vec<u32>> = idx.iter().map(|&i| tok[i].clone()).collect();
    let emb: Tensor = encoder.encode_tokens(&rows);
    let rows = (0..emb.rows).map(|r| emb.row(r).to_vec()).collect();
    (rows, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::split::per_flow_split;
    use dataset::Task;

    fn tiny_cfg() -> CellConfig {
        CellConfig {
            frozen_epochs: 6,
            unfrozen_epochs: 3,
            kfolds: 2,
            max_train: 400,
            max_test: 400,
            ..Default::default()
        }
    }

    #[test]
    fn frozen_cell_runs_and_is_sane() {
        let prep = PreparedTask::build(Task::UstcBinary, 5, 0.15);
        let enc = EncoderModel::new(ModelKind::EtBert, 1);
        let cell = run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &tiny_cfg());
        assert!(cell.accuracy >= 0.0 && cell.accuracy <= 1.0);
        assert_eq!(cell.folds.len(), 2);
        assert!(cell.train_secs > 0.0);
    }

    #[test]
    fn unfrozen_beats_frozen_on_per_packet_split() {
        // The headline phenomenon at miniature scale: per-packet split
        // + unfrozen encoder exploits implicit flow IDs.
        let prep = PreparedTask::build(Task::UstcApp, 6, 0.15);
        let enc = EncoderModel::new(ModelKind::EtBert, 2);
        let cfg = tiny_cfg();
        let frozen = run_cell(&prep, &enc, SplitPolicy::PerPacket, true, &cfg);
        let unfrozen = run_cell(&prep, &enc, SplitPolicy::PerPacket, false, &cfg);
        assert!(
            unfrozen.accuracy > frozen.accuracy,
            "unfrozen {:.3} !> frozen {:.3}",
            unfrozen.accuracy,
            frozen.accuracy
        );
    }

    #[test]
    fn flow_id_ablation_changes_data() {
        let prep = PreparedTask::build(Task::UstcBinary, 7, 0.1);
        let split = per_flow_split(&prep.data, 0.875, 1000, 1);
        let owned = ablated_data(&prep, &split, FlowIdAblation::TrainAndTest, 1).unwrap();
        // some TCP record must differ from the original
        let mut changed = false;
        for (a, b) in prep.data.records.iter().zip(&owned.records) {
            if a.frame != b.frame {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn purity_embeddings_shape() {
        let prep = PreparedTask::build(Task::UstcBinary, 8, 0.1);
        let enc = EncoderModel::new(ModelKind::EtBert, 3);
        let (emb, labels) = embeddings_for_purity(&prep, &enc, 50, 9);
        assert_eq!(emb.len(), labels.len());
        assert!(!emb.is_empty());
        assert_eq!(emb[0].len(), enc.dim());
    }
}
