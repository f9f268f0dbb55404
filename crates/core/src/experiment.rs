//! Packet-level experiment runner: one "cell" of Tables 3–7.
//!
//! A cell = (task, model, split policy, frozen?) trained under the
//! paper's protocol (§5): per-flow or per-packet split, balanced
//! training set, 3-fold cross-validation, frozen or unfrozen encoder,
//! accuracy + macro-F1 on the untouched test partition.

use crate::metrics::{accuracy, macro_f1};
use crate::pipeline::{PreparedTask, TokenMatrix, TokenVariant};
use crate::standardize::Standardizer;
use dataset::record::{PacketRecord, Prepared};
use dataset::split::{balanced_undersample, kfold, subsample, Split};
use dataset::transform::{randomize_dataset_flow_ids, InputAblation};
use dataset::Task;
use encoders::model::{EncoderModel, ModelKind};
use encoders::pcap_encoder::{pretrain_pcap_encoder, PcapEncoderVariant, PretrainBudget};
use encoders::pretrain::{mae_pretrain, pretrain_corpus, sbp_pretrain};
use nn::{Mlp, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
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

/// The examples one encoder cell trains and tests on. Indices point
/// into the cell's example space: dataset rows for packet cells, flow
/// samples for flow cells.
pub(crate) struct CellSample {
    pub train: Vec<usize>,
    pub train_labels: Vec<u16>,
    pub test: Vec<usize>,
    pub test_labels: Vec<u16>,
    pub n_classes: usize,
    /// Salt of the k-fold assignment: `0xe` for packet cells, `0x3f`
    /// for flow cells.
    pub fold_salt: u64,
}

impl CellSample {
    /// The protocol's packet sample (§5): the training partition
    /// balanced by undersampling to the minority class, then as
    /// [`CellSample::from_pool`].
    pub fn balanced(task: Task, data: &Prepared, split: &Split, cfg: &CellConfig) -> CellSample {
        let label_of = |r: &PacketRecord| task.label_of(data, r);
        let pool = balanced_undersample(data, &split.train, &label_of, cfg.seed ^ 0xb);
        CellSample::from_pool(task, data, split, &pool, cfg)
    }

    /// A packet sample over a caller's training pool: `pool` capped at
    /// `max_train`, and a stratified sample of the test partition
    /// capped at `max_test`.
    pub fn from_pool(
        task: Task,
        data: &Prepared,
        split: &Split,
        pool: &[usize],
        cfg: &CellConfig,
    ) -> CellSample {
        let label_of = |r: &PacketRecord| task.label_of(data, r);
        let train = subsample(pool, cfg.max_train, cfg.seed ^ 0xc);
        let test = dataset::split::stratified_sample(
            data,
            &split.test,
            (cfg.max_test as f64 / split.test.len().max(1) as f64).min(1.0),
            &label_of,
            cfg.seed ^ 0xd,
        );
        let labels = |idx: &[usize]| idx.iter().map(|&i| label_of(&data.records[i])).collect();
        CellSample {
            train_labels: labels(&train),
            test_labels: labels(&test),
            train,
            test,
            n_classes: task.n_classes(),
            fold_salt: 0xe,
        }
    }
}

/// Predictions of one trained fold and the wall-clock it took.
pub(crate) struct FoldRun {
    pub preds: Vec<u16>,
    /// Seconds spent embedding the training set and training.
    pub train_secs: f64,
    /// Seconds spent embedding the test set and predicting.
    pub infer_secs: f64,
}

/// The standardised frozen head, the one head recipe of every frozen
/// classifier: z-score the training embedding, fit a fresh 2-layer MLP
/// (init seed `seed`, batch-order seed `seed ^ 1`), then standardise
/// the test embedding with the training statistics and predict.
pub(crate) fn frozen_head(
    embed_train: impl FnOnce() -> Tensor,
    train_labels: &[u16],
    embed_test: impl FnOnce() -> Tensor,
    n_classes: usize,
    cfg: &CellConfig,
    seed: u64,
) -> FoldRun {
    let t0 = Instant::now();
    let mut x = embed_train();
    let standardizer = Standardizer::fit(&x);
    standardizer.apply(&mut x);
    let mut head = Mlp::new(&[x.cols, cfg.head_hidden, n_classes], seed);
    head.fit(&x, train_labels, cfg.frozen_epochs, cfg.batch, cfg.lr, seed ^ 0x1);
    let train_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut x_test = embed_test();
    standardizer.apply(&mut x_test);
    let preds = head.predict(&x_test);
    FoldRun { preds, train_secs, infer_secs: t1.elapsed().as_secs_f64() }
}

/// The one fine-tune loop: trains `enc` end to end together with a
/// fresh head (init seed `seed`, shuffle seed `seed ^ 2`) on the
/// examples `rows`. `tokens` turns a batch of examples into token rows
/// for the given epoch.
pub(crate) fn fine_tune(
    mut enc: EncoderModel,
    rows: &[usize],
    labels: &[u16],
    n_classes: usize,
    cfg: &CellConfig,
    seed: u64,
    tokens: impl Fn(&EncoderModel, &[usize], u64) -> Vec<Vec<u32>>,
) -> (EncoderModel, Mlp) {
    // wider encoders need proportionally smaller steps or the
    // representation churns faster than the head can track
    let lr_enc = cfg.lr_encoder * (64.0 / enc.dim() as f32).min(1.0);
    let mut head = Mlp::new(&[enc.dim(), cfg.head_hidden, n_classes], seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut pooled = Tensor::default();
    let mut d_pooled = Tensor::default();
    for epoch in 0..cfg.unfrozen_epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch) {
            let batch: Vec<usize> = chunk.iter().map(|&i| rows[i]).collect();
            let batch_labels: Vec<u16> = chunk.iter().map(|&i| labels[i]).collect();
            enc.forward_tokens_into(&tokens(&enc, &batch, epoch as u64), &mut pooled);
            head.train_batch_into(&pooled, &batch_labels, cfg.lr, &mut d_pooled);
            enc.backward(&d_pooled, lr_enc);
        }
    }
    (enc, head)
}

/// The k-fold loop every encoder cell shares: `fold` trains on one
/// fold's training examples under the fold seed `cfg.seed + i` and
/// predicts the test set; the scores are averaged into a `CellResult`.
fn kfold_cell(
    sample: &CellSample,
    cfg: &CellConfig,
    mut fold: impl FnMut(&[usize], &[u16], u64) -> FoldRun,
) -> CellResult {
    let positions: Vec<usize> = (0..sample.train.len()).collect();
    let mut folds = Vec::new();
    let mut train_secs = 0.0;
    let mut infer_secs = 0.0;
    for (fold_i, (fold_train, _fold_val)) in
        kfold(&positions, cfg.kfolds, cfg.seed ^ sample.fold_salt).into_iter().enumerate()
    {
        let rows: Vec<usize> = fold_train.iter().map(|&p| sample.train[p]).collect();
        let labels: Vec<u16> = fold_train.iter().map(|&p| sample.train_labels[p]).collect();
        let run = fold(&rows, &labels, cfg.seed.wrapping_add(fold_i as u64));
        train_secs += run.train_secs;
        infer_secs += run.infer_secs;
        let truth = &sample.test_labels;
        folds.push((accuracy(&run.preds, truth), macro_f1(&run.preds, truth, sample.n_classes)));
    }
    let k = folds.len().max(1) as f64;
    CellResult {
        accuracy: folds.iter().map(|(a, _)| a).sum::<f64>() / k,
        macro_f1: folds.iter().map(|(_, f)| f).sum::<f64>() / k,
        train_secs,
        infer_secs,
        folds,
    }
}

/// The frozen protocol: k folds, each fitting the standardised head
/// on `embed` of its training examples. Every frozen encoder cell and
/// ablation arm runs through here and differs only in `sample` and
/// `embed`.
pub(crate) fn run_frozen(
    sample: &CellSample,
    cfg: &CellConfig,
    embed: impl Fn(&[usize]) -> Tensor,
) -> CellResult {
    kfold_cell(sample, cfg, |rows, labels, seed| {
        frozen_head(|| embed(rows), labels, || embed(&sample.test), sample.n_classes, cfg, seed)
    })
}

/// The unfrozen protocol: k folds, each fine-tuning its own copy of
/// `encoder` and predicting `embed` of the test set under it.
pub(crate) fn run_unfrozen(
    sample: &CellSample,
    encoder: &EncoderModel,
    cfg: &CellConfig,
    embed: impl Fn(&EncoderModel, &[usize]) -> Tensor,
    tokens: impl Fn(&EncoderModel, &[usize], u64) -> Vec<Vec<u32>>,
) -> CellResult {
    kfold_cell(sample, cfg, |rows, labels, seed| {
        let t0 = Instant::now();
        let (enc, head) =
            fine_tune(encoder.clone(), rows, labels, sample.n_classes, cfg, seed, &tokens);
        let train_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let preds = head.predict(&embed(&enc, &sample.test));
        FoldRun { preds, train_secs, infer_secs: t1.elapsed().as_secs_f64() }
    })
}

/// The frozen embedding of dataset rows through cached `variant` token
/// rows — the default embedding of a frozen packet cell.
pub(crate) fn token_embedding<'a>(
    prep: &PreparedTask,
    encoder: &'a EncoderModel,
    variant: TokenVariant,
) -> impl Fn(&[usize]) -> Tensor + 'a {
    let tokens = prep.tokens(encoder, variant);
    move |rows| encoder.encode_tokens(&gather(&tokens, rows))
}

/// The token rows of `rows`.
pub(crate) fn gather(tokens: &TokenMatrix, rows: &[usize]) -> Vec<Vec<u32>> {
    rows.iter().map(|&i| tokens[i].clone()).collect()
}

/// Unfrozen training tokens of dataset rows, with the model's
/// training-time augmentation.
pub(crate) fn training_tokens(
    data: &Prepared,
) -> impl Fn(&EncoderModel, &[usize], u64) -> Vec<Vec<u32>> + '_ {
    move |enc, rows, epoch| {
        let recs: Vec<&PacketRecord> = rows.iter().map(|&i| &data.records[i]).collect();
        enc.tokenize_training_batch(&recs, epoch)
    }
}

/// Run one packet-level cell.
pub fn run_cell(
    prep: &PreparedTask,
    encoder: &EncoderModel,
    split_policy: SplitPolicy,
    frozen: bool,
    cfg: &CellConfig,
) -> CellResult {
    let split = prep.split(split_policy, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
    let owned = ablated_data(prep, &split, cfg.flow_id_ablation, cfg.seed);
    let data: &Prepared = owned.as_ref().unwrap_or(&prep.data);
    let sample = CellSample::balanced(prep.task, data, &split, cfg);

    // Only tokenisation reads the input ablation, so the encoder is
    // copied just when the cell asks for a different one.
    let encoder: Cow<EncoderModel> = if encoder.ablation == cfg.input_ablation {
        Cow::Borrowed(encoder)
    } else {
        let mut copy = encoder.clone();
        copy.ablation = cfg.input_ablation;
        Cow::Owned(copy)
    };

    // Token rows depend only on the encoder's kind and input ablation —
    // never on its weights — so when the cell runs over the canonical
    // records (no flow-id ablation rewriting frames) the tokenisation is
    // shared across folds, cells, and models of the same kind through
    // the artifact cache.
    let cached_tokens = owned.is_none().then(|| prep.tokens(&encoder, TokenVariant::Repeated));
    let embed = |enc: &EncoderModel, rows: &[usize]| match &cached_tokens {
        Some(tok) => enc.encode_tokens(&gather(tok, rows)),
        None => {
            let recs: Vec<&PacketRecord> = rows.iter().map(|&i| &data.records[i]).collect();
            enc.encode_packets(&recs)
        }
    };
    if frozen {
        run_frozen(&sample, cfg, |rows| embed(&encoder, rows))
    } else {
        run_unfrozen(&sample, &encoder, cfg, embed, training_tokens(data))
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
    fn frozen_protocol_with_the_default_embedding_is_run_cell() {
        let prep = PreparedTask::build(Task::UstcApp, 5, 0.1);
        let enc = EncoderModel::new(ModelKind::YaTc, 4);
        let cfg = tiny_cfg();
        let split =
            prep.split(SplitPolicy::PerFlow, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
        let sample = CellSample::balanced(prep.task, &prep.data, &split, &cfg);
        let shared =
            run_frozen(&sample, &cfg, token_embedding(&prep, &enc, TokenVariant::Repeated));
        let cell = run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &cfg);
        assert_eq!(shared.accuracy.to_bits(), cell.accuracy.to_bits());
        assert_eq!(shared.macro_f1.to_bits(), cell.macro_f1.to_bits());
        assert_eq!(shared.folds, cell.folds);
        assert_eq!(cell.folds.len(), cfg.kfolds);
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
