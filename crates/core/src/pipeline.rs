//! The prepare chain — generate → clean → parse, then the derived
//! token matrices, feature matrices and split index sets — served by
//! the content-addressed [`ArtifactCache`](crate::artifact::ArtifactCache).
//!
//! Each stage is defined once here: its key, its per-record row and its
//! row-group codec. [`PreparedTask`] runs a stage with the whole dataset
//! as one chunk and keeps the rows in memory;
//! [`crate::outofcore::prepare_out_of_core`] runs it one on-disk row
//! group at a time into an [`ArtifactGroupWriter`]. Both write the same
//! bytes under the same keys.
//!
//! Keys name the *dataset*, not the task, so `Task::VpnApp` and
//! `Task::VpnService` share one `Arc<Prepared>`. Builds are single-flight
//! under `--jobs N`, and rows inside a chunk are partitioned across the
//! kernel-thread budget (each row a pure function of its record), so
//! records stay byte-identical at any thread count.

use crate::artifact::{
    Artifact, ArtifactCache, ArtifactGroupWriter, RowGroup, RowGroupFile, ROW_GROUP_ROWS,
};
use crate::experiment::SplitPolicy;
use dataset::clean::{CleanReport, StreamingCleaner};
use dataset::codec::{rows_from_bytes, rows_to_bytes, ByteReader, ByteWriter, Row};
use dataset::record::{read_classes, write_classes, PacketRecord, Prepared};
use dataset::split::{per_flow_split_on, per_packet_split_on, FlowClassView, Split};
use dataset::task::Task;
use encoders::model::EncoderModel;
use shallow::features::{extract_features, FeatureConfig, N_FEATURES};
use std::ops::Deref;
use std::sync::Arc;
use traffic_synth::trace::{ClassMeta, Trace, TraceRecord};
use traffic_synth::DatasetSpec;

/// The content address of the dataset `spec` generates, extended by
/// every derived product's key. It names the resolved flow count, not
/// the scale; the `fpc` prefix keeps it apart from old milli-scale keys.
pub(crate) fn dataset_key(spec: &DatasetSpec) -> [String; 3] {
    let fpc = format!("fpc{}", spec.flows_per_class);
    [spec.kind.name().to_string(), format!("{:016x}", spec.seed), fpc]
}

/// The key parts of a product derived from `dataset`.
pub(crate) fn derived_key<'a>(dataset: &'a [String], extra: &'a [impl AsRef<str>]) -> Vec<&'a str> {
    dataset.iter().map(String::as_str).chain(extra.iter().map(AsRef::as_ref)).collect()
}

/// Split `rows` into row groups of at most [`ROW_GROUP_ROWS`] rows,
/// each encoded on its own.
fn encode_groups<R: Row>(rows: &[R]) -> impl Iterator<Item = RowGroup> + '_ {
    rows.chunks(ROW_GROUP_ROWS).map(|c| RowGroup { rows: c.len() as u64, bytes: rows_to_bytes(c) })
}

/// Decode row groups and concatenate their rows.
fn decode_groups<R: Row>(groups: &[Vec<u8>]) -> Result<Vec<R>, String> {
    let mut rows = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        rows.extend(rows_from_bytes(g).map_err(|e| format!("row group {i}: {e}"))?);
    }
    Ok(rows)
}

/// Encode `rows` into row groups of the artifact `w` is writing.
pub(crate) fn push_rows<R: Row>(w: &mut ArtifactGroupWriter, rows: &[R]) -> Result<(), String> {
    encode_groups(rows).try_for_each(|g| w.push_group(g.rows, &g.bytes))
}

/// The product of the generate → clean → parse chain for one dataset:
/// cleaned records plus the cleaning report, cached as a single
/// artifact.
pub struct DatasetArtifact {
    /// Cleaned, parsed dataset.
    pub data: Arc<Prepared>,
    /// What cleaning removed (Table 13 inputs).
    pub clean: Arc<CleanReport>,
}

/// The dataset stage: clean `trace` with [`StreamingCleaner`], parse
/// the kept frames, and hand the records to `sink` in chunks of
/// [`ROW_GROUP_ROWS`]. Returns the cleaning report.
fn clean_into(
    trace: impl IntoIterator<Item = TraceRecord>,
    mut sink: impl FnMut(Vec<PacketRecord>) -> Result<(), String>,
) -> Result<CleanReport, String> {
    let mut cleaner = StreamingCleaner::new();
    let mut chunk = Vec::with_capacity(ROW_GROUP_ROWS);
    for rec in trace {
        if !cleaner.accept(&rec.frame) {
            continue;
        }
        if let Some(record) = PacketRecord::from_trace_record(&rec) {
            chunk.push(record);
            if chunk.len() == ROW_GROUP_ROWS {
                sink(std::mem::replace(&mut chunk, Vec::with_capacity(ROW_GROUP_ROWS)))?;
            }
        }
    }
    if !chunk.is_empty() {
        sink(chunk)?;
    }
    Ok(cleaner.finish())
}

/// Encode the trailing metadata group of a dataset artifact.
fn meta_group(classes: &[ClassMeta], clean: &CleanReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_classes(&mut w, classes);
    w.bytes(&clean.to_bytes());
    w.into_bytes()
}

impl DatasetArtifact {
    /// Clean and parse `trace` into memory, consuming it record by
    /// record.
    pub fn from_trace(trace: Trace) -> DatasetArtifact {
        let mut records = Vec::new();
        let clean = clean_into(trace.records, |chunk| {
            records.extend(chunk);
            Ok(())
        })
        .expect("the memory sink cannot fail");
        DatasetArtifact {
            data: Arc::new(Prepared { records, classes: trace.classes }),
            clean: Arc::new(clean),
        }
    }

    /// Stream `trace` into the dataset artifact `w` is writing: the
    /// record groups, then the metadata group.
    pub(crate) fn write(
        trace: impl IntoIterator<Item = TraceRecord>,
        classes: &[ClassMeta],
        w: &mut ArtifactGroupWriter,
    ) -> Result<(), String> {
        let clean = clean_into(trace, |chunk| push_rows(w, &chunk))?;
        w.push_group(0, &meta_group(classes, &clean))
    }

    /// The record chunks of a dataset artifact on disk, one row group
    /// at a time.
    pub(crate) fn record_chunks(
        file: &mut RowGroupFile,
    ) -> Result<impl Iterator<Item = Result<Vec<PacketRecord>, String>> + '_, String> {
        let n = file.n_groups().checked_sub(1).ok_or("dataset artifact has no groups")?;
        Ok((0..n).map(|i| rows_from_bytes(&file.read_group(i)?)))
    }
}

impl Artifact for DatasetArtifact {
    const STAGE: &'static str = "prepared";

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&self.data.to_bytes());
        w.bytes(&self.clean.to_bytes());
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<DatasetArtifact, String> {
        let mut r = ByteReader::new(bytes);
        let data = Prepared::from_bytes(r.bytes()?)?;
        let clean = CleanReport::from_bytes(r.bytes()?)?;
        r.finish()?;
        Ok(DatasetArtifact { data: Arc::new(data), clean: Arc::new(clean) })
    }

    /// v2 grouping: record chunks first, then one metadata group
    /// (class table + clean report). The metadata goes **last** because
    /// the streaming writer only knows the clean report after the final
    /// record chunk has been tallied.
    fn to_groups(&self) -> Vec<RowGroup> {
        let meta = RowGroup { rows: 0, bytes: meta_group(&self.data.classes, &self.clean) };
        encode_groups(&self.data.records).chain([meta]).collect()
    }

    fn from_groups(groups: Vec<Vec<u8>>) -> Result<DatasetArtifact, String> {
        let (meta, chunks) =
            groups.split_last().ok_or("prepared artifact needs a metadata group")?;
        let records = decode_groups(chunks)?;
        let mut r = ByteReader::new(meta);
        let classes = read_classes(&mut r)?;
        let clean = CleanReport::from_bytes(r.bytes()?)?;
        r.finish()?;
        Ok(DatasetArtifact {
            data: Arc::new(Prepared { records, classes }),
            clean: Arc::new(clean),
        })
    }
}

/// A per-record stage: a whole-dataset matrix with one row per record
/// (derefs to the rows in record order), the key parts that address it
/// after the dataset key, and the row each record maps to.
pub trait RowStage:
    Deref<Target = [<Self as RowStage>::Row]> + Send + Sync + Sized + 'static
{
    /// Artifact stage name, part of the content address.
    const STAGE: &'static str;
    /// The `obs` stage an in-RAM build is timed under.
    const TIMER: &'static str;
    /// What configures the rows.
    type Config<'a>: Copy + Sync;
    /// The row of one record.
    type Row: Row + Send + Sync;
    /// Key parts after the dataset key.
    fn parts(cfg: Self::Config<'_>) -> Vec<&'static str>;
    /// The row of `rec`.
    fn row(cfg: Self::Config<'_>, rec: &PacketRecord) -> Self::Row;
    /// Wrap rows in record order.
    fn from_rows(rows: Vec<Self::Row>) -> Self;
}

/// The rows of one chunk of records: the whole dataset in RAM, one row
/// group out of core. Rows are partitioned across the kernel-thread
/// budget.
pub(crate) fn stage_rows<S: RowStage>(cfg: S::Config<'_>, records: &[PacketRecord]) -> Vec<S::Row> {
    par_rows(records.len(), |i| S::row(cfg, &records[i]))
}

/// Every per-record stage stores its rows in [`ROW_GROUP_ROWS`] groups.
impl<S: RowStage> Artifact for S {
    const STAGE: &'static str = <S as RowStage>::STAGE;

    fn to_bytes(&self) -> Vec<u8> {
        rows_to_bytes(&self[..])
    }

    fn from_bytes(bytes: &[u8]) -> Result<S, String> {
        rows_from_bytes(bytes).map(S::from_rows)
    }

    fn to_groups(&self) -> Vec<RowGroup> {
        encode_groups(&self[..]).collect()
    }

    fn from_groups(groups: Vec<Vec<u8>>) -> Result<S, String> {
        decode_groups(&groups).map(S::from_rows)
    }
}

/// Whole-dataset token matrix: one token row per record for a fixed
/// (model kind, input ablation, variant).
pub struct TokenMatrix(pub Vec<Vec<u32>>);

impl Deref for TokenMatrix {
    type Target = [Vec<u32>];
    fn deref(&self) -> &[Vec<u32>] {
        &self.0
    }
}

/// Tokenisation depends only on the model *kind* (its hash salt and
/// byte view) and the input ablation — never on weights — so the key is
/// (kind, ablation, variant).
impl RowStage for TokenMatrix {
    const STAGE: &'static str = "tokens";
    const TIMER: &'static str = "tokenize";
    type Config<'a> = (&'a EncoderModel, TokenVariant);
    type Row = Vec<u32>;
    fn parts((encoder, variant): Self::Config<'_>) -> Vec<&'static str> {
        vec![encoder.kind.name(), encoder.ablation.cache_tag(), variant.tag()]
    }
    fn row((encoder, variant): Self::Config<'_>, rec: &PacketRecord) -> Vec<u32> {
        variant.tokenize(encoder, rec)
    }
    fn from_rows(rows: Vec<Vec<u32>>) -> TokenMatrix {
        TokenMatrix(rows)
    }
}

/// Whole-dataset shallow feature matrix (Table 12 vectors).
pub struct FeatureMatrix(pub Vec<[f32; N_FEATURES]>);

impl Deref for FeatureMatrix {
    type Target = [[f32; N_FEATURES]];
    fn deref(&self) -> &[[f32; N_FEATURES]] {
        &self.0
    }
}

/// Keyed by whether the IP fields are kept.
impl RowStage for FeatureMatrix {
    const STAGE: &'static str = "features";
    const TIMER: &'static str = "featurize";
    type Config<'a> = FeatureConfig;
    type Row = [f32; N_FEATURES];
    fn parts(cfg: FeatureConfig) -> Vec<&'static str> {
        vec![if cfg.with_ip { "ip" } else { "no-ip" }]
    }
    fn row(cfg: FeatureConfig, rec: &PacketRecord) -> [f32; N_FEATURES] {
        extract_features(rec, cfg)
    }
    fn from_rows(rows: Vec<[f32; N_FEATURES]>) -> FeatureMatrix {
        FeatureMatrix(rows)
    }
}

impl Artifact for Split {
    const STAGE: &'static str = "split";

    fn to_bytes(&self) -> Vec<u8> {
        Split::to_bytes(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Split, String> {
        Split::from_bytes(bytes)
    }
}

/// Which per-record tokenisation a [`TokenMatrix`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenVariant {
    /// [`EncoderModel::tokenize_packet_repeated`] rows (training/eval).
    Repeated,
    /// [`EncoderModel::tokenize_packet_padded`] rows (padding probe).
    Padded,
}

impl TokenVariant {
    /// Cache-key tag (part of the token artifact's content address).
    pub fn tag(self) -> &'static str {
        match self {
            TokenVariant::Repeated => "repeated",
            TokenVariant::Padded => "padded",
        }
    }

    /// The token row of `rec` under this variant.
    pub fn tokenize(self, encoder: &EncoderModel, rec: &PacketRecord) -> Vec<u32> {
        match self {
            TokenVariant::Repeated => encoder.tokenize_packet_repeated(rec),
            TokenVariant::Padded => encoder.tokenize_packet_padded(rec),
        }
    }
}

/// Build one output row per record index, partitioning rows across the
/// `nn::kernel_threads` budget. `f` must be a pure function of its
/// index, so the result is identical to the serial loop for any thread
/// count — the same contract as the PR 2 kernels.
fn par_rows<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = nn::kernel_threads().clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(ci * chunk + j));
                }
            });
        }
    });
    out.into_iter().map(|o| o.expect("every row filled")).collect()
}

/// One split artifact: the parameters of [`PreparedTask::split`], which
/// also address it.
#[derive(Debug, Clone, Copy)]
pub struct SplitRequest {
    /// Per-flow (correct) or per-packet (leaky) assignment.
    pub policy: SplitPolicy,
    /// Train fraction (keyed by its exact bit pattern).
    pub train_frac: f64,
    /// Per-flow cap (per-flow policy only; ignored per-packet).
    pub max_flow_packets: usize,
    /// Split RNG seed.
    pub seed: u64,
}

impl SplitRequest {
    /// Key parts after the dataset key. The per-packet policy ignores
    /// `max_flow_packets`, so its key leaves it out.
    pub fn parts(&self) -> Vec<String> {
        let frac = format!("{:016x}", self.train_frac.to_bits());
        let seed = format!("{:016x}", self.seed);
        match self.policy {
            SplitPolicy::PerFlow => {
                vec!["per-flow".to_string(), frac, self.max_flow_packets.to_string(), seed]
            }
            SplitPolicy::PerPacket => vec!["per-packet".to_string(), frac, seed],
        }
    }

    /// Compute the split on a dataset's split view.
    pub fn build(&self, view: &FlowClassView) -> Split {
        match self.policy {
            SplitPolicy::PerFlow => {
                per_flow_split_on(view, self.train_frac, self.max_flow_packets, self.seed)
            }
            SplitPolicy::PerPacket => per_packet_split_on(view, self.train_frac, self.seed),
        }
    }
}

/// A task together with its prepared (cleaned, parsed) dataset and a
/// handle to the artifact cache serving its derived products.
#[derive(Clone)]
pub struct PreparedTask {
    /// The downstream task.
    pub task: Task,
    /// Cleaned dataset.
    pub data: Arc<Prepared>,
    /// What cleaning removed (Table 13 inputs).
    pub clean_report: Arc<CleanReport>,
    /// Seed used for generation.
    pub seed: u64,
    artifacts: Arc<ArtifactCache>,
    dataset_key: [String; 3],
}

impl PreparedTask {
    /// Generate, clean and parse the dataset backing `task`.
    /// `scale` multiplies the default flow budget. Always builds fresh
    /// (private memory-only cache) — shared callers go through
    /// [`TaskCache`].
    pub fn build(task: Task, seed: u64, scale: f64) -> PreparedTask {
        TaskCache::new().get(task, seed, scale)
    }

    /// Wrap an externally prepared dataset (e.g. fault-injected traffic
    /// that never went through the canonical prepare chain). Derived
    /// artifacts use a private memory-only cache, so they can neither
    /// alias nor pollute the canonical dataset's artifacts.
    pub fn from_parts(
        task: Task,
        data: Arc<Prepared>,
        clean_report: Arc<CleanReport>,
        seed: u64,
    ) -> PreparedTask {
        let dataset_key =
            [task.dataset().name().to_string(), format!("{seed:016x}"), "external".to_string()];
        PreparedTask {
            task,
            data,
            clean_report,
            seed,
            artifacts: Arc::new(ArtifactCache::new(None)),
            dataset_key,
        }
    }

    /// Per-packet label vector for a set of indices under this task.
    pub fn labels(&self, indices: &[usize]) -> Vec<u16> {
        self.task.labels(&self.data, indices)
    }

    /// Whole-dataset shallow feature matrix for `cfg`, cached.
    pub fn features(&self, cfg: FeatureConfig) -> Arc<FeatureMatrix> {
        self.rows::<FeatureMatrix>(cfg)
    }

    /// Whole-dataset token matrix for `encoder`, cached.
    pub fn tokens(&self, encoder: &EncoderModel, variant: TokenVariant) -> Arc<TokenMatrix> {
        self.rows::<TokenMatrix>((encoder, variant))
    }

    /// Run stage `S` over the whole dataset as one chunk, cached.
    fn rows<S: RowStage>(&self, cfg: S::Config<'_>) -> Arc<S> {
        let data = self.data.clone();
        let obs = self.artifacts.obs();
        self.artifacts.get_or_build(&derived_key(&self.dataset_key, &S::parts(cfg)), || {
            obs.time_stage(S::TIMER, || S::from_rows(stage_rows::<S>(cfg, &data.records)))
        })
    }

    /// Train/test split for this dataset under `policy`, cached.
    pub fn split(
        &self,
        policy: SplitPolicy,
        train_frac: f64,
        max_flow_packets: usize,
        seed: u64,
    ) -> Arc<Split> {
        let request = SplitRequest { policy, train_frac, max_flow_packets, seed };
        let data = self.data.clone();
        let obs = self.artifacts.obs();
        self.artifacts.get_or_build(&derived_key(&self.dataset_key, &request.parts()), || {
            obs.time_stage("split", || request.build(&FlowClassView::of(&data)))
        })
    }
}

/// Process-wide cache over the prepare chain. Thin handle around an
/// [`ArtifactCache`]: keyed by dataset ([`dataset_key`]) — *not* by
/// `Task`, so tasks sharing a dataset share one build — with
/// single-flight misses and an optional disk tier.
#[derive(Default)]
pub struct TaskCache {
    artifacts: Arc<ArtifactCache>,
}

impl TaskCache {
    /// New memory-only cache.
    pub fn new() -> TaskCache {
        TaskCache::default()
    }

    /// Cache backed by a shared artifact store (possibly with a disk
    /// tier under `--cache-dir`).
    pub fn with_artifacts(artifacts: Arc<ArtifactCache>) -> TaskCache {
        TaskCache { artifacts }
    }

    /// The backing artifact store.
    pub fn artifacts(&self) -> &Arc<ArtifactCache> {
        &self.artifacts
    }

    /// Get or build the prepared dataset for a task. Concurrent misses
    /// for the same dataset block on a single build.
    pub fn get(&self, task: Task, seed: u64, scale: f64) -> PreparedTask {
        let spec = DatasetSpec::new(task.dataset(), seed).scaled(scale);
        let dataset_key = dataset_key(&spec);
        let obs = self.artifacts.obs();
        let art = self.artifacts.get_or_build(&dataset_key.each_ref().map(String::as_str), || {
            let trace = obs.time_stage("trace", || spec.generate());
            obs.time_stage("clean", || DatasetArtifact::from_trace(trace))
        });
        PreparedTask {
            task,
            data: art.data.clone(),
            clean_report: art.clean.clone(),
            seed,
            artifacts: self.artifacts.clone(),
            dataset_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn build_produces_clean_data() {
        let p = PreparedTask::build(Task::UstcBinary, 3, 0.3);
        assert!(!p.data.records.is_empty());
        assert!(p.clean_report.removed_fraction() > 0.0, "USTC has spurious traffic");
        let labels = p.labels(&[0, 1, 2]);
        assert!(labels.iter().all(|&l| l < 2));
    }

    #[test]
    fn cache_returns_same_arc() {
        let cache = TaskCache::new();
        let a = cache.get(Task::VpnBinary, 1, 0.2);
        let b = cache.get(Task::VpnBinary, 1, 0.2);
        assert!(Arc::ptr_eq(&a.data, &b.data), "second get must hit the cache");
        let c = cache.get(Task::VpnBinary, 2, 0.2);
        assert!(!Arc::ptr_eq(&a.data, &c.data), "different seeds must differ");
    }

    #[test]
    fn tasks_sharing_a_dataset_share_one_prepared_arc() {
        // VpnApp / VpnService / VpnBinary are different label functions
        // over the same ISCX-VPN trace: one build, one Arc.
        let cache = TaskCache::new();
        let app = cache.get(Task::VpnApp, 1, 0.2);
        let service = cache.get(Task::VpnService, 1, 0.2);
        let binary = cache.get(Task::VpnBinary, 1, 0.2);
        assert!(Arc::ptr_eq(&app.data, &service.data));
        assert!(Arc::ptr_eq(&app.data, &binary.data));
        assert_eq!(cache.artifacts().stats().builds, 1, "one dataset build for three tasks");
        assert_eq!(app.task, Task::VpnApp);
        assert_eq!(service.task, Task::VpnService);
    }

    #[test]
    fn concurrent_misses_are_single_flight() {
        // Regression for the old check-then-build race: parallel cells
        // asking for the same dataset must share exactly one build.
        let cache = TaskCache::new();
        let built: Vec<PreparedTask> = {
            let mut out = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..8).map(|_| s.spawn(|| cache.get(Task::UstcBinary, 5, 0.15))).collect();
                out.extend(handles.into_iter().map(|h| h.join().expect("no panic")));
            });
            out
        };
        let first = &built[0];
        assert!(built.iter().all(|p| Arc::ptr_eq(&p.data, &first.data)));
        let stats = cache.artifacts().stats();
        assert_eq!(stats.builds, 1, "concurrent misses duplicated the build");
        assert_eq!(stats.mem_hits, 7);
    }

    #[test]
    fn derived_artifacts_are_cached_and_thread_count_invariant() {
        use encoders::model::{EncoderModel, ModelKind};
        let prep = PreparedTask::build(Task::UstcBinary, 5, 0.15);
        let enc = EncoderModel::new(ModelKind::EtBert, 1);

        nn::set_kernel_threads(1);
        let serial_tokens = prep.tokens(&enc, TokenVariant::Repeated);
        let serial_feats = prep.features(FeatureConfig::default());
        let serial_split = prep.split(SplitPolicy::PerFlow, 7.0 / 8.0, 1000, 9);

        // Same key → same Arc, builder not re-run.
        assert!(Arc::ptr_eq(&serial_tokens, &prep.tokens(&enc, TokenVariant::Repeated)));
        assert!(Arc::ptr_eq(&serial_feats, &prep.features(FeatureConfig::default())));
        assert!(Arc::ptr_eq(&serial_split, &prep.split(SplitPolicy::PerFlow, 7.0 / 8.0, 1000, 9)));

        // A fresh dataset handle built at a different thread budget must
        // produce identical rows (par_rows is bit-identical to serial).
        nn::set_kernel_threads(4);
        let prep4 = PreparedTask::build(Task::UstcBinary, 5, 0.15);
        let par_tokens = prep4.tokens(&enc, TokenVariant::Repeated);
        let par_feats = prep4.features(FeatureConfig::default());
        assert_eq!(par_tokens.0, serial_tokens.0);
        assert_eq!(par_feats.0.len(), serial_feats.0.len(),);
        for (a, b) in serial_feats.0.iter().zip(par_feats.0.iter()) {
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        nn::set_kernel_threads(1);

        // Keys separate variants and configs. Variant content only
        // differs for flow embedders (packet-level models tokenise
        // Repeated and Padded identically by design), so check content
        // with YaTC and key separation with both.
        let yatc = EncoderModel::new(ModelKind::YaTc, 1);
        let repeated = prep.tokens(&yatc, TokenVariant::Repeated);
        let padded = prep.tokens(&yatc, TokenVariant::Padded);
        assert!(!Arc::ptr_eq(&repeated, &padded));
        assert_ne!(padded.0, repeated.0);
        assert!(!Arc::ptr_eq(&prep.tokens(&enc, TokenVariant::Padded), &serial_tokens));
        let no_ip = prep.features(FeatureConfig { with_ip: false });
        assert!(!Arc::ptr_eq(&no_ip, &serial_feats));
    }

    #[test]
    fn from_parts_does_not_alias_canonical_artifacts() {
        let canonical = PreparedTask::build(Task::UstcBinary, 5, 0.15);
        let mut mutated = (*canonical.data).clone();
        mutated.records.truncate(mutated.records.len() / 2);
        let external = PreparedTask::from_parts(
            Task::UstcBinary,
            Arc::new(mutated),
            canonical.clean_report.clone(),
            5,
        );
        let a = canonical.features(FeatureConfig::default());
        let b = external.features(FeatureConfig::default());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.0.len(), external.data.records.len());
    }

    #[test]
    fn par_rows_matches_serial_for_every_thread_count() {
        let n = 103;
        let expect: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
        let before = nn::kernel_threads();
        for threads in [1, 2, 3, 8, 64] {
            nn::set_kernel_threads(threads);
            assert_eq!(par_rows(n, |i| i * 3 + 1), expect, "threads={threads}");
        }
        nn::set_kernel_threads(before);
        let counter = AtomicUsize::new(0);
        nn::set_kernel_threads(4);
        par_rows(10, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        nn::set_kernel_threads(before);
        assert_eq!(counter.load(Ordering::SeqCst), 10, "each row computed exactly once");
    }

    #[test]
    fn dataset_artifact_codec_round_trips() {
        let p = PreparedTask::build(Task::UstcBinary, 3, 0.15);
        let art = DatasetArtifact { data: p.data.clone(), clean: p.clean_report.clone() };
        let bytes = art.to_bytes();
        let back = DatasetArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.data.records.len(), p.data.records.len());
        assert_eq!(back.clean.total_after, p.clean_report.total_after);
        assert_eq!(back.to_bytes(), bytes, "canonical re-encoding");
        assert!(DatasetArtifact::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
