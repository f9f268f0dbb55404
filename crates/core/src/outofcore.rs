//! Out-of-core prepare: the generate → clean → tokenize → featurize →
//! split chain for datasets that must never be resident in RAM at once.
//!
//! The in-RAM chain ([`crate::pipeline::TaskCache`]) materialises the
//! whole trace, cleans it in place, and derives whole-dataset matrices.
//! This module produces **byte-identical artifact files** while holding
//! only O(row-group) state:
//!
//! - generation streams through an on-disk flow-sharded trace
//!   ([`ShardDir`]) whose k-way merge replays the serial trace exactly;
//!   its `.dbsr` run files are checksummed on the shared
//!   [`nn::envelope`] header and verified in a streaming pass *before*
//!   any record is served, so a corrupt run is refused (and
//!   deterministically rebuilt), never mis-decoded;
//! - cleaning mirrors `clean_trace` record-by-record through
//!   [`StreamingCleaner`] (the batch cleaner delegates to the same
//!   code, so the tallies cannot drift);
//! - the cleaned dataset, feature matrix and token matrix are written
//!   group-by-group with [`ArtifactCache::group_writer`], using the
//!   same [`ROW_GROUP_ROWS`] chunking as the in-RAM `to_groups`
//!   codecs — one format, two writers;
//! - splits are computed on a [`FlowClassView`] (6 bytes per record)
//!   that the in-RAM split entry points also delegate to.
//!
//! Warm calls validate the existing artifact's v2 frame (trailer,
//! header, footer checksums — three bounded reads) without decoding the
//! body, so a warm million-flow prepare touches kilobytes. Builds are
//! single-flight per (cache dir, dataset key): concurrent callers block
//! on one streaming build and then take the warm path.

use crate::artifact::{artifact_key, ArtifactCache, RowGroupFile, ROW_GROUP_ROWS};
use crate::experiment::SplitPolicy;
use crate::pipeline::{
    dataset_meta_group, DatasetArtifact, FeatureMatrix, TokenMatrix, TokenVariant,
};
use dataset::clean::StreamingCleaner;
use dataset::record::{records_from_bytes, records_to_bytes, PacketRecord};
use dataset::split::{per_flow_split_on, per_packet_split_on, FlowClassView, Split};
use encoders::model::EncoderModel;
use encoders::tokenize::token_rows_to_bytes;
use nn::envelope::{self, AtomicFile, Fnv};
use parking_lot::Mutex;
use shallow::features::{extract_features, features_to_bytes, FeatureConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use traffic_synth::stream::{merge_sorted, FlowPlan, MergeSorted};
use traffic_synth::trace::{ClassMeta, TraceRecord};
use traffic_synth::{DatasetKind, DatasetSpec};

/// Which derived products to ensure beyond the cleaned dataset.
#[derive(Default)]
pub struct OutOfCoreOptions<'m> {
    /// Shallow feature matrix to ensure.
    pub features: Option<FeatureConfig>,
    /// Token matrix to ensure (tokenisation depends only on the model
    /// kind and ablation, never on weights — same key as the in-RAM
    /// path).
    pub tokens: Option<(&'m EncoderModel, TokenVariant)>,
    /// Splits to ensure.
    pub splits: Vec<SplitRequest>,
}

/// One split artifact to ensure, mirroring
/// [`crate::pipeline::PreparedTask::split`]'s parameters and key.
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

/// What one out-of-core prepare call did (per stage: built fresh, or
/// validated warm without decoding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutOfCoreReport {
    /// The shard directory was (re)generated rather than reused.
    pub rebuilt_shards: bool,
    /// Records in the shard directory (labelled + spurious).
    pub shard_records: u64,
    /// Cleaned records in the dataset artifact.
    pub kept_records: u64,
    /// The dataset artifact was streamed fresh.
    pub dataset_built: bool,
    /// The feature matrix was streamed fresh.
    pub features_built: bool,
    /// The token matrix was streamed fresh.
    pub tokens_built: bool,
    /// Number of split artifacts computed fresh.
    pub splits_built: usize,
}

/// Per-(cache dir, dataset key) build locks: one streaming build in
/// flight, concurrent callers block and then validate warm.
fn stream_lock(token: &str) -> Arc<Mutex<()>> {
    static LOCKS: Mutex<BTreeMap<String, Arc<Mutex<()>>>> = Mutex::new(BTreeMap::new());
    LOCKS.lock().entry(token.to_string()).or_default().clone()
}

/// Ensure the prepare-chain artifacts for `(kind, seed, scale)` exist in
/// `cache`'s disk tier, generating and preparing out of core via an
/// `n_shards`-way shard directory under `shard_root`. Artifact keys and
/// bytes are identical to the in-RAM [`crate::pipeline::TaskCache`]
/// path; peak memory is bounded by the row-group size, not the dataset.
pub fn prepare_out_of_core(
    cache: &ArtifactCache,
    shard_root: &Path,
    kind: DatasetKind,
    seed: u64,
    scale: f64,
    n_shards: usize,
    opts: &OutOfCoreOptions,
) -> Result<OutOfCoreReport, String> {
    let spec = DatasetSpec::new(kind, seed).scaled(scale);
    // Exactly TaskCache::get's dataset key — same content address, so
    // the two paths serve each other's files.
    let dataset_key =
        [kind.name().to_string(), format!("{seed:016x}"), ((scale * 1000.0) as u64).to_string()];
    let parts: Vec<&str> = dataset_key.iter().map(String::as_str).collect();
    let ds_key = artifact_key::<DatasetArtifact>(&parts);
    let ds_path = cache
        .artifact_path::<DatasetArtifact>(&parts)
        .ok_or("out-of-core prepare needs a disk tier (--cache-dir)")?;

    let lock = stream_lock(&format!("{}|{ds_key}", ds_path.display()));
    let _guard = lock.lock();

    let mut report = OutOfCoreReport::default();

    // Phase 0: generation — ensure the on-disk sharded trace.
    let (shards, rebuilt) = ShardDir::ensure(shard_root, &spec, n_shards, 1)?;
    report.rebuilt_shards = rebuilt;
    report.shard_records = shards.n_records();

    // Phase A: the cleaned dataset artifact.
    if ds_path.exists() && RowGroupFile::open(&ds_path, &ds_key).is_ok() {
        cache.note_disk_hit();
    } else {
        stream_dataset_artifact(cache, &shards, &parts)?;
        report.dataset_built = true;
    }
    let mut ds_file = RowGroupFile::open(&ds_path, &ds_key)?;
    report.kept_records = ds_file.total_rows();
    // The trailing group is the metadata (class table + clean report);
    // everything before it is record chunks.
    let record_groups =
        ds_file.n_groups().checked_sub(1).ok_or("dataset artifact has no groups")?;

    // Phase B: shallow feature matrix, group-aligned with the records.
    if let Some(cfg) = opts.features {
        let ip = if cfg.with_ip { "ip" } else { "no-ip" };
        let mut fparts = parts.clone();
        fparts.push(ip);
        report.features_built = ensure_derived::<FeatureMatrix>(cache, &fparts, || {
            let mut w = cache.group_writer::<FeatureMatrix>(&fparts)?;
            for gi in 0..record_groups {
                let records = records_from_bytes(&ds_file.read_group(gi)?)?;
                let rows: Vec<_> = records.iter().map(|r| extract_features(r, cfg)).collect();
                w.push_group(rows.len() as u64, &features_to_bytes(&rows))?;
            }
            w.finish()?;
            Ok(())
        })?;
    }

    // Phase C: token matrix.
    if let Some((encoder, variant)) = opts.tokens {
        let mut tparts = parts.clone();
        tparts.extend([encoder.kind.name(), encoder.ablation.cache_tag(), variant.tag()]);
        report.tokens_built = ensure_derived::<TokenMatrix>(cache, &tparts, || {
            let mut w = cache.group_writer::<TokenMatrix>(&tparts)?;
            for gi in 0..record_groups {
                let records = records_from_bytes(&ds_file.read_group(gi)?)?;
                let rows: Vec<Vec<u32>> = records
                    .iter()
                    .map(|rec| match variant {
                        TokenVariant::Repeated => encoder.tokenize_packet_repeated(rec),
                        TokenVariant::Padded => encoder.tokenize_packet_padded(rec),
                    })
                    .collect();
                w.push_group(rows.len() as u64, &token_rows_to_bytes(&rows))?;
            }
            w.finish()?;
            Ok(())
        })?;
    }

    // Phase D: splits, on the 6-byte-per-record view.
    let mut view: Option<FlowClassView> = None;
    for req in &opts.splits {
        let frac = format!("{:016x}", req.train_frac.to_bits());
        let seed_hex = format!("{:016x}", req.seed);
        let mfp = req.max_flow_packets.to_string();
        let mut sparts = parts.clone();
        match req.policy {
            SplitPolicy::PerFlow => {
                sparts.extend(["per-flow", frac.as_str(), mfp.as_str(), seed_hex.as_str()])
            }
            SplitPolicy::PerPacket => {
                sparts.extend(["per-packet", frac.as_str(), seed_hex.as_str()])
            }
        }
        let built = ensure_derived::<Split>(cache, &sparts, || {
            if view.is_none() {
                let mut v = FlowClassView::default();
                for gi in 0..record_groups {
                    for rec in records_from_bytes(&ds_file.read_group(gi)?)? {
                        v.push(rec.class, rec.flow_id);
                    }
                }
                view = Some(v);
            }
            let v = view.as_ref().expect("view just built");
            let split = match req.policy {
                SplitPolicy::PerFlow => {
                    per_flow_split_on(v, req.train_frac, req.max_flow_packets, req.seed)
                }
                SplitPolicy::PerPacket => per_packet_split_on(v, req.train_frac, req.seed),
            };
            cache.store::<Split>(&sparts, split);
            Ok(())
        })?;
        report.splits_built += usize::from(built);
    }

    Ok(report)
}

/// Warm-or-build for one derived artifact: a valid v2 frame on disk is
/// a hit (no body decode); anything else runs `build`. Returns whether
/// `build` ran.
fn ensure_derived<A: crate::artifact::Artifact>(
    cache: &ArtifactCache,
    parts: &[&str],
    build: impl FnOnce() -> Result<(), String>,
) -> Result<bool, String> {
    let key = artifact_key::<A>(parts);
    let path = cache.artifact_path::<A>(parts).ok_or("derived artifact needs a disk tier")?;
    if path.exists() && RowGroupFile::open(&path, &key).is_ok() {
        cache.note_disk_hit();
        return Ok(false);
    }
    build()?;
    Ok(true)
}

/// Stream the merged shard trace through the clean mirror into a
/// grouped dataset artifact: record chunks of [`ROW_GROUP_ROWS`], then
/// the metadata group (class table + clean report) last — the exact
/// byte layout of `DatasetArtifact::to_groups`.
fn stream_dataset_artifact(
    cache: &ArtifactCache,
    shards: &ShardDir,
    parts: &[&str],
) -> Result<(), String> {
    let mut writer = cache.group_writer::<DatasetArtifact>(parts)?;
    let mut cleaner = StreamingCleaner::new();
    let mut chunk: Vec<PacketRecord> = Vec::with_capacity(ROW_GROUP_ROWS);
    for rec in shards.merged()? {
        if !cleaner.accept(&rec.frame) {
            continue;
        }
        if let Some(pr) = PacketRecord::from_trace_record(&rec) {
            chunk.push(pr);
            if chunk.len() == ROW_GROUP_ROWS {
                writer.push_group(chunk.len() as u64, &records_to_bytes(&chunk))?;
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        writer.push_group(chunk.len() as u64, &records_to_bytes(&chunk))?;
    }
    writer.push_group(0, &dataset_meta_group(shards.classes(), &cleaner.finish()))?;
    writer.finish()?;
    Ok(())
}

// ---------------------------------------------------------------------
// On-disk shard runs (`.dbsr`)
// ---------------------------------------------------------------------
//
// One file per run (DESIGN.md "On-disk formats"):
//
//   "DBSR" | u32 version=1 | u32 key_len | key | u64 n_records
//   | records... | u64 fnv64(everything before this field)
//
//   record := f64 ts | u16 class | u32 flow_id | u8 from_client
//             | u32 frame_len | frame bytes
//
// The key spells out everything the bytes depend on —
// `shards|<kind>|<seed>|<flows_per_class>|<n_shards>|<run index>` — so
// a file can never be served for the wrong spec, shard layout or slot.
// Readers verify the whole file (structure + checksum) in a buffered
// streaming pass before yielding a single record: refuse-or-rebuild,
// never mis-decode.

const RUN_MAGIC: &[u8; 4] = b"DBSR";
const RUN_VERSION: u32 = 1;
/// Fixed-size part of a record: ts(8) class(2) flow(4) dir(1) len(4).
const RECORD_FIXED: usize = 19;

/// The canonical key of run `run` of `spec` sharded `n_shards` ways.
pub fn run_key(spec: &DatasetSpec, n_shards: usize, run: usize) -> String {
    format!(
        "shards|{}|{:016x}|{}|{}|{}",
        spec.kind.tag(),
        spec.seed,
        spec.flows_per_class,
        n_shards,
        run
    )
}

fn run_file_name(run: usize) -> String {
    format!("run-{run:04}.dbsr")
}

/// The shared header plus the record count: the bytes every run opens
/// with, and the start of its checksum.
fn run_head(key: &str, n_records: u64) -> Vec<u8> {
    let mut head = Vec::with_capacity(20 + key.len());
    envelope::write_header(&mut head, RUN_MAGIC, RUN_VERSION, key)
        .expect("writing to a Vec cannot fail");
    head.extend_from_slice(&n_records.to_le_bytes());
    head
}

/// Publish `records` as one run file at `path` under `key`.
pub fn write_run(path: &Path, key: &str, records: &[TraceRecord]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut file = AtomicFile::create(path).map_err(io)?;
    let mut h = Fnv::new();
    let mut put = |bytes: &[u8]| {
        h.update(bytes);
        file.write_all(bytes)
    };
    put(&run_head(key, records.len() as u64)).map_err(io)?;
    for r in records {
        let mut fixed = [0u8; RECORD_FIXED];
        fixed[0..8].copy_from_slice(&r.ts.to_le_bytes());
        fixed[8..10].copy_from_slice(&r.class.to_le_bytes());
        fixed[10..14].copy_from_slice(&r.flow_id.to_le_bytes());
        fixed[14] = u8::from(r.from_client);
        fixed[15..19].copy_from_slice(&(r.frame.len() as u32).to_le_bytes());
        put(&fixed).map_err(io)?;
        put(&r.frame).map_err(io)?;
    }
    file.write_all(&h.finish().to_le_bytes()).map_err(io)?;
    file.commit().map_err(io)
}

/// Reader over one verified run file, yielding records in file order.
/// Construction ([`RunReader::verify_open`]) streams the entire file
/// once — structure, record framing and trailing FNV-64 — and refuses
/// it on any inconsistency; only then does it rewind to the first
/// record, so downstream consumers can trust every record they see.
pub struct RunReader {
    r: BufReader<File>,
    remaining: u64,
    path: PathBuf,
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), String> {
    r.read_exact(buf).map_err(|e| format!("truncated {what}: {e}"))
}

impl RunReader {
    /// Verify the whole file against `expected_key`, then return a
    /// reader positioned at the first record.
    pub fn verify_open(path: &Path, expected_key: &str) -> Result<RunReader, String> {
        let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let mut r = BufReader::with_capacity(1 << 16, file);
        let key = envelope::read_header(&mut r, RUN_MAGIC, RUN_VERSION)?;
        if key != expected_key {
            return Err(envelope::key_mismatch(&key, expected_key));
        }
        let mut count = [0u8; 8];
        read_exact(&mut r, &mut count, "record count")?;
        let n_records = u64::from_le_bytes(count);
        // The header is canonical, so re-encoding the key read back
        // reproduces exactly the bytes the checksum covers.
        let head = run_head(&key, n_records);
        let mut h = Fnv::new();
        h.update(&head);
        let mut frame = Vec::new();
        for i in 0..n_records {
            let mut fixed = [0u8; RECORD_FIXED];
            read_exact(&mut r, &mut fixed, &format!("record {i}"))?;
            if fixed[14] > 1 {
                return Err(format!("record {i}: invalid direction byte {}", fixed[14]));
            }
            h.update(&fixed);
            let frame_len = u32::from_le_bytes(fixed[15..19].try_into().expect("4 bytes")) as usize;
            if frame_len > (1 << 24) {
                return Err(format!("record {i}: implausible frame length {frame_len}"));
            }
            frame.resize(frame_len, 0);
            read_exact(&mut r, &mut frame, &format!("record {i} frame"))?;
            h.update(&frame);
        }
        let mut tail = [0u8; 8];
        read_exact(&mut r, &mut tail, "checksum")?;
        if u64::from_le_bytes(tail) != h.finish() {
            return Err("shard-run checksum mismatch".to_string());
        }
        if r.read(&mut [0u8; 1]).map_err(|e| e.to_string())? != 0 {
            return Err("trailing bytes after checksum".to_string());
        }
        r.seek(SeekFrom::Start(head.len() as u64))
            .map_err(|e| format!("cannot rewind {}: {e}", path.display()))?;
        Ok(RunReader { r, remaining: n_records, path: path.to_path_buf() })
    }
}

impl Iterator for RunReader {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The file was fully verified at open; a read error here means
        // it changed underneath us mid-stream — fail loudly rather than
        // truncate the dataset silently.
        let mut fixed = [0u8; RECORD_FIXED];
        self.r
            .read_exact(&mut fixed)
            .unwrap_or_else(|e| panic!("verified shard run {} changed: {e}", self.path.display()));
        let frame_len = u32::from_le_bytes(fixed[15..19].try_into().expect("4 bytes")) as usize;
        let mut frame = vec![0u8; frame_len];
        self.r
            .read_exact(&mut frame)
            .unwrap_or_else(|e| panic!("verified shard run {} changed: {e}", self.path.display()));
        Some(TraceRecord {
            ts: f64::from_le_bytes(fixed[0..8].try_into().expect("8 bytes")),
            frame,
            class: u16::from_le_bytes(fixed[8..10].try_into().expect("2 bytes")),
            flow_id: u32::from_le_bytes(fixed[10..14].try_into().expect("4 bytes")),
            from_client: fixed[14] == 1,
        })
    }
}

/// Write all runs of `spec` sharded `n_shards` ways into `dir`,
/// returning the opened [`ShardDir`]. Peak memory is one shard of
/// packets. Existing files are overwritten (generation is deterministic,
/// so rewriting is always byte-identical).
pub fn write_shard_dir(
    dir: &Path,
    spec: &DatasetSpec,
    n_shards: usize,
) -> Result<ShardDir, String> {
    write_shard_dir_threads(dir, spec, n_shards, 1)
}

/// [`write_shard_dir`] with `threads` generator threads. Byte-identical
/// output at any thread count: flow shards draw only from per-flow
/// FNV-seeded RNG streams, so they are order-independent, and the
/// spurious run's inputs (total labelled record count, global max
/// timestamp) are a sum and a max — both invariant under the
/// per-shard→global fold. Peak memory is `threads` shards of packets.
pub fn write_shard_dir_threads(
    dir: &Path,
    spec: &DatasetSpec,
    n_shards: usize,
    threads: usize,
) -> Result<ShardDir, String> {
    let n_shards = n_shards.max(1);
    let threads = threads.max(1).min(n_shards);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let plan = FlowPlan::new(spec);
    let classes = plan.classes().to_vec();
    // Claim-the-next-shard work stealing: shard sizes are uneven (class
    // volume weights), so static striping would leave threads idle.
    type ShardStats = (u64, f64);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done: Vec<(usize, Result<ShardStats, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let plan = &plan;
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n_shards {
                            return out;
                        }
                        let records = plan.shard_records(i, n_shards);
                        let t_max = records.iter().map(|r| r.ts).fold(0.0f64, f64::max);
                        let res = write_run(
                            &dir.join(run_file_name(i)),
                            &run_key(spec, n_shards, i),
                            &records,
                        )
                        .map(|()| (records.len() as u64, t_max));
                        out.push((i, res));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("shard generator panicked")).collect()
    });
    let mut counts = vec![0u64; n_shards];
    let mut t_max = 0.0f64;
    for (i, res) in done {
        let (count, shard_t_max) = res?;
        counts[i] = count;
        t_max = t_max.max(shard_t_max);
    }
    let labelled: u64 = counts.iter().sum();
    // The spurious run depends on every flow shard, so it is generated
    // serially after the fan-out — exactly like StreamingTrace yields
    // it last.
    let records = plan.spurious_records(labelled as usize, t_max);
    write_run(&dir.join(run_file_name(n_shards)), &run_key(spec, n_shards, n_shards), &records)?;
    counts.push(records.len() as u64);
    Ok(ShardDir { dir: dir.to_path_buf(), spec: spec.clone(), n_shards, counts, classes })
}

/// A validated on-disk sharded trace: `n_shards` flow runs plus the
/// spurious run, all keyed to one spec.
pub struct ShardDir {
    dir: PathBuf,
    spec: DatasetSpec,
    n_shards: usize,
    counts: Vec<u64>,
    classes: Vec<ClassMeta>,
}

impl ShardDir {
    /// Open an existing shard dir, verifying every run file end to end.
    /// Any missing, truncated, corrupted or mis-keyed file is an error.
    pub fn open(dir: &Path, spec: &DatasetSpec, n_shards: usize) -> Result<ShardDir, String> {
        let n_shards = n_shards.max(1);
        let counts = verified_runs(dir, spec, n_shards)?.iter().map(|r| r.remaining).collect();
        let classes = FlowPlan::new(spec).classes().to_vec();
        Ok(ShardDir { dir: dir.to_path_buf(), spec: spec.clone(), n_shards, counts, classes })
    }

    /// Open `dir` if it validates, else (re)generate every run with
    /// `threads` generator threads ([`write_shard_dir_threads`]; the
    /// bytes are identical at any thread count) — refuse-or-rebuild for
    /// the whole layout. Returns the dir plus whether a rebuild happened.
    pub fn ensure(
        dir: &Path,
        spec: &DatasetSpec,
        n_shards: usize,
        threads: usize,
    ) -> Result<(ShardDir, bool), String> {
        match ShardDir::open(dir, spec, n_shards) {
            Ok(d) => Ok((d, false)),
            Err(_) => write_shard_dir_threads(dir, spec, n_shards, threads).map(|d| (d, true)),
        }
    }

    /// Discover the spec and shard count from the first run's header,
    /// then open with full verification — how `serve` attaches to a
    /// shard dir without re-stating the generation parameters.
    pub fn discover(dir: &Path) -> Result<ShardDir, String> {
        let path = dir.join(run_file_name(0));
        let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let key = envelope::read_header(&mut BufReader::new(file), RUN_MAGIC, RUN_VERSION)?;
        let parts: Vec<&str> = key.split('|').collect();
        let ["shards", kind, seed, fpc, n_shards, _run] = parts[..] else {
            return Err(format!("unrecognised shard-run key '{key}'"));
        };
        let kind =
            DatasetKind::from_tag(kind).ok_or_else(|| format!("unknown dataset tag '{kind}'"))?;
        let seed = u64::from_str_radix(seed, 16).map_err(|e| format!("bad seed in key: {e}"))?;
        let flows_per_class =
            fpc.parse::<usize>().map_err(|e| format!("bad flow count in key: {e}"))?;
        let n_shards =
            n_shards.parse::<usize>().map_err(|e| format!("bad shard count in key: {e}"))?;
        ShardDir::open(dir, &DatasetSpec { kind, seed, flows_per_class }, n_shards)
    }

    /// The generating spec.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of flow shards (excluding the spurious run).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Total records across all runs.
    pub fn n_records(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The class table of the generated trace.
    pub fn classes(&self) -> &[ClassMeta] {
        &self.classes
    }

    /// Stream the full trace in canonical (time-sorted) order, reading
    /// one buffered record per run at a time. Every run is re-verified
    /// end to end before the first record is yielded.
    pub fn merged(&self) -> Result<MergeSorted<RunReader>, String> {
        Ok(merge_sorted(verified_runs(&self.dir, &self.spec, self.n_shards)?))
    }
}

/// Open and fully verify every run of `spec` sharded `n_shards` ways.
fn verified_runs(
    dir: &Path,
    spec: &DatasetSpec,
    n_shards: usize,
) -> Result<Vec<RunReader>, String> {
    (0..=n_shards)
        .map(|run| {
            let path = dir.join(run_file_name(run));
            RunReader::verify_open(&path, &run_key(spec, n_shards, run))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TaskCache;
    use dataset::task::Task;
    use encoders::model::{EncoderModel, ModelKind};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn artifact_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("art-"))
            .map(|p| {
                (p.file_name().unwrap().to_str().unwrap().to_string(), std::fs::read(&p).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn out_of_core_artifacts_are_byte_identical_to_in_ram() {
        let (seed, scale) = (5, 0.15);
        let enc = EncoderModel::new(ModelKind::EtBert, 1);

        // In-RAM reference: full prepare + derived products on disk.
        let ram_dir = temp_dir("debunk-ooc-ram");
        let cache = TaskCache::with_artifacts(Arc::new(ArtifactCache::new(Some(ram_dir.clone()))));
        let prep = cache.get(Task::UstcBinary, seed, scale);
        prep.features(FeatureConfig::default());
        prep.tokens(&enc, TokenVariant::Repeated);
        prep.split(SplitPolicy::PerFlow, 7.0 / 8.0, 1000, 9);
        prep.split(SplitPolicy::PerPacket, 7.0 / 8.0, 0, 9);

        // Out-of-core: same key space, different disk tier, sharded gen.
        let ooc_dir = temp_dir("debunk-ooc-stream");
        let shard_dir = temp_dir("debunk-ooc-shards");
        let ooc = ArtifactCache::new(Some(ooc_dir.clone()));
        let opts = OutOfCoreOptions {
            features: Some(FeatureConfig::default()),
            tokens: Some((&enc, TokenVariant::Repeated)),
            splits: vec![
                SplitRequest {
                    policy: SplitPolicy::PerFlow,
                    train_frac: 7.0 / 8.0,
                    max_flow_packets: 1000,
                    seed: 9,
                },
                SplitRequest {
                    policy: SplitPolicy::PerPacket,
                    train_frac: 7.0 / 8.0,
                    max_flow_packets: 0,
                    seed: 9,
                },
            ],
        };
        let report =
            prepare_out_of_core(&ooc, &shard_dir, DatasetKind::UstcTfc, seed, scale, 3, &opts)
                .unwrap();
        assert!(report.dataset_built && report.features_built && report.tokens_built);
        assert_eq!(report.splits_built, 2);
        assert_eq!(report.kept_records as usize, prep.data.records.len());

        let ram_files = artifact_files(&ram_dir);
        let ooc_files = artifact_files(&ooc_dir);
        assert_eq!(
            ram_files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            ooc_files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "same content addresses"
        );
        assert_eq!(ram_files.len(), 5, "prepared + features + tokens + two splits");
        for ((name, ram), (_, ooc)) in ram_files.iter().zip(&ooc_files) {
            assert_eq!(ram, ooc, "{name} differs between in-RAM and out-of-core writers");
        }

        std::fs::remove_dir_all(&ram_dir).ok();
        std::fs::remove_dir_all(&ooc_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn warm_calls_validate_without_rebuilding() {
        let ooc_dir = temp_dir("debunk-ooc-warm");
        let shard_dir = temp_dir("debunk-ooc-warm-shards");
        let cache = ArtifactCache::new(Some(ooc_dir.clone()));
        let opts = OutOfCoreOptions {
            features: Some(FeatureConfig::default()),
            ..OutOfCoreOptions::default()
        };
        let cold = prepare_out_of_core(&cache, &shard_dir, DatasetKind::IscxVpn, 3, 0.1, 2, &opts)
            .unwrap();
        assert!(cold.rebuilt_shards && cold.dataset_built && cold.features_built);
        let builds_after_cold = cache.stats().builds;

        let warm = prepare_out_of_core(&cache, &shard_dir, DatasetKind::IscxVpn, 3, 0.1, 2, &opts)
            .unwrap();
        assert!(!warm.rebuilt_shards && !warm.dataset_built && !warm.features_built);
        assert_eq!(warm.kept_records, cold.kept_records);
        assert_eq!(cache.stats().builds, builds_after_cold, "warm call builds nothing");
        assert!(cache.stats().disk_hits >= 2, "dataset + features validated as disk hits");

        std::fs::remove_dir_all(&ooc_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn concurrent_out_of_core_builds_are_single_flight() {
        let ooc_dir = temp_dir("debunk-ooc-flight");
        let shard_dir = temp_dir("debunk-ooc-flight-shards");
        let cache = ArtifactCache::new(Some(ooc_dir.clone()));
        let reports: Vec<OutOfCoreReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        prepare_out_of_core(
                            &cache,
                            &shard_dir,
                            DatasetKind::UstcTfc,
                            7,
                            0.1,
                            2,
                            &OutOfCoreOptions::default(),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            reports.iter().filter(|r| r.dataset_built).count(),
            1,
            "exactly one thread streamed the dataset"
        );
        assert!(reports.iter().all(|r| r.kept_records == reports[0].kept_records));
        std::fs::remove_dir_all(&ooc_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn missing_disk_tier_is_an_error() {
        let cache = ArtifactCache::new(None);
        let err = prepare_out_of_core(
            &cache,
            Path::new("/nonexistent"),
            DatasetKind::UstcTfc,
            1,
            0.1,
            1,
            &OutOfCoreOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("disk tier"), "{err}");
    }

    fn spec() -> DatasetSpec {
        DatasetSpec { kind: DatasetKind::UstcTfc, seed: 11, flows_per_class: 3 }
    }

    /// Records as comparable tuples (timestamps by bit pattern).
    fn flat(records: impl IntoIterator<Item = TraceRecord>) -> Vec<(u64, u16, u32, bool, Vec<u8>)> {
        records
            .into_iter()
            .map(|r| (r.ts.to_bits(), r.class, r.flow_id, r.from_client, r.frame))
            .collect()
    }

    #[test]
    fn shard_dir_round_trips_and_counts() {
        let dir = std::env::temp_dir().join("debunk-sharddir-roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let sd = write_shard_dir(&dir, &spec(), 3).unwrap();
        let reference = spec().generate();
        assert_eq!(sd.n_records() as usize, reference.records.len());
        assert!(flat(sd.merged().unwrap()) == flat(reference.records));
        // Re-open validates and agrees.
        let re = ShardDir::open(&dir, &spec(), 3).unwrap();
        assert_eq!(re.n_records(), sd.n_records());
        // Discovery from headers alone.
        let disc = ShardDir::discover(&dir).unwrap();
        assert_eq!(disc.n_shards(), 3);
        assert_eq!(disc.spec().flows_per_class, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_shard_generation_is_byte_identical_to_serial() {
        let serial_dir = std::env::temp_dir().join("debunk-sharddir-gen-serial");
        std::fs::remove_dir_all(&serial_dir).ok();
        write_shard_dir(&serial_dir, &spec(), 5).unwrap();
        for threads in [2usize, 4, 16] {
            let par_dir = std::env::temp_dir().join(format!("debunk-sharddir-gen-t{threads}"));
            std::fs::remove_dir_all(&par_dir).ok();
            let sd = write_shard_dir_threads(&par_dir, &spec(), 5, threads).unwrap();
            assert_eq!(sd.n_shards(), 5);
            for run in 0..=5 {
                let name = run_file_name(run);
                assert_eq!(
                    std::fs::read(serial_dir.join(&name)).unwrap(),
                    std::fs::read(par_dir.join(&name)).unwrap(),
                    "{name} differs between serial and {threads}-thread generation"
                );
            }
            std::fs::remove_dir_all(&par_dir).ok();
        }
        std::fs::remove_dir_all(&serial_dir).ok();
    }

    #[test]
    fn corrupt_runs_are_refused_and_rebuilt_identically() {
        let dir = std::env::temp_dir().join("debunk-sharddir-corrupt");
        std::fs::remove_dir_all(&dir).ok();
        write_shard_dir(&dir, &spec(), 2).unwrap();
        let reference = flat(ShardDir::open(&dir, &spec(), 2).unwrap().merged().unwrap());
        let victim = dir.join(run_file_name(1));
        let good = std::fs::read(&victim).unwrap();

        // Every offset class: magic, version, key, count, record body,
        // checksum — plus truncation and deletion.
        let mut variants: Vec<Vec<u8>> = vec![
            good[..good.len() / 2].to_vec(), // truncated
            Vec::new(),                      // empty
        ];
        for off in [0usize, 5, 14, good.len() / 2, good.len() - 4] {
            let mut bad = good.clone();
            bad[off] ^= 0xff;
            variants.push(bad);
        }
        for (i, bad) in variants.iter().enumerate() {
            std::fs::write(&victim, bad).unwrap();
            assert!(
                ShardDir::open(&dir, &spec(), 2).is_err(),
                "variant {i} must be refused, not decoded"
            );
            let (sd, rebuilt) = ShardDir::ensure(&dir, &spec(), 2, 1).unwrap();
            assert!(rebuilt, "variant {i} must trigger a rebuild");
            assert!(flat(sd.merged().unwrap()) == reference, "variant {i} rebuilt other records");
        }

        // Wrong spec (different seed) is refused by the key check.
        let other = DatasetSpec { seed: 12, ..spec() };
        assert!(ShardDir::open(&dir, &other, 2).is_err());
        // Wrong shard count is refused too (different layout key).
        assert!(ShardDir::open(&dir, &spec(), 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
