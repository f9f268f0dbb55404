//! Out-of-core prepare, for datasets that must never be resident in RAM:
//!
//! - the on-disk flow-sharded trace ([`ShardDir`]): checksummed `.dbsr`
//!   run files on the shared [`nn::envelope`] header, verified in a
//!   streaming pass before any record is served (a corrupt run is
//!   refused and rebuilt, never mis-decoded), whose k-way merge replays
//!   the serial trace exactly;
//! - [`prepare_out_of_core`], which runs the [`crate::pipeline`] stages
//!   into their disk sink: the merged shard stream through the dataset
//!   stage, then every per-record stage one dataset row group at a time.
//!   Same stages, keys and codecs as [`crate::pipeline::TaskCache`], so
//!   the same files, with O(row-group) state.
//!
//! Warm calls validate each artifact's v2 frame (trailer, header and
//! footer checksums: three bounded reads) without decoding the body.
//! Builds are single-flight per (cache dir, dataset key).

use crate::artifact::{artifact_key, Artifact, ArtifactCache, ArtifactGroupWriter, RowGroupFile};
use crate::pipeline::{
    dataset_key, derived_key, push_rows, stage_rows, DatasetArtifact, FeatureMatrix, RowStage,
    SplitRequest, TokenMatrix, TokenVariant,
};
use dataset::split::{FlowClassView, Split};
use encoders::model::EncoderModel;
use nn::envelope::{self, AtomicFile, Fnv};
use shallow::features::FeatureConfig;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
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
    LOCKS.lock().unwrap_or_else(|e| e.into_inner()).entry(token.to_string()).or_default().clone()
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
    let key = dataset_key(&spec);
    let parts = key.each_ref().map(String::as_str);
    let ds_path = cache
        .artifact_path::<DatasetArtifact>(&parts)
        .ok_or("out-of-core prepare needs a disk tier (--cache-dir)")?;
    // The path carries the key's fingerprint, so it names the build.
    let lock = stream_lock(&ds_path.to_string_lossy());
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());

    let (shards, rebuilt_shards) = ShardDir::ensure(shard_root, &spec, n_shards, 1)?;
    let dataset_built = ensure::<DatasetArtifact>(cache, &parts, |w| {
        DatasetArtifact::write(shards.merged()?, shards.classes(), w)
    })?;
    let mut ds = RowGroupFile::open(&ds_path, &artifact_key::<DatasetArtifact>(&parts))?;
    let mut report = OutOfCoreReport {
        rebuilt_shards,
        shard_records: shards.n_records(),
        kept_records: ds.total_rows(),
        dataset_built,
        ..OutOfCoreReport::default()
    };
    if let Some(cfg) = opts.features {
        report.features_built = ensure_rows::<FeatureMatrix>(cache, &key, &mut ds, cfg)?;
    }
    if let Some(cfg) = opts.tokens {
        report.tokens_built = ensure_rows::<TokenMatrix>(cache, &key, &mut ds, cfg)?;
    }

    // Splits, on the split view (10 bytes per record), read at most once.
    let mut view: Option<FlowClassView> = None;
    for req in &opts.splits {
        let built = ensure::<Split>(cache, &derived_key(&key, &req.parts()), |w| {
            if view.is_none() {
                let mut v = FlowClassView::default();
                for chunk in DatasetArtifact::record_chunks(&mut ds)? {
                    v.push_records(&chunk?);
                }
                view = Some(v);
            }
            let split = req.build(view.as_ref().expect("view just built"));
            split.to_groups().iter().try_for_each(|g| w.push_group(g.rows, &g.bytes))
        })?;
        report.splits_built += usize::from(built);
    }
    Ok(report)
}

/// Warm-or-stream for one artifact: a valid v2 frame on disk is a hit
/// (no body decode); anything else streams it through `write` into a
/// fresh group writer and publishes it. Returns whether it was built.
fn ensure<A: Artifact>(
    cache: &ArtifactCache,
    parts: &[&str],
    write: impl FnOnce(&mut ArtifactGroupWriter) -> Result<(), String>,
) -> Result<bool, String> {
    let path = cache.artifact_path::<A>(parts).ok_or("derived artifact needs a disk tier")?;
    if RowGroupFile::open(&path, &artifact_key::<A>(parts)).is_ok() {
        cache.note_disk_hit();
        return Ok(false);
    }
    let mut w = cache.group_writer::<A>(parts)?;
    write(&mut w)?;
    w.finish()?;
    Ok(true)
}

/// [`ensure`] stage `S`, run one dataset row group at a time.
fn ensure_rows<S: RowStage>(
    cache: &ArtifactCache,
    dataset: &[String],
    ds: &mut RowGroupFile,
    cfg: S::Config<'_>,
) -> Result<bool, String> {
    ensure::<S>(cache, &derived_key(dataset, &S::parts(cfg)), |w| {
        for chunk in DatasetArtifact::record_chunks(ds)? {
            push_rows(w, &stage_rows::<S>(cfg, &chunk?))?;
        }
        Ok(())
    })
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
    // serially after the fan-out and stored as the last run.
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
