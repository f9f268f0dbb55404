//! Engine-level guarantees: the registry carries every experiment the
//! old `repro` match dispatched, parallel execution is bit-identical to
//! serial, and cached encoders round-trip through disk.

use debunk::debunk_core::engine::{
    default_registry, run_experiment, CellOutput, CellSpec, EncoderSpec, Experiment, Preset,
    RecordStats, RunContext, RunError, RunManifest, RunOptions, MANIFEST_FILE,
};
use debunk::debunk_core::experiment::CellConfig;
use debunk::encoders::pcap_encoder::PretrainBudget;
use debunk::encoders::ModelKind;
use std::path::Path;

/// (a) Every experiment id the pre-engine `repro` match accepted must
/// resolve in the registry — guards against dropping one in the port.
#[test]
fn registry_exposes_every_legacy_experiment_id() {
    let legacy = [
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "table11",
        "table13",
        "fig1",
        "fig4",
        "fig5",
        "fig6",
        "qa",
        "repeat_vs_pad",
        "pooling",
        "advanced_splits",
        "extended_models",
        "robustness",
        "balance_ablation",
        // Engine-era addition, not a legacy id: the int8-vs-f32
        // serving-encoder experiment (PR 7).
        "quant_int8",
    ];
    let r = default_registry();
    for id in legacy {
        assert!(r.get(id).is_some(), "experiment '{id}' missing from registry");
    }
    assert_eq!(r.ids().len(), legacy.len(), "registry has exactly the legacy experiments");
}

/// A tiny record-emitting experiment whose outputs depend only on the
/// derived cell seed — heavy enough to interleave across threads, cheap
/// enough for the tier-1 budget.
struct SeedEcho;

impl Experiment for SeedEcho {
    fn id(&self) -> &'static str {
        "seed_echo"
    }
    fn description(&self) -> &'static str {
        "determinism-test experiment"
    }
    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for task in ["T1", "T2", "T3"] {
            for model in ["m1", "m2", "m3", "m4"] {
                cells.push(CellSpec::new(task, model, "s", |_ctx, cfg: &CellConfig| {
                    // A touch of real work so threads genuinely overlap.
                    let mut acc = cfg.seed;
                    for _ in 0..10_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    CellOutput::stats(RecordStats {
                        accuracy: (acc % 1000) as f64 / 1000.0,
                        macro_f1: (acc % 97) as f64 / 97.0,
                        train_secs: 0.125,
                        infer_secs: 0.25,
                    })
                }));
            }
        }
        cells
    }
    fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
}

fn records_json(dir: &Path, jobs: usize) -> String {
    let ctx = RunContext::from_preset(Preset::Fast, 42, None);
    let opts = RunOptions { jobs, out_dir: Some(dir.to_path_buf()), ..Default::default() };
    let summary = run_experiment(&SeedEcho, &ctx, &opts).expect("session starts");
    assert!(summary.ok(), "all SeedEcho cells succeed");
    std::fs::read_to_string(dir.join("seed_echo.json")).expect("records written")
}

/// (b) `--jobs 4` must emit byte-identical record JSON to `--jobs 1`,
/// and serialised records must carry zeroed wall-clock fields (the
/// nondeterministic real timings stay in-memory only).
#[test]
fn parallel_records_are_byte_identical_to_serial() {
    let base = std::env::temp_dir().join("debunk-engine-determinism-test");
    std::fs::remove_dir_all(&base).ok();
    let serial = records_json(&base.join("serial"), 1);
    let parallel = records_json(&base.join("parallel"), 4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "jobs=4 records must match jobs=1 byte-for-byte");
    // SeedEcho reports nonzero train/infer secs; the runner must zero
    // them on the way to disk or records stop being reproducible.
    assert_field_zeroed(&serial, "train_secs");
    assert_field_zeroed(&serial, "infer_secs");
    std::fs::remove_dir_all(&base).ok();
}

/// Every occurrence of `"field": <number>` in the record JSON must be
/// exactly zero. A plain text scan keeps this independent of the JSON
/// value model while still checking every serialized record.
fn assert_field_zeroed(json: &str, field: &str) {
    let needle = format!("\"{field}\"");
    let mut found = 0usize;
    let mut rest = json;
    while let Some(i) = rest.find(&needle) {
        rest = rest[i + needle.len()..].trim_start();
        rest = rest.strip_prefix(':').expect("field followed by ':'").trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        let value: f64 = rest[..end].parse().expect("numeric field value");
        assert_eq!(value, 0.0, "{field} must be zeroed in serialized records");
        found += 1;
    }
    assert!(found > 0, "no {field} fields found in record JSON");
}

/// SeedEcho plus one deliberately-panicking cell. The panicking cell is
/// silent (no record), so a panic-free `SeedEcho` run and a panicky
/// `MixedSuite` run must serialise byte-identical record files — panic
/// isolation at the record level, not just "the process survived".
struct MixedSuite;

impl Experiment for MixedSuite {
    fn id(&self) -> &'static str {
        "seed_echo"
    }
    fn description(&self) -> &'static str {
        "seed_echo with a panicking straggler"
    }
    fn cells(&self, ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = SeedEcho.cells(ctx);
        cells.insert(
            5,
            CellSpec::silent("T-boom", "mboom", "s", |_ctx, _cfg| -> CellOutput {
                panic!("deliberate mixed-suite panic");
            }),
        );
        cells
    }
    fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
}

/// (d) One panicking cell fails alone: every other cell's record is
/// byte-identical to a panic-free run, and the manifest reports exactly
/// one failed cell.
#[test]
fn panicking_cell_leaves_other_records_byte_identical() {
    let base = std::env::temp_dir().join("debunk-engine-panic-isolation-test");
    std::fs::remove_dir_all(&base).ok();
    let clean = records_json(&base.join("clean"), 1);

    let dir = base.join("mixed");
    let ctx = RunContext::from_preset(Preset::Fast, 42, None);
    let opts = RunOptions { jobs: 4, out_dir: Some(dir.clone()), ..Default::default() };
    let summary = run_experiment(&MixedSuite, &ctx, &opts).expect("session starts");
    assert_eq!(summary.cells_failed, 1, "exactly the panicking cell failed");
    assert_eq!(summary.cells_done, 12, "all SeedEcho cells finished");
    assert!(!summary.ok());
    assert!(summary.failed_cells[0].contains("mboom"));
    assert!(summary.failed_cells[0].contains("deliberate mixed-suite panic"));

    let mixed = std::fs::read_to_string(dir.join("seed_echo.json")).expect("records written");
    assert_eq!(clean, mixed, "surviving cells' records unaffected by the panic");

    let manifest =
        RunManifest::from_json(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap())
            .expect("manifest parses");
    assert_eq!(manifest.cells_failed, 1);
    assert_eq!(manifest.cells_total, 13);
    assert_eq!(manifest.failed_cells.len(), 1);
    std::fs::remove_dir_all(&base).ok();
}

/// (e) A failed record write is an error surfaced in the manifest and
/// the summary (`!ok()`), not a swallowed warning. Pre-creating a
/// *directory* where the record file must land makes the final rename
/// fail even when running as root (read-only permission bits don't).
#[test]
fn failed_record_write_is_surfaced_not_swallowed() {
    let dir = std::env::temp_dir().join("debunk-engine-write-error-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("seed_echo.json")).unwrap();

    let ctx = RunContext::from_preset(Preset::Fast, 42, None);
    let opts = RunOptions { out_dir: Some(dir.clone()), ..Default::default() };
    let summary = run_experiment(&SeedEcho, &ctx, &opts).expect("session starts");
    assert_eq!(summary.cells_failed, 0, "cells themselves all ran");
    assert!(!summary.record_write_errors.is_empty(), "lost record write reported");
    assert!(!summary.ok(), "a lost record write fails the run");

    let manifest =
        RunManifest::from_json(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap())
            .expect("manifest parses");
    assert!(!manifest.record_write_errors.is_empty(), "write error lands in the manifest");
    std::fs::remove_dir_all(&dir).ok();
}

/// (f) An unusable out dir (a file squatting on the path) refuses to
/// start the session with a journal error instead of limping along.
#[test]
fn unwritable_out_dir_fails_session_start() {
    let base = std::env::temp_dir().join("debunk-engine-baddir-test");
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let squatter = base.join("not-a-dir");
    std::fs::write(&squatter, b"file, not dir").unwrap();

    let ctx = RunContext::from_preset(Preset::Fast, 42, None);
    let opts = RunOptions { out_dir: Some(squatter), ..Default::default() };
    match run_experiment(&SeedEcho, &ctx, &opts) {
        Err(RunError::Journal(_)) => {}
        other => panic!("expected a journal error, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// (c) A pre-trained encoder is an ordinary `"encoder"` artifact: a
/// fresh context over the same cache dir (a second process,
/// conceptually) serves it from disk with identical embeddings, and a
/// damaged file is refused and rebuilt to identical embeddings.
#[test]
fn encoder_checkpoint_round_trips_with_identical_embeddings() {
    use debunk::dataset::record::Prepared;
    use debunk::traffic_synth::{DatasetKind, DatasetSpec};

    let dir = std::env::temp_dir().join("debunk-engine-checkpoint-test");
    std::fs::remove_dir_all(&dir).ok();
    let context = || RunContext::from_preset(Preset::Fast, 11, None).with_cache_dir(dir.clone());
    let spec = EncoderSpec::fresh(ModelKind::YaTc);
    let budget = PretrainBudget::default();

    let trace = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 3, flows_per_class: 2 }.generate();
    let data = Prepared::from_trace(&trace);
    let recs: Vec<&debunk::dataset::record::PacketRecord> = data.records.iter().take(8).collect();
    let embed = |ctx: &RunContext| ctx.encoder_with_budget(spec, budget).encode_packets(&recs).data;

    let first = context();
    let built = embed(&first);
    assert_eq!(first.artifacts().stats().builds, 1);

    let second = context();
    assert_eq!(embed(&second), built, "restored encoder must embed identically");
    let stats = second.artifacts().stats();
    assert_eq!((stats.builds, stats.disk_hits), (0, 1), "served from disk, not rebuilt");

    let encoders: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("art-encoder-"))
        .collect();
    assert_eq!(encoders.len(), 1, "one encoder artifact: {encoders:?}");
    let mut bytes = std::fs::read(&encoders[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&encoders[0], &bytes).unwrap();

    let third = context();
    assert_eq!(embed(&third), built, "rebuilt encoder must embed identically");
    assert_eq!(third.artifacts().stats().builds, 1, "damaged encoder refused and rebuilt");
    std::fs::remove_dir_all(&dir).ok();
}
