//! Artifact-cache byte-identity tests: a miniature sweep through the
//! real cell runners (`run_cell` + `run_shallow`, which pull dataset,
//! token-matrix, feature-matrix and split artifacts) must produce
//! byte-identical records whether it runs cold, warm from the in-memory
//! tier, or warm from the on-disk tier (`--cache-dir`), at `--jobs` 1
//! and 4 — and a corrupted on-disk artifact must fall back to a rebuild
//! that still yields the same bytes, never a wrong record.

use debunk::dataset::Task;
use debunk::debunk_core::engine::{
    run_experiment, CellOutput, CellSpec, Experiment, Preset, RunContext, RunOptions, RunSummary,
};
use debunk::debunk_core::experiment::{run_cell, CellConfig, SplitPolicy};
use debunk::debunk_core::shallow_baselines::{run_shallow, ShallowModel};
use debunk::encoders::model::{EncoderModel, ModelKind};
use debunk::shallow::features::FeatureConfig;
use std::path::{Path, PathBuf};

const EXP: &str = "artifact-probe";

/// Shrink the preset's hyper-parameters so every cell runs in well under
/// a second even unoptimised; determinism is all that matters here.
fn tiny(cfg: &CellConfig) -> CellConfig {
    CellConfig { max_train: 300, max_test: 300, kfolds: 2, frozen_epochs: 3, ..cfg.clone() }
}

/// Three cells covering every derived artifact: shallow features +
/// per-flow split, frozen-encoder tokens + per-flow split, and the
/// per-packet split variant.
struct Probe;

impl Experiment for Probe {
    fn id(&self) -> &'static str {
        EXP
    }
    fn description(&self) -> &'static str {
        "artifact-cache byte-identity probe"
    }
    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        vec![
            CellSpec::new("USTC-binary", "RF", "per-flow", |ctx, cfg| {
                let prep = ctx.prep(Task::UstcBinary);
                let r = run_shallow(
                    &prep,
                    ShallowModel::Rf,
                    SplitPolicy::PerFlow,
                    FeatureConfig::default(),
                    &tiny(cfg),
                );
                CellOutput::stats(debunk::debunk_core::engine::RecordStats {
                    accuracy: r.accuracy,
                    macro_f1: r.macro_f1,
                    train_secs: r.train_secs,
                    infer_secs: r.infer_secs,
                })
            }),
            CellSpec::new("USTC-binary", "ET-BERT", "per-flow/frozen", |ctx, cfg| {
                let prep = ctx.prep(Task::UstcBinary);
                let enc = EncoderModel::new(ModelKind::EtBert, 7);
                run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &tiny(cfg)).into()
            }),
            CellSpec::new("USTC-binary", "ET-BERT", "per-packet/frozen", |ctx, cfg| {
                let prep = ctx.prep(Task::UstcBinary);
                let enc = EncoderModel::new(ModelKind::EtBert, 7);
                run_cell(&prep, &enc, SplitPolicy::PerPacket, true, &tiny(cfg)).into()
            }),
        ]
    }
    fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
}

fn ctx(cache: Option<&Path>) -> RunContext {
    let mut c = RunContext::from_preset(Preset::Fast, 11, Some(0.1));
    if let Some(dir) = cache {
        c = c.with_cache_dir(dir.to_path_buf());
    }
    c
}

fn run(ctx: &RunContext, dir: &Path, jobs: usize) -> (String, RunSummary) {
    let opts = RunOptions { jobs, out_dir: Some(dir.to_path_buf()), ..Default::default() };
    let summary = run_experiment(&Probe, ctx, &opts).expect("run starts");
    assert!(summary.ok(), "no cell may fail: {summary:?}");
    let records = std::fs::read_to_string(dir.join(format!("{EXP}.json"))).expect("records");
    (records, summary)
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn records_are_byte_identical_cold_warm_memory_and_warm_disk() {
    let base = temp("debunk-artifact-identity-test");

    // Cold reference at jobs=1; a cold jobs=4 run on a fresh context
    // must match it byte-for-byte and must not duplicate any build
    // (single-flight: same builds count as the serial run).
    let ctx1 = ctx(None);
    let (reference, cold1) = run(&ctx1, &base.join("cold-j1"), 1);
    let ctx4 = ctx(None);
    let (parallel, cold4) = run(&ctx4, &base.join("cold-j4"), 4);
    assert_eq!(reference, parallel, "cold jobs=4 must match cold jobs=1");
    assert_eq!(
        cold4.artifacts.builds, cold1.artifacts.builds,
        "concurrent cold misses must not duplicate builds"
    );

    // Warm in-memory: the same context again — every cell replays from
    // the memory tier, so no new builds happen.
    let (warm_mem, mem) = run(&ctx1, &base.join("warm-mem"), 1);
    assert_eq!(reference, warm_mem, "warm in-memory records must match");
    assert_eq!(mem.artifacts.builds, cold1.artifacts.builds, "warm run must not rebuild");
    assert!(mem.artifacts.mem_hits > cold1.artifacts.mem_hits, "warm run must hit memory");

    // Warm on-disk: populate a cache dir, then fresh contexts (empty
    // memory tier) must serve everything from disk — at jobs 1 and 4.
    let cache = base.join("cache");
    let (disk_cold, _) = run(&ctx(Some(&cache)), &base.join("disk-cold"), 1);
    assert_eq!(reference, disk_cold, "a cache dir must not change the records");
    for jobs in [1usize, 4] {
        let fresh = ctx(Some(&cache));
        let (warm_disk, summary) = run(&fresh, &base.join(format!("disk-warm-j{jobs}")), jobs);
        assert_eq!(reference, warm_disk, "warm on-disk records must match at jobs={jobs}");
        assert_eq!(summary.artifacts.builds, 0, "fully warm disk run must not build");
        assert!(summary.artifacts.disk_hits > 0, "warm run must report disk hits");
        // The manifest mirrors the counters so warm runs are auditable.
        let manifest = std::fs::read_to_string(summary.manifest_path.expect("manifest")).unwrap();
        assert!(
            manifest.contains("\"artifact_disk_hits\": ")
                && !manifest.contains("\"artifact_disk_hits\": 0,"),
            "manifest must report the disk hits: {manifest}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupt_artifacts_fall_back_to_identical_rebuild() {
    let base = temp("debunk-artifact-corruption-test");
    let cache = base.join("cache");
    let (reference, _) = run(&ctx(Some(&cache)), &base.join("cold"), 1);

    // Mangle every cached artifact a different way: truncate, flip a
    // payload byte, and empty out — every failure mode must be caught
    // by the envelope (magic/version/key/checksum), warned about, and
    // rebuilt; never decoded into a wrong record.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("art-")))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "cold run must have written artifacts");
    for (i, path) in files.iter().enumerate() {
        let mut bytes = std::fs::read(path).unwrap();
        match i % 3 {
            0 => bytes.truncate(bytes.len() / 2),
            1 => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            }
            _ => bytes.clear(),
        }
        std::fs::write(path, &bytes).unwrap();
    }

    let (rebuilt, summary) = run(&ctx(Some(&cache)), &base.join("rebuilt"), 1);
    assert_eq!(reference, rebuilt, "corrupted artifacts must rebuild to identical records");
    assert!(summary.artifacts.builds > 0, "corruption must force rebuilds");
    std::fs::remove_dir_all(&base).ok();
}

/// The dataset key is the resolved spec, not the requested scale. VPN
/// scales 0.1665 and 0.1668 truncate to the same milli-scale but resolve
/// to 3 and 4 flows per class, so they must never share a cached
/// dataset; 0.1669 also resolves to 4 and may reuse the 0.1668 file.
#[test]
fn dataset_key_follows_the_resolved_flow_count_not_the_scale() {
    use debunk::dataset::codec::rows_to_bytes;
    use debunk::debunk_core::artifact::ArtifactCache;
    use debunk::debunk_core::pipeline::{PreparedTask, TaskCache};
    use std::sync::Arc;

    let dir = temp("debunk-artifact-scale-key");
    let cache = || Arc::new(ArtifactCache::new(Some(dir.clone())));
    let bytes = |p: &PreparedTask| rows_to_bytes(&p.data.records);

    let small = TaskCache::with_artifacts(cache()).get(Task::VpnApp, 1, 0.1665);
    let arts = cache();
    let large = TaskCache::with_artifacts(arts.clone()).get(Task::VpnApp, 1, 0.1668);
    let reference = PreparedTask::build(Task::VpnApp, 1, 0.1668);
    assert_ne!(bytes(&small), bytes(&reference), "the two scales are different datasets");
    assert_eq!(arts.stats().builds, 1, "0.1668 was served the 0.1665 dataset from disk");
    assert!(bytes(&large) == bytes(&reference));

    let arts = cache();
    let same = TaskCache::with_artifacts(arts.clone()).get(Task::VpnApp, 1, 0.1669);
    assert_eq!(arts.stats().builds, 0, "same flow count, same dataset file");
    assert!(bytes(&same) == bytes(&reference));
    std::fs::remove_dir_all(&dir).ok();
}
