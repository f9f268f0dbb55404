//! Out-of-band observability byte-identity matrix: `--trace` must change
//! zero bytes of the result records, the journal and the run manifest —
//! across `--jobs` 1 and 4 and cold vs warm `--cache-dir` — while the
//! trace file parses line by line and `metrics.json` reconciles with the
//! in-memory `RunSummary`.

use debunk::dataset::Task;
use debunk::debunk_core::engine::journal::{parse_json, Json};
use debunk::debunk_core::engine::{
    run_experiment, CellOutput, CellSpec, Experiment, Preset, RunContext, RunOptions, RunSummary,
    JOURNAL_FILE, MANIFEST_FILE,
};
use debunk::debunk_core::experiment::{run_cell, CellConfig, SplitPolicy};
use debunk::debunk_core::obs::{METRICS_FILE, TRACE_FILE};
use debunk::debunk_core::shallow_baselines::{run_shallow, ShallowModel};
use debunk::encoders::model::{EncoderModel, ModelKind};
use debunk::shallow::features::FeatureConfig;
use std::path::{Path, PathBuf};

const EXP: &str = "trace-probe";

/// Shrink the preset's hyper-parameters so every cell runs in well under
/// a second even unoptimised; determinism is all that matters here.
fn tiny(cfg: &CellConfig) -> CellConfig {
    CellConfig { max_train: 300, max_test: 300, kfolds: 2, frozen_epochs: 3, ..cfg.clone() }
}

/// Three cells covering the pipeline stages the sink times: shallow
/// features + per-flow split, frozen-encoder tokens + per-flow split,
/// and the per-packet split variant.
struct Probe;

impl Experiment for Probe {
    fn id(&self) -> &'static str {
        EXP
    }
    fn description(&self) -> &'static str {
        "trace byte-identity probe"
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

/// The three deterministic outputs the trace flag must never perturb.
struct RunBytes {
    records: String,
    journal: String,
    manifest: String,
}

fn run(ctx: &RunContext, dir: &Path, jobs: usize, trace: bool) -> (RunBytes, RunSummary) {
    let opts = RunOptions { jobs, out_dir: Some(dir.to_path_buf()), trace, ..Default::default() };
    let summary = run_experiment(&Probe, ctx, &opts).expect("run starts");
    assert!(summary.ok(), "no cell may fail: {summary:?}");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
    let bytes = RunBytes {
        records: read(&format!("{EXP}.json")),
        journal: read(JOURNAL_FILE),
        manifest: read(MANIFEST_FILE),
    };
    (bytes, summary)
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The journal's *set* of entries is deterministic, but at `--jobs` > 1
/// threads race to append so the line order may differ between runs
/// (the manifest's `journal_hash` is taken over the sorted lines).
fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn trace_flag_changes_zero_record_journal_or_manifest_bytes() {
    let base = temp("debunk-obs-identity-test");

    for jobs in [1usize, 4] {
        let (plain, _) = run(&ctx(None), &base.join(format!("plain-j{jobs}")), jobs, false);
        let traced_dir = base.join(format!("traced-j{jobs}"));
        let (traced, summary) = run(&ctx(None), &traced_dir, jobs, true);

        assert_eq!(plain.records, traced.records, "records must be byte-identical at jobs={jobs}");
        assert_eq!(
            plain.manifest, traced.manifest,
            "manifest must be byte-identical at jobs={jobs}"
        );
        if jobs == 1 {
            // Serial appends are fully ordered: the whole journal must
            // match byte for byte.
            assert_eq!(plain.journal, traced.journal, "journal must be byte-identical at jobs=1");
        } else {
            assert_eq!(
                sorted_lines(&plain.journal),
                sorted_lines(&traced.journal),
                "journal entry set must be identical at jobs={jobs}"
            );
        }

        // The observability files live strictly out of band: present
        // exactly when tracing, and never next to an untraced run.
        assert!(traced_dir.join(TRACE_FILE).is_file(), "traced run must write {TRACE_FILE}");
        assert!(traced_dir.join(METRICS_FILE).is_file(), "traced run must write {METRICS_FILE}");
        assert_eq!(
            summary.metrics_path.as_deref(),
            Some(traced_dir.join(METRICS_FILE).as_path()),
            "summary must point at the metrics file"
        );
        let plain_dir = base.join(format!("plain-j{jobs}"));
        assert!(!plain_dir.join(TRACE_FILE).exists(), "untraced run must not write a trace");
        assert!(!plain_dir.join(METRICS_FILE).exists(), "untraced run must not write metrics");
    }

    // Warm-cache leg: populate a cache dir without tracing, then a warm
    // traced run and a warm untraced run (fresh contexts either way)
    // must replay to the same record bytes as the cold reference.
    let cache = base.join("cache");
    let (cold, _) = run(&ctx(Some(&cache)), &base.join("disk-cold"), 1, false);
    let (warm_plain, _) = run(&ctx(Some(&cache)), &base.join("disk-warm-plain"), 1, false);
    let (warm_traced, warm_summary) =
        run(&ctx(Some(&cache)), &base.join("disk-warm-traced"), 1, true);
    assert_eq!(cold.records, warm_plain.records, "warm replay must match the cold reference");
    assert_eq!(warm_plain.records, warm_traced.records, "trace must not perturb a warm replay");
    assert_eq!(warm_plain.journal, warm_traced.journal, "warm journal must be byte-identical");
    assert_eq!(warm_plain.manifest, warm_traced.manifest, "warm manifest must be byte-identical");
    assert!(warm_summary.artifacts.disk_hits > 0, "warm leg must actually hit the disk cache");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn trace_parses_line_by_line_and_metrics_reconcile_with_summary() {
    let base = temp("debunk-obs-reconcile-test");
    let dir = base.join("run");
    let (_, summary) = run(&ctx(None), &dir, 4, true);

    // Every trace line is a standalone JSON object carrying the event
    // envelope: monotonic timestamp, level, target, message.
    let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).expect("trace file");
    let mut events = 0usize;
    let mut last_t = 0.0f64;
    for line in trace.lines() {
        let j = parse_json(line).unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        let t = j.get("t").and_then(Json::num).expect("event timestamp");
        assert!(t >= 0.0, "timestamps are seconds since session start");
        last_t = last_t.max(t);
        for key in ["level", "target", "msg"] {
            assert!(j.get(key).and_then(Json::str).is_some(), "event must carry '{key}': {line}");
        }
        events += 1;
    }
    assert!(events >= 3, "a three-cell run must emit at least one event per cell");

    // metrics.json totals must agree with the in-memory summary the
    // runner returned for the very same session.
    let metrics = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics file");
    let j = parse_json(&metrics).expect("metrics parses");
    let count = |obj: &Json, key: &str| -> usize {
        obj.get(key).and_then(Json::num).unwrap_or_else(|| panic!("missing count '{key}'")) as usize
    };
    let cells = j.get("cells").expect("cells object");
    assert_eq!(count(cells, "total"), summary.cells_total);
    assert_eq!(count(cells, "done"), summary.cells_done);
    assert_eq!(count(cells, "failed"), summary.cells_failed);
    assert_eq!(count(cells, "resumed"), summary.cells_resumed);
    let artifacts = j.get("artifacts").expect("artifacts object");
    assert_eq!(count(artifacts, "builds"), summary.artifacts.builds);
    assert_eq!(count(artifacts, "mem_hits"), summary.artifacts.mem_hits);
    assert_eq!(count(artifacts, "disk_hits"), summary.artifacts.disk_hits);

    std::fs::remove_dir_all(&base).ok();
}
