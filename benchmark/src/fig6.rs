//! `repro-fig6`: cold regeneration of Fig. 6 (training and inference
//! cost of RF against the six representation-learning encoders on
//! VPN-app, per-flow split) through the experiment registry, then a
//! traced run that calls each layer of the same work serially.

use crate::report::{kind_slug, Report};
use crate::stats::{median, timed};
use dataset::clean::clean_trace;
use dataset::record::Prepared;
use dataset::split::per_flow_split;
use dataset::Task;
use debunk_core::engine::journal::{parse_json, Json};
use debunk_core::engine::{default_registry, EncoderSpec, Preset, RunContext, RunOptions};
use debunk_core::experiment::{run_cell, SplitPolicy};
use debunk_core::shallow_baselines::{run_shallow, ShallowModel};
use encoders::model::ModelKind;
use shallow::{extract_features, FeatureConfig};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use traffic_synth::DatasetSpec;

/// Cells in Fig. 6: RF plus every encoder frozen and unfrozen.
const CELLS: usize = 1 + 2 * ModelKind::ALL.len();
/// `setup_s` is the median over batches of `SETUP_BATCH`
/// `RunContext::from_preset` + `default_registry()` constructions, per
/// construction: one takes about a microsecond, too short to time
/// alone. `SETUP_BATCHES` batches run before every repetition and after
/// the last, so the samples span the run rather than one instant of it.
const SETUP_BATCHES: usize = 5;
const SETUP_BATCH: u32 = 2_000;
/// Models whose Fig. 6 metric values differ from run to run:
/// `encoders::pretrain::sbp_pretrain` draws its positive pairs in the
/// value order of a `HashMap` with the process-random hasher, so
/// ET-BERT's pre-training, and both its cells, vary between runs of
/// the same seed. Their records must exist; their accuracy and macro-F1
/// are left out of the identity checks until that is fixed.
const UNSTABLE_MODELS: [&str; 1] = ["ET-BERT"];
/// The preset: `Fast` budgets regenerate Fig. 6 in seconds, so several
/// cold repetitions fit one run (`Medium` takes 13–20 s each on two
/// cores). Its default dataset scale leaves the balanced training sets
/// below their cap at some seeds and not others, tripling the cost
/// between seeds; at [`SCALE`] every cell trains on a capped set.
const PRESET: Preset = Preset::Fast;
/// Dataset scale (the `Full` preset's default).
const SCALE: f64 = 1.0;

/// Run the workload into `report`.
pub fn run(report: &mut Report, work: &Path, e2e: bool, traced: bool) -> io::Result<()> {
    let (seed, quick, seconds) = (report.meta.seed, report.meta.quick, report.meta.seconds);
    let scale = if quick { 0.15 } else { SCALE };
    let jobs = crate::meta::nproc().min(2);

    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_BATCHES {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                black_box((RunContext::from_preset(PRESET, seed, Some(scale)), default_registry()));
            }
            setup_s.push(t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
        }
    };
    let registry = default_registry();

    // Timed phase: cold regenerations, each with a fresh context (empty
    // dataset, encoder and artifact caches) and a fresh out dir.
    let budget = if quick { 0.0 } else { seconds };
    let min_reps = if quick || !e2e { 1 } else { 2 };
    let mut walls = Vec::new();
    let mut reference: Option<(String, String)> = None;
    let (mut attempted, mut failed, mut identical, mut complete) = (0u64, 0u64, true, true);
    crate::heap::reset_peak();
    let t_phase = Instant::now();
    while walls.len() < min_reps || t_phase.elapsed().as_secs_f64() < budget {
        if e2e {
            set_up(&mut setup_s);
        }
        let out = work.join(format!("rep{}", walls.len()));
        let ctx = RunContext::from_preset(PRESET, seed, Some(scale));
        let opts = RunOptions { jobs, out_dir: Some(out.clone()), ..Default::default() };
        let t = Instant::now();
        let summary = registry.run("fig6", &ctx, &opts).map_err(io::Error::other)?;
        walls.push(t.elapsed().as_secs_f64());
        attempted += summary.cells_total as u64;
        failed += (summary.cells_failed + summary.record_write_errors.len()) as u64;
        complete &= summary.ok() && summary.cells_done == CELLS && summary.cells_total == CELLS;
        let records = std::fs::read_to_string(out.join("fig6.json")).unwrap_or_default();
        let stable = stable_view(&records);
        identical &= reference.get_or_insert_with(|| (records, stable.clone())).1 == stable;
        std::fs::remove_dir_all(&out)?;
    }
    let peak_mb = crate::heap::mib(crate::heap::peak());
    if e2e {
        set_up(&mut setup_s);
    }
    let (records, stable) = reference.unwrap_or_default();
    report.check(
        "RunSummary::ok() and 13/13 cells done on every repetition",
        complete,
        format!("{} repetitions, {failed} failed cells", walls.len()),
    );
    report.check(
        "fig6.json byte-identical across repetitions (unstable models' metrics aside)",
        identical && records.matches("\"model\"").count() == CELLS - 1,
        format!("{} bytes, {} compared", records.len(), stable.len()),
    );
    if !identical {
        failed += 1;
    }
    report.info("repetitions", walls.len() as f64);
    report.info("jobs", jobs as f64);
    report.info("scale", scale);

    if e2e {
        // The whole figure is the job's one response, so its latency
        // distribution is one sample per repetition.
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        report.e2e.insert("setup_s".into(), setup_s);
        report.e2e.insert("pass_s".into(), walls.clone());
        report.e2e.insert("p50_ms".into(), ms.clone());
        report.e2e.insert("p99_ms".into(), ms);
        report.e2e.insert("peak_heap_mb".into(), vec![peak_mb]);
    }
    if traced {
        let mismatched = trace(report, seed, scale, jobs, median(&walls), &records)?;
        failed += mismatched;
    }
    report.attempted = attempted;
    report.failed = failed;
    Ok(())
}

/// `fig6.json` without the metric lines of [`UNSTABLE_MODELS`].
fn stable_view(records: &str) -> String {
    let mut unstable = false;
    let mut out = String::new();
    for line in records.lines() {
        let field = line.trim_start();
        if field.starts_with("\"model\"") {
            unstable = UNSTABLE_MODELS.iter().any(|m| field.contains(&format!("\"{m}\"")));
        }
        if !(unstable && (field.starts_with("\"accuracy\"") || field.starts_with("\"macro_f1\""))) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The traced run: every layer of Fig. 6 called serially on a fresh
/// context, each call timed. Returns cells whose accuracy differs from
/// the e2e records.
fn trace(
    report: &mut Report,
    seed: u64,
    scale: f64,
    jobs: usize,
    e2e_wall: f64,
    records: &str,
) -> io::Result<u64> {
    // Serial cells get the cores the runner splits across parallel ones.
    nn::set_kernel_threads(jobs);
    let ctx = RunContext::from_preset(PRESET, seed, Some(scale));
    let mut layer = |name: String, v: f64| report.layers.insert(name, v);
    let mut named = 0.0;
    let t_trace = Instant::now();

    // The prepare chain, stage by stage (what `ctx.prep` does in one go).
    let task = Task::VpnApp;
    let spec = DatasetSpec::new(task.dataset(), seed).scaled(ctx.scale);
    let (mut generate, mut clean, mut build, mut featurize, mut split) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut trace = timed(&mut generate, || spec.generate());
    timed(&mut clean, || clean_trace(&mut trace));
    let data = timed(&mut build, || Prepared::from_trace(&trace));
    timed(&mut featurize, || {
        for r in &data.records {
            black_box(extract_features(r, FeatureConfig::default()));
        }
    });
    let rf_cfg = ctx.cell_config("fig6", "VPN-app", "RF", "per-flow");
    timed(&mut split, || {
        black_box(per_flow_split(&data, rf_cfg.train_frac, rf_cfg.max_flow_packets, rf_cfg.seed))
    });
    drop((trace, data));
    let mut prepare = 0.0;
    let prep = timed(&mut prepare, || ctx.prep(task));
    named += generate + clean + build + featurize + split + prepare;

    let mut encoders = Vec::new();
    for kind in ModelKind::ALL {
        let mut t = 0.0;
        encoders.push((kind, timed(&mut t, || ctx.encoder(EncoderSpec::pretrained(kind)))));
        layer(format!("pretrain.{}.s", kind_slug(kind)), t);
        named += t;
    }
    let mut tokenize = 0.0;
    for (_, enc) in &encoders {
        timed(&mut tokenize, || {
            for r in &prep.data.records {
                black_box(enc.tokenize_packet_repeated(r));
            }
        });
    }
    named += tokenize;

    let mut call = 0.0;
    let rf = timed(&mut call, || {
        run_shallow(
            &prep,
            ShallowModel::Rf,
            SplitPolicy::PerFlow,
            FeatureConfig::default(),
            &rf_cfg,
        )
    });
    layer("train.rf.s".into(), rf.train_secs);
    layer("infer.rf.s".into(), rf.infer_secs);

    let recorded = parse_json(records).map_err(io::Error::other)?;
    let recorded = match recorded {
        Json::Arr(list) => list,
        _ => Vec::new(),
    };
    let mut mismatched = 0u64;
    for (kind, enc) in &encoders {
        for frozen in [true, false] {
            let setting = if frozen { "frozen" } else { "unfrozen" };
            let cfg = ctx.cell_config("fig6", "VPN-app", kind.name(), setting);
            let res = timed(&mut call, || run_cell(&prep, enc, SplitPolicy::PerFlow, frozen, &cfg));
            let slug = kind_slug(*kind);
            layer(format!("train.{slug}.{setting}.s"), res.train_secs);
            if frozen {
                layer(format!("infer.{slug}.s"), res.infer_secs);
            }
            let record = recorded.iter().find(|r| {
                r.get("model").and_then(Json::str) == Some(kind.name())
                    && r.get("setting").and_then(Json::str) == Some(setting)
            });
            let accuracy = record.and_then(|r| r.get("accuracy")).and_then(Json::num);
            if UNSTABLE_MODELS.contains(&kind.name()) {
                continue;
            }
            if accuracy != Some(res.accuracy * 100.0) {
                eprintln!(
                    "traced {} {setting}: accuracy {} vs recorded {accuracy:?}",
                    kind.name(),
                    res.accuracy * 100.0
                );
                mismatched += 1;
            }
        }
    }
    named += call;
    let wall = t_trace.elapsed().as_secs_f64();

    for (name, v) in [
        ("generate.s", generate),
        ("clean.s", clean),
        ("records.s", build),
        ("tokenize.s", tokenize),
        ("featurize.s", featurize),
        ("split.s", split),
        ("prepare.s", prepare),
        ("artifacts.builds", ctx.artifacts().stats().builds as f64),
        ("engine.other.s", wall - named),
        ("trace.coverage", named / wall),
        ("trace.overhead", wall / e2e_wall - 1.0),
    ] {
        layer(name.into(), v);
    }
    report.check(
        "each traced run_cell accuracy equals its fig6.json record",
        mismatched == 0,
        format!(
            "{} cells compared, {mismatched} differ",
            2 * (ModelKind::ALL.len() - UNSTABLE_MODELS.len())
        ),
    );
    Ok(mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_view_drops_only_the_unstable_models_metrics() {
        let records = "[\n  {\n    \"model\": \"ET-BERT\",\n    \"setting\": \"frozen\",\n    \
                       \"accuracy\": 12.5,\n    \"macro_f1\": 11.5,\n    \"train_secs\": 0.0\n  },\n  \
                       {\n    \"model\": \"YaTC\",\n    \"accuracy\": 13.5,\n    \
                       \"macro_f1\": 10.5\n  }\n]";
        let view = stable_view(records);
        assert!(!view.contains("12.5") && !view.contains("11.5"), "{view}");
        for kept in ["\"ET-BERT\"", "\"frozen\"", "\"train_secs\": 0.0", "13.5", "10.5"] {
            assert!(view.contains(kept), "{kept} missing from {view}");
        }
    }
}
