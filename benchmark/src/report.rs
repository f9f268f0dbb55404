//! Metric names, the per-run report, and `compare`.
//!
//! A run prints two JSON lines on stdout: the full report (every metric
//! with unit, median, quartiles and sample count, plus checks, metadata
//! and workload facts), then the one-line summary the benchmark contract
//! asks for (`correct`, `attempted`, `failed`, `metrics` as
//! `{value, unit}` medians). `--out FILE` appends the full report to a
//! JSONL file; `compare` reads two such files.

use crate::meta::Meta;
use crate::stats::quartiles;
use debunk_core::engine::journal::{escape_json, format_f64, parse_json, Json};
use encoders::model::ModelKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one of them, with
/// nothing traced (see README for each workload's definition).
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Metric-name form of a model kind (`ET-BERT` → `et-bert`).
pub fn kind_slug(kind: ModelKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// Per-layer metrics of the traced run, in report order. A workload
/// whose traced run never enters a layer reports it as 0.
pub fn layer_specs() -> Vec<(String, &'static str)> {
    let mut specs: Vec<(String, &'static str)> = [
        ("parse.s", "s"),
        ("flow.push.s", "s"),
        ("flow.poll.s", "s"),
        ("flow.live_max", "count"),
        ("flow.evicted.idle", "count"),
        ("flow.evicted.closed", "count"),
        ("flow.evicted.flush", "count"),
        ("policy.s", "s"),
        ("featurize.s", "s"),
        ("model.forest.s", "s"),
        ("encode.s", "s"),
        ("head.s", "s"),
        ("model.knn.s", "s"),
        ("classify.batches", "count"),
        ("verdicts", "count"),
        ("engine.other.s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
        ("loadgen.late_p99_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for rate in crate::serve::LADDER_KPPS {
        specs.push((format!("ladder.{rate}k.p99_ms"), "ms"));
    }
    specs.push(("sustained_pps".into(), "packets/s"));
    for name in ["generate.s", "clean.s", "records.s", "tokenize.s", "split.s", "prepare.s"] {
        specs.push((name.into(), "s"));
    }
    specs.push(("artifacts.builds".into(), "count"));
    for kind in ModelKind::ALL {
        specs.push((format!("pretrain.{}.s", kind_slug(kind)), "s"));
    }
    specs.push(("train.rf.s".into(), "s"));
    specs.push(("infer.rf.s".into(), "s"));
    for kind in ModelKind::ALL {
        let k = kind_slug(kind);
        specs.push((format!("train.{k}.frozen.s"), "s"));
        specs.push((format!("train.{k}.unfrozen.s"), "s"));
        specs.push((format!("infer.{k}.s"), "s"));
    }
    specs
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch, for the reader.
    pub detail: String,
}

/// Everything one `run` measured.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Run metadata.
    pub meta: Meta,
    /// Output checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// Operations attempted (expected verdicts, or cells).
    pub attempted: u64,
    /// Operations missing, mismatched or failed.
    pub failed: u64,
    /// End-to-end samples by metric name (empty when not run).
    pub e2e: BTreeMap<String, Vec<f64>>,
    /// Traced per-layer values by metric name (empty when not run).
    pub layers: BTreeMap<String, f64>,
    /// Workload facts: input sizes, counts, derived rates.
    pub info: Vec<(String, f64)>,
}

impl Report {
    /// Empty report for `workload`.
    pub fn new(workload: &'static str, meta: Meta) -> Report {
        Report {
            workload,
            meta,
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("CHECK FAILED: {name}: {detail}");
        }
        self.checks.push(Check { name: name.to_string(), ok, detail });
    }

    /// Record a workload fact.
    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    /// True when every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The full report as one JSON line.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let opt = |v: &Option<String>| {
            v.as_ref().map_or("null".to_string(), |s| format!("\"{}\"", escape_json(s)))
        };
        let mut s = format!(
            "{{\"schema\":\"debunk-benchmark/v1\",\"workload\":\"{}\",\"meta\":{{\"git_rev\":{},\
             \"cpu\":\"{}\",\"nproc\":{},\"fingerprint\":\"{}\",\"rustc\":{},\"seed\":{},\
             \"quick\":{},\"seconds\":{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"checks\":[",
            self.workload,
            opt(&m.git_rev),
            escape_json(&m.cpu),
            m.nproc,
            m.fingerprint,
            opt(&m.rustc),
            m.seed,
            m.quick,
            format_f64(m.seconds),
            self.correct(),
            self.attempted,
            self.failed,
        );
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                escape_json(&c.name),
                c.ok,
                escape_json(&c.detail)
            );
        }
        s.push_str("],\"e2e\":{");
        let e2e: Vec<String> = E2E
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.e2e.get(*name)?;
                let (q1, med, q3) = quartiles(v);
                Some(format!(
                    "\"{name}\":{{\"unit\":\"{unit}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                    format_f64(med),
                    format_f64(q1),
                    format_f64(q3),
                    v.len()
                ))
            })
            .collect();
        s.push_str(&e2e.join(","));
        s.push_str("},\"layers\":{");
        if !self.layers.is_empty() {
            let layers: Vec<String> = layer_specs()
                .iter()
                .map(|(name, unit)| {
                    let v = self.layers.get(name).copied().unwrap_or(0.0);
                    format!("\"{name}\":{{\"unit\":\"{unit}\",\"value\":{}}}", format_f64(v))
                })
                .collect();
            s.push_str(&layers.join(","));
        }
        s.push_str("},\"info\":{");
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape_json(k), format_f64(*v)))
            .collect();
        s.push_str(&info.join(","));
        s.push_str("}}");
        s
    }

    /// The contract summary line: `{value, unit}` per metric — medians
    /// of the end-to-end metrics and/or the traced per-layer values,
    /// whichever phases ran.
    pub fn summary_line(&self) -> String {
        let mut metrics: Vec<String> = Vec::new();
        for (name, unit) in E2E {
            if let Some(v) = self.e2e.get(name) {
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    format_f64(quartiles(v).1)
                ));
            }
        }
        if !self.layers.is_empty() {
            for (name, unit) in layer_specs() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    format_f64(v)
                ));
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

// ---------------------------------------------------------------------
// compare

/// One workload's end-to-end medians pooled from a result file.
struct Pooled {
    fingerprint: String,
    seed: f64,
    quick: bool,
    /// metric → per-run medians (one run: its own median and quartiles).
    runs: BTreeMap<String, Vec<(f64, f64, f64)>>,
}

fn at_path<'a>(j: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(j, |j, k| j.get(k))
}

fn load_runs(path: &str) -> Result<BTreeMap<String, Pooled>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload: BTreeMap<String, Pooled> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let j = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |p: &[&str]| at_path(&j, p).ok_or(format!("{path}:{}: missing {p:?}", i + 1));
        let workload = field(&["workload"])?.str().unwrap_or_default().to_string();
        let fingerprint = field(&["meta", "fingerprint"])?.str().unwrap_or_default().to_string();
        let seed = field(&["meta", "seed"])?.num().unwrap_or(f64::NAN);
        let quick = *field(&["meta", "quick"])? == Json::Bool(true);
        let pooled = by_workload.entry(workload.clone()).or_insert_with(|| Pooled {
            fingerprint: fingerprint.clone(),
            seed,
            quick,
            runs: BTreeMap::new(),
        });
        if (pooled.fingerprint.as_str(), pooled.seed, pooled.quick)
            != (fingerprint.as_str(), seed, quick)
        {
            return Err(format!(
                "{path}: runs of {workload} differ in fingerprint, seed or --quick"
            ));
        }
        if let Some(Json::Obj(metrics)) = j.get("e2e") {
            for (name, m) in metrics {
                let num = |k: &str| m.get(k).and_then(Json::num).unwrap_or(f64::NAN);
                pooled.runs.entry(name.clone()).or_default().push((
                    num("q1"),
                    num("median"),
                    num("q3"),
                ));
            }
        }
    }
    Ok(by_workload)
}

/// `(q1, median, q3)` of a metric over a file's runs: one run reports
/// its own quartiles; several runs pool their medians.
fn pool(runs: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    match runs {
        [one] => *one,
        _ => quartiles(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
}

/// Bounds and directions from `BENCHMARK.json`: name → (better, bound).
fn load_bounds(path: &str) -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(list)) = j.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::str).ok_or("metric without name")?;
            let better = m.get("better").and_then(Json::str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::num).ok_or("metric without bound")?;
            Ok((name.to_string(), (better.to_string(), bound)))
        })
        .collect()
}

/// Compare result files `a` (baseline) and `b` (candidate) against the
/// bounds in `bench`. Returns the process exit code: 0 when every
/// end-to-end metric is within its bound, 1 when one worsened past it,
/// 2 when the files cannot be compared.
pub fn compare(a: &str, b: &str, bench: &str) -> i32 {
    let loaded = load_runs(a).and_then(|ra| Ok((ra, load_runs(b)?, load_bounds(bench)?)));
    let (ra, rb, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut worse = 0;
    println!(
        "{:<13} {:<12} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    for (workload, pa) in &ra {
        let Some(pb) = rb.get(workload) else {
            println!("{workload:<13} (only in {a})");
            continue;
        };
        if pa.fingerprint != pb.fingerprint || pa.seed != pb.seed || pa.quick != pb.quick {
            eprintln!(
                "compare: refusing {workload}: A is fingerprint {} seed {} quick {}, \
                 B is fingerprint {} seed {} quick {}",
                pa.fingerprint, pa.seed, pa.quick, pb.fingerprint, pb.seed, pb.quick
            );
            return 2;
        }
        for (name, (better, bound)) in &bounds {
            let (Some(va), Some(vb)) = (pa.runs.get(name), pb.runs.get(name)) else { continue };
            let (a1, am, a3) = pool(va);
            let (b1, bm, b3) = pool(vb);
            let delta = if am != 0.0 { (bm - am) / am } else { 0.0 };
            let worsened = if better == "lower" { delta } else { -delta };
            let verdict = if worsened > *bound {
                worse += 1;
                "WORSE"
            } else {
                "ok"
            };
            // Four significant digits whatever the scale (µs to s).
            let g = |v: f64| format!("{v:.3e}");
            let cell = |m: f64, q1: f64, q3: f64| format!("{} [{}, {}]", g(m), g(q1), g(q3));
            println!(
                "{workload:<13} {name:<12} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {verdict}",
                cell(am, a1, a3),
                cell(bm, b1, b3),
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    for workload in rb.keys().filter(|w| !ra.contains_key(*w)) {
        println!("{workload:<13} (only in {b})");
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than their bound");
        1
    } else {
        0
    }
}
