//! Structured, deterministic-safe observability: leveled events, an
//! append-only trace sink and aggregated run metrics.
//!
//! The determinism contract (PR 1–4) zeroes every wall-clock field in
//! records, the journal and cell artifacts, which left the repo blind to
//! where runs actually spend time. This module restores measurement
//! *out of band*: real timings, attempt/retry/backoff counters,
//! artifact-cache hit rates, kernel-thread budget decisions and
//! per-stage pipeline durations flow into two files under `--out-dir`
//! that are strictly separate from the deterministic outputs:
//!
//! - `trace.jsonl` — append-only leveled events, one JSON object per
//!   line (same single-`write`+flush discipline as the run journal);
//! - `metrics.json` — aggregated totals, written atomically at session
//!   finish.
//!
//! Records, `journal.jsonl` and `run-manifest.json` remain byte-identical
//! whether tracing is on or off, at any `--jobs`, cold or warm cache —
//! no value read from the clock ever reaches them (asserted by
//! `tests/obs_trace.rs`).
//!
//! Event sinks are handles ([`ObsSink`]), installed per run session on
//! the [`RunContext`](crate::engine::RunContext) and the
//! [`ArtifactCache`](crate::artifact::ArtifactCache); components without
//! a session (front-end banners, standalone cache use) fall back to the
//! process-global stderr sink ([`global`]/[`set_global`]).

use crate::engine::journal::{escape_json, format_f64, parse_json, Json};
use nn::envelope::atomic_write;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Trace file name under `--out-dir`.
pub const TRACE_FILE: &str = "trace.jsonl";
/// Metrics file name under `--out-dir`.
pub const METRICS_FILE: &str = "metrics.json";

/// Event severity. `Debug` events go to the trace file only; `Info` and
/// above also reach stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume progress detail (cache saves, stage timings).
    Debug,
    /// Normal progress (cell results, resume notices).
    Info,
    /// Something was ignored or degraded but the run continues.
    Warn,
    /// A write was lost or a step failed; surfaced in the exit path too.
    Error,
}

impl Level {
    /// Lower-case name as written in event lines.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// How events render on stderr (`--log-format`). The trace file is
/// always JSON regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-readable message text (the historical `eprintln!` look).
    Text,
    /// One JSON object per line, identical to the trace-file schema.
    Json,
}

impl LogFormat {
    /// Parse a `--log-format` value.
    pub fn parse(name: &str) -> Option<LogFormat> {
        match name {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }

    /// Name as accepted by `--log-format`.
    pub fn name(self) -> &'static str {
        match self {
            LogFormat::Text => "text",
            LogFormat::Json => "json",
        }
    }
}

/// A structured field value attached to an event.
#[derive(Debug, Clone)]
pub enum Value {
    /// String field.
    Str(String),
    /// Integer counter (kept well under 2^53; hashes travel as hex
    /// strings).
    U64(u64),
    /// Seconds or other measurements.
    F64(f64),
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", escape_json(s)),
            Value::U64(n) => n.to_string(),
            Value::F64(v) => format_f64(*v),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::U64(n as u64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

/// How one cell concluded, for the per-experiment aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell's work function ran to completion.
    Executed,
    /// Replayed from the run journal (`--resume`).
    ReplayedJournal,
    /// Replayed from the content-addressed artifact cache.
    ReplayedCache,
    /// Exhausted its attempts.
    Failed,
}

#[derive(Debug, Default, Clone)]
struct StageAgg {
    count: u64,
    secs: f64,
}

#[derive(Debug, Default, Clone)]
struct ExpAgg {
    cells: u64,
    executed: u64,
    replayed: u64,
    failed: u64,
    attempts: u64,
    retries: u64,
    backoff_ms: u64,
    /// Real time of the whole experiment (cells + render), one span.
    wall_secs: f64,
    /// Sum of per-cell wall clocks (exceeds `wall_secs` under `--jobs`).
    cell_secs: f64,
    train_secs: f64,
    infer_secs: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct KernelBudget {
    jobs: u64,
    cell_jobs: u64,
    kernel_threads: u64,
}

/// Why the serving flow table retired a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionReason {
    /// TCP teardown observed (both FINs or RST).
    Closed,
    /// No packet within the idle timeout.
    Idle,
    /// End-of-stream flush.
    Flush,
}

impl EvictionReason {
    /// Lower-case name as written in trace events.
    pub fn name(self) -> &'static str {
        match self {
            EvictionReason::Closed => "closed",
            EvictionReason::Idle => "idle",
            EvictionReason::Flush => "flush",
        }
    }
}

#[derive(Default)]
struct Agg {
    stages: BTreeMap<String, StageAgg>,
    experiments: BTreeMap<String, ExpAgg>,
    attempts: u64,
    retries: u64,
    backoff_ms: u64,
    kernel: Option<KernelBudget>,
}

/// A structured event/metrics sink. Cheap to share (`Arc`); every method
/// takes `&self` and is safe to call from worker threads.
pub struct ObsSink {
    format: LogFormat,
    /// `trace.jsonl` writer; each event is one `write` + flush so lines
    /// never interleave (same discipline as the journal).
    trace: Option<Mutex<File>>,
    /// `--out-dir`, when this sink writes files.
    dir: Option<PathBuf>,
    start: Instant,
    agg: Mutex<Agg>,
    event_counts: [AtomicUsize; 4],
}

impl ObsSink {
    /// A stderr-only sink: events render per `format`, nothing is
    /// written to disk and `write_metrics` is a no-op.
    pub fn stderr(format: LogFormat) -> ObsSink {
        ObsSink {
            format,
            trace: None,
            dir: None,
            start: Instant::now(),
            agg: Mutex::new(Agg::default()),
            event_counts: Default::default(),
        }
    }

    /// A tracing sink under `dir`: opens (truncating) `dir/trace.jsonl`
    /// and arms `write_metrics` to land `dir/metrics.json`.
    pub fn with_dir(dir: &Path, format: LogFormat) -> io::Result<ObsSink> {
        std::fs::create_dir_all(dir)?;
        let file = File::create(dir.join(TRACE_FILE))?;
        let mut sink = ObsSink::stderr(format);
        sink.trace = Some(Mutex::new(file));
        sink.dir = Some(dir.to_path_buf());
        Ok(sink)
    }

    /// The sink's stderr format.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// True when this sink records a trace file (i.e. `--trace` is on).
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Emit one event. `Debug` events reach the trace file only; `Info`
    /// and above also go to stderr — as the plain `msg` in text mode, as
    /// the full JSON object in json mode.
    pub fn event(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
        self.event_counts[level.index()].fetch_add(1, Ordering::Relaxed);
        let json = (self.trace.is_some() || self.format == LogFormat::Json)
            .then(|| self.event_json(level, target, msg, fields));
        if level >= Level::Info {
            match self.format {
                LogFormat::Text => eprintln!("{msg}"),
                LogFormat::Json => eprintln!("{}", json.as_deref().unwrap_or(msg)),
            }
        }
        if let (Some(trace), Some(json)) = (&self.trace, &json) {
            let mut line = json.clone();
            line.push('\n');
            let mut file = trace.lock().unwrap_or_else(|e| e.into_inner());
            // Trace writes are best-effort observability: a full disk
            // must not fail the run the way a lost record would.
            let _ = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        }
    }

    fn event_json(
        &self,
        level: Level,
        target: &str,
        msg: &str,
        fields: &[(&str, Value)],
    ) -> String {
        let mut s = format!(
            "{{\"t\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
            format_f64(self.start.elapsed().as_secs_f64()),
            level.name(),
            escape_json(target),
            escape_json(msg),
        );
        if !fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", escape_json(k), v.to_json()));
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// `Debug` event shorthand.
    pub fn debug(&self, target: &str, msg: &str, fields: &[(&str, Value)]) {
        self.event(Level::Debug, target, msg, fields);
    }

    /// `Info` event shorthand.
    pub fn info(&self, target: &str, msg: &str, fields: &[(&str, Value)]) {
        self.event(Level::Info, target, msg, fields);
    }

    /// `Warn` event shorthand.
    pub fn warn(&self, target: &str, msg: &str, fields: &[(&str, Value)]) {
        self.event(Level::Warn, target, msg, fields);
    }

    /// `Error` event shorthand.
    pub fn error(&self, target: &str, msg: &str, fields: &[(&str, Value)]) {
        self.event(Level::Error, target, msg, fields);
    }

    fn agg(&self) -> std::sync::MutexGuard<'_, Agg> {
        self.agg.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `secs` to a named pipeline stage (trace, clean, tokenize,
    /// featurize, split, pretrain, train, infer, and `wait`: time blocked
    /// on another thread's artifact build).
    pub fn add_stage(&self, stage: &str, secs: f64) {
        let mut agg = self.agg();
        let entry = agg.stages.entry(stage.to_string()).or_default();
        entry.count += 1;
        entry.secs += secs;
    }

    /// The `(count, secs)` recorded under `stage` so far, if any.
    #[cfg(test)]
    pub(crate) fn stage(&self, stage: &str) -> Option<(u64, f64)> {
        self.agg().stages.get(stage).map(|st| (st.count, st.secs))
    }

    /// Run `f`, recording its wall-clock under `stage` and emitting a
    /// `Debug` stage event.
    pub fn time_stage<T>(&self, stage: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.add_stage(stage, secs);
        self.debug(
            "pipeline",
            &format!("  [stage] {stage}: {secs:.3}s"),
            &[("stage", stage.into()), ("secs", secs.into())],
        );
        out
    }

    /// Record the runner's thread-budget split for one experiment.
    pub fn record_kernel_budget(&self, jobs: usize, cell_jobs: usize, kernel_threads: usize) {
        self.agg().kernel = Some(KernelBudget {
            jobs: jobs as u64,
            cell_jobs: cell_jobs as u64,
            kernel_threads: kernel_threads as u64,
        });
    }

    /// Record one concluded cell. `attempts` counts this session's
    /// attempts (0 for replays); `train_secs`/`infer_secs` are the real
    /// timings *before* the runner zeroes them for serialisation.
    #[allow(clippy::too_many_arguments)]
    pub fn record_cell(
        &self,
        experiment: &str,
        outcome: CellOutcome,
        attempts: u32,
        backoff_ms: u64,
        wall_secs: f64,
        train_secs: f64,
        infer_secs: f64,
    ) {
        let retries = u64::from(attempts.saturating_sub(1));
        let mut agg = self.agg();
        agg.attempts += u64::from(attempts);
        agg.retries += retries;
        agg.backoff_ms += backoff_ms;
        let exp = agg.experiments.entry(experiment.to_string()).or_default();
        exp.cells += 1;
        match outcome {
            CellOutcome::Executed => exp.executed += 1,
            CellOutcome::ReplayedJournal | CellOutcome::ReplayedCache => exp.replayed += 1,
            CellOutcome::Failed => exp.failed += 1,
        }
        exp.attempts += u64::from(attempts);
        exp.retries += retries;
        exp.backoff_ms += backoff_ms;
        exp.cell_secs += wall_secs;
        exp.train_secs += train_secs;
        exp.infer_secs += infer_secs;
    }

    /// Record the whole-experiment wall-clock span (cells + render).
    pub fn record_experiment_wall(&self, experiment: &str, wall_secs: f64) {
        self.agg().experiments.entry(experiment.to_string()).or_default().wall_secs += wall_secs;
    }

    /// Render the aggregated metrics as deterministic-structure JSON.
    /// Artifact-cache and cell counters come from the session's
    /// [`RunSummary`](crate::engine::RunSummary), so `metrics.json`
    /// reconciles with `run-manifest.json` by construction.
    pub fn metrics_json(
        &self,
        summary: &crate::engine::runner::RunSummary,
        total_secs: f64,
    ) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": 1,\n");
        s.push_str(&format!("  \"total_secs\": {},\n", format_f64(total_secs)));
        s.push_str(&format!(
            "  \"cells\": {{\"total\": {}, \"done\": {}, \"failed\": {}, \"resumed\": {}}},\n",
            summary.cells_total, summary.cells_done, summary.cells_failed, summary.cells_resumed
        ));
        {
            let agg = self.agg();
            s.push_str(&format!("  \"attempts\": {},\n", agg.attempts));
            s.push_str(&format!("  \"retries\": {},\n", agg.retries));
            s.push_str(&format!("  \"backoff_ms\": {},\n", agg.backoff_ms));
            s.push_str(&format!(
                "  \"artifacts\": {{\"builds\": {}, \"mem_hits\": {}, \"disk_hits\": {}}},\n",
                summary.artifacts.builds, summary.artifacts.mem_hits, summary.artifacts.disk_hits
            ));
            match &agg.kernel {
                Some(k) => {
                    let kernel_stats = nn::kernel::kernel_stats();
                    s.push_str(&format!(
                        "  \"kernel\": {{\"jobs\": {}, \"cell_jobs\": {}, \"kernel_threads\": {}, \
                         \"parallel_dispatches\": {}, \"serial_dispatches\": {}}},\n",
                        k.jobs,
                        k.cell_jobs,
                        k.kernel_threads,
                        kernel_stats.parallel_dispatches,
                        kernel_stats.serial_dispatches,
                    ));
                }
                None => s.push_str("  \"kernel\": null,\n"),
            }
            s.push_str("  \"experiments\": {");
            for (i, (name, e)) in agg.experiments.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n    \"{}\": {{\"cells\": {}, \"executed\": {}, \"replayed\": {}, \
                     \"failed\": {}, \"attempts\": {}, \"retries\": {}, \"backoff_ms\": {}, \
                     \"wall_secs\": {}, \"cell_secs\": {}, \"train_secs\": {}, \"infer_secs\": {}}}",
                    escape_json(name),
                    e.cells,
                    e.executed,
                    e.replayed,
                    e.failed,
                    e.attempts,
                    e.retries,
                    e.backoff_ms,
                    format_f64(e.wall_secs),
                    format_f64(e.cell_secs),
                    format_f64(e.train_secs),
                    format_f64(e.infer_secs),
                ));
            }
            s.push_str(if agg.experiments.is_empty() { "},\n" } else { "\n  },\n" });
        }
        self.close_metrics_json(&mut s);
        s
    }

    /// Append the blocks every `metrics.json` ends with — `events`
    /// (counts per level), `simd` (active lane and dispatches) and
    /// `stages` (count and seconds per named stage) — and close the
    /// object. The run metrics above and `serve run`'s serving metrics
    /// both finish through here.
    pub fn close_metrics_json(&self, s: &mut String) {
        let counts = &self.event_counts;
        s.push_str(&format!(
            "  \"events\": {{\"debug\": {}, \"info\": {}, \"warn\": {}, \"error\": {}}},\n",
            counts[0].load(Ordering::Relaxed),
            counts[1].load(Ordering::Relaxed),
            counts[2].load(Ordering::Relaxed),
            counts[3].load(Ordering::Relaxed),
        ));
        s.push_str(&format!(
            "  \"simd\": {{\"lane\": \"{}\", \"dispatches\": {}}},\n",
            nn::simd::active_lane().name(),
            nn::kernel::kernel_stats().simd_dispatches,
        ));
        s.push_str("  \"stages\": {");
        let agg = self.agg();
        for (i, (name, st)) in agg.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"secs\": {}}}",
                escape_json(name),
                st.count,
                format_f64(st.secs)
            ));
        }
        s.push_str(if agg.stages.is_empty() { "}\n}" } else { "\n  }\n}" });
    }

    /// Write `metrics.json` atomically under this sink's directory.
    /// Returns `Ok(None)` for a stderr-only sink (nothing to write).
    pub fn write_metrics(
        &self,
        summary: &crate::engine::runner::RunSummary,
        total_secs: f64,
    ) -> io::Result<Option<PathBuf>> {
        self.write_metrics_with(|| self.metrics_json(summary, total_secs))
    }

    /// Write the document `render` returns atomically as `metrics.json`
    /// under this sink's directory. A stderr-only sink renders nothing
    /// and returns `Ok(None)`.
    pub fn write_metrics_with(
        &self,
        render: impl FnOnce() -> String,
    ) -> io::Result<Option<PathBuf>> {
        let Some(dir) = &self.dir else { return Ok(None) };
        let path = dir.join(METRICS_FILE);
        let mut body = render();
        body.push('\n');
        atomic_write(&path, body.as_bytes())?;
        Ok(Some(path))
    }
}

static GLOBAL: OnceLock<RwLock<Arc<ObsSink>>> = OnceLock::new();

fn global_cell() -> &'static RwLock<Arc<ObsSink>> {
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(ObsSink::stderr(LogFormat::Text))))
}

/// The process-global sink: stderr/text until [`set_global`] replaces
/// it. Components without a session handle (front-end banners, caches
/// constructed outside a run) log here.
pub fn global() -> Arc<ObsSink> {
    global_cell().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Install `sink` as the process-global sink (e.g. `repro` after
/// parsing `--log-format`).
pub fn set_global(sink: Arc<ObsSink>) {
    *global_cell().write().unwrap_or_else(|e| e.into_inner()) = sink;
}

// ---------------------------------------------------------------------------
// Trace report
// ---------------------------------------------------------------------------

fn get_u64(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(|v| match v {
            Json::Num(n) => Some(*n as u64),
            _ => None,
        })
        .unwrap_or(0)
}

fn get_f64(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(|v| match v {
            Json::Num(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// Render a `metrics.json` document as a Markdown per-experiment
/// time/cache breakdown (the `results_md --trace-report` view).
pub fn trace_report(metrics: &str) -> Result<String, String> {
    let j = parse_json(metrics)?;
    let cells = j.get("cells").ok_or("missing 'cells'")?;
    let artifacts = j.get("artifacts").ok_or("missing 'artifacts'")?;
    let mut out = String::from("# Trace report\n\n");
    out.push_str(&format!(
        "- total wall-clock: {:.2}s\n- cells: {} total, {} done, {} failed, {} resumed\n\
         - attempts: {} ({} retries, {}ms backoff)\n",
        get_f64(&j, "total_secs"),
        get_u64(cells, "total"),
        get_u64(cells, "done"),
        get_u64(cells, "failed"),
        get_u64(cells, "resumed"),
        get_u64(&j, "attempts"),
        get_u64(&j, "retries"),
        get_u64(&j, "backoff_ms"),
    ));
    let (builds, mem, disk) = (
        get_u64(artifacts, "builds"),
        get_u64(artifacts, "mem_hits"),
        get_u64(artifacts, "disk_hits"),
    );
    let requests = builds + mem + disk;
    let hit_rate = if requests > 0 { 100.0 * (mem + disk) as f64 / requests as f64 } else { 0.0 };
    out.push_str(&format!(
        "- artifact cache: {builds} built, {mem} memory hits, {disk} disk hits \
         ({hit_rate:.1}% hit rate)\n",
    ));
    if let Some(k) = j.get("kernel") {
        if *k != Json::Null {
            out.push_str(&format!(
                "- kernel budget: jobs={} cell_jobs={} kernel_threads={} \
                 ({} parallel / {} serial dispatches)\n",
                get_u64(k, "jobs"),
                get_u64(k, "cell_jobs"),
                get_u64(k, "kernel_threads"),
                get_u64(k, "parallel_dispatches"),
                get_u64(k, "serial_dispatches"),
            ));
        }
    }
    if let Some(Json::Obj(exps)) = j.get("experiments") {
        if !exps.is_empty() {
            out.push_str(
                "\n| experiment | cells | executed | replayed | failed | retries | wall s \
                 | cell s | train s | infer s |\n\
                 |---|---|---|---|---|---|---|---|---|---|\n",
            );
            for (name, e) in exps {
                out.push_str(&format!(
                    "| {name} | {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
                    get_u64(e, "cells"),
                    get_u64(e, "executed"),
                    get_u64(e, "replayed"),
                    get_u64(e, "failed"),
                    get_u64(e, "retries"),
                    get_f64(e, "wall_secs"),
                    get_f64(e, "cell_secs"),
                    get_f64(e, "train_secs"),
                    get_f64(e, "infer_secs"),
                ));
            }
        }
    }
    if let Some(Json::Obj(stages)) = j.get("stages") {
        if !stages.is_empty() {
            out.push_str("\n| stage | count | total s |\n|---|---|---|\n");
            for (name, st) in stages {
                out.push_str(&format!(
                    "| {name} | {} | {:.3} |\n",
                    get_u64(st, "count"),
                    get_f64(st, "secs"),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Peak-RSS measurement (out-of-core budget guard)
// ---------------------------------------------------------------------------

/// Run `f` with the kernel's peak-RSS watermark (`VmHWM`) reset first,
/// returning its result plus the high-water mark (bytes) the run
/// reached, or `None` where procfs is unavailable. This is the
/// measurement the `#[ignore]`d peak-RSS regression test in
/// `tests/outofcore.rs` gates on. The reset (writing `5` to
/// `/proc/self/clear_refs`) is best-effort and needs a sufficiently new
/// kernel; without it the watermark covers the whole process life — an
/// overestimate, never an underestimate, so budget guards built on this
/// stay sound.
pub fn measure_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    std::fs::write("/proc/self/clear_refs", b"5").ok();
    let out = f();
    (out, peak_rss_bytes())
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::runner::RunSummary;

    #[test]
    fn log_format_round_trips() {
        for f in [LogFormat::Text, LogFormat::Json] {
            assert_eq!(LogFormat::parse(f.name()), Some(f));
        }
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn event_json_is_valid_and_carries_fields() {
        let sink = ObsSink::stderr(LogFormat::Text);
        let line = sink.event_json(
            Level::Warn,
            "artifact",
            "ignoring \"x\"",
            &[("path", "a/b".into()), ("n", 3u64.into()), ("secs", 0.25.into())],
        );
        let j = parse_json(&line).expect("event line parses");
        assert_eq!(j.get("level"), Some(&Json::Str("warn".into())));
        assert_eq!(j.get("target"), Some(&Json::Str("artifact".into())));
        let fields = j.get("fields").expect("fields present");
        assert_eq!(fields.get("n"), Some(&Json::Num(3.0)));
        assert_eq!(fields.get("secs"), Some(&Json::Num(0.25)));
    }

    #[test]
    fn stages_and_cells_aggregate_into_metrics() {
        let sink = ObsSink::stderr(LogFormat::Text);
        sink.add_stage("tokenize", 0.5);
        sink.add_stage("tokenize", 0.25);
        sink.record_kernel_budget(4, 2, 2);
        sink.record_cell("table8", CellOutcome::Executed, 2, 15, 1.5, 1.0, 0.25);
        sink.record_cell("table8", CellOutcome::ReplayedCache, 0, 0, 0.01, 0.0, 0.0);
        sink.record_cell("table8", CellOutcome::Failed, 3, 45, 0.5, 0.0, 0.0);
        sink.record_experiment_wall("table8", 2.5);
        let summary =
            RunSummary { cells_total: 3, cells_done: 2, cells_failed: 1, ..Default::default() };
        let json = sink.metrics_json(&summary, 3.0);
        let j = parse_json(&json).expect("metrics parse");
        assert_eq!(get_u64(&j, "attempts"), 5);
        assert_eq!(get_u64(&j, "retries"), 3);
        assert_eq!(get_u64(&j, "backoff_ms"), 60);
        let exp = j.get("experiments").unwrap().get("table8").expect("experiment entry");
        assert_eq!(get_u64(exp, "cells"), 3);
        assert_eq!(get_u64(exp, "executed"), 1);
        assert_eq!(get_u64(exp, "replayed"), 1);
        assert_eq!(get_u64(exp, "failed"), 1);
        assert_eq!(get_f64(exp, "wall_secs"), 2.5);
        let st = j.get("stages").unwrap().get("tokenize").expect("stage entry");
        assert_eq!(get_u64(st, "count"), 2);
        assert_eq!(get_f64(st, "secs"), 0.75);
        let simd = j.get("simd").expect("simd section");
        assert_eq!(
            simd.get("lane"),
            Some(&Json::Str(nn::simd::active_lane().name().to_string())),
            "active SIMD lane is reported"
        );
        let report = trace_report(&json).expect("report renders");
        assert!(report.contains("| table8 | 3 | 1 | 1 | 1 |"), "report: {report}");
        assert!(report.contains("| tokenize | 2 |"));
    }

    #[test]
    fn trace_report_rejects_garbage() {
        assert!(trace_report("{not json").is_err());
        assert!(trace_report("{\"schema\": 1}").is_err(), "missing sections must error");
    }

    #[test]
    fn with_dir_writes_parseable_trace_lines_and_metrics() {
        let dir = std::env::temp_dir().join("debunk-obs-sink-test");
        std::fs::remove_dir_all(&dir).ok();
        let sink = ObsSink::with_dir(&dir, LogFormat::Text).expect("sink opens");
        assert!(sink.tracing());
        sink.debug("t", "debug line", &[("k", "v".into())]);
        sink.info("t", "info line", &[]);
        let path = sink
            .write_metrics(&RunSummary::default(), 1.0)
            .expect("metrics write")
            .expect("dir configured");
        assert_eq!(path.file_name().unwrap(), METRICS_FILE);
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2, "both events traced: {trace}");
        for line in lines {
            parse_json(line).expect("every trace line parses");
        }
        parse_json(&std::fs::read_to_string(&path).unwrap()).expect("metrics parse");
        std::fs::remove_dir_all(&dir).ok();
    }
}
