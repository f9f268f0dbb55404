//! Cell execution: serial or on a thread pool, with deterministic
//! output either way — now crash-safe, panic-isolated and resumable.
//!
//! Determinism contract: each cell's seed depends only on its identity
//! (see [`RunContext::cell_seed`]), outputs are collected by cell index
//! (not completion order), and wall-clock timing fields are zeroed in
//! serialised records. `--jobs 4` therefore emits byte-identical result
//! JSON to `--jobs 1` — and, because journal replay returns the exact
//! outputs the journal recorded, a resumed run emits byte-identical
//! records to an uninterrupted one.
//!
//! Failure isolation: every cell runs under `catch_unwind`, so one
//! panicking cell marks *that cell* failed in the journal (payload
//! captured) instead of killing the sweep. A bounded retry policy with
//! a deterministic, seed-derived backoff re-attempts failed cells, and
//! `--max-cell-seconds` marks overrunning cells failed. The manifest
//! (`run-manifest.json`, written atomically) reports totals, failures,
//! resumed counts and write errors; a failed record write is an error
//! in the manifest and the exit code, never just a warning.

use crate::artifact::{ArtifactCache, ArtifactStats};
use crate::engine::context::RunContext;
use crate::engine::journal::{
    CellId, Journal, JournalEntry, JournalError, JournalState, RunManifest, JOURNAL_FILE,
};
use crate::engine::registry::{CellOutput, CellSpec, Experiment, RecordStats};
use crate::obs::{self, CellOutcome, ObsSink};
use crate::report::{records_json_pretty, ResultRecord};
use nn::envelope::atomic_write;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use traffic_synth::stream::fnv64;

/// How the runner executes an experiment.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads for independent cells (1 = in-line, serial).
    pub jobs: usize,
    /// Threads for the nn matmul kernels inside each cell. `None`
    /// splits the `jobs` budget automatically: whatever `jobs` leaves
    /// unused at the cell level goes to the kernels. Kernel parallelism
    /// is row-partitioned and bit-identical to serial, so this never
    /// affects results.
    pub kernel_threads: Option<usize>,
    /// Where result-record JSON files, the run journal and the manifest
    /// are written; `None` disables all serialisation (the calibration
    /// probes don't record).
    pub out_dir: Option<PathBuf>,
    /// Replay cells already `done` in `out_dir`'s journal instead of
    /// re-running them; only missing/failed cells execute. Replayed
    /// outputs are byte-identical to a fresh run's records.
    pub resume: bool,
    /// Attempts per cell before it is marked failed (min 1). Retries
    /// target environmental failures; a deterministic panic will simply
    /// fail `max_attempts` times, each logged in the journal.
    pub max_attempts: u32,
    /// Soft per-cell time budget: a cell whose attempt overruns this is
    /// marked `failed` in the journal (with the overrun recorded as its
    /// error) instead of poisoning the record set. Soft means the cell
    /// is not preempted mid-flight; the verdict lands when it returns.
    pub max_cell_seconds: Option<f64>,
    /// Record out-of-band observability files under `out_dir`:
    /// `trace.jsonl` (append-only leveled events) and `metrics.json`
    /// (aggregated at finish). Strictly separate from records, journal
    /// and manifest, whose bytes are identical with tracing on or off.
    pub trace: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: 1,
            kernel_threads: None,
            out_dir: Some(PathBuf::from("results")),
            resume: false,
            max_attempts: 1,
            max_cell_seconds: None,
            trace: false,
        }
    }
}

/// Why a run could not start (running itself never aborts: cell
/// failures are isolated and reported in the [`RunSummary`]).
#[derive(Debug)]
pub enum RunError {
    /// The experiment filter matched nothing.
    UnknownExperiment(String),
    /// The journal could not be created or replayed.
    Journal(JournalError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownExperiment(id) => write!(f, "unknown experiment: {id}"),
            RunError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl From<JournalError> for RunError {
    fn from(e: JournalError) -> RunError {
        RunError::Journal(e)
    }
}

impl std::error::Error for RunError {}

/// What happened over a whole session, mirrored into the manifest.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Cells scheduled.
    pub cells_total: usize,
    /// Cells with a finished output (executed or replayed).
    pub cells_done: usize,
    /// Cells that exhausted their attempts.
    pub cells_failed: usize,
    /// Cells replayed from the journal.
    pub cells_resumed: usize,
    /// Identities of failed cells.
    pub failed_cells: Vec<String>,
    /// Record/manifest write failures.
    pub record_write_errors: Vec<String>,
    /// How the artifact cache served this session (datasets, token and
    /// feature matrices, splits, cell outputs).
    pub artifacts: ArtifactStats,
    /// Where the manifest landed, when one was written.
    pub manifest_path: Option<PathBuf>,
    /// Where `metrics.json` landed, when the session traced.
    pub metrics_path: Option<PathBuf>,
}

impl RunSummary {
    /// True when every cell finished and every write landed — the exit
    /// code contract: anything else is a failed run.
    pub fn ok(&self) -> bool {
        self.cells_failed == 0 && self.record_write_errors.is_empty()
    }
}

#[derive(Default)]
struct Tally {
    total: usize,
    done: usize,
    failed: usize,
    resumed: usize,
    failed_cells: Vec<String>,
    record_write_errors: Vec<String>,
}

/// One crash-safe run: owns the journal, the replay state loaded from a
/// previous crashed/killed run, and the tally that becomes the
/// manifest. `Registry::run` keeps a single session across an `all`
/// sweep so the whole grid shares one journal.
pub struct RunSession {
    journal: Option<Journal>,
    prior: JournalState,
    out_dir: Option<PathBuf>,
    tally: Mutex<Tally>,
    /// The context's artifact cache, captured so `finish` can stamp its
    /// counters into the manifest, and the hex run fingerprint prefixing
    /// every cell-output artifact key.
    artifacts: Arc<ArtifactCache>,
    run_fp_hex: String,
    /// Out-of-band event/metrics sink: a per-session tracing sink with
    /// `opts.trace`, the process-global stderr sink otherwise. Installed
    /// on the context and caches for the session's lifetime.
    obs: Arc<ObsSink>,
    started: Instant,
    /// Journal a `started`/`done` pair even for cells replayed from the
    /// artifact cache. Off for normal sessions (a warm single-process
    /// run journals nothing for replayed cells); on for distrib worker
    /// sessions, so the coordinator's merged journal covers every cell
    /// regardless of cache state — the distrib byte-stability contract
    /// (`engine::distrib`).
    journal_replays: bool,
}

/// Open a session: create (or, with `resume`, replay) the journal under
/// `opts.out_dir`. With `out_dir: None` the session journals nothing.
pub fn start_session(ctx: &RunContext, opts: &RunOptions) -> Result<RunSession, RunError> {
    let sink = match (&opts.out_dir, opts.trace) {
        (Some(dir), true) => Arc::new(
            ObsSink::with_dir(dir, obs::global().format())
                .map_err(|e| JournalError::Io(dir.clone(), e))?,
        ),
        _ => obs::global(),
    };
    ctx.set_obs(sink.clone());
    let mut session = RunSession {
        journal: None,
        prior: JournalState::default(),
        out_dir: opts.out_dir.clone(),
        tally: Mutex::new(Tally::default()),
        artifacts: ctx.artifacts().clone(),
        run_fp_hex: format!("{:016x}", ctx.run_fingerprint()),
        obs: sink,
        started: Instant::now(),
        journal_replays: false,
    };
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| JournalError::Io(dir.clone(), e))?;
        let path = dir.join(JOURNAL_FILE);
        let fingerprint = ctx.run_fingerprint();
        if opts.resume {
            let (journal, state) = Journal::resume(&path, fingerprint)?;
            if state.n_done() > 0 {
                session.obs.info(
                    "runner",
                    &format!(
                        "[resume] journal {} has {} finished cell(s) to replay",
                        path.display(),
                        state.n_done()
                    ),
                    &[
                        ("journal", path.display().to_string().into()),
                        ("done", state.n_done().into()),
                    ],
                );
            }
            session.journal = Some(journal);
            session.prior = state;
        } else {
            session.journal = Some(Journal::create(&path, fingerprint)?);
        }
    }
    Ok(session)
}

/// Open a distrib *worker* session (`engine::distrib`): its journal
/// lives at `worker_dir/journal.jsonl` and is always opened in resume
/// mode (fresh file = fresh run, so coordinator retry waves append),
/// while `prior` is the replay state folded from *every* worker's
/// journal — a cell any sibling finished is never re-executed here. The
/// worker's own manifest and metrics land under `worker_dir`.
pub(crate) fn start_worker_session(
    ctx: &RunContext,
    opts: &RunOptions,
    worker_dir: &Path,
    prior: JournalState,
) -> Result<RunSession, RunError> {
    let sink = if opts.trace {
        Arc::new(
            ObsSink::with_dir(worker_dir, obs::global().format())
                .map_err(|e| JournalError::Io(worker_dir.to_path_buf(), e))?,
        )
    } else {
        obs::global()
    };
    ctx.set_obs(sink.clone());
    std::fs::create_dir_all(worker_dir)
        .map_err(|e| JournalError::Io(worker_dir.to_path_buf(), e))?;
    let path = worker_dir.join(JOURNAL_FILE);
    let (journal, _own_state) = Journal::resume(&path, ctx.run_fingerprint())?;
    Ok(RunSession {
        journal: Some(journal),
        prior,
        out_dir: Some(worker_dir.to_path_buf()),
        tally: Mutex::new(Tally::default()),
        artifacts: ctx.artifacts().clone(),
        run_fp_hex: format!("{:016x}", ctx.run_fingerprint()),
        obs: sink,
        started: Instant::now(),
        journal_replays: true,
    })
}

impl RunSession {
    /// Count `n` additional scheduled cells in the tally — the worker
    /// loop schedules cells one claim at a time instead of through
    /// `execute_cells`.
    pub(crate) fn bump_total(&self, n: usize) {
        self.tally().total += n;
    }

    /// The replay state this session was opened with.
    pub(crate) fn prior(&self) -> &JournalState {
        &self.prior
    }

    /// Execute one experiment under this session: run or replay its
    /// cells (possibly in parallel), write its result records, then
    /// render its tables/charts. Panics in cells *and* in render are
    /// contained; failures land in the tally, not in an abort.
    pub fn run_experiment(&self, exp: &dyn Experiment, ctx: &RunContext, opts: &RunOptions) {
        let exp_started = Instant::now();
        let cells = exp.cells(ctx);
        let jobs = opts.jobs.max(1);
        let cell_jobs = jobs.min(cells.len().max(1));
        let kernel = opts.kernel_threads.unwrap_or_else(|| (jobs / cell_jobs).max(1));
        nn::set_kernel_threads(kernel);
        self.obs.record_kernel_budget(jobs, cell_jobs, kernel);
        self.obs.debug(
            "runner",
            &format!("  [budget] {}: jobs={jobs} cell_jobs={cell_jobs} kernel={kernel}", exp.id()),
            &[
                ("experiment", exp.id().into()),
                ("jobs", jobs.into()),
                ("cell_jobs", cell_jobs.into()),
                ("kernel_threads", kernel.into()),
            ],
        );
        let outputs = self.execute_cells(exp.id(), &cells, ctx, cell_jobs, opts);

        if let Some(dir) = &self.out_dir.clone() {
            let recorded: Vec<(CellId, &CellOutput)> = cells
                .iter()
                .zip(&outputs)
                .filter(|(spec, _)| spec.emit_record)
                .map(|(spec, out)| (spec.identity(exp.id(), ctx).1, out))
                .collect();
            self.flush_records(dir, exp.id(), recorded.iter().map(|(id, out)| (id, *out)));
        }

        // A render step that chokes on a failed cell's empty output must
        // not take down the sweep — the records are already on disk.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| exp.render(ctx, &outputs))) {
            let msg = panic_message(payload.as_ref());
            self.obs.warn(
                "runner",
                &format!("  [render] {} panicked: {msg}", exp.id()),
                &[("experiment", exp.id().into()), ("panic", msg.as_str().into())],
            );
        }
        self.obs.record_experiment_wall(exp.id(), exp_started.elapsed().as_secs_f64());
    }

    /// Finish the session: write the manifest atomically and return the
    /// summary. Callers decide the exit code from [`RunSummary::ok`].
    pub fn finish(self) -> RunSummary {
        let tally = self.tally.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut summary = RunSummary {
            cells_total: tally.total,
            cells_done: tally.done,
            cells_failed: tally.failed,
            cells_resumed: tally.resumed,
            failed_cells: tally.failed_cells,
            record_write_errors: tally.record_write_errors,
            artifacts: self.artifacts.stats(),
            manifest_path: None,
            metrics_path: None,
        };
        if let Some(dir) = &self.out_dir {
            let journal_hash =
                self.journal.as_ref().and_then(|j| j.content_hash().ok()).unwrap_or(0);
            RunManifest::write_summary(&mut summary, journal_hash, dir);
        }
        // Metrics are observability, not results: a failed write warns
        // but never fails the run the way a lost record does.
        match self.obs.write_metrics(&summary, self.started.elapsed().as_secs_f64()) {
            Ok(path) => summary.metrics_path = path,
            Err(e) => {
                self.obs.warn("runner", &format!("  [warn] could not write metrics: {e}"), &[])
            }
        }
        summary
    }

    fn append_journal(&self, entry: &JournalEntry) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(entry) {
                let msg = format!("{}: append failed: {e}", journal.path().display());
                self.obs.error("runner", &format!("  [error] {msg}"), &[]);
                self.tally().record_write_errors.push(msg);
            }
        }
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn execute_cells(
        &self,
        exp_id: &str,
        cells: &[CellSpec],
        ctx: &RunContext,
        jobs: usize,
        opts: &RunOptions,
    ) -> Vec<CellOutput> {
        let n = cells.len();
        self.tally().total += n;
        let run_one = |i: usize| -> CellOutput { self.run_cell(exp_id, cells, i, ctx, opts) };

        if jobs <= 1 || n <= 1 {
            return (0..n).map(run_one).collect();
        }

        // std-only work-stealing-ish pool: an atomic next-cell index and
        // a slot vector filled by cell index, so collection order never
        // depends on completion order.
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<CellOutput>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = run_one(i);
                    // Recover from poisoning like `tally()` does: the
                    // slots hold plain data, and aborting the sweep here
                    // would lose every in-flight cell's output.
                    slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(out);
                });
            }
        });
        slots
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|o| o.expect("every cell ran"))
            .collect()
    }

    /// Run (or replay) one cell with panic isolation, bounded retries
    /// and the soft time budget. Always returns an output — a failed
    /// cell contributes `CellOutput::empty()` to render and no record.
    /// `pub(crate)` for the distrib worker loop, which schedules cells
    /// by claim instead of through `execute_cells`.
    pub(crate) fn run_cell(
        &self,
        exp_id: &str,
        cells: &[CellSpec],
        i: usize,
        ctx: &RunContext,
        opts: &RunOptions,
    ) -> CellOutput {
        let n = cells.len();
        let spec = &cells[i];
        let (cfg, id) = spec.identity(exp_id, ctx);
        let cell = id.hash();
        let label = format!("{exp_id}/{}/{}/{}", spec.task, spec.model, spec.setting);
        let cell_started = Instant::now();
        let base_fields: Vec<(&'static str, crate::obs::Value)> = vec![
            ("experiment", exp_id.into()),
            ("task", spec.task.as_str().into()),
            ("model", spec.model.as_str().into()),
            ("setting", spec.setting.as_str().into()),
        ];
        let cell_fields = |extra: &[(&'static str, crate::obs::Value)]| {
            let mut fields = base_fields.clone();
            fields.extend_from_slice(extra);
            fields
        };

        if let Some(out) = self.prior.done_output(cell) {
            let mut tally = self.tally();
            tally.done += 1;
            tally.resumed += 1;
            drop(tally);
            self.obs.info(
                "runner",
                &format!(
                    "  {exp_id} [{}/{n}] {} {} {}: replayed from journal",
                    i + 1,
                    spec.model,
                    spec.task,
                    spec.setting,
                ),
                &cell_fields(&[("outcome", "replayed-journal".into())]),
            );
            self.obs.record_cell(
                exp_id,
                CellOutcome::ReplayedJournal,
                0,
                0,
                cell_started.elapsed().as_secs_f64(),
                0.0,
                0.0,
            );
            return out.clone();
        }

        // Content-addressed replay: a finished output keyed by the run
        // fingerprint + cell identity is byte-identical to executing the
        // cell (same contract journal replay relies on), so a warm
        // `--cache-dir` serves it across processes and a repeated run in
        // one process serves it from memory.
        let seed_hex = format!("{:016x}", cfg.seed);
        let cell_parts =
            [self.run_fp_hex.as_str(), exp_id, &spec.task, &spec.model, &spec.setting, &seed_hex];
        if let Some(out) = self.artifacts.lookup::<CellOutput>(&cell_parts) {
            if self.journal_replays {
                // Worker mode: the replayed cell must still appear in
                // this worker's journal, because the coordinator's merge
                // reconstructs the canonical journal purely from worker
                // journals — warm runs merge byte-identical to cold ones.
                let attempt = self.prior.attempts(cell) + 1;
                self.append_journal(&JournalEntry::Started { cell, attempt, id: id.clone() });
                self.append_journal(&JournalEntry::Done { cell, attempt, output: (*out).clone() });
            }
            self.tally().done += 1;
            self.obs.info(
                "runner",
                &format!(
                    "  {exp_id} [{}/{n}] {} {} {}: replayed from artifact cache",
                    i + 1,
                    spec.model,
                    spec.task,
                    spec.setting,
                ),
                &cell_fields(&[("outcome", "replayed-cache".into())]),
            );
            self.obs.record_cell(
                exp_id,
                CellOutcome::ReplayedCache,
                0,
                0,
                cell_started.elapsed().as_secs_f64(),
                0.0,
                0.0,
            );
            return (*out).clone();
        }

        let prior_attempts = self.prior.attempts(cell);
        let max_attempts = opts.max_attempts.max(1);
        let mut last_error = String::new();
        let mut backoff_total = 0u64;
        let mut attempts_made = 0u32;
        for round in 0..max_attempts {
            attempts_made = round + 1;
            let attempt = prior_attempts + round + 1;
            self.append_journal(&JournalEntry::Started { cell, attempt, id: id.clone() });
            let started = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| (spec.run)(ctx, &cfg))) {
                Ok(out) => {
                    let elapsed = started.elapsed().as_secs_f64();
                    if let Some(limit) = opts.max_cell_seconds {
                        if elapsed > limit {
                            last_error = format!(
                                "soft timeout: attempt ran {elapsed:.1}s, over \
                                 --max-cell-seconds {limit}"
                            );
                            self.append_journal(&JournalEntry::Failed {
                                cell,
                                attempt,
                                error: last_error.clone(),
                            });
                            self.obs.warn(
                                "runner",
                                &format!("  {exp_id} [{}/{n}] {label}: {last_error}", i + 1),
                                &cell_fields(&[("error", last_error.as_str().into())]),
                            );
                            // Re-running a cell that just overran its
                            // budget would overrun again; fail it now.
                            break;
                        }
                    }
                    let zeroed = out.zero_wallclock();
                    self.append_journal(&JournalEntry::Done {
                        cell,
                        attempt,
                        output: zeroed.clone(),
                    });
                    // Only successful outputs are cached — a failure must
                    // re-execute next run, never replay.
                    self.artifacts.store(&cell_parts, zeroed);
                    self.tally().done += 1;
                    match &out.stats {
                        Some(s) => self.obs.info(
                            "runner",
                            &format!(
                                "  {exp_id} [{}/{n}] {} {} {}: AC={:.1} F1={:.1}",
                                i + 1,
                                spec.model,
                                spec.task,
                                spec.setting,
                                s.accuracy * 100.0,
                                s.macro_f1 * 100.0,
                            ),
                            &cell_fields(&[
                                ("accuracy", s.accuracy.into()),
                                ("macro_f1", s.macro_f1.into()),
                                ("train_secs", s.train_secs.into()),
                                ("infer_secs", s.infer_secs.into()),
                            ]),
                        ),
                        None => self.obs.info(
                            "runner",
                            &format!(
                                "  {exp_id} [{}/{n}] {} {} {}: done",
                                i + 1,
                                spec.model,
                                spec.task,
                                spec.setting,
                            ),
                            &cell_fields(&[]),
                        ),
                    }
                    // Real timings leave through the sink only; the
                    // serialised output above is already zeroed.
                    let (train, infer) =
                        out.stats.map_or((0.0, 0.0), |s| (s.train_secs, s.infer_secs));
                    self.obs.add_stage("train", train);
                    self.obs.add_stage("infer", infer);
                    self.obs.record_cell(
                        exp_id,
                        CellOutcome::Executed,
                        round + 1,
                        backoff_total,
                        cell_started.elapsed().as_secs_f64(),
                        train,
                        infer,
                    );
                    return out;
                }
                Err(payload) => {
                    last_error = format!("panic: {}", panic_message(payload.as_ref()));
                    self.append_journal(&JournalEntry::Failed {
                        cell,
                        attempt,
                        error: last_error.clone(),
                    });
                    self.obs.warn(
                        "runner",
                        &format!(
                            "  {exp_id} [{}/{n}] {label}: attempt {attempt} failed ({last_error})",
                            i + 1
                        ),
                        &cell_fields(&[
                            ("attempt", attempt.into()),
                            ("error", last_error.as_str().into()),
                        ]),
                    );
                    if round + 1 < max_attempts {
                        // Deterministic, seed-derived backoff: the cell
                        // hash already encodes the seed, so the schedule
                        // is reproducible and no wall-clock value ever
                        // reaches a journal entry or record.
                        let ms = backoff_ms(cell, attempt);
                        backoff_total += ms;
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        let mut tally = self.tally();
        tally.failed += 1;
        tally.failed_cells.push(format!("{label}: {last_error}"));
        drop(tally);
        self.obs.record_cell(
            exp_id,
            CellOutcome::Failed,
            attempts_made,
            backoff_total,
            cell_started.elapsed().as_secs_f64(),
            0.0,
            0.0,
        );
        CellOutput::empty()
    }

    fn flush_records<'a>(
        &self,
        dir: &Path,
        exp_id: &str,
        cells: impl IntoIterator<Item = (&'a CellId, &'a CellOutput)>,
    ) {
        match write_records(dir, exp_id, cells) {
            Ok(None) => {}
            Ok(Some(path)) => self.obs.info(
                "runner",
                &format!("  [saved] {}", path.display()),
                &[("experiment", exp_id.into()), ("path", path.display().to_string().into())],
            ),
            Err(msg) => {
                // A lost record file invalidates the whole comparison:
                // surface it in the manifest and the exit code.
                self.obs.error(
                    "runner",
                    &format!("  [error] could not write records: {msg}"),
                    &[("experiment", exp_id.into()), ("error", msg.as_str().into())],
                );
                self.tally().record_write_errors.push(msg);
            }
        }
    }
}

/// Write one experiment's result records to `<dir>/<exp_id>.json`: a
/// record per listed cell that produced metrics, in the order given.
/// Wall-clock timings are nondeterministic, so they are zeroed: records
/// are byte-identical across serial, parallel, multi-process and
/// resumed runs, while real timings stay in `RecordStats` for render
/// and flow to metrics.json out of band. Writes nothing when no cell
/// produced metrics; a failed write comes back as `"<path>: <error>"`.
pub(crate) fn write_records<'a>(
    dir: &Path,
    exp_id: &str,
    cells: impl IntoIterator<Item = (&'a CellId, &'a CellOutput)>,
) -> Result<Option<PathBuf>, String> {
    let records: Vec<ResultRecord> = cells
        .into_iter()
        .filter_map(|(id, out)| {
            out.stats.map(RecordStats::zero_wallclock).map(|s| ResultRecord {
                experiment: id.experiment.clone(),
                task: id.task.clone(),
                model: id.model.clone(),
                setting: id.setting.clone(),
                accuracy: s.accuracy * 100.0,
                macro_f1: s.macro_f1 * 100.0,
                train_secs: s.train_secs,
                infer_secs: s.infer_secs,
            })
        })
        .collect();
    if records.is_empty() {
        return Ok(None);
    }
    let path = dir.join(format!("{exp_id}.json"));
    match atomic_write(&path, records_json_pretty(&records).as_bytes()) {
        Ok(()) => Ok(Some(path)),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Deterministic retry backoff in milliseconds: exponential in the
/// attempt with a seed-derived jitter, capped well under a second. No
/// wall-clock feeds into it, so retry schedules are reproducible.
fn backoff_ms(cell: u64, attempt: u32) -> u64 {
    let jitter = fnv64(&[format!("{cell:016x}").as_bytes(), attempt.to_string().as_bytes()]) % 20;
    (1u64 << attempt.min(5)) * 5 + jitter
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Convenience wrapper: run one experiment in its own session. The
/// `repro` front-end uses `Registry::run` instead so an `all` sweep
/// shares a single journal and manifest.
pub fn run_experiment(
    exp: &dyn Experiment,
    ctx: &RunContext,
    opts: &RunOptions,
) -> Result<RunSummary, RunError> {
    let session = start_session(ctx, opts)?;
    session.run_experiment(exp, ctx, opts);
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::context::Preset;
    use crate::engine::registry::RecordStats;

    struct Synthetic;
    impl Experiment for Synthetic {
        fn id(&self) -> &'static str {
            "synthetic"
        }
        fn description(&self) -> &'static str {
            "seed-echo cells for runner tests"
        }
        fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
            (0..8)
                .map(|i| {
                    CellSpec::new("T", format!("m{i}"), "s", |_ctx, cfg| {
                        // Echo the derived seed through the metrics so a
                        // scheduling bug (wrong seed, wrong slot) is
                        // visible in the collected outputs.
                        CellOutput::stats(RecordStats {
                            accuracy: (cfg.seed % 1000) as f64 / 1000.0,
                            macro_f1: (cfg.seed % 97) as f64 / 97.0,
                            train_secs: 1.0,
                            infer_secs: 1.0,
                        })
                    })
                })
                .collect()
        }
        fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
    }

    fn collect(jobs: usize) -> Vec<(f64, f64)> {
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let cells = Synthetic.cells(&ctx);
        let opts = RunOptions { jobs, out_dir: None, ..Default::default() };
        let session = start_session(&ctx, &opts).expect("no out dir, no journal to fail");
        session
            .execute_cells("synthetic", &cells, &ctx, jobs, &opts)
            .into_iter()
            .map(|o| {
                let s = o.stats.unwrap();
                (s.accuracy, s.macro_f1)
            })
            .collect()
    }

    #[test]
    fn parallel_execution_matches_serial_in_order_and_value() {
        let serial = collect(1);
        for jobs in [2, 4, 8] {
            assert_eq!(collect(jobs), serial, "jobs={jobs} must match serial");
        }
    }

    /// Half the grid panics while the other half is mid-flight: the
    /// regression case for the `execute_cells` slot mutex, which used to
    /// `.expect("runner slots poisoned")` and would abort the whole
    /// sweep on poisoning instead of recovering like `tally()` does.
    struct Hostile;
    impl Experiment for Hostile {
        fn id(&self) -> &'static str {
            "hostile"
        }
        fn description(&self) -> &'static str {
            "panicking cells interleaved with slow healthy ones"
        }
        fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
            (0..8)
                .map(|i| {
                    CellSpec::new("T", format!("m{i}"), "s", move |_ctx, cfg| {
                        if i % 2 == 1 {
                            panic!("hostile cell {i}");
                        }
                        // Keep healthy cells in flight while the hostile
                        // ones panic on sibling workers.
                        std::thread::sleep(Duration::from_millis(10));
                        CellOutput::stats(RecordStats::of(
                            (cfg.seed % 1000) as f64 / 1000.0,
                            (cfg.seed % 97) as f64 / 97.0,
                        ))
                    })
                })
                .collect()
        }
        fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
    }

    #[test]
    fn hostile_panics_mid_flight_do_not_abort_the_parallel_sweep() {
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let cells = Hostile.cells(&ctx);
        let opts = RunOptions { jobs: 4, out_dir: None, ..Default::default() };
        let session = start_session(&ctx, &opts).expect("no out dir, no journal to fail");
        let outputs = session.execute_cells("hostile", &cells, &ctx, 4, &opts);
        assert_eq!(outputs.len(), 8, "every slot filled despite panics");
        for (i, out) in outputs.iter().enumerate() {
            if i % 2 == 1 {
                assert!(out.stats.is_none(), "hostile cell {i} must yield an empty output");
            } else {
                let s = out.stats.expect("healthy cell kept its output");
                let seed = ctx.cell_config("hostile", "T", &format!("m{i}"), "s").seed;
                assert_eq!(s.accuracy, (seed % 1000) as f64 / 1000.0, "slot {i} holds its cell");
            }
        }
        let summary = session.finish();
        assert_eq!((summary.cells_done, summary.cells_failed), (4, 4));
    }

    struct PanicsOnce;
    impl Experiment for PanicsOnce {
        fn id(&self) -> &'static str {
            "panics"
        }
        fn description(&self) -> &'static str {
            "one deliberately panicking cell"
        }
        fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
            vec![
                CellSpec::new("T", "ok", "s", |_ctx, cfg| {
                    CellOutput::stats(RecordStats {
                        accuracy: (cfg.seed % 100) as f64 / 100.0,
                        macro_f1: 0.5,
                        train_secs: 0.0,
                        infer_secs: 0.0,
                    })
                }),
                CellSpec::new("T", "boom", "s", |_ctx, _cfg| -> CellOutput {
                    panic!("deliberate test panic");
                }),
            ]
        }
        fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
            // Deliberately assumes every cell has stats, like several
            // real render steps: must not take down the run when the
            // failed cell's output is empty.
            for out in outputs {
                let _ = out.stats.expect("stats");
            }
        }
    }

    #[test]
    fn panicking_cell_fails_alone_and_is_retried_with_attempt_count() {
        let dir = std::env::temp_dir().join("debunk-runner-panic-test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let opts = RunOptions { out_dir: Some(dir.clone()), max_attempts: 2, ..Default::default() };
        let summary = run_experiment(&PanicsOnce, &ctx, &opts).expect("session starts");
        assert_eq!(summary.cells_total, 2);
        assert_eq!(summary.cells_done, 1, "the healthy cell finished");
        assert_eq!(summary.cells_failed, 1, "only the panicking cell failed");
        assert!(!summary.ok());
        assert!(summary.failed_cells[0].contains("boom"));
        assert!(summary.failed_cells[0].contains("deliberate test panic"));

        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            journal.matches("\"status\":\"failed\"").count(),
            2,
            "both attempts journalled: {journal}"
        );
        assert_eq!(journal.matches("\"status\":\"done\"").count(), 1);

        // The manifest reports the same story, atomically written.
        let manifest = RunManifest::from_json(
            &std::fs::read_to_string(dir.join("run-manifest.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(manifest.cells_failed, 1);
        assert_eq!(manifest.cells_done, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_done_cells_without_rerunning() {
        let dir = std::env::temp_dir().join("debunk-runner-resume-test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let opts = RunOptions { out_dir: Some(dir.clone()), ..Default::default() };
        let first = run_experiment(&Synthetic, &ctx, &opts).expect("fresh run");
        assert_eq!((first.cells_done, first.cells_resumed), (8, 0));
        let records = std::fs::read_to_string(dir.join("synthetic.json")).unwrap();

        let resumed_opts = RunOptions { resume: true, ..opts };
        let second = run_experiment(&Synthetic, &ctx, &resumed_opts).expect("resumed run");
        assert_eq!((second.cells_done, second.cells_resumed), (8, 8), "all cells replayed");
        let replayed = std::fs::read_to_string(dir.join("synthetic.json")).unwrap();
        assert_eq!(records, replayed, "replayed records byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soft_timeout_marks_overrunning_cells_failed() {
        struct Slow;
        impl Experiment for Slow {
            fn id(&self) -> &'static str {
                "slow"
            }
            fn description(&self) -> &'static str {
                "sleeps past the soft budget"
            }
            fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
                vec![CellSpec::new("T", "sleepy", "s", |_ctx, _cfg| {
                    std::thread::sleep(Duration::from_millis(30));
                    CellOutput::empty()
                })]
            }
            fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
        }
        let dir = std::env::temp_dir().join("debunk-runner-timeout-test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let opts = RunOptions {
            out_dir: Some(dir.clone()),
            max_cell_seconds: Some(0.001),
            ..Default::default()
        };
        let summary = run_experiment(&Slow, &ctx, &opts).expect("session starts");
        assert_eq!(summary.cells_failed, 1);
        assert!(summary.failed_cells[0].contains("soft timeout"));
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(journal.contains("soft timeout"), "timeout recorded in journal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..10 {
            let a = backoff_ms(0xabc, attempt);
            assert_eq!(a, backoff_ms(0xabc, attempt), "same inputs, same backoff");
            assert!(a < 200, "backoff stays well under a second: {a}ms");
        }
        assert_ne!(backoff_ms(1, 1), backoff_ms(2, 1), "seed-derived jitter differs per cell");
    }
}
