//! Multi-process sharded suite execution (`repro --workers N`).
//!
//! A *coordinator* process spawns N *worker* processes (each also
//! runnable standalone via `repro ... --worker I`). Workers race to
//! claim cells through `O_EXCL` claim records under
//! `<out>/claims/claim-<cell>.json`, execute claimed cells with exactly
//! the per-cell panic isolation and bounded retry of a single-process
//! run, and append to per-worker journals under
//! `<out>/workers/wNN/journal.jsonl`. When every worker has exited, the
//! coordinator folds the worker journals into one canonical journal,
//! the result-record files and one `run-manifest.json` via a
//! deterministic merge ordered by suite enumeration (cell key), never
//! by completion time.
//!
//! ## Byte-stability contract (DESIGN.md §6g)
//!
//! For a suite whose cells all succeed, the merged `journal.jsonl`,
//! every `<experiment>.json` record file and `run-manifest.json` are
//! byte-identical to an uninterrupted single-process `--jobs` run and
//! invariant across worker counts, cold or warm cache, and across a
//! worker SIGKILL + `--resume` — because worker sessions journal
//! replayed cells too (`start_worker_session`) and the merge
//! normalises every finished cell to one `started`/`done` pair at
//! attempt 1. Failed cells are normalised to `max_attempts`
//! `started`/`failed` pairs carrying the last recorded error, which is
//! worker-count invariant but can legitimately differ from a
//! single-process journal's literal retry trace (e.g. a soft timeout
//! fails fast without retrying).
//!
//! Claim records are liveness hints, not results: a claim whose owner
//! is dead (its PID gone, or running a process with another start
//! time) is swept and the cell re-claimed by the next wave, so a
//! SIGKILLed worker never wedges the suite.

use crate::artifact::{pid_alive, pid_start_time};
use crate::engine::context::RunContext;
use crate::engine::journal::{
    parse_json, CellId, Journal, JournalEntry, JournalError, JournalState, Json, RunManifest,
    JOURNAL_FILE,
};
use crate::engine::registry::{CellOutput, Experiment, Registry};
use crate::engine::runner::{
    start_worker_session, write_records, RunError, RunOptions, RunSummary,
};
use crate::obs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Claim records live under `<out>/claims/`.
pub const CLAIMS_DIR: &str = "claims";
/// Per-worker journals/manifests live under `<out>/workers/wNN/`.
pub const WORKERS_DIR: &str = "workers";

/// Coordinator-side knobs for `repro --workers N`.
pub struct CoordinatorOptions {
    /// Worker processes to spawn per wave (min 1).
    pub workers: usize,
    /// Program + fixed arguments of the worker command; the coordinator
    /// appends `--worker <index>` per spawned process. Must reproduce
    /// the coordinator's own `RunContext` (preset, seed, scale,
    /// cache dir) bit-for-bit or workers refuse the journal fingerprint.
    pub worker_cmd: Vec<String>,
    /// Spawn waves before giving up on unfinished cells (min 1). Extra
    /// waves run only when cells are left both unfinished and unfailed —
    /// i.e. a worker died abnormally mid-cell.
    pub max_waves: usize,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions { workers: 1, worker_cmd: Vec::new(), max_waves: 3 }
    }
}

/// The directory worker `index` journals into.
pub fn worker_dir(root: &Path, index: usize) -> PathBuf {
    root.join(WORKERS_DIR).join(format!("w{index:02}"))
}

fn claim_path(root: &Path, cell: u64) -> PathBuf {
    root.join(CLAIMS_DIR).join(format!("claim-{cell:016x}.json"))
}

/// Try to claim `cell` for `worker`. `O_EXCL` creation makes exactly
/// one process win a race; the loser skips the cell (its output will
/// arrive through the winner's journal).
fn try_claim(root: &Path, cell: u64, worker: usize) -> bool {
    let path = claim_path(root, cell);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(mut file) => {
            use std::io::Write as _;
            let pid = std::process::id();
            let start = pid_start_time(pid).map(|t| format!(",\"pid_start\":{t}"));
            let record = format!(
                "{{\"cell\":\"{cell:016x}\",\"worker\":{worker},\"pid\":{pid}{}}}",
                start.unwrap_or_default()
            );
            // One write, so no sweeper sees half a start time.
            let _ = file.write_all(record.as_bytes());
            let _ = file.flush();
            true
        }
        Err(_) => false,
    }
}

/// Remove claim records whose owner process is dead (or whose record is
/// torn — its writer crashed mid-claim). Returns how many were swept.
/// Claims from live PIDs are kept: they may belong to standalone
/// workers this coordinator did not spawn.
pub fn sweep_stale_claims(root: &Path) -> usize {
    let dir = root.join(CLAIMS_DIR);
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(_) => return 0,
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let stale = match std::fs::read_to_string(&path) {
            Ok(content) => match claim_owner(&content) {
                Some((pid, start)) => !pid_alive(pid, start),
                None => true,
            },
            Err(_) => true,
        };
        if stale && std::fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// A claim's owner as `(pid, start time)`; a record from before start
/// times were written carries the PID alone.
fn claim_owner(content: &str) -> Option<(u32, Option<u64>)> {
    let json = parse_json(content).ok()?;
    let whole = |v: f64, max: f64| (v.fract() == 0.0 && (0.0..=max).contains(&v)).then_some(v);
    let pid = whole(json.get("pid").and_then(Json::num)?, u32::MAX as f64)? as u32;
    let start = match json.get("pid_start") {
        Some(t) => Some(whole(t.num()?, u64::MAX as f64)? as u64),
        None => None,
    };
    Some((pid, start))
}

/// Fold every worker journal (and, on `resume`, a previously merged or
/// single-process root journal) into one replay state. Each file's
/// crash-torn final fragment is dropped before concatenation, exactly
/// like [`JournalState::parse`] does per file; conflicting `done`
/// outputs across workers surface as [`JournalError::ConflictingDone`].
fn combined_state(root: &Path, fingerprint: u64, resume: bool) -> Result<JournalState, RunError> {
    let mut combined = String::new();
    let mut fold = |path: &Path| {
        if let Ok(content) = std::fs::read_to_string(path) {
            let complete_len = content.rfind('\n').map(|i| i + 1).unwrap_or(0);
            combined.push_str(&content[..complete_len]);
        }
    };
    if resume {
        fold(&root.join(JOURNAL_FILE));
    }
    let workers = root.join(WORKERS_DIR);
    if let Ok(entries) = std::fs::read_dir(&workers) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            fold(&dir.join(JOURNAL_FILE));
        }
    }
    JournalState::parse(&combined, &workers, fingerprint).map_err(RunError::from)
}

/// One suite cell's identity, precomputed in enumeration order.
struct CellMeta {
    id: CellId,
    cell: u64,
    emit_record: bool,
}

struct ExpCells<'a> {
    exp: &'a dyn Experiment,
    metas: Vec<CellMeta>,
}

fn matches(filter: &str, id: &str) -> bool {
    filter == "all" || filter == id
}

fn check_filter(registry: &Registry, filter: &str) -> Result<(), RunError> {
    if filter != "all" && registry.get(filter).is_none() {
        return Err(RunError::UnknownExperiment(filter.to_string()));
    }
    Ok(())
}

fn enumerate<'a>(registry: &'a Registry, filter: &str, ctx: &RunContext) -> Vec<ExpCells<'a>> {
    registry
        .iter()
        .filter(|exp| matches(filter, exp.id()))
        .map(|exp| {
            let metas = exp
                .cells(ctx)
                .iter()
                .map(|spec| {
                    let (_, id) = spec.identity(exp.id(), ctx);
                    CellMeta { cell: id.hash(), id, emit_record: spec.emit_record }
                })
                .collect();
            ExpCells { exp, metas }
        })
        .collect()
}

fn out_root(opts: &RunOptions) -> Result<PathBuf, RunError> {
    opts.out_dir.clone().ok_or_else(|| {
        RunError::Journal(JournalError::Io(
            PathBuf::from("."),
            io::Error::new(io::ErrorKind::InvalidInput, "--workers requires an output directory"),
        ))
    })
}

/// Run one worker process' share of the suite: walk the suite in
/// enumeration order, skip cells a sibling already finished (combined
/// journal state), claim the rest one at a time and execute each
/// through the standard cell runner (panic isolation, bounded retry,
/// artifact-cache replay — in a worker session, which journals cache
/// replays too so the coordinator's merge sees every cell). Serial
/// within the worker; parallelism comes from the worker count.
pub fn run_worker(
    registry: &Registry,
    filter: &str,
    ctx: &RunContext,
    opts: &RunOptions,
    index: usize,
) -> Result<RunSummary, RunError> {
    check_filter(registry, filter)?;
    let root = out_root(opts)?;
    std::fs::create_dir_all(root.join(CLAIMS_DIR))
        .map_err(|e| JournalError::Io(root.join(CLAIMS_DIR), e))?;
    let prior = combined_state(&root, ctx.run_fingerprint(), opts.resume)?;
    let session = start_worker_session(ctx, opts, &worker_dir(&root, index), prior)?;
    nn::set_kernel_threads(opts.kernel_threads.unwrap_or_else(|| opts.jobs.max(1)));
    for exp in registry.iter().filter(|exp| matches(filter, exp.id())) {
        let cells = exp.cells(ctx);
        for i in 0..cells.len() {
            let cell = cells[i].identity(exp.id(), ctx).1.hash();
            if session.prior().done_output(cell).is_some() {
                continue; // a sibling (or a previous wave) finished it
            }
            if !try_claim(&root, cell, index) {
                continue; // another worker owns it right now
            }
            session.bump_total(1);
            session.run_cell(exp.id(), &cells, i, ctx, opts);
        }
    }
    Ok(session.finish())
}

/// Spawn `copts.workers` worker processes, wait for them, re-wave on
/// abnormal deaths, then deterministically merge the worker journals
/// into the canonical journal, record files and manifest under
/// `opts.out_dir`. Returns the merged summary; callers derive the exit
/// code from [`RunSummary::ok`] exactly as for `Registry::run`.
pub fn run_coordinator(
    registry: &Registry,
    filter: &str,
    ctx: &RunContext,
    opts: &RunOptions,
    copts: &CoordinatorOptions,
) -> Result<RunSummary, RunError> {
    let log = obs::global();
    check_filter(registry, filter)?;
    let root = out_root(opts)?;
    if copts.worker_cmd.is_empty() {
        return Err(RunError::Journal(JournalError::Io(
            root,
            io::Error::new(io::ErrorKind::InvalidInput, "empty worker command"),
        )));
    }
    if opts.resume {
        let swept = sweep_stale_claims(&root);
        if swept > 0 {
            log.info(
                "distrib",
                &format!("[distrib] swept {swept} stale claim(s) from dead workers"),
                &[("swept", swept.into())],
            );
        }
    } else {
        // Fresh run: prior claims and worker journals are another run's
        // state, not this one's.
        std::fs::remove_dir_all(root.join(CLAIMS_DIR)).ok();
        std::fs::remove_dir_all(root.join(WORKERS_DIR)).ok();
    }
    for sub in [CLAIMS_DIR, WORKERS_DIR] {
        std::fs::create_dir_all(root.join(sub)).map_err(|e| JournalError::Io(root.join(sub), e))?;
    }

    let fingerprint = ctx.run_fingerprint();
    let suite = enumerate(registry, filter, ctx);
    let n_workers = copts.workers.max(1);
    let max_waves = copts.max_waves.max(1);
    let mut artifact_builds = 0usize;
    let mut wave = 0;
    let state = loop {
        wave += 1;
        log.info(
            "distrib",
            &format!("[distrib] wave {wave}: spawning {n_workers} worker process(es)"),
            &[("wave", wave.into()), ("workers", n_workers.into())],
        );
        let mut children = Vec::new();
        for index in 0..n_workers {
            let wdir = worker_dir(&root, index);
            std::fs::create_dir_all(&wdir).map_err(|e| JournalError::Io(wdir.clone(), e))?;
            match spawn_worker(&copts.worker_cmd, index, &wdir) {
                Ok(child) => children.push((index, child)),
                Err(e) => log.error(
                    "distrib",
                    &format!("[distrib] could not spawn worker {index}: {e}"),
                    &[("worker", index.into())],
                ),
            }
        }
        for (index, mut child) in children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => match status.code() {
                    Some(code) => log.warn(
                        "distrib",
                        &format!("[distrib] worker {index} exited with code {code}"),
                        &[("worker", index.into()), ("code", (code as u64).into())],
                    ),
                    None => log.warn(
                        "distrib",
                        &format!("[distrib] worker {index} was killed by a signal"),
                        &[("worker", index.into())],
                    ),
                },
                Err(e) => log.error(
                    "distrib",
                    &format!("[distrib] could not wait for worker {index}: {e}"),
                    &[("worker", index.into())],
                ),
            }
        }
        // Worker manifests are per-wave scratch: consume their build
        // counters now so a re-spawned worker's fresh manifest never
        // double-counts (a SIGKILLed worker leaves none — its builds go
        // uncounted, like any crashed session's).
        artifact_builds += consume_worker_manifests(&root, n_workers);
        let state = combined_state(&root, fingerprint, opts.resume)?;
        let unfinished = suite
            .iter()
            .flat_map(|e| &e.metas)
            .filter(|m| state.done_output(m.cell).is_none() && state.last_error(m.cell).is_none())
            .count();
        if unfinished == 0 || wave >= max_waves {
            break state;
        }
        log.warn(
            "distrib",
            &format!(
                "[distrib] {unfinished} cell(s) neither finished nor failed after wave {wave}; \
                 sweeping stale claims and re-spawning"
            ),
            &[("unfinished", unfinished.into()), ("wave", wave.into())],
        );
        sweep_stale_claims(&root);
    };
    merge_run(&root, fingerprint, &suite, &state, ctx, opts, artifact_builds)
}

fn spawn_worker(cmd: &[String], index: usize, wdir: &Path) -> io::Result<std::process::Child> {
    let log_path = wdir.join("log.txt");
    let log_file = std::fs::OpenOptions::new().create(true).append(true).open(&log_path)?;
    let log_file2 = log_file.try_clone()?;
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .arg("--worker")
        .arg(index.to_string())
        .stdin(Stdio::null())
        .stdout(log_file)
        .stderr(log_file2)
        .spawn()
}

fn consume_worker_manifests(root: &Path, n_workers: usize) -> usize {
    let mut builds = 0;
    for index in 0..n_workers {
        let path = worker_dir(root, index).join(crate::engine::journal::MANIFEST_FILE);
        if let Ok(content) = std::fs::read_to_string(&path) {
            if let Ok(manifest) = RunManifest::from_json(&content) {
                builds += manifest.artifact_builds;
            }
            std::fs::remove_file(&path).ok();
        }
    }
    builds
}

/// Merge an already-populated worker state into the canonical outputs
/// under `opts.out_dir`, without spawning anything. `run_coordinator`
/// calls this after its waves; tests drive [`run_worker`] in-process
/// and then merge directly.
pub fn merge_workers(
    registry: &Registry,
    filter: &str,
    ctx: &RunContext,
    opts: &RunOptions,
    artifact_builds: usize,
) -> Result<RunSummary, RunError> {
    check_filter(registry, filter)?;
    let root = out_root(opts)?;
    let fingerprint = ctx.run_fingerprint();
    let suite = enumerate(registry, filter, ctx);
    let state = combined_state(&root, fingerprint, opts.resume)?;
    merge_run(&root, fingerprint, &suite, &state, ctx, opts, artifact_builds)
}

/// The deterministic k-way merge: canonical journal, record files and
/// manifest reconstructed purely from the folded worker state, in suite
/// enumeration order — completion order, worker count and cache state
/// leave no trace in the bytes.
fn merge_run(
    root: &Path,
    fingerprint: u64,
    suite: &[ExpCells<'_>],
    state: &JournalState,
    ctx: &RunContext,
    opts: &RunOptions,
    artifact_builds: usize,
) -> Result<RunSummary, RunError> {
    let log = obs::global();
    let journal = Journal::create(&root.join(JOURNAL_FILE), fingerprint)?;
    let journal_io = |e: io::Error| JournalError::Io(root.join(JOURNAL_FILE), e);
    let max_attempts = opts.max_attempts.max(1);
    let mut done = 0usize;
    let mut failed_cells = Vec::new();
    for e in suite {
        for m in &e.metas {
            let id = m.id.clone();
            match state.done_output(m.cell) {
                Some(out) => {
                    // Normalised to a single first-attempt pair: retry
                    // counts are scheduling history, not results.
                    journal
                        .append(&JournalEntry::Started { cell: m.cell, attempt: 1, id })
                        .map_err(journal_io)?;
                    journal
                        .append(&JournalEntry::Done {
                            cell: m.cell,
                            attempt: 1,
                            output: out.clone(),
                        })
                        .map_err(journal_io)?;
                    done += 1;
                }
                None => {
                    let error = state
                        .last_error(m.cell)
                        .unwrap_or("cell was never attempted (worker died or waves exhausted)")
                        .to_string();
                    for attempt in 1..=max_attempts {
                        journal
                            .append(&JournalEntry::Started {
                                cell: m.cell,
                                attempt,
                                id: id.clone(),
                            })
                            .map_err(journal_io)?;
                        journal
                            .append(&JournalEntry::Failed {
                                cell: m.cell,
                                attempt,
                                error: error.clone(),
                            })
                            .map_err(journal_io)?;
                    }
                    failed_cells.push(format!(
                        "{}/{}/{}/{}: {error}",
                        id.experiment, id.task, id.model, id.setting
                    ));
                }
            }
        }
    }
    let journal_hash = journal.content_hash().unwrap_or(0);

    let mut record_write_errors = Vec::new();
    for e in suite {
        let outputs: Vec<CellOutput> = e
            .metas
            .iter()
            .map(|m| state.done_output(m.cell).cloned().unwrap_or_else(CellOutput::empty))
            .collect();
        let recorded = e.metas.iter().zip(&outputs).filter(|(m, _)| m.emit_record);
        match write_records(root, e.exp.id(), recorded.map(|(m, out)| (&m.id, out))) {
            Ok(None) => {}
            Ok(Some(path)) => log.info(
                "distrib",
                &format!("  [saved] {}", path.display()),
                &[("path", path.display().to_string().into())],
            ),
            Err(msg) => record_write_errors.push(msg),
        }
        if catch_unwind(AssertUnwindSafe(|| e.exp.render(ctx, &outputs))).is_err() {
            log.warn(
                "distrib",
                &format!("  [render] {} panicked", e.exp.id()),
                &[("experiment", e.exp.id().into())],
            );
        }
    }

    let total: usize = suite.iter().map(|e| e.metas.len()).sum();
    // Hit counters depend on which worker reached an artifact first, so
    // the merged manifest zeroes them; the *build* count is scheduling-
    // invariant (cross-process single-flight) and is the one the bench
    // asserts against a single-process run.
    let mut summary = RunSummary {
        cells_total: total,
        cells_done: done,
        cells_failed: total - done,
        cells_resumed: 0,
        failed_cells,
        record_write_errors,
        artifacts: crate::artifact::ArtifactStats {
            mem_hits: 0,
            disk_hits: 0,
            builds: artifact_builds,
        },
        manifest_path: None,
        metrics_path: None,
    };
    RunManifest::write_summary(&mut summary, journal_hash, root);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::context::Preset;
    use crate::engine::registry::{CellSpec, RecordStats};
    use std::sync::Arc;

    /// A small deterministic grid: value derived from the cell seed, so
    /// merged outputs are checkable and identical however scheduled.
    struct Grid {
        id: &'static str,
        n: usize,
        panic_on: Option<usize>,
    }

    impl Experiment for Grid {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "distrib test grid"
        }
        fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
            (0..self.n)
                .map(|i| {
                    let boom = self.panic_on == Some(i);
                    CellSpec {
                        task: format!("task{i}"),
                        model: "m".into(),
                        setting: "s".into(),
                        emit_record: true,
                        seed_as: None,
                        run: Arc::new(
                            move |_ctx: &RunContext, cfg: &crate::experiment::CellConfig| {
                                if boom {
                                    panic!("deterministic boom");
                                }
                                CellOutput::stats(RecordStats {
                                    accuracy: (cfg.seed % 97) as f64 / 97.0,
                                    macro_f1: (cfg.seed % 89) as f64 / 89.0,
                                    train_secs: 0.0,
                                    infer_secs: 0.0,
                                })
                            },
                        ),
                    }
                })
                .collect()
        }
        fn render(&self, _ctx: &RunContext, _outputs: &[CellOutput]) {}
    }

    fn registry(n: usize, panic_on: Option<usize>) -> Registry {
        let mut reg = Registry::new();
        reg.register(Box::new(Grid { id: "grid", n, panic_on }));
        reg
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("debunk-distrib-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ctx_with_cache(cache: &Path) -> RunContext {
        RunContext::from_preset(Preset::Fast, 42, None).with_cache_dir(cache.to_path_buf())
    }

    fn opts(dir: &Path) -> RunOptions {
        RunOptions { out_dir: Some(dir.to_path_buf()), ..Default::default() }
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn claims_are_exclusive_and_dead_claims_sweep() {
        let dir = temp_dir("claims");
        assert!(try_claim(&dir, 7, 0), "first claim wins");
        assert!(!try_claim(&dir, 7, 1), "second claim on the same cell loses");
        assert!(try_claim(&dir, 8, 1), "a different cell is claimable");
        // Our own claims are live and must survive a sweep.
        assert_eq!(sweep_stale_claims(&dir), 0);
        // A claim from a dead PID (u32::MAX is above any pid_max) and a
        // torn claim record are both swept.
        std::fs::write(claim_path(&dir, 9), format!("{{\"cell\":\"9\",\"pid\":{}}}", u32::MAX))
            .unwrap();
        std::fs::write(claim_path(&dir, 10), "{\"cell\":\"a\",\"wor").unwrap();
        assert_eq!(sweep_stale_claims(&dir), 2);
        assert!(claim_path(&dir, 7).exists(), "live claim kept");
        assert!(!claim_path(&dir, 9).exists(), "dead claim swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A claim naming our own PID with another start time was left by
    /// an earlier process that had this PID, and is swept; with our own
    /// start time it is ours and kept.
    #[test]
    fn claims_from_a_reused_pid_sweep() {
        let dir = temp_dir("reused-pid");
        std::fs::create_dir_all(dir.join(CLAIMS_DIR)).unwrap();
        let pid = std::process::id();
        let start = pid_start_time(pid).expect("procfs reports our start time");
        assert!(try_claim(&dir, 12, 0));
        assert_eq!(claim_owner(&read(&claim_path(&dir, 12))), Some((pid, Some(start))));
        std::fs::write(
            claim_path(&dir, 13),
            format!("{{\"cell\":\"d\",\"worker\":0,\"pid\":{pid},\"pid_start\":{}}}", start + 1),
        )
        .unwrap();
        assert_eq!(sweep_stale_claims(&dir), 1);
        assert!(claim_path(&dir, 12).exists(), "our own pid and start time are live");
        assert!(!claim_path(&dir, 13).exists(), "a reused pid's claim is stale");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zombie_claims_sweep() {
        let dir = temp_dir("zombie");
        std::fs::create_dir_all(dir.join(CLAIMS_DIR)).unwrap();
        // An exited child we never reap stays a zombie: its /proc entry
        // exists, but it will never finish the cell it claimed.
        use std::time::{Duration, Instant};
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let stat = format!("/proc/{}/stat", child.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::fs::read_to_string(&stat).is_ok_and(|s| s.contains(") Z ")) {
            assert!(Instant::now() < deadline, "child never became a zombie");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::fs::write(claim_path(&dir, 11), format!("{{\"cell\":\"b\",\"pid\":{}}}", child.id()))
            .unwrap();
        let swept = sweep_stale_claims(&dir);
        child.wait().unwrap();
        assert_eq!(swept, 1, "a zombie's claim must be swept");
        assert!(!claim_path(&dir, 11).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_merge_is_byte_identical_to_single_process_run() {
        let reg = registry(6, None);

        // Reference: a plain single-process run.
        let ref_dir = temp_dir("merge-ref");
        let ref_cache = ref_dir.join("cache");
        let summary = reg.run("grid", &ctx_with_cache(&ref_cache), &opts(&ref_dir)).unwrap();
        assert!(summary.ok());

        for workers in [1usize, 2, 4] {
            let dir = temp_dir(&format!("merge-w{workers}"));
            let cache = dir.join("cache");
            let mut builds = 0;
            for index in 0..workers {
                // Fresh context per worker = fresh process, conceptually.
                let ctx = ctx_with_cache(&cache);
                let summary = run_worker(&reg, "grid", &ctx, &opts(&dir), index).unwrap();
                assert!(summary.ok());
                builds += summary.artifacts.builds;
            }
            let ctx = ctx_with_cache(&cache);
            let merged = merge_workers(&reg, "grid", &ctx, &opts(&dir), builds).unwrap();
            assert!(merged.ok());
            assert_eq!(merged.cells_done, 6);
            assert_eq!(
                read(&dir.join(JOURNAL_FILE)),
                read(&ref_dir.join(JOURNAL_FILE)),
                "merged journal at {workers} worker(s) != single-process journal"
            );
            assert_eq!(
                read(&dir.join("grid.json")),
                read(&ref_dir.join("grid.json")),
                "merged records at {workers} worker(s) != single-process records"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn concurrent_workers_split_cells_without_overlap() {
        let reg = registry(8, None);
        let dir = temp_dir("race");
        let cache = dir.join("cache");
        let summaries: Vec<RunSummary> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|index| {
                    let reg = &reg;
                    let dir = &dir;
                    let cache = &cache;
                    scope.spawn(move || {
                        run_worker(reg, "grid", &ctx_with_cache(cache), &opts(dir), index).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let scheduled: usize = summaries.iter().map(|s| s.cells_total).sum();
        assert_eq!(scheduled, 8, "claims must partition the grid exactly once");
        let merged = merge_workers(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), 0).unwrap();
        assert_eq!(merged.cells_done, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_claim_from_dead_worker_is_reclaimed_after_sweep() {
        let reg = registry(4, None);
        let dir = temp_dir("takeover");
        let cache = dir.join("cache");
        let ctx = ctx_with_cache(&cache);
        // Simulate a SIGKILLed worker: its claim on the first cell is on
        // disk with a dead PID and no journal entry.
        let suite = enumerate(&reg, "grid", &ctx);
        let first = suite[0].metas[0].cell;
        std::fs::create_dir_all(dir.join(CLAIMS_DIR)).unwrap();
        std::fs::write(
            claim_path(&dir, first),
            format!("{{\"cell\":\"{first:016x}\",\"worker\":0,\"pid\":{}}}", u32::MAX),
        )
        .unwrap();
        // Wave 1: the orphaned claim blocks the cell.
        let s1 = run_worker(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), 0).unwrap();
        assert_eq!(s1.cells_total, 3, "claimed cell must not be re-run while claimed");
        // The coordinator's inter-wave sweep frees it; wave 2 picks it up.
        assert_eq!(sweep_stale_claims(&dir), 1);
        let s2 = run_worker(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), 1).unwrap();
        assert_eq!(s2.cells_total, 1, "wave 2 runs exactly the orphaned cell");
        let merged = merge_workers(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), 0).unwrap();
        assert!(merged.ok());
        assert_eq!(merged.cells_done, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_cells_merge_identically_at_any_worker_count() {
        let reg = registry(3, Some(1));
        let mut journals = Vec::new();
        for workers in [1usize, 2] {
            let dir = temp_dir(&format!("fail-w{workers}"));
            let cache = dir.join("cache");
            for index in 0..workers {
                let summary =
                    run_worker(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), index).unwrap();
                assert!(!summary.ok() || summary.cells_total == 0);
            }
            let merged =
                merge_workers(&reg, "grid", &ctx_with_cache(&cache), &opts(&dir), 0).unwrap();
            assert_eq!(merged.cells_done, 2);
            assert_eq!(merged.cells_failed, 1);
            assert_eq!(merged.failed_cells.len(), 1);
            assert!(merged.failed_cells[0].contains("deterministic boom"));
            journals.push(read(&dir.join(JOURNAL_FILE)));
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(journals[0], journals[1], "failure normalisation is worker-count invariant");
    }

    #[test]
    fn resume_folds_a_single_process_root_journal() {
        let reg = registry(5, None);
        let dir = temp_dir("resume-root");
        let cache = dir.join("cache");
        // A prior single-process run left a root journal.
        let summary = reg.run("grid", &ctx_with_cache(&cache), &opts(&dir)).unwrap();
        assert!(summary.ok());
        let reference = read(&dir.join(JOURNAL_FILE));
        // A resumed worker replays it all and executes nothing new.
        let ropts = RunOptions { resume: true, ..opts(&dir) };
        let s = run_worker(&reg, "grid", &ctx_with_cache(&cache), &ropts, 0).unwrap();
        assert_eq!(s.cells_total, 0, "every cell replays from the root journal");
        let merged = merge_workers(&reg, "grid", &ctx_with_cache(&cache), &ropts, 0).unwrap();
        assert_eq!(merged.cells_done, 5);
        assert_eq!(read(&dir.join(JOURNAL_FILE)), reference, "merged bytes unchanged on resume");
        std::fs::remove_dir_all(&dir).ok();
    }
}
