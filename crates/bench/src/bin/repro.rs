//! `repro` — regenerate every table and figure of the paper's
//! evaluation from the synthetic benchmark.
//!
//! ```text
//! repro <experiment|all> [options]
//! repro --list
//!
//! options:
//!   --scale X        dataset scale multiplier (default: preset's)
//!   --seed N         base seed (default 42)
//!   --budget B       fast | medium | full (default medium)
//!   --fast           shorthand for --budget fast
//!   --jobs N         worker threads for independent cells (default 1)
//!   --kernel-threads N  threads for the nn matmul kernels inside each
//!                    cell (default: auto-split from --jobs; results
//!                    are bit-identical at any setting)
//!   --out DIR        result-record directory (default "results")
//!   --cache-dir DIR  persist content-addressed artifacts (datasets,
//!                    pre-trained encoders, cell outputs) in DIR;
//!                    a warm second run replays cached builds and
//!                    produces byte-identical records
//!   --resume         replay cells already `done` in DIR's journal;
//!                    only missing/failed cells execute (byte-identical
//!                    records to an uninterrupted run)
//!   --max-attempts N retry failed/panicking cells up to N times
//!                    (default 1; deterministic seed-derived backoff)
//!   --max-cell-seconds S  soft per-cell time budget: overrunning cells
//!                    are marked failed in the journal
//!   --trace          record out-of-band observability files under the
//!                    out dir: trace.jsonl (leveled events, one JSON
//!                    object per line) and metrics.json (per-experiment
//!                    wall-clock, retries, cache hit rates). Records,
//!                    journal and manifest stay byte-identical with or
//!                    without it.
//!   --log-format F   text | json stderr event rendering (default text)
//!   --workers N      coordinator mode: spawn N worker *processes* that
//!                    claim cells through file-locked claim records and
//!                    share one artifact cache (defaults to OUT/cache
//!                    when --cache-dir is absent), then merge their
//!                    journals into records + manifest byte-identical
//!                    to a single-process run (engine::distrib)
//!   --worker I       (internal) run as standalone worker I of a
//!                    coordinator's out dir; spawned by --workers but
//!                    also usable by hand for multi-machine sharding
//!   --list           print registered experiments and exit
//! ```
//!
//! Exit codes: 0 — every cell done and every record written; 1 — the run
//! finished but some cell failed or a record write was lost (see
//! `run-manifest.json` in the out dir); 2 — bad usage / could not start.
//!
//! The experiments themselves live in `debunk_core::engine::suite`; this
//! binary only parses flags and hands a filter to the registry.

use debunk_core::engine::{
    default_registry, run_coordinator, run_worker, CoordinatorOptions, Preset, RunContext,
    RunError, RunOptions,
};
use debunk_core::obs::{self, LogFormat, ObsSink};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

struct Cli {
    experiment: String,
    preset: Preset,
    seed: u64,
    scale: Option<f64>,
    jobs: usize,
    kernel_threads: Option<usize>,
    out_dir: PathBuf,
    cache_dir: Option<PathBuf>,
    resume: bool,
    max_attempts: u32,
    max_cell_seconds: Option<f64>,
    trace: bool,
    log_format: LogFormat,
    workers: usize,
    worker: Option<usize>,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all> [--scale X] [--seed N] [--budget fast|medium|full] \
         [--fast] [--jobs N] [--kernel-threads N] [--out DIR] [--cache-dir DIR] [--resume] \
         [--max-attempts N] [--max-cell-seconds S] [--trace] [--log-format text|json] \
         [--workers N]\n       \
         repro --list"
    );
    exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        experiment: String::new(),
        preset: Preset::Medium,
        seed: 42,
        scale: None,
        jobs: 1,
        kernel_threads: None,
        out_dir: PathBuf::from("results"),
        cache_dir: None,
        resume: false,
        max_attempts: 1,
        max_cell_seconds: None,
        trace: false,
        log_format: LogFormat::Text,
        workers: 0,
        worker: None,
        list: false,
    };
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                usage();
            })
        };
        match arg.as_str() {
            "--list" => cli.list = true,
            "--fast" => cli.preset = Preset::Fast,
            "--budget" => {
                let v = value("--budget");
                cli.preset = Preset::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown budget '{v}' (expected fast|medium|full)");
                    usage();
                });
            }
            "--seed" => {
                let v = value("--seed");
                cli.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --seed '{v}'");
                    usage();
                });
            }
            "--scale" => {
                let v = value("--scale");
                cli.scale = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --scale '{v}'");
                    usage();
                }));
            }
            "--jobs" => {
                let v = value("--jobs");
                cli.jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --jobs '{v}'");
                    usage();
                });
            }
            "--kernel-threads" => {
                let v = value("--kernel-threads");
                cli.kernel_threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --kernel-threads '{v}'");
                    usage();
                }));
            }
            "--out" => cli.out_dir = PathBuf::from(value("--out")),
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--resume" => cli.resume = true,
            "--max-attempts" => {
                let v = value("--max-attempts");
                cli.max_attempts = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --max-attempts '{v}'");
                    usage();
                });
                if cli.max_attempts == 0 {
                    eprintln!("error: --max-attempts must be at least 1");
                    usage();
                }
            }
            "--max-cell-seconds" => {
                let v = value("--max-cell-seconds");
                cli.max_cell_seconds = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --max-cell-seconds '{v}'");
                    usage();
                }));
            }
            "--trace" => cli.trace = true,
            "--workers" => {
                let v = value("--workers");
                cli.workers = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --workers '{v}'");
                    usage();
                });
                if cli.workers == 0 {
                    eprintln!("error: --workers must be at least 1");
                    usage();
                }
            }
            "--worker" => {
                let v = value("--worker");
                cli.worker = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --worker '{v}'");
                    usage();
                }));
            }
            "--log-format" => {
                let v = value("--log-format");
                cli.log_format = LogFormat::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown log format '{v}' (expected text|json)");
                    usage();
                });
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag '{other}'");
                usage();
            }
            _ => positional.push(arg),
        }
    }
    match positional.as_slice() {
        [] if cli.list => {}
        [] => usage(),
        [exp] => cli.experiment = (*exp).clone(),
        [_, extra, ..] => {
            eprintln!("error: unexpected argument '{extra}'");
            usage();
        }
    }
    cli
}

/// The command line a spawned worker re-parses into this coordinator's
/// exact `RunContext` + `RunOptions` (same journal fingerprint, same
/// shared cache); the coordinator appends `--worker <index>` per
/// process. `ctx.scale` rides along explicitly because the worker must
/// see the resolved value even when the coordinator used the preset
/// default (f64 `Display` is shortest-roundtrip, so the bits survive).
fn worker_cmd(cli: &Cli, ctx: &RunContext, cache_dir: Option<&std::path::Path>) -> Vec<String> {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate the repro executable to spawn workers: {e}");
        exit(2);
    });
    let mut cmd = vec![
        exe.display().to_string(),
        cli.experiment.clone(),
        "--budget".into(),
        cli.preset.name().into(),
        "--seed".into(),
        cli.seed.to_string(),
        "--scale".into(),
        ctx.scale.to_string(),
        "--jobs".into(),
        cli.jobs.to_string(),
        "--out".into(),
        cli.out_dir.display().to_string(),
        "--max-attempts".into(),
        cli.max_attempts.to_string(),
        "--log-format".into(),
        match cli.log_format {
            LogFormat::Text => "text".into(),
            LogFormat::Json => "json".into(),
        },
    ];
    if let Some(dir) = cache_dir {
        cmd.push("--cache-dir".into());
        cmd.push(dir.display().to_string());
    }
    if let Some(k) = cli.kernel_threads {
        cmd.push("--kernel-threads".into());
        cmd.push(k.to_string());
    }
    if let Some(s) = cli.max_cell_seconds {
        cmd.push("--max-cell-seconds".into());
        cmd.push(s.to_string());
    }
    if cli.resume {
        cmd.push("--resume".into());
    }
    if cli.trace {
        cmd.push("--trace".into());
    }
    cmd
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    let registry = default_registry();

    if cli.list {
        println!("experiments:");
        for exp in registry.iter() {
            println!("  {:<18} {}", exp.id(), exp.description());
        }
        println!("  {:<18} everything above", "all");
        return;
    }

    // Install the stderr sink first so everything — banner included —
    // honours --log-format. A traced session layers its own file sink
    // on top (same format) when the run starts.
    obs::set_global(Arc::new(ObsSink::stderr(cli.log_format)));
    let log = obs::global();

    if cli.worker.is_some() && cli.workers > 0 {
        eprintln!("error: --worker and --workers are mutually exclusive");
        usage();
    }
    // Multi-process modes depend on a shared disk cache for the
    // cross-process single-flight guarantee (one cold build per
    // artifact across every worker); default one under the out dir
    // rather than silently rebuilding per process.
    let cache_dir = cli.cache_dir.clone().or_else(|| {
        (cli.workers > 0 || cli.worker.is_some()).then(|| {
            let dir = cli.out_dir.join("cache");
            log.info(
                "repro",
                &format!("defaulting --cache-dir to {} for multi-process run", dir.display()),
                &[("cache_dir", dir.display().to_string().into())],
            );
            dir
        })
    });
    let mut ctx = RunContext::from_preset(cli.preset, cli.seed, cli.scale);
    if let Some(dir) = cache_dir.clone() {
        ctx = ctx.with_cache_dir(dir);
    }
    log.info(
        "repro",
        &format!(
            "repro: experiment={} budget={} seed={} scale={} jobs={}",
            cli.experiment,
            cli.preset.name(),
            cli.seed,
            ctx.scale,
            cli.jobs,
        ),
        &[
            ("experiment", cli.experiment.as_str().into()),
            ("budget", cli.preset.name().into()),
            ("seed", cli.seed.into()),
            ("scale", ctx.scale.into()),
            ("jobs", cli.jobs.into()),
        ],
    );

    let opts = RunOptions {
        jobs: cli.jobs,
        kernel_threads: cli.kernel_threads,
        out_dir: Some(cli.out_dir.clone()),
        resume: cli.resume,
        max_attempts: cli.max_attempts,
        max_cell_seconds: cli.max_cell_seconds,
        trace: cli.trace,
    };
    let t0 = std::time::Instant::now();
    let result = if let Some(index) = cli.worker {
        run_worker(&registry, &cli.experiment, &ctx, &opts, index)
    } else if cli.workers > 0 {
        let copts = CoordinatorOptions {
            workers: cli.workers,
            worker_cmd: worker_cmd(&cli, &ctx, cache_dir.as_deref()),
            max_waves: 3,
        };
        run_coordinator(&registry, &cli.experiment, &ctx, &opts, &copts)
    } else {
        registry.run(&cli.experiment, &ctx, &opts)
    };
    let summary = match result {
        Ok(summary) => summary,
        Err(RunError::UnknownExperiment(unknown)) => {
            eprintln!("unknown experiment: {unknown} (try --list)");
            exit(2);
        }
        Err(RunError::Journal(e)) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    log.info(
        "repro",
        &format!(
            "cells: {} total, {} done ({} replayed), {} failed",
            summary.cells_total, summary.cells_done, summary.cells_resumed, summary.cells_failed,
        ),
        &[
            ("total", summary.cells_total.into()),
            ("done", summary.cells_done.into()),
            ("resumed", summary.cells_resumed.into()),
            ("failed", summary.cells_failed.into()),
        ],
    );
    log.info(
        "repro",
        &format!(
            "artifacts: {} built, {} memory hits, {} disk hits",
            summary.artifacts.builds, summary.artifacts.mem_hits, summary.artifacts.disk_hits,
        ),
        &[
            ("builds", summary.artifacts.builds.into()),
            ("mem_hits", summary.artifacts.mem_hits.into()),
            ("disk_hits", summary.artifacts.disk_hits.into()),
        ],
    );
    for cell in &summary.failed_cells {
        log.error("repro", &format!("  failed: {cell}"), &[]);
    }
    for err in &summary.record_write_errors {
        log.error("repro", &format!("  write error: {err}"), &[]);
    }
    if let Some(path) = &summary.manifest_path {
        log.info("repro", &format!("manifest: {}", path.display()), &[]);
    }
    if let Some(path) = &summary.metrics_path {
        log.info(
            "repro",
            &format!("metrics: {} (render with: results_md --trace-report)", path.display()),
            &[],
        );
    }
    log.info("repro", &format!("total elapsed: {:.1?}", t0.elapsed()), &[]);
    if !summary.ok() {
        exit(1);
    }
}
