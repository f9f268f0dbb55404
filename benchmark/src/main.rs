//! `debunk-benchmark` — the repository benchmark.
//!
//! ```text
//! debunk-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                      [--quick] [--out FILE] [--work-dir DIR]
//! debunk-benchmark run --workload all --quick
//! debunk-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `run` generates the workload's inputs from `--seed`, measures the
//! end-to-end metrics with nothing traced (`--trace 0`), or re-drives
//! every layer through its public calls and times each (`--trace 1`);
//! without `--trace` it does both. It checks the outputs, prints the
//! full report and then the one-line summary as the last line of
//! stdout, and exits 1 when a check fails. See README.md.

mod fig6;
mod heap;
mod meta;
mod report;
mod serve;
mod stats;

use report::Report;
use std::io::Write;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = ["serve-forest", "serve-mixed", "serve-flood", "repro-fig6"];

const USAGE: &str = "usage:
  debunk-benchmark run --workload <serve-forest|serve-mixed|serve-flood|repro-fig6|all>
                       [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
                       [--work-dir DIR]
  debunk-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: None,
        quick: false,
        out: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0|1)")),
                })
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if a.workload == "all" && !a.quick {
        return Err("--workload all is the --quick smoke run".into());
    }
    Ok(a)
}

/// Run one workload; returns its report.
fn run_one(workload: &'static str, a: &RunArgs) -> Result<Report, String> {
    let meta = meta::Meta::collect(a.seed, a.quick, a.seconds);
    let mut report = Report::new(workload, meta);
    let work = a.work_dir.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let (e2e, traced) = (a.trace != Some(true), a.trace != Some(false));
    let result = match workload {
        "serve-forest" => serve::run(serve::Workload::Forest, &mut report, &work, e2e, traced),
        "serve-mixed" => serve::run(serve::Workload::Mixed, &mut report, &work, e2e, traced),
        "serve-flood" => serve::run(serve::Workload::Flood, &mut report, &work, e2e, traced),
        _ => fig6::run(&mut report, &work, e2e, traced),
    };
    std::fs::remove_dir_all(&work).ok();
    if a.work_dir.read_dir().is_ok_and(|mut d| d.next().is_none()) {
        std::fs::remove_dir(&a.work_dir).ok();
    }
    result.map_err(|e| format!("{workload}: {e}"))?;
    Ok(report)
}

fn cmd_run(args: &[String]) -> i32 {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let selected: Vec<&'static str> =
        WORKLOADS.into_iter().filter(|w| a.workload == "all" || *w == a.workload).collect();
    let mut ok = true;
    let mut last = String::new();
    for workload in selected {
        eprintln!(
            "== {workload} (seed {}, {}s{})",
            a.seed,
            a.seconds,
            if a.quick { ", quick" } else { "" }
        );
        let report = match run_one(workload, &a) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let full = report.to_json();
        if let Some(path) = &a.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{full}").and_then(|()| f.flush()));
            if let Err(e) = appended {
                eprintln!("error: {}: {e}", path.display());
                return 1;
            }
        }
        println!("{full}");
        ok &= report.correct();
        last = report.summary_line();
    }
    println!("{last}");
    if ok {
        0
    } else {
        eprintln!("error: a check failed");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => {
            let mut files = Vec::new();
            let mut bench = "BENCHMARK.json".to_string();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match (arg.as_str(), it.len()) {
                    ("--bench", n) if n > 0 => bench = it.next().expect("checked").clone(),
                    _ => files.push(arg.clone()),
                }
            }
            match files.as_slice() {
                [a, b] => report::compare(a, b, &bench),
                _ => {
                    eprintln!("{USAGE}");
                    2
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
