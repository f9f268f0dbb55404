//! `results_md` — render the JSON result records written by `repro`
//! into Markdown tables (for embedding in EXPERIMENTS.md or reports).
//!
//! ```text
//! results_md [--out DIR]                  # default: results/
//! results_md --trace-report [--out DIR]   # render DIR/metrics.json
//! ```
//!
//! Consumes every record file in the directory in one pass, in sorted
//! file-name order, and prints one Markdown table per experiment. With
//! `--trace-report` it instead renders the out-of-band `metrics.json`
//! written by `repro --trace` as a per-experiment time/cache breakdown.

use debunk_core::engine::journal::{parse_json, Json};
use debunk_core::report::ResultRecord;
use std::collections::BTreeMap;

/// model → (task, setting) → (accuracy, macro-F1), all percentages.
type Grid = BTreeMap<String, BTreeMap<(String, String), (f64, f64)>>;

fn usage() -> ! {
    eprintln!("usage: results_md [--trace-report] [--out DIR]");
    std::process::exit(2);
}

struct Cli {
    dir: String,
    trace_report: bool,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut dir: Option<String> = None;
    let mut trace_report = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-report" => trace_report = true,
            "--out" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("error: --out requires a value");
                    usage();
                });
                if dir.is_some() {
                    eprintln!("error: records directory given twice");
                    usage();
                }
                dir = Some(v.clone());
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag '{other}'");
                usage();
            }
            // Bare directory kept for backwards compatibility.
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument '{other}'");
                usage();
            }
        }
    }
    Cli { dir: dir.unwrap_or_else(|| "results".into()), trace_report }
}

/// The records of one `repro` result file, or `None` if the text is
/// not a JSON array of complete result records.
fn parse_records(text: &str) -> Option<Vec<ResultRecord>> {
    let Ok(Json::Arr(list)) = parse_json(text) else {
        return None;
    };
    list.iter()
        .map(|r| {
            let s = |k: &str| r.get(k).and_then(Json::str).map(str::to_string);
            let n = |k: &str| r.get(k).and_then(Json::num);
            Some(ResultRecord {
                experiment: s("experiment")?,
                task: s("task")?,
                model: s("model")?,
                setting: s("setting")?,
                accuracy: n("accuracy")?,
                macro_f1: n("macro_f1")?,
                train_secs: n("train_secs")?,
                infer_secs: n("infer_secs")?,
            })
        })
        .collect()
}

fn render_trace_report(dir: &str) -> ! {
    let path = std::path::Path::new(dir).join(debunk_core::obs::METRICS_FILE);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e} (run `repro --trace` first)", path.display());
        std::process::exit(1);
    });
    match debunk_core::obs::trace_report(&text) {
        Ok(report) => {
            print!("{report}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("cannot render {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    if cli.trace_report {
        render_trace_report(&cli.dir);
    }
    let dir = cli.dir;
    let mut entries: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd.filter_map(|e| e.ok()).collect(),
        Err(e) => {
            eprintln!("cannot read {dir}: {e} (run `repro` first)");
            std::process::exit(1);
        }
    };
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Some(records) = parse_records(&text) else {
            eprintln!("skipping {path:?}: not a result-record file");
            continue;
        };
        if records.is_empty() {
            continue;
        }
        println!("## {}\n", records[0].experiment);
        // group rows by (model), columns by (task, setting)
        let mut columns: Vec<(String, String)> = Vec::new();
        let mut rows: Grid = BTreeMap::new();
        for r in &records {
            let col = (r.task.clone(), r.setting.clone());
            if !columns.contains(&col) {
                columns.push(col.clone());
            }
            rows.entry(r.model.clone()).or_default().insert(col, (r.accuracy, r.macro_f1));
        }
        print!("| model |");
        for (task, setting) in &columns {
            print!(" {task} {setting} AC | F1 |");
        }
        println!();
        print!("|---|");
        for _ in &columns {
            print!("---|---|");
        }
        println!();
        for (model, cells) in &rows {
            print!("| {model} |");
            for col in &columns {
                match cells.get(col) {
                    Some((ac, f1)) => print!(" {ac:.1} | {f1:.1} |"),
                    None => print!(" - | - |"),
                }
            }
            println!();
        }
        println!();
    }
}
