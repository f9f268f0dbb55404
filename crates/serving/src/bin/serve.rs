//! `serve` — the online flow-classification daemon.
//!
//! Two subcommands:
//!
//! ```text
//! serve export --out DIR [--synth SPEC] [--seed N] [--quant int8]
//!     Train a model bundle on a synthetic labelled trace and freeze
//!     it under DIR (encoder/head/forest/gbdt/knn + labels.txt).
//!     --quant int8 additionally freezes an int8-quantised encoder
//!     (encoder_int8.frozen) servable via the `encoder_int8` policy
//!     target — an explicit accuracy-vs-throughput trade, never a
//!     silent substitute for the f32 encoder.
//!
//! serve run --models DIR (--pcap FILE | --synth SPEC | --shard-dir DIR)
//!           [--policy FILE] [--batch N] [--idle-timeout SECS]
//!           [--serve-workers N] [--reload-dir DIR | --reload-at SEQ:DIR]
//!           [--reload-poll-ms MS] [--throttle-pps N]
//!           [--out FILE] [--metrics-dir DIR] [--log-format text|json]
//!     Replay packets through the frozen bundle and emit one JSONL
//!     verdict per flow (stdout by default). `--shard-dir` streams an
//!     on-disk flow-sharded trace (written by `traffic-gen --shards`)
//!     in bounded memory — the million-flow replay source.
//!     `--batch N` (default 16) caps the flows per model call. Once
//!     the source has kept the engine waiting longer than the engine
//!     has worked, pending flows are classified below the cap after
//!     every packet, so no verdict waits for its batch to fill.
//!     `--serve-workers N` shards ingest across N worker threads by
//!     flow hash (verdict bytes identical at any N). `--reload-dir`
//!     hot-swaps any new bundle subdirectory at a recorded packet
//!     boundary without dropping flows; `--reload-at SEQ:DIR`
//!     (repeatable) plans the swap at an exact packet for reproducible
//!     replays. `--throttle-pps` paces delivery in wall-clock time
//!     (timestamps — and therefore verdicts — are unchanged).
//! ```
//!
//! SPEC is `<iscx|ustc|cstnet>:<seed>:<flows_per_class>`. With no
//! `--policy`, every flow routes to the encoder. Exit codes: 0 ok,
//! 1 runtime failure, 2 usage.

use dataset::record::Prepared;
use debunk_core::obs::{LogFormat, ObsSink};
use serving::engine::{serve, EpochBundle, ServeOptions};
use serving::policy::Policy;
use serving::reload::{ReloadSource, ReloadWatcher};
use serving::source::{from_pcap_file, from_shard_dir, throttle, ReplayPacket, SynthSpec};
use serving::ModelBundle;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  serve export --out DIR [--synth SPEC] [--seed N] [--quant int8]
  serve run --models DIR (--pcap FILE | --synth SPEC | --shard-dir DIR)
            [--policy FILE] [--batch N] [--idle-timeout SECS]
            [--serve-workers N] [--reload-dir DIR | --reload-at SEQ:DIR]
            [--reload-poll-ms MS] [--throttle-pps N]
            [--out FILE] [--metrics-dir DIR] [--log-format text|json]

SPEC = <iscx|ustc|cstnet>:<seed>:<flows_per_class>, e.g. ustc:7:4
--batch N (default 16) caps flows per model call; once the source has
kept the engine waiting longer than it worked, no verdict waits for a
batch to fill";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("serve: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn run_err(msg: &str) -> ExitCode {
    eprintln!("serve: {msg}");
    ExitCode::from(1)
}

/// Pull the value of a `--flag VALUE` pair out of `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

/// Pull every occurrence of a repeatable `--flag VALUE` pair.
fn take_values(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    while let Some(v) = take_value(args, flag)? {
        values.push(v);
    }
    Ok(values)
}

fn cmd_export(mut args: Vec<String>) -> ExitCode {
    let out = match take_value(&mut args, "--out") {
        Ok(Some(v)) => PathBuf::from(v),
        Ok(None) => return usage_err("export needs --out DIR"),
        Err(e) => return usage_err(&e),
    };
    let spec = match take_value(&mut args, "--synth") {
        Ok(v) => v.unwrap_or_else(|| "ustc:7:4".to_string()),
        Err(e) => return usage_err(&e),
    };
    let seed = match take_value(&mut args, "--seed") {
        Ok(None) => 42u64,
        Ok(Some(v)) => match v.parse() {
            Ok(n) => n,
            Err(_) => return usage_err(&format!("bad --seed '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    let quant_int8 = match take_value(&mut args, "--quant") {
        Ok(None) => false,
        Ok(Some(v)) if v == "int8" => true,
        Ok(Some(v)) => return usage_err(&format!("bad --quant '{v}' (only int8)")),
        Err(e) => return usage_err(&e),
    };
    if let Some(extra) = args.first() {
        return usage_err(&format!("unexpected argument '{extra}'"));
    }
    let spec = match SynthSpec::parse(&spec) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    let prepared = Prepared::from_trace(&spec.trace());
    eprintln!(
        "training bundle: {} records, {} classes, seed {seed}",
        prepared.records.len(),
        prepared.classes.len()
    );
    let mut bundle = ModelBundle::train(&prepared, seed);
    if quant_int8 {
        bundle.quantize_encoder();
    }
    if let Err(e) = bundle.save(&out) {
        return run_err(&format!("cannot write bundle to {}: {e}", out.display()));
    }
    eprintln!("bundle frozen under {}", out.display());
    ExitCode::SUCCESS
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let models = match take_value(&mut args, "--models") {
        Ok(Some(v)) => PathBuf::from(v),
        Ok(None) => return usage_err("run needs --models DIR"),
        Err(e) => return usage_err(&e),
    };
    let pcap = match take_value(&mut args, "--pcap") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let synth = match take_value(&mut args, "--synth") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let shard_dir = match take_value(&mut args, "--shard-dir") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let policy_path = match take_value(&mut args, "--policy") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let batch = match take_value(&mut args, "--batch") {
        Ok(None) => 16usize,
        Ok(Some(v)) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_err(&format!("bad --batch '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    let idle_timeout = match take_value(&mut args, "--idle-timeout") {
        Ok(None) => 15.0f64,
        Ok(Some(v)) => match v.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => s,
            _ => return usage_err(&format!("bad --idle-timeout '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    let workers = match take_value(&mut args, "--serve-workers") {
        Ok(None) => 1usize,
        Ok(Some(v)) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_err(&format!("bad --serve-workers '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    let reload_dir = match take_value(&mut args, "--reload-dir") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let reload_at = match take_values(&mut args, "--reload-at") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let reload_poll_ms = match take_value(&mut args, "--reload-poll-ms") {
        Ok(None) => 200u64,
        Ok(Some(v)) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_err(&format!("bad --reload-poll-ms '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    let throttle_pps = match take_value(&mut args, "--throttle-pps") {
        Ok(None) => None,
        Ok(Some(v)) => match v.parse::<f64>() {
            Ok(n) if n > 0.0 && n.is_finite() => Some(n),
            _ => return usage_err(&format!("bad --throttle-pps '{v}'")),
        },
        Err(e) => return usage_err(&e),
    };
    if reload_dir.is_some() && !reload_at.is_empty() {
        return usage_err("--reload-dir and --reload-at are mutually exclusive");
    }
    let out_path = match take_value(&mut args, "--out") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let metrics_dir = match take_value(&mut args, "--metrics-dir") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let format = match take_value(&mut args, "--log-format") {
        Ok(None) => LogFormat::Text,
        Ok(Some(v)) => match LogFormat::parse(&v) {
            Some(f) => f,
            None => return usage_err(&format!("bad --log-format '{v}' (text|json)")),
        },
        Err(e) => return usage_err(&e),
    };
    if let Some(extra) = args.first() {
        return usage_err(&format!("unexpected argument '{extra}'"));
    }
    let n_sources =
        [pcap.is_some(), synth.is_some(), shard_dir.is_some()].iter().filter(|&&b| b).count();
    if n_sources != 1 {
        return usage_err("run needs exactly one of --pcap FILE, --synth SPEC, --shard-dir DIR");
    }
    let packets: Box<dyn Iterator<Item = ReplayPacket>> = if let Some(path) = &pcap {
        match from_pcap_file(&PathBuf::from(path)) {
            Ok(p) => Box::new(p.into_iter()),
            Err(e) => return run_err(&e),
        }
    } else if let Some(spec) = &synth {
        match SynthSpec::parse(spec) {
            Ok(s) => Box::new(s.replay().into_iter()),
            Err(e) => return usage_err(&e),
        }
    } else {
        // --shard-dir: stream the on-disk merged trace in bounded memory;
        // the engine never sees the whole capture at once.
        let dir = shard_dir.as_deref().expect("source checked above");
        match from_shard_dir(&PathBuf::from(dir)) {
            Ok(it) => Box::new(it),
            Err(e) => return run_err(&e),
        }
    };
    let policy = match &policy_path {
        None => Policy::route_all("encoder"),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return run_err(&format!("cannot read policy {path}: {e}")),
            };
            match Policy::parse(&text) {
                Ok(p) => p,
                Err(e) => return run_err(&format!("{path}: {e}")),
            }
        }
    };
    let bundle = match ModelBundle::load(&models) {
        Ok(b) => b,
        Err(e) => return run_err(&e),
    };
    let sink = match &metrics_dir {
        None => ObsSink::stderr(format),
        Some(dir) => match ObsSink::with_dir(&PathBuf::from(dir), format) {
            Ok(s) => s,
            Err(e) => return run_err(&format!("cannot open metrics dir {dir}: {e}")),
        },
    };
    // Planned reloads: load and validate every bundle before the first
    // packet, so a broken candidate is a startup error, not a
    // mid-stream surprise.
    let mut planned: Vec<(u64, EpochBundle<'_>, String)> = Vec::new();
    for entry in &reload_at {
        let Some((seq, dir)) = entry.split_once(':') else {
            return usage_err(&format!("bad --reload-at '{entry}' (want SEQ:DIR)"));
        };
        let Ok(seq) = seq.parse::<u64>() else {
            return usage_err(&format!("bad --reload-at sequence '{seq}'"));
        };
        match ModelBundle::load(&PathBuf::from(dir)) {
            Ok(b) => planned.push((seq, EpochBundle::Owned(Arc::new(b)), dir.to_string())),
            Err(e) => return run_err(&format!("--reload-at {entry}: {e}")),
        }
    }
    // Live watcher: the handle must outlive the serve call (dropping it
    // stops the thread); the engine only sees the channel.
    let mut _watcher: Option<ReloadWatcher> = None;
    let reload = if let Some(dir) = &reload_dir {
        let (w, rx) = ReloadWatcher::spawn(PathBuf::from(dir), reload_poll_ms);
        _watcher = Some(w);
        ReloadSource::Live(rx)
    } else if !planned.is_empty() {
        ReloadSource::planned(planned)
    } else {
        ReloadSource::None
    };
    let packets: Box<dyn Iterator<Item = ReplayPacket>> = match throttle_pps {
        Some(pps) => Box::new(throttle(packets, pps)),
        None => packets,
    };
    let opts = ServeOptions { batch, idle_timeout, workers };
    let result = match &out_path {
        None => {
            let mut stdout = std::io::stdout();
            serve(&bundle, &policy, packets, &opts, reload, &mut stdout, &sink)
        }
        Some(path) => {
            let mut file = match std::fs::File::create(path) {
                Ok(f) => std::io::BufWriter::new(f),
                Err(e) => return run_err(&format!("cannot create {path}: {e}")),
            };
            serve(&bundle, &policy, packets, &opts, reload, &mut file, &sink)
                .and_then(|stats| file.flush().map(|()| stats))
        }
    };
    let stats = match result {
        Ok(s) => s,
        Err(e) => return run_err(&format!("serve failed: {e}")),
    };
    eprintln!(
        "served {} packets / {} flows -> {} verdicts ({} dropped, {} non-IP, {} reloads, \
         {} refused)",
        stats.packets,
        stats.flows,
        stats.verdicts,
        stats.dropped,
        stats.non_ip,
        stats.reload_boundaries.len(),
        stats.reloads_refused
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage_err("missing subcommand");
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "export" => cmd_export(args),
        "run" => cmd_run(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_err(&format!("unknown subcommand '{other}'")),
    }
}
