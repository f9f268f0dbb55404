//! `traffic_gen` — generate a labelled synthetic traffic capture.
//!
//! ```text
//! traffic_gen <iscx|ustc|cstnet> [--seed N] [--flows-per-class N]
//!             [--out trace.pcap] [--labels labels.csv] [--clean]
//!             [--shards N --out-dir DIR [--gen-threads N]]
//! ```
//!
//! Writes a Wireshark-readable pcap plus a CSV mapping each packet
//! index to its (class id, class name, flow id) ground truth — the
//! format the `dataset::ingest` path can consume for external data.
//!
//! With `--shards N --out-dir DIR` it instead writes an out-of-core
//! flow-sharded trace directory (DBSR run files) holding one shard of
//! packets in memory at a time — the input format of the out-of-core
//! prepare path and the `serve --shard-dir` replay source. The merged
//! shard streams replay the serial trace byte-for-byte at any shard
//! count. `--gen-threads N` fans shard generation out over N worker
//! threads (default: all cores); per-flow seeded RNG keeps the written
//! bytes identical to serial generation at any thread count.
//!
//! A bad command line (unknown dataset or flag, missing value, a value
//! that is not a positive integer where one is expected) exits with
//! code 2 and the usage line.

use dataset::clean::clean_trace;
use debunk_core::outofcore::ShardDir;
use std::io::Write;
use traffic_synth::{DatasetKind, DatasetSpec};

const USAGE: &str = "usage: traffic_gen <iscx|ustc|cstnet> [--seed N] [--flows-per-class N] \
                     [--out trace.pcap] [--labels labels.csv] [--clean] \
                     [--shards N --out-dir DIR [--gen-threads N]]";

/// Where the generated trace goes.
enum Output {
    /// A pcap plus its ground-truth CSV.
    Pcap { out: String, labels: String, clean: bool },
    /// A flow-sharded DBSR directory.
    Shards { n: usize, dir: String, gen_threads: Option<usize> },
}

/// Parse the command line strictly: an unknown flag, a missing value or
/// a malformed number is an error, never a silent default.
fn parse_args(args: &[String]) -> Result<(DatasetSpec, Output), String> {
    let (tag, flags) = args.split_first().ok_or("missing dataset")?;
    let kind = DatasetKind::from_tag(tag).ok_or(format!("unknown dataset '{tag}'"))?;
    let (mut seed, mut flows_per_class) = (42u64, None);
    let (mut out, mut labels, mut clean) =
        ("trace.pcap".to_string(), "labels.csv".to_string(), false);
    let (mut n_shards, mut out_dir, mut gen_threads) = (None, None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if flag == "--clean" {
            clean = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let count = || match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad {flag} '{value}' (want a positive integer)")),
        };
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--flows-per-class" => flows_per_class = Some(count()?),
            "--out" => out = value.clone(),
            "--labels" => labels = value.clone(),
            "--shards" => n_shards = Some(count()?),
            "--out-dir" => out_dir = Some(value.clone()),
            "--gen-threads" => gen_threads = Some(count()?),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let mut spec = DatasetSpec::new(kind, seed);
    if let Some(f) = flows_per_class {
        spec.flows_per_class = f;
    }
    let output = match (n_shards, out_dir) {
        (Some(n), Some(dir)) => Output::Shards { n, dir, gen_threads },
        (Some(_), None) => return Err("--shards requires --out-dir DIR".into()),
        (None, Some(_)) => return Err("--out-dir requires --shards N".into()),
        (None, None) if gen_threads.is_some() => {
            return Err("--gen-threads requires --shards N".into())
        }
        (None, None) => Output::Pcap { out, labels, clean },
    };
    Ok((spec, output))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, output) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (kind, seed) = (spec.kind, spec.seed);

    let (out, labels_path, clean) = match output {
        Output::Pcap { out, labels, clean } => (out, labels, clean),
        Output::Shards { n: n_shards, dir: out_dir, gen_threads } => {
            let gen_threads = gen_threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            eprintln!(
                "generating {} (seed {seed}, {} flows/class) into {n_shards} shards \
                 ({gen_threads} thread(s))...",
                kind.name(),
                spec.flows_per_class
            );
            let (shards, rebuilt) =
                ShardDir::ensure(std::path::Path::new(&out_dir), &spec, n_shards, gen_threads)
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    });
            eprintln!(
                "  {} records in {} runs ({})",
                shards.n_records(),
                shards.n_shards() + 1,
                if rebuilt { "written" } else { "already valid, reused" }
            );
            eprintln!("wrote {out_dir}");
            return;
        }
    };

    eprintln!("generating {} (seed {seed}, {} flows/class)...", kind.name(), spec.flows_per_class);
    let mut trace = spec.generate();
    eprintln!("  {} packets, {} spurious", trace.records.len(), trace.spurious_len());
    if clean {
        let report = clean_trace(&mut trace);
        eprintln!("  cleaned: removed {:.2}%", report.removed_fraction() * 100.0);
    }

    std::fs::write(&out, trace.to_pcap()).expect("write pcap");
    eprintln!("wrote {out}");

    let mut csv = std::fs::File::create(&labels_path).expect("create labels file");
    writeln!(csv, "packet_index,class_id,class_name,flow_id,timestamp").expect("write header");
    for (i, r) in trace.records.iter().enumerate() {
        let name =
            trace.classes.get(r.class as usize).map(|c| c.name.as_str()).unwrap_or("spurious");
        writeln!(csv, "{i},{},{name},{},{:.6}", r.class, r.flow_id, r.ts).expect("write row");
    }
    eprintln!("wrote {labels_path}");
}
