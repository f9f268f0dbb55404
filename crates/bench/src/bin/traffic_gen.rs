//! `traffic-gen` — generate a labelled synthetic traffic capture.
//!
//! ```text
//! traffic-gen <iscx|ustc|cstnet> [--seed N] [--flows-per-class N]
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

use dataset::clean::clean_trace;
use debunk_core::outofcore::ShardDir;
use std::io::Write;
use traffic_synth::{DatasetKind, DatasetSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(kind) = args.first().and_then(|a| DatasetKind::from_tag(a)) else {
        eprintln!(
            "usage: traffic-gen <iscx|ustc|cstnet> [--seed N] \
             [--flows-per-class N] [--out trace.pcap] [--labels labels.csv] [--clean]"
        );
        std::process::exit(2);
    };
    let get_flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = get_flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let out = get_flag("--out").unwrap_or_else(|| "trace.pcap".into());
    let labels_path = get_flag("--labels").unwrap_or_else(|| "labels.csv".into());
    let clean = args.iter().any(|a| a == "--clean");

    let mut spec = DatasetSpec::new(kind, seed);
    if let Some(f) = get_flag("--flows-per-class").and_then(|v| v.parse().ok()) {
        spec.flows_per_class = f;
    }

    if let Some(n_shards) = get_flag("--shards").and_then(|v| v.parse::<usize>().ok()) {
        let Some(out_dir) = get_flag("--out-dir") else {
            eprintln!("error: --shards requires --out-dir DIR");
            std::process::exit(2);
        };
        let gen_threads = get_flag("--gen-threads")
            .and_then(|v| v.parse::<usize>().ok())
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
