//! # bench
//!
//! Benchmark and reproduction harness. The library target is empty —
//! everything lives in:
//!
//! - `src/bin/repro.rs` — regenerates every table and figure of the
//!   paper (one subcommand each; see `repro --help` text in the file
//!   header).
//! - `src/bin/bench_json.rs` — tracked wall-clock medians of the
//!   compute kernels, the data-preparation pipeline and the serving
//!   path, written as `BENCH_{kernels,pipeline,serving}.json`.
//! - `src/bin/results_md.rs` — renders `repro`'s JSON result records
//!   (or a `--trace` metrics file) as Markdown tables.
//! - `src/bin/traffic_gen.rs` — exports labelled synthetic captures
//!   (pcap + CSV ground truth, or an out-of-core shard directory).

#![forbid(unsafe_code)]
