//! # bench
//!
//! Reproduction harness. The library target is empty — everything
//! lives in:
//!
//! - `src/bin/repro.rs` — regenerates every table and figure of the
//!   paper (one subcommand each; see `repro --help` text in the file
//!   header).
//! - `src/bin/results_md.rs` — renders `repro`'s JSON result records
//!   (or a `--trace` metrics file) as Markdown tables.
//! - `src/bin/traffic_gen.rs` — exports labelled synthetic captures
//!   (pcap + CSV ground truth, or an out-of-core shard directory).
//!
//! Performance is measured by the separate `benchmark/` workspace,
//! which runs same-session A/B pairs against a named git revision.

#![forbid(unsafe_code)]
