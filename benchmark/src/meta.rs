//! Run metadata stamped into every report, so two result files can be
//! checked for comparability before their numbers are.

use crate::stats::{fnv64, FNV_OFFSET};
use std::process::Command;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Meta {
    /// `git rev-parse HEAD` of the working directory, when it is a git
    /// checkout.
    pub git_rev: Option<String>,
    /// First `model name` line of `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical cores available to the process.
    pub nproc: usize,
    /// FNV-1a of CPU model and core count — the same hash `bench_json`
    /// stamps into `BENCH_*.json`.
    pub fingerprint: String,
    /// `rustc --version`, when rustc is on the path.
    pub rustc: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Reduced-size smoke run.
    pub quick: bool,
    /// Measurement budget per run, seconds.
    pub seconds: f64,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Meta {
    /// Collect metadata for a run.
    pub fn collect(seed: u64, quick: bool, seconds: f64) -> Meta {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = nproc();
        let fingerprint = format!(
            "{:016x}",
            fnv64(fnv64(FNV_OFFSET, cpu.as_bytes()), nproc.to_string().as_bytes())
        );
        // Only the working directory's own repository counts: git would
        // otherwise report whichever enclosing checkout it finds.
        let git_rev = std::path::Path::new(".git")
            .exists()
            .then(|| command_line(Command::new("git").args(["rev-parse", "HEAD"])))
            .flatten();
        let rustc = command_line(Command::new("rustc").arg("--version"));
        Meta { git_rev, cpu, nproc, fingerprint, rustc, seed, quick, seconds }
    }
}
