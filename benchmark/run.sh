#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Every argument is passed to `debunk-benchmark run` (see README.md).
# The build goes to $CARGO_TARGET_DIR when set, else benchmark/target.
# Run from anywhere: paths resolve from the repository root. Without the
# repository's crates next to benchmark/ the build fails and so does
# this script, before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/debunk-benchmark" run "$@"
