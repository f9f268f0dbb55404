#!/usr/bin/env bash
# Out-of-core smoke test: the sharded on-disk trace format end to end
# through the real binaries.
#
#   1. traffic_gen --shards writes a DBSR shard directory; a second
#      invocation must verify checksums and reuse it (no rewrite).
#   2. serve --shard-dir replays the merged shard stream through the
#      frozen bundle; its verdicts must be byte-identical to replaying
#      the same spec in RAM via --synth — the k-way merge is the serial
#      trace, bit for bit.
#   3. bench_json --quick --pipeline runs the out-of-core prepare rows
#      (generation + chunked prepare + peak-RSS) against a temp dir.
#
# Environment knobs:
#   TRAFFIC_GEN  path to traffic_gen   (default target/release/traffic_gen)
#   SERVE_BIN    path to serve         (default target/release/serve)
#   SPEC         synth spec            (default ustc:7:4)
#   SHARDS       shard count           (default 3)
#   WORK_DIR     scratch directory     (default: fresh mktemp -d)
#   RSS_GUARD=1  additionally run the ignored peak-RSS regression test
#                (generates a few hundred thousand packets; CI sets it)
set -euo pipefail

TRAFFIC_GEN="${TRAFFIC_GEN:-target/release/traffic_gen}"
SERVE_BIN="${SERVE_BIN:-target/release/serve}"
SPEC="${SPEC:-ustc:7:4}"
SHARDS="${SHARDS:-3}"
WORK_DIR="${WORK_DIR:-$(mktemp -d)}"

kind="${SPEC%%:*}"
rest="${SPEC#*:}"
seed="${rest%%:*}"
fpc="${SPEC##*:}"
shard_dir="$WORK_DIR/shards"

# 1. Cold shard generation, then checksum-verified reuse.
"$TRAFFIC_GEN" "$kind" --seed "$seed" --flows-per-class "$fpc" \
    --shards "$SHARDS" --out-dir "$shard_dir" 2>"$WORK_DIR/gen-cold.log"
grep -q "written" "$WORK_DIR/gen-cold.log" \
    || { echo "FAIL: cold run did not write shards" >&2; cat "$WORK_DIR/gen-cold.log" >&2; exit 1; }
stamp_before=$(ls -l --time-style=full-iso "$shard_dir")
"$TRAFFIC_GEN" "$kind" --seed "$seed" --flows-per-class "$fpc" \
    --shards "$SHARDS" --out-dir "$shard_dir" 2>"$WORK_DIR/gen-warm.log"
grep -q "already valid, reused" "$WORK_DIR/gen-warm.log" \
    || { echo "FAIL: warm run rewrote a valid shard dir" >&2; cat "$WORK_DIR/gen-warm.log" >&2; exit 1; }
stamp_after=$(ls -l --time-style=full-iso "$shard_dir")
[ "$stamp_before" = "$stamp_after" ] \
    || { echo "FAIL: warm run touched shard files" >&2; exit 1; }
echo "ok: shard dir written cold, checksum-verified and reused warm"

# 2. Streamed replay == in-RAM replay, bit for bit.
"$SERVE_BIN" export --out "$WORK_DIR/models" --synth "$SPEC" 2>/dev/null
"$SERVE_BIN" run --models "$WORK_DIR/models" --synth "$SPEC" \
    --out "$WORK_DIR/verdicts-ram.jsonl" 2>/dev/null
"$SERVE_BIN" run --models "$WORK_DIR/models" --shard-dir "$shard_dir" \
    --out "$WORK_DIR/verdicts-stream.jsonl" 2>/dev/null
diff "$WORK_DIR/verdicts-ram.jsonl" "$WORK_DIR/verdicts-stream.jsonl"
[ -s "$WORK_DIR/verdicts-stream.jsonl" ] \
    || { echo "FAIL: streamed replay produced no verdicts" >&2; exit 1; }
echo "ok: --shard-dir verdict stream byte-identical to --synth ($(wc -l <"$WORK_DIR/verdicts-stream.jsonl") verdicts)"

# 3. Out-of-core bench rows (quick): generation pps, prepare pps and
# the peak-RSS figure must come out finite and positive.
out_json="$WORK_DIR/bench-pipeline.json"
cargo run --release -q -p bench --bin bench_json -- --quick --pipeline --out "$out_json" >/dev/null
for row in outofcore_gen_pps outofcore_prepare_pps outofcore_peak_rss_mb; do
    # First match is the results block; the baseline block holds null.
    val=$(grep -o "\"$row\": *[0-9.]*" "$out_json" | head -1 | grep -o '[0-9.]*$' || true)
    if [ -z "$val" ] || [ "$(printf '%.0f' "$val")" -le 0 ]; then
        echo "FAIL: bench row $row missing or non-positive in $out_json" >&2
        exit 1
    fi
done
echo "ok: bench pipeline rows report out-of-core gen/prepare/peak-RSS"

# Optional: the ignored peak-RSS regression guard (heavy).
if [ "${RSS_GUARD:-0}" = "1" ]; then
    cargo test --release -q --test outofcore -- --ignored peak_rss
    echo "ok: peak-RSS regression guard passed"
fi

echo "out-of-core smoke passed ($SPEC, shards=$SHARDS, work dir $WORK_DIR)"
