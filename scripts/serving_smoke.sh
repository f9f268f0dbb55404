#!/usr/bin/env bash
# Serving smoke test: export a frozen model bundle, replay the same
# synthetic capture through it at two batch sizes, and require
# (a) byte-identical verdict streams — the engine's determinism
# contract must hold end to end through the real binary — (b) a
# policy-routed run that reproduces itself byte-for-byte at
# --serve-workers 1 and 2, (c) out-of-band serving metrics whose
# counters reconcile with each other and with the verdict file, (d) a
# quick bench_json --serving pass that reports the latency keys.
#
# Environment knobs:
#   SERVE_BIN   path to the serve binary (default target/release/serve)
#   BENCH_BIN   path to bench_json (default alongside SERVE_BIN)
#   WORK_DIR    scratch directory (default: fresh mktemp -d)
set -euo pipefail

SERVE_BIN="${SERVE_BIN:-target/release/serve}"
BENCH_BIN="${BENCH_BIN:-$(dirname "$SERVE_BIN")/bench_json}"
WORK_DIR="${WORK_DIR:-$(mktemp -d)}"

models="$WORK_DIR/models"
REPLAY="ustc:11:6"

"$SERVE_BIN" export --out "$models" --synth ustc:7:4 >/dev/null 2>&1
for f in encoder.frozen head.frozen forest.frozen gbdt.frozen \
         knn.frozen labels.txt; do
    [ -s "$models/$f" ] || { echo "FAIL: export wrote no $f" >&2; exit 1; }
done
echo "ok: export wrote a complete frozen bundle"

# The verdict stream must not depend on how packets were batched.
"$SERVE_BIN" run --models "$models" --synth "$REPLAY" --batch 1 \
    --out "$WORK_DIR/b1.jsonl" >/dev/null 2>&1
"$SERVE_BIN" run --models "$models" --synth "$REPLAY" --batch 32 \
    --out "$WORK_DIR/b32.jsonl" >/dev/null 2>&1
cmp "$WORK_DIR/b1.jsonl" "$WORK_DIR/b32.jsonl"
[ -s "$WORK_DIR/b1.jsonl" ] || { echo "FAIL: empty verdicts" >&2; exit 1; }
echo "ok: verdicts byte-identical at --batch 1 and --batch 32"

# A mixed policy must route deterministically too, and the metrics
# sidecar must land out of band next to (not inside) the verdicts.
cat > "$WORK_DIR/policy.txt" <<'EOF'
*:tcp:443 -> encoder
*:udp     -> knn
default   -> forest
EOF
for w in 1 2; do
    "$SERVE_BIN" run --models "$models" --synth "$REPLAY" \
        --policy "$WORK_DIR/policy.txt" --batch 16 --serve-workers "$w" \
        --out "$WORK_DIR/p$w.jsonl" \
        --metrics-dir "$WORK_DIR/p$w-obs" >/dev/null 2>&1
done
cmp "$WORK_DIR/p1.jsonl" "$WORK_DIR/p2.jsonl"
echo "ok: policy-routed replay reproduces byte-for-byte at 1 and 2 workers"

# Every opened flow is retired exactly once, every verdict line is
# counted, and the per-shard flows add up to the run's.
reconcile() { # reconcile METRICS_JSON VERDICTS_JSONL
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
with open(sys.argv[2]) as f:
    lines = sum(1 for _ in f)
fl = m["flows"]
checks = [
    ("schema", m["schema"], "debunk-serving-metrics-v2"),
    ("flows.opened vs evictions", fl["opened"],
     fl["evicted_closed"] + fl["evicted_idle"] + fl["flushed"]),
    ("batches.verdicts vs verdict lines", m["batches"]["verdicts"], lines),
    ("flows.opened vs per-shard flows", fl["opened"],
     sum(s["flows"] for s in m["shards"].values())),
]
bad = [f"{name}: {a} != {b}" for name, a, b in checks if a != b]
if bad:
    print(f"FAIL: {sys.argv[1]}: " + "; ".join(bad), file=sys.stderr)
    sys.exit(1)
EOF
}
for w in 1 2; do
    reconcile "$WORK_DIR/p$w-obs/metrics.json" "$WORK_DIR/p$w.jsonl"
done
echo "ok: serving metrics reconcile at 1 and 2 workers"

# Every verdict line is a standalone JSON object with the envelope.
bad=$(grep -cv '^{"flow":.*"target":.*"label":.*"class":.*}$' \
    "$WORK_DIR/p1.jsonl" || true)
if [ "$bad" -ne 0 ]; then
    echo "FAIL: $bad verdict lines are not JSON objects" >&2
    exit 1
fi
echo "ok: verdict stream is well-formed JSONL"

# The serving bench group must run and report the latency keys.
if [ -x "$BENCH_BIN" ]; then
    "$BENCH_BIN" --quick --serving --out "$WORK_DIR/bench_serving.json"
    for key in serve_packet_p99_us serve_flows_per_sec serve_mixed_e2e; do
        grep -q "\"$key\"" "$WORK_DIR/bench_serving.json" \
            || { echo "FAIL: bench lacks $key" >&2; exit 1; }
    done
    echo "ok: bench_json --serving reports latency and throughput"
fi

echo "serving smoke passed (replay $REPLAY, work dir $WORK_DIR)"
