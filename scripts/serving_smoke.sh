#!/usr/bin/env bash
# Serving smoke test: export a frozen model bundle, replay the same
# synthetic capture through it at two batch sizes, and require
# (a) byte-identical verdict streams — the engine's determinism
# contract must hold end to end through the real binary — (b) a
# policy-routed run that reproduces itself byte-for-byte at
# --serve-workers 1 and 2, (c) out-of-band serving metrics whose
# counters reconcile with each other and with the verdict file, (d) an
# int8-quantised export whose `default -> encoder_int8` replay is
# byte-identical across batch sizes and worker counts and whose metrics
# reconcile too.
#
# Environment knobs:
#   SERVE_BIN   path to the serve binary (default target/release/serve)
#   WORK_DIR    scratch directory (default: fresh mktemp -d)
set -euo pipefail

SERVE_BIN="${SERVE_BIN:-target/release/serve}"
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

# (d) The int8 serving path: a quantised export adds the int8 encoder,
# and routing every flow to it must not depend on batching or sharding.
int8_models="$WORK_DIR/models-int8"
"$SERVE_BIN" export --out "$int8_models" --synth ustc:7:4 --quant int8 >/dev/null 2>&1
[ -s "$int8_models/encoder_int8.frozen" ] \
    || { echo "FAIL: --quant int8 export wrote no encoder_int8.frozen" >&2; exit 1; }
echo "default -> encoder_int8" > "$WORK_DIR/policy-int8.txt"
for run in b1:1:1 b32:32:1 w2:32:2; do
    IFS=: read -r tag batch workers <<<"$run"
    "$SERVE_BIN" run --models "$int8_models" --synth "$REPLAY" \
        --policy "$WORK_DIR/policy-int8.txt" --batch "$batch" \
        --serve-workers "$workers" --out "$WORK_DIR/int8-$tag.jsonl" \
        --metrics-dir "$WORK_DIR/int8-$tag-obs" >/dev/null 2>&1
    reconcile "$WORK_DIR/int8-$tag-obs/metrics.json" "$WORK_DIR/int8-$tag.jsonl"
done
cmp "$WORK_DIR/int8-b1.jsonl" "$WORK_DIR/int8-b32.jsonl"
cmp "$WORK_DIR/int8-b32.jsonl" "$WORK_DIR/int8-w2.jsonl"
[ -s "$WORK_DIR/int8-b1.jsonl" ] || { echo "FAIL: empty int8 verdicts" >&2; exit 1; }
if grep -qv '"target":"encoder_int8"' "$WORK_DIR/int8-b1.jsonl"; then
    echo "FAIL: a verdict did not come from encoder_int8" >&2
    exit 1
fi
echo "ok: int8 verdicts byte-identical at --batch 1/32 and 1/2 workers; metrics reconcile"

echo "serving smoke passed (replay $REPLAY, work dir $WORK_DIR)"
