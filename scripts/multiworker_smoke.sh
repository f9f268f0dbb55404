#!/usr/bin/env bash
# Multi-process sharded execution smoke test (DESIGN.md section 6g):
# the same sweep through the coordinator/worker path must produce
# byte-identical journal and result records at any --workers count,
# cold and warm — and after the whole process tree is SIGKILLed
# mid-run and resumed. Legs:
#
#   1. cold byte-identity: --workers 1 and --workers 4 (each with a
#      fresh cache) vs a plain single-process run; merged manifests
#      byte-identical across worker counts; cross-process
#      artifact_builds equal to the single-process count (the
#      cache single-flight contract — no duplicate builds).
#   2. warm: rerunning --workers 4 against its populated cache must
#      replay to byte-identical outputs with ZERO builds.
#   3. crash + resume: SIGKILL the coordinator AND its workers
#      mid-sweep (whole process group — a machine-crash stand-in)
#      once 3 cells are done, rerun with --resume, and
#      require byte-identical outputs. The leg fails if the sweep
#      finishes before the kill lands.
#
# Environment knobs:
#   REPRO_BIN   path to the repro binary (default target/release/repro)
#   EXP         experiment to sweep (default table8: 16 cells, ~seconds)
#   WORK_DIR    scratch directory (default: fresh mktemp -d)
set -euo pipefail

REPRO_BIN="${REPRO_BIN:-target/release/repro}"
EXP="${EXP:-table8}"
WORK_DIR="${WORK_DIR:-$(mktemp -d)}"

# Pull one integer counter out of a hand-rolled manifest JSON.
counter() { # counter FILE KEY
    grep -o "\"$2\": *[0-9]*" "$1" | grep -o '[0-9]*$'
}

# --- leg 1: cold byte-identity across worker counts ------------------

"$REPRO_BIN" "$EXP" --fast --cache-dir "$WORK_DIR/cache_ref" \
    --out "$WORK_DIR/ref" >/dev/null 2>&1

for n in 1 4; do
    out="$WORK_DIR/w$n"
    "$REPRO_BIN" "$EXP" --fast --workers "$n" --cache-dir "$WORK_DIR/cache_w$n" \
        --out "$out" >/dev/null 2>&1
    diff "$WORK_DIR/ref/$EXP.json" "$out/$EXP.json"
    diff "$WORK_DIR/ref/journal.jsonl" "$out/journal.jsonl"
done
diff "$WORK_DIR/w1/run-manifest.json" "$WORK_DIR/w4/run-manifest.json"
echo "ok: records+journal byte-identical across single-process, --workers 1, --workers 4"

ref_builds=$(counter "$WORK_DIR/ref/run-manifest.json" artifact_builds)
for n in 1 4; do
    builds=$(counter "$WORK_DIR/w$n/run-manifest.json" artifact_builds)
    if [ -z "$builds" ] || [ "$builds" -ne "$ref_builds" ]; then
        echo "FAIL: --workers $n built $builds artifacts, single-process built $ref_builds" >&2
        exit 1
    fi
done
echo "ok: cross-process cache single-flight — $ref_builds builds at every worker count"

# --- leg 2: warm multi-worker rerun replays with zero builds ---------

"$REPRO_BIN" "$EXP" --fast --workers 4 --cache-dir "$WORK_DIR/cache_w4" \
    --out "$WORK_DIR/w4_warm" >/dev/null 2>&1
diff "$WORK_DIR/ref/$EXP.json" "$WORK_DIR/w4_warm/$EXP.json"
diff "$WORK_DIR/ref/journal.jsonl" "$WORK_DIR/w4_warm/journal.jsonl"
warm_builds=$(counter "$WORK_DIR/w4_warm/run-manifest.json" artifact_builds)
if [ -z "$warm_builds" ] || [ "$warm_builds" -ne 0 ]; then
    echo "FAIL: warm --workers 4 rebuilt $warm_builds artifacts instead of replaying" >&2
    exit 1
fi
echo "ok: warm --workers 4 byte-identical with 0 builds"

# --- leg 3: SIGKILL the whole tree mid-run, then --resume ------------

kill_out="$WORK_DIR/killed"
setsid "$REPRO_BIN" "$EXP" --fast --workers 2 --cache-dir "$WORK_DIR/cache_kill" \
    --out "$kill_out" >/dev/null 2>&1 &
coord=$!

# Kill coordinator + workers as one process group once KILL_AFTER
# cells are journaled done across the workers: late enough that the
# resume has finished cells to replay, early enough that the sweep is
# still running. A sweep that ends before the kill lands fails the leg:
# its resume would be a warm replay and test nothing.
KILL_AFTER=3
done_cells() {
    cat "$kill_out"/workers/w*/journal.jsonl 2>/dev/null | grep -c '"status":"done"' || true
}
for _ in $(seq 1 1200); do
    kill -0 "$coord" 2>/dev/null || break
    [ "$(done_cells)" -ge "$KILL_AFTER" ] && break
    sleep 0.05
done
kill -KILL -- "-$coord" 2>/dev/null || true
status=0
wait "$coord" 2>/dev/null || status=$?
killed_at=$(done_cells)
if [ "$status" -ne 137 ]; then
    echo "FAIL: the sweep exited ($status) before the kill landed" >&2
    exit 1
fi
if [ "$killed_at" -lt "$KILL_AFTER" ]; then
    echo "FAIL: killed after $killed_at done cells, fewer than $KILL_AFTER" >&2
    exit 1
fi
echo "ok: killed coordinator process group mid-sweep after $killed_at done cells"

"$REPRO_BIN" "$EXP" --fast --workers 2 --resume --cache-dir "$WORK_DIR/cache_kill" \
    --out "$kill_out" >/dev/null 2>&1
diff "$WORK_DIR/ref/$EXP.json" "$kill_out/$EXP.json"
diff "$WORK_DIR/ref/journal.jsonl" "$kill_out/journal.jsonl"
echo "ok: resumed multi-worker run byte-identical to an uninterrupted single-process run"

echo "multi-worker smoke passed ($EXP, work dir $WORK_DIR)"
