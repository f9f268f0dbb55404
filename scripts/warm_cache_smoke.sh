#!/usr/bin/env bash
# Warm-cache smoke test: run the same sweep twice with one --cache-dir
# and require (a) byte-identical result records, (b) the second run's
# manifest to report artifact disk hits and ZERO builds — proving the
# on-disk tier was actually used, not silently rebuilt. A third leg
# checks the cache holds DBAF v2 row-group envelopes (the format the
# warm frame reader requires), corrupts one of them, and requires the
# next run to refuse the damaged file and rebuild byte-identical
# records — the refuse-or-rebuild contract end to end. Cached encoders
# must stay binary: any art-encoder-*.bin over MAX_ENCODER_BYTES fails
# (an ET-BERT checkpoint is ~34 MB of f32 weights; a text payload of
# the same weights is ~4x that).
#
# Environment knobs:
#   REPRO_BIN   path to the repro binary (default target/release/repro)
#   EXP         experiment to sweep (default table8: 16 cells, ~seconds)
#   JOBS        worker threads (default 4 — also exercises single-flight)
#   WORK_DIR    scratch directory (default: fresh mktemp -d)
set -euo pipefail

MAX_ENCODER_BYTES=42000000

REPRO_BIN="${REPRO_BIN:-target/release/repro}"
EXP="${EXP:-table8}"
JOBS="${JOBS:-4}"
WORK_DIR="${WORK_DIR:-$(mktemp -d)}"

cache="$WORK_DIR/cache"
cold="$WORK_DIR/cold"
warm="$WORK_DIR/warm"
rebuilt="$WORK_DIR/rebuilt"

# Pull one integer counter out of a hand-rolled manifest JSON.
counter() { # counter FILE KEY
    grep -o "\"$2\": *[0-9]*" "$1" | grep -o '[0-9]*$'
}

"$REPRO_BIN" "$EXP" --fast --jobs "$JOBS" --cache-dir "$cache" --out "$cold" >/dev/null 2>&1
"$REPRO_BIN" "$EXP" --fast --jobs "$JOBS" --cache-dir "$cache" --out "$warm" >/dev/null 2>&1

diff "$cold/$EXP.json" "$warm/$EXP.json"
echo "ok: records byte-identical across cold and warm cache runs"

ls "$cache"/art-*.bin >/dev/null 2>&1 \
    || { echo "FAIL: no artifacts written to $cache" >&2; exit 1; }

for f in "$cache"/art-encoder-*.bin; do
    [ -e "$f" ] || continue
    size=$(stat -c%s "$f")
    if [ "$size" -gt "$MAX_ENCODER_BYTES" ]; then
        echo "FAIL: $f is $size bytes, over the $MAX_ENCODER_BYTES-byte encoder bound" >&2
        exit 1
    fi
    echo "ok: $(basename "$f") is $size bytes"
done

# The cold run populates the cache: its manifest must report builds.
cold_builds=$(counter "$cold/run-manifest.json" artifact_builds)
if [ -z "$cold_builds" ] || [ "$cold_builds" -eq 0 ]; then
    echo "FAIL: cold run reported no artifact builds" >&2
    exit 1
fi

# The warm run must replay from disk: non-zero disk hits, zero builds.
manifest="$warm/run-manifest.json"
disk_hits=$(counter "$manifest" artifact_disk_hits)
warm_builds=$(counter "$manifest" artifact_builds)
if [ -z "$disk_hits" ] || [ "$disk_hits" -eq 0 ]; then
    echo "FAIL: warm run reported no artifact disk hits in $manifest" >&2
    exit 1
fi
if [ -z "$warm_builds" ] || [ "$warm_builds" -ne 0 ]; then
    echo "FAIL: warm run rebuilt $warm_builds artifacts instead of replaying" >&2
    exit 1
fi
echo "ok: warm run replayed $disk_hits artifacts from disk with 0 rebuilds (cold built $cold_builds)"

# v2 row-group leg: every cached artifact must be a DBAF version-2
# envelope — the layout whose trailer/footer the warm frame reader
# validates with bounded reads (DESIGN.md section 6e).
for f in "$cache"/art-*.bin; do
    magic=$(head -c 4 "$f")
    version=$(od -An -tu1 -j4 -N1 "$f" | tr -d ' ')
    if [ "$magic" != "DBAF" ] || [ "$version" -ne 2 ]; then
        echo "FAIL: $f is not a DBAF v2 row-group envelope (magic '$magic', version '$version')" >&2
        exit 1
    fi
done
echo "ok: all $(ls "$cache"/art-*.bin | wc -l) cached artifacts are DBAF v2 row-group envelopes"

# Refuse-or-rebuild leg: flip one byte in the middle of every cached
# artifact (a body group — covered by its FNV-64 directory checksum)
# and sweep again. Whatever the run reads it must refuse, rebuild,
# and still produce byte-identical records.
for victim in "$cache"/art-*.bin; do
    size=$(stat -c%s "$victim")
    off=$((size / 2))
    orig=$(od -An -tu1 -j"$off" -N1 "$victim" | tr -d ' ')
    printf "$(printf '\\x%02x' $((orig ^ 0x40)))" \
        | dd of="$victim" bs=1 seek="$off" conv=notrunc status=none
done

"$REPRO_BIN" "$EXP" --fast --jobs "$JOBS" --cache-dir "$cache" --out "$rebuilt" >/dev/null 2>&1
diff "$cold/$EXP.json" "$rebuilt/$EXP.json"
rebuilds=$(counter "$rebuilt/run-manifest.json" artifact_builds)
if [ -z "$rebuilds" ] || [ "$rebuilds" -eq 0 ]; then
    echo "FAIL: corrupted artifact was not rebuilt (builds=$rebuilds)" >&2
    exit 1
fi
echo "ok: corrupted v2 artifact refused and rebuilt ($rebuilds builds), records byte-identical"

echo "warm-cache smoke passed ($EXP, jobs=$JOBS, work dir $WORK_DIR)"
