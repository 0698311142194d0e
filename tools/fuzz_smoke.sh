#!/bin/sh
# Fixed-seed fuzz smoke: a small deterministic corpus must come out
# clean, and the campaign report must be byte-identical across job
# counts (the per-cell split-stream seeding makes results independent
# of VPIR_JOBS by construction — this is the check that keeps it so).
# Every fuzz cell already runs with the per-cycle audit armed, so any
# broken scheduler obligation panics the cell and fails the script.
#
# Usage: fuzz_smoke.sh <build-dir> [seed] [cells]
# The optional seed and cell count override the fixed corpus.
set -eu

BUILD="${1:?usage: fuzz_smoke.sh <build-dir> [seed] [cells]}"
BIN="$BUILD/tools/vpirfuzz"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

SEED="${2:-0xf00dfeed}"
CELLS="${3:-8}"

"$BIN" --seed "$SEED" --cells "$CELLS" --dir "$TMP/r1" --jobs 1 \
    > "$TMP/report1.txt"
"$BIN" --seed "$SEED" --cells "$CELLS" --dir "$TMP/r4" --jobs 4 \
    > "$TMP/report4.txt"

# Any divergence already failed the script via set -e; now prove the
# determinism claim.
diff -u "$TMP/report1.txt" "$TMP/report4.txt"

echo "fuzz smoke ok: $CELLS cells clean (seed $SEED), report" \
     "byte-identical for 1 vs 4 jobs"
