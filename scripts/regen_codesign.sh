#!/usr/bin/env bash
# Regenerate the committed co-design artifacts (docs/data/codesign.csv
# and the generated section of docs/codesign.md) from scratch:
# capture three canonical scheduling policies with serve-sim, then
# replay the captures across the num_sms sweep.  Deterministic: seeded
# greedy trace, counts-only captures, analytical replay.
#
# Usage:  scripts/regen_codesign.sh [--check]
#   --check  capture into codesign-check/ (gitignored, emptied first)
#            instead of over docs/data/captures/, and fail (exit 1)
#            when the committed artifacts are stale or a fresh capture
#            differs from its committed golden stream in any field but
#            the wall-clock ones (repro.codesign.capture.WALL_CLOCK_FIELDS)
#            — what CI runs.  The fresh captures stay behind for diffing.
#            Nothing committed is written, and both comparisons run even
#            when the first fails, so one run shows every drift.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

GOLDEN=docs/data/captures
CHECK=()
CAPDIR=$GOLDEN
if [[ "${1:-}" == "--check" ]]; then
    CHECK=(--check)
    CAPDIR=codesign-check
    rm -rf "$CAPDIR"
fi
mkdir -p "$CAPDIR"

# One shared trace (greedy, seeded, shared-prefix traffic) so the
# three captures differ only by scheduling policy.
# Prompts deliberately span several 16-row warp tiles so policy
# effects survive the simulator's tile padding: a fifo prefill of a
# 33-48-token prompt fills 3 tiles, while the same request behind the
# prefix cache prefills only its post-preamble suffix (1 tile).
TRACE=(--requests 12 --max-batch 4 --vocab 64 --d-model 64 --d-ffn 128
       --max-seq 128 --prompt-len 8,48 --max-new 4,12 --shared-prefix 32
       --shared-fraction 0.75 --seed 0)

python -m repro serve-sim "${TRACE[@]}" \
    --codesign fifo --json "$CAPDIR/fifo.json"

python -m repro serve-sim "${TRACE[@]}" \
    --prefix-cache-mb 16 --prefill-chunk 16 \
    --codesign prefix-cache --json "$CAPDIR/prefix-cache.json"

python -m repro serve-sim "${TRACE[@]}" \
    --draft bigram --spec-k 4 \
    --codesign speculative --json "$CAPDIR/speculative.json"

status=0
python -m repro codesign \
    "$CAPDIR/fifo.json" "$CAPDIR/prefix-cache.json" "$CAPDIR/speculative.json" \
    --grid num_sms=1,2 \
    --csv docs/data/codesign.csv --out docs/codesign.md "${CHECK[@]}" || status=1

if (( ${#CHECK[@]} )); then
    # Golden-stream gate: every request's tokens, the plan_rows
    # histograms and the stats / prefix-cache counters must equal the
    # committed capture.
    python -c '
import json, pathlib, sys
from repro.codesign.capture import record_drift

golden, fresh = sys.argv[1:3]
drifted = False
for name in sys.argv[3:]:
    drift = record_drift(
        json.loads(pathlib.Path(golden, name).read_text()),
        json.loads(pathlib.Path(fresh, name).read_text()),
    )
    for line in drift[:20]:
        print(f"{golden}/{name}: drift at {line}", file=sys.stderr)
    print(f"{golden}/{name}: golden stream " + ("DRIFTED" if drift else "matches"))
    drifted = drifted or bool(drift)
sys.exit(1 if drifted else 0)
' "$GOLDEN" "$CAPDIR" fifo.json prefix-cache.json speculative.json || status=1
fi
exit $status
