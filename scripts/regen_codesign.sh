#!/usr/bin/env bash
# Regenerate the committed co-design artifacts (docs/data/codesign.csv
# and the generated section of docs/codesign.md) from scratch:
# capture three canonical scheduling policies with serve-sim, then
# replay the captures across the num_sms sweep.  Deterministic: seeded
# greedy trace, counts-only captures, analytical replay.
#
# Usage:  scripts/regen_codesign.sh [--check]
#   --check  also fail (exit 1) when the committed artifacts were
#            stale — what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

CHECK=()
if [[ "${1:-}" == "--check" ]]; then
    CHECK=(--check)
fi

CAPDIR="${CODESIGN_CAPTURE_DIR:-docs/data/captures}"
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

python -m repro codesign \
    "$CAPDIR/fifo.json" "$CAPDIR/prefix-cache.json" "$CAPDIR/speculative.json" \
    --grid num_sms=1,2 \
    --csv docs/data/codesign.csv --out docs/codesign.md "${CHECK[@]}"
