#!/usr/bin/env python3
"""Table II end-to-end: perplexity vs quantization-group shape.

Builds the synthetic self-calibrated bigram LM (the offline stand-in
for Llama2-7B, see DESIGN.md), samples an evaluation corpus from it,
then measures perplexity with the LM head:

* in FP16 (reference);
* RTN-quantized to INT4 under the paper's four group geometries,
  with every logits GEMM routed through the execution engine — i.e.
  the actual PacQ compute path with its transformed-weight products.
  The head is planned once per geometry and executed per batch;
  ``--backend`` picks between ``batched`` (the default, PacQ's
  transformed-weight datapath) and ``reference`` (the
  dequantize-then-matmul baseline, which skips the FP16 rounding of the
  transformed products, so its perplexities differ by a few percent).

The paper's claim to observe: ``g[32,4]`` (PacQ-friendly, one scale
fetch per packed word) is iso-perplexity with the conventional
``g128``; likewise ``g[64,4]`` vs ``g256``.

Run: ``python examples/quantized_lm_perplexity.py [--backend batched]``
"""

import argparse

from repro.engine import DEFAULT_BACKEND
from repro.llm import make_bigram_lm, sample_tokens
from repro.llm.perplexity import table2_rows
from repro.quant import TABLE2_SPECS
from repro.quant.rtn import quantize_rtn


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=("batched", "reference"),
        default=DEFAULT_BACKEND,
        help="GEMM engine backend for the quantized logits GEMMs: PacQ's "
        "transformed datapath or the dequantize-then-matmul baseline "
        "(default: %(default)s)",
    )
    args = parser.parse_args()

    print("building synthetic LM (vocab=256, d_model=512)...")
    lm = make_bigram_lm(vocab=256, d_model=512)
    tokens = sample_tokens(lm.language(), 2048)
    print(f"sampled evaluation corpus: {tokens.shape[0]} tokens")

    print(f"\nevaluating (full quantized GEMM path, backend={args.backend})...")
    rows = table2_rows(lm, tokens, TABLE2_SPECS, bits=4, mode=args.backend)
    reference = rows[0].perplexity

    print(f"\n{'config':10s} {'perplexity':>11s} {'delta vs fp16':>14s} {'scales':>8s}")
    for row in rows:
        if row.bits is None:
            print(f"{row.label:10s} {row.perplexity:11.3f} {'-':>14s} {'-':>8s}")
            continue
        qm = quantize_rtn(
            lm.head,
            bits=row.bits,
            group=next(s for s in TABLE2_SPECS if s.label == row.label),
        )
        delta = 100 * (row.perplexity / reference - 1)
        print(f"{row.label:10s} {row.perplexity:11.3f} {delta:+13.2f}% "
              f"{qm.scales.size:8d}")

    g128 = next(r for r in rows if r.label == "g128").perplexity
    g32_4 = next(r for r in rows if r.label == "g[32,4]").perplexity
    gap = 100 * abs(g32_4 - g128) / g128
    print(f"\ng128 vs g[32,4] gap: {gap:.2f}%  "
          "(paper Table II: 5.73 vs 5.72 — iso-perplexity)")


if __name__ == "__main__":
    main()
