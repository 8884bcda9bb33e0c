#!/usr/bin/env python3
"""End-to-end: a quantized transformer decoder on PacQ.

Builds a Llama-style NumPy decoder (~10M parameters), quantizes every
linear layer to INT4 with PacQ-friendly g[32,4] groups, runs inference
with every matmul routed through the hyper-asymmetric GEMM path, and
then prices all of the decoder's GEMMs on PacQ vs the standard
dequantization flow — the full deployment story of the paper in one
script.

Run: ``python examples/transformer_inference.py [--backend reference]``
"""

import argparse

import numpy as np

from repro.core import evaluate, pacq, standard_dequant
from repro.core.metrics import edp_reduction, speedup
from repro.core.roofline import analyze
from repro.engine import DEFAULT_BACKEND
from repro.llm.transformer import (
    Decoder,
    TransformerConfig,
    gemm_shapes,
    init_weights,
)
from repro.model import QuantPolicy, quantize_model
from repro.quant import GroupSpec
from repro.simt.memoryhier import GemmShape


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=("batched", "reference"),
        default=DEFAULT_BACKEND,
        help="engine backend for the quantized linears: PacQ's "
        "transformed datapath or the dequantize-then-matmul baseline "
        "(default: %(default)s)",
    )
    args = parser.parse_args()

    config = TransformerConfig(
        vocab=512, d_model=256, n_heads=8, n_layers=4, d_ffn=512, max_seq=128
    )
    weights = init_weights(config, seed=0)
    print(f"decoder: {config.n_layers} layers, d_model={config.d_model}, "
          f"{weights.num_parameters() / 1e6:.2f}M parameters")

    rng = np.random.default_rng(1)
    tokens = rng.integers(0, config.vocab, size=96)

    print("\n== inference: FP16 vs quantized-through-PacQ ==")
    fp16_logits = Decoder(config, weights).forward(tokens)
    for bits in (4, 2):
        quantized = quantize_model(
            weights, QuantPolicy.uniform(bits, GroupSpec(32, 4)), compute_reports=False
        )
        q_logits = Decoder(
            config, weights, quantized, backend=args.backend
        ).forward(tokens)
        drift = np.linalg.norm(q_logits - fp16_logits) / np.linalg.norm(fp16_logits)
        agree = float(np.mean(q_logits.argmax(1) == fp16_logits.argmax(1)))
        print(f"INT{bits}: logits drift {drift:6.3%}, "
              f"top-1 agreement with FP16 {agree:6.1%}")

    print("\n== pricing one decoder block's GEMMs (batch 64) ==")
    print(f"{'layer':8s} {'shape':>18s} {'bound':>8s} {'speedup':>8s} {'EDP cut':>8s}")
    for name, (m, n, k) in gemm_shapes(config, batch_tokens=64):
        shape = GemmShape(m, n, k)
        point = analyze(pacq(4), shape)
        std = evaluate(standard_dequant(4), shape)
        ours = evaluate(pacq(4), shape)
        bound = "compute" if point.compute_bound else "memory"
        print(f"{name:8s} {shape.name:>18s} {bound:>8s} "
              f"{speedup(std, ours):7.2f}x {100 * edp_reduction(std, ours):7.1f}%")


if __name__ == "__main__":
    main()
