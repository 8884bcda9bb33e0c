#!/usr/bin/env python3
"""Quickstart: quantize a weight matrix, plan it, run it, price it.

Walks the full PacQ story on one layer:

1. RTN-quantize an FP weight matrix to INT4 with g[32,4] groups;
2. pack it along ``n`` (``P(B4)n``) the way PacQ stores it;
3. plan the hyper-asymmetric GEMM once with the execution engine,
   execute it through the selected backend and compare against the
   dequantize-then-matmul baseline;
4. simulate the same GEMM on the three architectures and report
   speedup and EDP.

Run: ``python examples/quickstart.py [--backend {batched,reference,...}]``
"""

import argparse

import numpy as np

from repro.core import (
    evaluate,
    pack_for_flow,
    packed_k_baseline,
    pacq,
    standard_dequant,
)
from repro.core.gemm import dequant_reference
from repro.engine import DEFAULT_BACKEND, backend_names, plan_gemm
from repro.quant import GroupSpec, quantize_rtn
from repro.simt.memoryhier import GemmShape


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=DEFAULT_BACKEND,
        help="GEMM engine backend to execute through (default: %(default)s; "
        "the per-element bitexact-scalar oracle takes seconds at this size, "
        "batched milliseconds)",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    k, n, batch = 512, 256, 16

    print("== 1. Quantize: INT4 RTN, group g[32,4] ==")
    weights = rng.normal(scale=0.4, size=(k, n))
    qweights = quantize_rtn(weights, bits=4, group=GroupSpec(32, 4))
    recon_err = np.abs(weights - qweights.dequantize()).mean()
    print(f"weights: [{k}, {n}] fp64 -> INT4 codes + {qweights.scales.size} scales")
    print(f"mean |w - dequant(q(w))| = {recon_err:.4f}")
    ratio = k * n * 16 / qweights.storage_bits()
    print(f"storage compression vs FP16: {ratio:.2f}x")

    print("\n== 2. Pack along n: P(B4)n ==")
    packed = pack_for_flow(qweights, along_n=True)
    print(f"packed words: {packed.words.shape} uint16 ({packed.spec.label})")

    print(f"\n== 3. Plan once, execute through the '{args.backend}' backend ==")
    plan = plan_gemm(qweights)  # one-time planning, cached per matrix
    activations = rng.normal(size=(batch, k))
    ours = plan.execute(activations, backend=args.backend)
    baseline = dequant_reference(activations, qweights)
    rel = np.linalg.norm(ours - baseline) / np.linalg.norm(baseline)
    print(f"output: [{batch}, {n}], relative deviation vs dequant flow: {rel:.4f}")

    print("\n== 4. Price it on the three architectures ==")
    shape = GemmShape(batch, n, k)
    results = [
        evaluate(standard_dequant(4), shape),
        evaluate(packed_k_baseline(4), shape),
        evaluate(pacq(4), shape),
    ]
    reference = results[0]
    print(f"{'architecture':26s} {'cycles':>10s} {'speedup':>8s} {'norm. EDP':>10s}")
    for result in results:
        print(
            f"{result.architecture:26s} {result.cycles:10d} "
            f"{reference.cycles / result.cycles:8.2f} "
            f"{result.edp / reference.edp:10.3f}"
        )


if __name__ == "__main__":
    main()
