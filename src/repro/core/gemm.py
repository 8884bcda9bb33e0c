"""Functional hyper-asymmetric GEMM (the user-facing compute API).

``hyper_gemm`` multiplies an FP16 activation matrix by a group-
quantized, packed INT weight matrix exactly the way the PacQ
microarchitecture does (Fig. 6):

1. packed signed codes are re-biased (``B -> B + 2**(bits-1)``) and
   offset by 1024, so every product runs through the parallel FP-INT
   multiplier's constant-exponent datapath;
2. products accumulate per k-group alongside the small ``sum(A)``
   accumulators;
3. the general core applies Eq. (1)'s correction
   (``- offset * sum(A)``), the zero-point adjustment and the group
   scale.

Plan/execute architecture
-------------------------

Since the engine refactor this module is a thin dispatcher into
:mod:`repro.engine`, which splits the GEMM into a one-time **plan**
step and a repeated **execute** step:

* :func:`repro.engine.plan_gemm` precomputes per-weight-matrix state
  (transformed-weight slabs, folded ``rebias - zero`` adjustments,
  expanded scale grids, pack layout) into a cached
  :class:`repro.engine.GemmPlan`;
* :meth:`GemmPlan.execute(a, backend=...) <repro.engine.GemmPlan.execute>`
  runs the hot path through one backend of the engine's table.

``hyper_gemm(a, qm, mode=...)`` keeps its original signature: ``mode``
is simply a backend name, and plans are memoized per weight matrix, so
repeated calls (per-token decoding, perplexity sweeps) plan once and
execute many times.  Backends:

* ``"batched"`` (the default) — FP16-rounded transformed products with
  wide accumulation (tensor-core FP32-accumulate behaviour), gathered
  from a table of every FP16 input's products and group-summed by a
  sparse selector; use for real workloads;
* ``"bitexact"`` — every product goes through the bit-level parallel
  multiplier of :mod:`repro.multiplier.parallel`, vectorized; the
  datapath oracle;
* ``"bitexact-scalar"`` — the same multiplier, one scalar call per
  product; the oracle of ``"bitexact"``, for tiny matrices only;
* ``"reference"`` — the dequantize-then-matmul baseline flow
  (equivalent to :func:`dequant_reference`).

``"batched"`` and ``"bitexact"`` agree bit-for-bit (asserted across
random group specs in the tests).

Numerics note: each product is the FP16 rounding of
``A * (B + 1032)`` — bit-identical to multiplying by the transformed
weight (the paper's "no approximation" claim, which holds at the
product level).  Because the product's magnitude is dominated by the
``1032 * A`` term, its 11-bit significand carries fewer effective bits
of the *signal* ``A * B`` than the dequantize-first baseline does, so
``hyper_gemm`` outputs deviate from :func:`dequant_reference` by up to
``~0.5 * ulp(1032 * |A|)`` per product before scaling.  The test suite
bounds this envelope analytically, and the Table II experiment shows
it is perplexity-neutral end-to-end.

A second consequence of the same amplification: transformed products
saturate FP16 (overflow to inf) once ``|A| > 65504 / 1039 ~ 63``,
whereas the dequant baseline handles such activations fine.  Real
deployments keep FP16 activations well inside that range; the test
suite pins the behaviour so users hit a documented edge, not a
mystery.
"""

from __future__ import annotations

import numpy as np

from repro.engine import DEFAULT_BACKEND, plan_gemm
from repro.quant.packing import PackDim, PackSpec, pack
from repro.quant.rtn import QuantizedMatrix


def _as_fp16(a: np.ndarray) -> np.ndarray:
    """Round activations to FP16 (they enter the datapath as binary16)."""
    return np.asarray(a, dtype=np.float16)


def dequant_reference(a: np.ndarray, qm: QuantizedMatrix) -> np.ndarray:
    """The baseline flow: dequantize to FP16, then matmul.

    Weights are rounded to FP16 elementwise; the matmul itself runs in
    float64 over the FP16-rounded operands (i.e. exact products with
    wide accumulation — the idealized tensor-core baseline).
    """
    a16 = _as_fp16(a).astype(np.float64)
    w16 = np.asarray(qm.dequantize(), dtype=np.float16).astype(np.float64)
    return a16 @ w16


def hyper_gemm(
    a: np.ndarray,
    qm: QuantizedMatrix,
    mode: str = DEFAULT_BACKEND,
) -> np.ndarray:
    """``C = A @ dequant(B)`` through PacQ's transformed-weight path.

    Thin wrapper over the execution engine: plans are cached per
    ``qm`` (see :func:`repro.engine.plan_gemm`), so repeated calls pay
    planning cost once.

    Args:
        a: ``[m, k]`` activations (rounded to FP16 on entry).
        qm: group-quantized ``[k, n]`` weights (INT4 or INT2).
        mode: a backend name — ``"batched"``, ``"bitexact"``,
            ``"bitexact-scalar"`` or ``"reference"``.

    Returns:
        ``[m, n]`` float64 outputs (FP32-accumulate semantics).

    Raises:
        QuantizationError: from the engine, for non-INT4/INT2 weights,
            mismatched activation shapes, or unknown backends.
    """
    return plan_gemm(qm).execute(a, backend=mode)


def pack_for_flow(qm: QuantizedMatrix, along_n: bool = True):
    """Pack a quantized matrix the way a flow stores it.

    PacQ packs along ``n`` (:data:`True`); the conventional frameworks
    the paper criticizes pack along ``k``.  Returns a
    :class:`repro.quant.packing.PackedMatrix`.
    """
    spec = PackSpec(qm.bits, PackDim.N if along_n else PackDim.K)
    return pack(qm.signed_codes(), spec)
