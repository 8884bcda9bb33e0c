"""GEMM execution engine: plan once, execute many times.

The engine splits PacQ's hyper-asymmetric GEMM into two steps:

1. **Plan** (:func:`plan_gemm` / :class:`GemmPlan`) — one-time,
   per-weight-matrix: signed codes, transformed-weight slabs, folded
   ``rebias - zero`` group adjustments, expanded scale grids, and
   (lazily) the dequantized reference operand and the packed layout.
2. **Execute** (:meth:`GemmPlan.execute`) — the repeated hot path,
   dispatched through one backend of the table in
   :mod:`repro.engine.backends`.

Backends:

=============== ================================================ ===========
name            strategy                                         transformed
=============== ================================================ ===========
reference       dequantize to FP16, then matmul (baseline flow)  no
batched         CSR selector over a product table (the default)  yes
bitexact        vectorized bit-level multiplier (the oracle)     yes
bitexact-scalar per-element bit-level multiplier (slow oracle)   yes
=============== ================================================ ===========

``batched``, ``bitexact`` and ``bitexact-scalar`` are bit-identical.

Typical use::

    from repro.engine import plan_gemm

    plan = plan_gemm(qm)              # cached per QuantizedMatrix
    for step in range(tokens):
        out = plan.execute(a[step])   # backend=DEFAULT_BACKEND ("batched")

:func:`repro.core.gemm.hyper_gemm` remains the one-shot wrapper and
takes a backend name as its ``mode``.
"""

from repro.engine.backends import DEFAULT_BACKEND, backend_names, get_backend
from repro.engine.plan import (
    GemmPlan,
    clear_plan_cache,
    diff_plan_histograms,
    merge_plan_histograms,
    plan_cache_size,
    plan_cache_stats,
    plan_dims,
    plan_gemm,
    plan_histograms,
)

__all__ = [
    "DEFAULT_BACKEND",
    "GemmPlan",
    "backend_names",
    "clear_plan_cache",
    "diff_plan_histograms",
    "get_backend",
    "merge_plan_histograms",
    "plan_cache_size",
    "plan_dims",
    "plan_histograms",
    "plan_cache_stats",
    "plan_gemm",
]
