"""Pluggable GEMM execution engine: plan once, execute many times.

The engine splits PacQ's hyper-asymmetric GEMM into two steps:

1. **Plan** (:func:`plan_gemm` / :class:`GemmPlan`) — one-time,
   per-weight-matrix: signed codes, transformed-weight slabs, folded
   ``rebias - zero`` group adjustments, expanded scale grids, and
   (lazily) the dequantized reference operand and the packed layout.
2. **Execute** (:meth:`GemmPlan.execute`) — the repeated hot path,
   dispatched through a named backend from the registry.

Built-in backends (:mod:`repro.engine.backends`):

========== ==================================================== ===========
name       strategy                                             transformed
========== ==================================================== ===========
reference  dequantize to FP16, then matmul (baseline flow)      no
fast       vectorized per-k-group transformed products (seed)   yes
batched    single-einsum batched products, bit-exact with fast  yes
bitexact   bit-level parallel multiplier (validator, slow)      yes
========== ==================================================== ===========

Typical use::

    from repro.engine import plan_gemm

    plan = plan_gemm(qm)              # cached per QuantizedMatrix
    for step in range(tokens):
        out = plan.execute(a[step])   # backend="batched" by default

Custom backends register through :func:`register_backend` (see
:mod:`repro.engine.registry`); :func:`repro.core.gemm.hyper_gemm`
remains the stable one-shot wrapper and accepts any registered backend
name as its ``mode``.
"""

from repro.engine import backends as _backends  # noqa: F401  (registers built-ins)
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
from repro.engine.registry import (
    Backend,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)

__all__ = [
    "Backend",
    "GemmPlan",
    "backend_names",
    "clear_plan_cache",
    "diff_plan_histograms",
    "get_backend",
    "list_backends",
    "merge_plan_histograms",
    "plan_cache_size",
    "plan_dims",
    "plan_histograms",
    "plan_cache_stats",
    "plan_gemm",
    "register_backend",
    "unregister_backend",
]
