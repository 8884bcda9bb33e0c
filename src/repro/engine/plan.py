"""GEMM planning: one-time per-weight-matrix state for repeated execution.

The seed implementation of :func:`repro.core.gemm.hyper_gemm` re-derived
everything on every call — signed codes, transformed weights, the
folded ``rebias - zero`` group adjustments — so workloads that execute
the *same* quantized matrix thousands of times (per-token decoding,
perplexity sweeps) paid planning cost on every token.  ``GemmPlan``
hoists all of that into a one-time *plan* step, mirroring the
prepare/execute split of the frameworks the paper positions against
(AutoGPTQ, AWQ): quantized weights are packed/laid out once, then the
hot loop only executes.

Precomputed (eagerly, at plan time):

* ``unsigned`` — the re-biased codes, each weight's channel index;
* ``adjust`` / ``adjust_rows`` — the folded ``rebias - zero`` group
  adjustment, as a ``[gk, gn]`` grid and expanded to ``[gk, n]`` rows;
* ``scale_rows`` — the scale grid expanded to ``[gk, n]`` rows.

Computed lazily (first use, then cached on the plan):

* ``signed`` — int16 signed codes (the representation PacQ packs),
  read only by ``reference``, ``bitexact-scalar`` and packing;
* ``codes`` — the ``[n, k]`` uint8 channel codes the compiled
  contraction of ``batched`` reads (1 B per weight); the product table
  it selects from comes from the backend, not from the plan;
* ``contraction`` — that compiled kernel with the plan's codes,
  scale/adjust rows and dimensions bound, so a call passes only its
  own activations, product table and output;
* ``w16`` — FP16-rounded dequantized weights (the ``reference``
  backend's operand);
* ``packed`` — the ``P(Bx)n`` packed storage layout.

Plans hold the quantized matrix only weakly, so caching plans does not
extend weight lifetimes; :func:`plan_gemm` memoizes one plan per live
``QuantizedMatrix`` and evicts the entry when the matrix is collected.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from repro.engine.backends import DEFAULT_BACKEND, get_backend
from repro.engine.native import contract_kernel
from repro.errors import QuantizationError
from repro.multiplier.parallel import rebias_offset, transform_offset
from repro.quant.groups import GroupSpec
from repro.quant.packing import PackDim, PackSpec, pack
from repro.quant.rtn import QuantizedMatrix


class GemmPlan:
    """Precomputed execution state for one quantized weight matrix.

    Build via :func:`plan_gemm` (cached) or directly (uncached); then
    run :meth:`execute` with any backend name.
    """

    def __init__(self, qm: QuantizedMatrix) -> None:
        if qm.bits not in (2, 4):
            raise QuantizationError(
                f"hyper_gemm requires INT4/INT2 weights, got INT{qm.bits}"
            )
        self.bits: int = qm.bits
        self.symmetric: bool = qm.symmetric
        self.k_dim: int = qm.k_dim
        self.n_dim: int = qm.n_dim
        self.group: GroupSpec = qm.group
        self.gk, self.gn = qm.group.grid_shape(qm.k_dim, qm.n_dim)
        self.group_k: int = qm.group.k
        self.group_n: int = qm.group.n
        #: Storage footprint of codes + group metadata, in bits: the
        #: weight traffic of one execution.
        self.storage_bits: int = qm.storage_bits()
        #: Additive constant of Eq. (1): 1032 for INT4, 1026 for INT2.
        self.offset: float = float(transform_offset(qm.bits))
        #: Distinct transformed-weight values: 16 for INT4, 4 for INT2.
        self.channels: int = 1 << qm.bits

        #: Unsigned (re-biased) codes, the channel index of each weight.
        self.unsigned: np.ndarray = (
            qm.signed_codes() + rebias_offset(qm.bits)
        ).astype(np.uint8)
        self.scales: np.ndarray = qm.scales
        self.zeros: np.ndarray = qm.zeros
        if qm.symmetric:
            self.adjust: np.ndarray = np.zeros_like(qm.zeros)
        else:
            self.adjust = rebias_offset(qm.bits) - qm.zeros
        # Row-expanded [gk, n] grids so scale/adjust application needs
        # no per-group indexing; float64, the type the contraction reads.
        self.scale_rows: np.ndarray = np.repeat(
            self.scales, self.group_n, axis=1
        ).astype(np.float64, copy=False)
        self.adjust_rows: np.ndarray = np.repeat(
            self.adjust, self.group_n, axis=1
        ).astype(np.float64, copy=False)

        self._qm_ref = weakref.ref(qm)
        self._signed: np.ndarray | None = None
        self._w16: np.ndarray | None = None
        self._packed = None
        self._codes: np.ndarray | None = None
        self._contraction: functools.partial | None = None
        #: Executions per activation row count ``m``.  Nothing in the
        #: plan depends on ``m``, so one plan serves every batch size;
        #: a serving workload whose batch grows and shrinks as requests
        #: join and retire shows up here as many distinct keys against
        #: a single planning cost (see :meth:`row_stats`).
        self.executions: dict[int, int] = {}
        #: Executions per ``(phase, m)``: the same histogram split by
        #: the caller-declared pipeline phase (``"prefill"`` /
        #: ``"decode"`` / ``"verify"``).  Needed because the total
        #: histogram cannot distinguish a k+1-row speculative verify
        #: step from a batch of k+1 single-token decodes — both are one
        #: execution at ``m = k + 1``.
        self.phase_executions: dict[tuple[str, int], int] = {}

    # -- lazily derived state ------------------------------------------------

    @property
    def signed(self) -> np.ndarray:
        """int16 signed codes, ``[k, n]``: the representation PacQ packs.

        ``qm.signed_codes()``, derived from :attr:`unsigned` on first use
        (the ``reference``, ``bitexact-scalar`` and packing paths) and
        cached; the contraction never reads them.
        """
        if self._signed is None:
            self._signed = self.unsigned.astype(np.int16) - rebias_offset(self.bits)
        return self._signed

    @property
    def w16(self) -> np.ndarray:
        """FP16-rounded dequantized weights as float64 (``reference``).

        Bit-identical to ``fp16(qm.dequantize())``: the dequantized
        value ``scale * (code - zero)`` equals
        ``scale * (signed + adjust)`` exactly (all-integer operands,
        exact in float64).
        """
        if self._w16 is None:
            scale_full = np.repeat(self.scale_rows, self.group_k, axis=0)
            adjust_full = np.repeat(self.adjust_rows, self.group_k, axis=0)
            w = (self.signed.astype(np.float64) + adjust_full) * scale_full
            self._w16 = w.astype(np.float16).astype(np.float64)
        return self._w16

    @property
    def codes(self) -> np.ndarray:
        """Channel codes of the shared contraction, ``[n, k]`` uint8.

        ``codes[j, k] == unsigned[k, j]``: weight ``[k, j]``'s channel,
        the column of its activation's product-table row that the
        contraction adds.  One byte per weight, stored so each output
        column reads its codes in ascending k; built lazily on the first
        ``batched`` execution and cached on the plan.
        """
        if self._codes is None:
            self._codes = np.ascontiguousarray(self.unsigned.T)
        return self._codes

    @property
    def contraction(self) -> functools.partial:
        """The compiled contraction with this plan's operands bound.

        Call it as ``contraction(table, idx, a, m, out)`` with the
        addresses of a C-contiguous float64 ``[rows, channels]`` product
        table, uint16 ``[m, k]`` table-row indices, float64 ``[m, k]``
        FP16 activations and a float64 ``[m, n]`` output; it returns
        the kernel's status (0 on success).  The addresses of
        :attr:`codes`, ``scale_rows`` and ``adjust_rows`` are bound on
        first use, and the plan keeps those arrays alive.

        Raises:
            KernelBuildError: the kernel cannot be compiled.
        """
        if self._contraction is None:
            self._contraction = functools.partial(
                contract_kernel(),
                self.codes.ctypes.data,
                self.scale_rows.ctypes.data,
                self.adjust_rows.ctypes.data,
                self.offset,
                self.k_dim,
                self.n_dim,
                self.channels,
                self.group_k,
            )
        return self._contraction

    @property
    def packed(self):
        """The ``P(Bx)n`` packed storage layout (PacQ's convention)."""
        if self._packed is None:
            self._packed = pack(self.signed, PackSpec(self.bits, PackDim.N))
        return self._packed

    # -- execution -----------------------------------------------------------

    def validate_activations(self, a: np.ndarray) -> None:
        """Reject activations that do not match the planned weights."""
        if a.ndim != 2 or a.shape[1] != self.k_dim:
            raise QuantizationError(
                f"activation shape {a.shape} does not match weights "
                f"[{self.k_dim}, {self.n_dim}]"
            )

    def execute(
        self,
        a: np.ndarray,
        backend: str = DEFAULT_BACKEND,
        phase: str | None = None,
    ) -> np.ndarray:
        """Run ``C = A @ dequant(B)`` through one backend.

        Args:
            a: ``[m, k]`` activations (rounded to FP16 on entry).
            backend: a backend name (:func:`repro.engine.backend_names`).
            phase: optional pipeline phase label (``"prefill"`` /
                ``"decode"`` / ``"verify"``) recorded alongside the row
                count, so :meth:`row_stats` can report the histogram of
                one phase in isolation.  Unlabelled executions count
                only toward the total.

        Returns:
            ``[m, n]`` float64 outputs (FP32-accumulate semantics).
        """
        run = get_backend(backend)
        a = np.asarray(a)
        self.validate_activations(a)
        m = a.shape[0]
        self.executions[m] = self.executions.get(m, 0) + 1
        if phase is not None:
            key = (phase, m)
            self.phase_executions[key] = self.phase_executions.get(key, 0) + 1
        return run(a, self)

    def row_stats(self, phase: str | None = None) -> dict[int, int]:
        """``{m: executions}`` histogram over activation row counts.

        The plan-reuse-across-batch-sizes signal: a continuous-batching
        server whose active batch varies per step still executes this
        one plan, so the histogram spans many ``m`` values while the
        plan was built exactly once.

        With ``phase`` given, only executions labelled with that phase
        are counted (see :meth:`execute`): ``row_stats("verify")`` is
        the shape histogram of speculative verify passes alone, which
        the total cannot expose — a k+1-row verify and a batch of k+1
        single-token decodes land on the same ``m`` bucket.
        """
        if phase is None:
            return dict(self.executions)
        return {
            m: count
            for (p, m), count in sorted(self.phase_executions.items())
            if p == phase
        }

    def phases(self) -> dict[str, dict[int, int]]:
        """Per-phase ``{phase: {m: executions}}`` view of the histogram."""
        out: dict[str, dict[int, int]] = {}
        for (p, m), count in sorted(self.phase_executions.items()):
            out.setdefault(p, {})[m] = count
        return out

    def matches(self, qm: QuantizedMatrix) -> bool:
        """Whether this plan was built from exactly this matrix object."""
        return self._qm_ref() is qm


#: Plan memo: id(qm) -> plan.  Plans reference their matrix weakly and
#: a finalizer evicts the entry when the matrix is collected, so the
#: cache cannot leak weights or resurrect a recycled id.
_PLAN_CACHE: dict[int, GemmPlan] = {}

#: Lifetime counters for the memo (reported by ``pacq-repro sweep``):
#: ``builds`` counts plans constructed, ``reuses`` counts memo hits.
_PLAN_STATS = {"builds": 0, "reuses": 0}


def plan_gemm(qm: QuantizedMatrix) -> GemmPlan:
    """Plan a quantized matrix for execution, memoized per live object.

    Repeated calls with the same ``QuantizedMatrix`` return the same
    :class:`GemmPlan`, so per-token workloads (and the backward-compat
    :func:`repro.core.gemm.hyper_gemm` wrapper) plan once and execute
    many times.
    """
    key = id(qm)
    plan = _PLAN_CACHE.get(key)
    if plan is not None and plan.matches(qm):
        _PLAN_STATS["reuses"] += 1
        return plan
    plan = GemmPlan(qm)
    _PLAN_STATS["builds"] += 1
    _PLAN_CACHE[key] = plan
    weakref.finalize(qm, _PLAN_CACHE.pop, key, None)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Lifetime ``{"builds": ..., "reuses": ...}`` counters of the memo.

    Sweeps that hold their quantized matrices across jobs (e.g. the
    harness's ``table2`` backend x group-spec grid) show ``reuses``
    growing while ``builds`` stays at one per distinct matrix — the
    cross-job plan-reuse signal ``pacq-repro sweep`` prints.
    """
    return dict(_PLAN_STATS)


def clear_plan_cache() -> None:
    """Drop all memoized plans and reset the lifetime counters."""
    _PLAN_CACHE.clear()
    _PLAN_STATS["builds"] = 0
    _PLAN_STATS["reuses"] = 0


def plan_cache_size() -> int:
    """Number of currently memoized plans."""
    return len(_PLAN_CACHE)


def plan_histograms(plans: dict) -> dict[str, dict]:
    """Serializable ``{site: {"rows": ..., "phases": ...}}`` snapshot.

    Collects :meth:`GemmPlan.row_stats` / :meth:`GemmPlan.phases` from
    every plan in ``plans`` (any mapping of site name to an object with
    those methods) into plain dicts a worker process can ship over a
    pipe; :func:`merge_plan_histograms` folds snapshots from many
    workers into one fleet-level histogram.
    """
    return {
        name: {
            "rows": {int(m): int(c) for m, c in plan.row_stats().items()},
            "phases": {
                phase: {int(m): int(c) for m, c in hist.items()}
                for phase, hist in plan.phases().items()
            },
        }
        for name, plan in plans.items()
    }


def plan_dims(plans: dict) -> dict[str, dict[str, int]]:
    """Serializable ``{site: {"n", "k", "bits", "storage_bits"}}`` dims.

    The fixed-per-site companion of :func:`plan_histograms`: where the
    histogram snapshot carries what *varies* per execution (the ``m``
    counts), this carries what does not — each site's weight dimensions,
    code precision and total storage bits (codes + group metadata),
    which a workload replay (:mod:`repro.codesign`) and the
    :class:`~repro.model.session.Telemetry` view need to rebuild full
    GEMM shapes and bytes moved.
    """
    return {
        name: {
            "n": int(plan.n_dim),
            "k": int(plan.k_dim),
            "bits": int(plan.bits),
            "storage_bits": int(plan.storage_bits),
        }
        for name, plan in plans.items()
    }


def merge_plan_histograms(into: dict[str, dict], fresh: dict[str, dict]) -> dict:
    """Fold one :func:`plan_histograms` snapshot into ``into`` (returned).

    Row counts add per ``m`` bucket; sites or phases absent from
    ``into`` are copied.  ``into`` is mutated and returned for chaining
    across a worker fleet.
    """
    for name, snap in fresh.items():
        site = into.setdefault(name, {"rows": {}, "phases": {}})
        for m, count in snap["rows"].items():
            site["rows"][m] = site["rows"].get(m, 0) + count
        for phase, hist in snap["phases"].items():
            merged = site["phases"].setdefault(phase, {})
            for m, count in hist.items():
                merged[m] = merged.get(m, 0) + count
    return into


def diff_plan_histograms(now: dict[str, dict], before: dict[str, dict]) -> dict:
    """The executions in snapshot ``now`` that snapshot ``before`` lacks.

    Plans are memoized per matrix and shared by every session over it,
    so their histograms are cumulative; subtracting a snapshot taken at
    some earlier point (a session's construction, the start of a
    served run) leaves exactly the work done since.  Empty buckets are
    dropped; site order follows ``now``.
    """
    def minus(hist: dict, old: dict) -> dict:
        out = {m: count - old.get(m, 0) for m, count in hist.items()}
        return {m: count for m, count in out.items() if count}

    out = {}
    for name, snap in now.items():
        old = before.get(name, {"rows": {}, "phases": {}})
        phases = {
            phase: minus(hist, old["phases"].get(phase, {}))
            for phase, hist in snap["phases"].items()
        }
        out[name] = {
            "rows": minus(snap["rows"], old["rows"]),
            "phases": {phase: hist for phase, hist in phases.items() if hist},
        }
    return out
