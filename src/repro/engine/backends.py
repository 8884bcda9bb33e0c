"""The GEMM engine's backend table: four ways to execute one plan.

Every backend maps ``(activations, GemmPlan)`` to ``[m, n]`` float64:

* ``reference`` — dequantize-then-matmul baseline (no transformed
  datapath, so no FP16 saturation edge);
* ``batched`` (:data:`DEFAULT_BACKEND`) — PacQ's transformed-weight
  datapath as a gather from :func:`product_table` (every FP16 input's
  products) and one sparse selection by the plan's CSR
  :attr:`~repro.engine.plan.GemmPlan.selector` per call.  It falls back
  to :func:`execute_fast`, the per-k-group slab path, where the group
  sums could round; the two are bit-for-bit identical (see the
  numerics notes inline);
* ``bitexact`` — every product through the bit-level parallel
  multiplier, vectorized over numpy integer lanes by
  :mod:`repro.fp.vec`; the datapath oracle, fast enough for real LLM
  layer shapes;
* ``bitexact-scalar`` — the original per-element Python loop over
  :func:`repro.multiplier.parallel.parallel_fp_int_mul`; kept as the
  oracle the vectorized ``bitexact`` is tested against.

All transformed backends share the plan's precomputed state, so the
per-call cost is purely the product/accumulate work.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import QuantizationError
from repro.fp import fp16, vec
from repro.multiplier.parallel import parallel_fp_int_mul, rebias_offset

if TYPE_CHECKING:
    from repro.engine.plan import GemmPlan

#: The backend every ``backend=`` / ``mode=`` parameter defaults to.
DEFAULT_BACKEND = "batched"


def execute_reference(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """The baseline flow: FP16 activations times FP16-rounded weights."""
    a16 = np.asarray(a, dtype=np.float16).astype(np.float64)
    # detlint: ignore[D001]: the reference backend is the BLAS baseline the
    # engine is measured against — deliberately outside the bit-exact envelope.
    return a16 @ plan.w16


def execute_fast(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """Per-k-group transformed products off the plan's slabs.

    ``batched``'s fallback wherever its contraction cannot be exact
    (see :func:`execute_batched`); not a backend of its own.
    """
    a16 = np.asarray(a, dtype=np.float16)
    a_wide = a16.astype(np.float64)
    m = a16.shape[0]
    out = np.zeros((m, plan.n_dim), dtype=np.float64)

    for gi in range(plan.gk):
        ks = slice(gi * plan.group_k, (gi + 1) * plan.group_k)
        # Transformed-weight products, FP16-rounded elementwise.  The
        # transformed weights (1024..2047 + code) are exact in FP16, so
        # float16 multiply here is bit-identical to the parallel
        # multiplier (verified against the bitexact path in tests).
        with np.errstate(over="ignore"):  # FP16 saturation is modelled
            prods = (
                a16[:, ks, None].astype(np.float32)
                * plan.t_blocked[gi][None, :, :]
            ).astype(np.float16)
        # detlint: ignore[D003]: reduces the k-group axis, whose length is
        # fixed by the plan — the order is the same for every batch row.
        s1 = prods.astype(np.float64).sum(axis=1)  # [m, n]
        # detlint: ignore[D003]: same k-group axis argument as s1 above.
        s_a = a_wide[:, ks].sum(axis=1, keepdims=True)  # the sum(A) accumulator
        corrected = s1 - plan.offset * s_a  # Eq. (1): sum(A * signed)
        out += plan.scale_rows[gi][None, :] * (
            corrected + plan.adjust_rows[gi][None, :] * s_a
        )
    return out


#: ``group_k`` ceiling for the exact-contraction argument below: sums of
#: up to 4096 FP16 values stay exact in float64 (<= 2**29 magnitude at
#: 2**-24 granularity = 53 significand bits).
_BATCHED_MAX_GROUP_K = 4096

@functools.cache
def product_table(bits: int) -> np.ndarray:
    """Every transformed-weight product of every FP16 activation.

    ``table[p, c] == fp16(a * (1024 + c))`` for the FP16 value ``a``
    whose bit pattern is ``p``, over all 65,536 patterns and all
    ``2**bits`` channels: the ``2**bits`` lanes PacQ's parallel
    multiplier produces for one activation, as float64 (8 MiB for
    INT4, 2 MiB for INT2).  Built once per process and bit width by
    the same float32-multiply-then-cast as :func:`execute_fast`; the
    exhaustive engine test pins every entry to the bit-level datapath.
    """
    a32 = (
        np.arange(1 << 16, dtype=np.uint32)
        .astype(np.uint16)
        .view(np.float16)
        .astype(np.float32)
    )
    lut32 = 1024.0 + np.arange(1 << bits, dtype=np.float32)
    # FP16 saturation is modelled; signalling-NaN inputs stay NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        table = (a32[:, None] * lut32[None, :]).astype(np.float16).astype(np.float64)
    table.flags.writeable = False
    return table


def execute_batched(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """All k-groups in one sparse selection over the product table.

    A transformed weight takes only ``channels = 2**bits`` distinct
    values (``1024 + c``), so every FP16-rounded product this call
    needs is an entry of :func:`product_table`.  The call gathers each
    activation's row of it into a ``[k * channels, m]`` operand; the
    plan's CSR :attr:`~repro.engine.plan.GemmPlan.selector` (one 1.0
    per weight) then picks and group-sums one product per ``(k, n)``,
    giving the ``[gk, n, m]`` group partials, and a vectorized
    epilogue applies Eq. (1), scale and adjust.

    Bit-for-bit identical to :func:`execute_fast`:

    * the table entries are the same float32-multiply-then-cast
      FP16-rounded products :func:`execute_fast` computes;
    * each selector row adds its ``group_k`` products in stored order,
      which is ascending k, whatever ``m`` is; the products are
      FP16-exact float64 values whose sums are exact for ``group_k <=
      4096``, so no order could round them anyway;
    * CSR stores no zeros, so a saturated ``inf`` product never meets
      ``inf * 0`` and sums to the same ``inf`` as the slab path;
    * the final reduction over ``gk`` adds the groups in index order —
      the same left-to-right accumulation as :func:`execute_fast`'s
      ``out +=`` loop (pinned by the cross-backend property tests).

    Group extents beyond the exactness ceiling take the
    :func:`execute_fast` slab path instead.
    """
    if plan.group_k > _BATCHED_MAX_GROUP_K:
        return execute_fast(a, plan)

    a16 = np.asarray(a, dtype=np.float16)
    m = a16.shape[0]
    # [k, m, channels] products, laid out as the selector's columns.
    products = np.take(product_table(plan.bits), a16.T.view(np.uint16), axis=0)
    operand = products.transpose(0, 2, 1).reshape(plan.k_dim * plan.channels, m)
    # detlint: ignore[D001]: CSR selection, not BLAS — scipy's csr_matvecs
    # adds each row's nonzeros in stored (ascending-k) order for every
    # column, whatever m is.
    acc = (plan.selector @ operand).reshape(plan.gk, plan.n_dim, m)
    a_blk = a16.astype(np.float64).reshape(m, plan.gk, plan.group_k)
    # detlint: ignore[D003]: reduces the k-group axis, whose length is fixed
    # by the plan — the order is the same for every batch row.
    s_a = a_blk.sum(axis=2).T[:, None, :]  # [gk, 1, m] sum(A) accumulators
    # In place on the [gk, n, m] group partials: the same operations, in
    # the same order, as scale * ((s1 - offset * s_a) + adjust * s_a).
    acc -= plan.offset * s_a  # Eq. (1): sum(A * signed)
    acc += plan.adjust_rows[:, :, None] * s_a
    acc *= plan.scale_rows[:, :, None]
    # detlint: ignore[D003]: reduces the gk group axis, whose length is fixed
    # by the plan alone — batch-independent; identity with execute_fast's
    # sequential accumulation is asserted bit-for-bit in tests.
    return np.ascontiguousarray(acc.sum(axis=0).T)


def _check_pack_alignment(plan: GemmPlan) -> None:
    pack_factor = 16 // plan.bits
    if plan.n_dim % pack_factor:
        raise QuantizationError(
            f"n={plan.n_dim} not divisible by pack factor {pack_factor}"
        )


def _group_sum_like_oracle(blocked: np.ndarray) -> np.ndarray:
    """Sum the middle (group_k) axis of ``[gk, group_k, ...]`` blocks.

    Up to 4096 FP16-exact float64 terms sum exactly (53-bit
    significand), so numpy's pairwise reduction is bit-identical to any
    order and the fast ``sum`` applies.  Beyond that the sums can
    round, so match the scalar oracle's association order exactly: one
    add per k element, in k order (inf/NaN propagation is
    order-independent either way).
    """
    if blocked.shape[1] <= _BATCHED_MAX_GROUP_K:
        # detlint: ignore[D003]: exact — <= 4096 FP16-exact float64 terms
        # (docstring argument), so no summation order can round.
        return blocked.sum(axis=1)
    total = blocked[:, 0].copy()
    for kk in range(1, blocked.shape[1]):
        total += blocked[:, kk]
    return total


def execute_bitexact(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """Every product through the bit-level multiplier, vectorized.

    The kernel evaluates, for each activation, all ``2**bits`` lanes of
    the transformed-weight datapath at once through the vectorized
    parallel multiplier (:func:`repro.fp.vec.parallel_products`) — a
    ``[m, k, channels]`` table of product bits — then gathers each
    weight's channel into the ``[k, n]`` product block and group-sums
    it.  Every ``(k, n)`` product's bits therefore come from a datapath
    evaluation with exactly those operands; per-element agreement with
    the scalar oracle loop (``bitexact-scalar``) is pinned by the
    engine tests.  The only Python-level iteration left is the per-row
    gather (bounding the float64 product block to ``[k, n]``) and the
    per-k-group accumulation, which mirrors :func:`execute_fast`'s group
    order.
    """
    a16 = np.asarray(a, dtype=np.float16)
    _check_pack_alignment(plan)
    m = a16.shape[0]
    a_bits = vec.from_float(a16.astype(np.float64))  # [m, k] raw patterns
    a_wide = vec.to_float(a_bits)
    all_codes = np.arange(plan.channels, dtype=np.int64) - rebias_offset(plan.bits)
    # All lanes of the datapath for every activation element: the
    # [m, k, channels] bit table covers every product of this call.
    table = vec.to_float(
        vec.parallel_products(a_bits[:, :, None], all_codes[None, None, :], plan.bits)
    )
    out = np.zeros((m, plan.n_dim), dtype=np.float64)
    k_rows = np.arange(plan.k_dim)[:, None]
    for i in range(m):
        products = table[i][k_rows, plan.unsigned]  # [k, n] lane values
        s1 = _group_sum_like_oracle(
            products.reshape(plan.gk, plan.group_k, plan.n_dim)
        )
        s_a = _group_sum_like_oracle(
            a_wide[i].reshape(plan.gk, plan.group_k, 1)
        )[:, 0]
        for gi in range(plan.gk):
            corrected = s1[gi] - plan.offset * s_a[gi]
            out[i, :] += plan.scale_rows[gi] * (
                corrected + plan.adjust_rows[gi] * s_a[gi]
            )
    return out


def execute_bitexact_scalar(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """Every product through the scalar bit-level multiplier (slow, exact).

    The original quadruple-nested validator loop, kept as the oracle
    the vectorized ``bitexact`` backend is checked against.
    """
    a16 = np.asarray(a, dtype=np.float16)
    _check_pack_alignment(plan)
    pack_factor = 16 // plan.bits
    m = a16.shape[0]
    out = np.zeros((m, plan.n_dim), dtype=np.float64)

    for i in range(m):
        for gi in range(plan.gk):
            ks = range(gi * plan.group_k, (gi + 1) * plan.group_k)
            s_a = 0.0
            s1 = np.zeros(plan.n_dim, dtype=np.float64)
            for k in ks:
                a_bits = fp16.from_float(a16[i, k])
                s_a += fp16.to_float(a_bits)
                for nw in range(plan.n_dim // pack_factor):
                    codes = [
                        plan.signed[k, nw * pack_factor + j]
                        for j in range(pack_factor)
                    ]
                    result = parallel_fp_int_mul(a_bits, codes, plan.bits)
                    for j, bits in enumerate(result.products):
                        s1[nw * pack_factor + j] += fp16.to_float(bits)
            corrected = s1 - plan.offset * s_a
            out[i, :] += plan.scale_rows[gi] * (
                corrected + plan.adjust_rows[gi] * s_a
            )
    return out


#: Backend name -> execute function.
BACKENDS: dict[str, Callable[[np.ndarray, GemmPlan], np.ndarray]] = {
    "reference": execute_reference,
    "batched": execute_batched,
    "bitexact": execute_bitexact,
    "bitexact-scalar": execute_bitexact_scalar,
}


def backend_names() -> list[str]:
    """Sorted backend names."""
    return sorted(BACKENDS)


def get_backend(name: str) -> Callable[[np.ndarray, GemmPlan], np.ndarray]:
    """The execute function of backend ``name``.

    Raises:
        QuantizationError: for unknown names, listing the valid ones.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise QuantizationError(
            f"unknown backend {name!r}; valid backends: "
            + ", ".join(backend_names())
        ) from None
