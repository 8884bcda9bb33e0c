"""The GEMM engine's backend table: three ways to execute one plan.

Every backend maps ``(activations, GemmPlan)`` to ``[m, n]`` float64:

* ``reference`` — dequantize-then-matmul baseline (no transformed
  datapath, so no FP16 saturation edge);
* ``batched`` (:data:`DEFAULT_BACKEND`) — PacQ's transformed-weight
  datapath: one compiled contraction, :func:`_contract`, which selects
  each weight's product from its activation's row of
  :func:`product_table` (every FP16 input's ``2**bits`` products,
  built once per process), so no per-call ``[k, m, channels]``
  products array exists;
* ``bitexact-scalar`` — the original per-element loop over
  :func:`repro.multiplier.parallel.parallel_fp_int_mul`; the
  independent oracle of ``batched``.

The oracle chain that makes ``batched`` exact: its outputs equal
``bitexact-scalar``'s, its table equals :func:`repro.fp.vec.parallel_products`
for every FP16 input, the vectorized datapath equals the scalar
parallel multiplier, and that equals ``fp16_mul`` of the transformed
weight.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import QuantizationError
from repro.fp import fp16
from repro.multiplier.parallel import parallel_fp_int_mul

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


@functools.cache
def product_table(bits: int) -> np.ndarray:
    """Every transformed-weight product of every FP16 activation.

    ``table[p, c] == fp16(a * (1024 + c))`` for the FP16 value ``a``
    whose bit pattern is ``p``, over all 65,536 patterns and all
    ``2**bits`` channels: the ``2**bits`` lanes PacQ's parallel
    multiplier produces for one activation, as float64 (8 MiB for
    INT4, 2 MiB for INT2).  Built once per process and bit width by a
    float32 multiply then an FP16 cast (the transformed weights are
    exact in both); the exhaustive engine test pins every entry to the
    bit-level datapath.
    """
    a32 = (
        np.arange(1 << 16, dtype=np.uint32)
        .astype(np.uint16)
        .view(np.float16)
        .astype(np.float32)
    )
    weights = 1024.0 + np.arange(1 << bits, dtype=np.float32)
    # FP16 saturation is modelled; signalling-NaN inputs stay NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        table = (a32[:, None] * weights[None, :]).astype(np.float16).astype(np.float64)
    table.flags.writeable = False
    return table


def _contract(
    a16: np.ndarray, table: np.ndarray, idx: np.ndarray, plan: GemmPlan
) -> np.ndarray:
    """Group-sum the products ``table[idx]`` of one call into ``[m, n]``.

    ``table[idx[i, k], c]`` is the FP16-rounded product of ``a16[i, k]``
    with transformed weight ``1024 + c``; ``idx`` is ``[m, k]`` uint16.
    The compiled kernel (``contract.c``, bound to the plan's operands by
    :attr:`~repro.engine.plan.GemmPlan.contraction`) gathers each row
    tile's products from the table itself, reads the plan's 1-byte
    :attr:`~repro.engine.plan.GemmPlan.codes`, adds the one selected
    product per ``(k, n)`` in ascending k from ``0.0``, then applies
    Eq. (1), adjust and scale and adds the ``gk`` groups in index order,
    in the same loop.  Bit-for-bit equal to ``bitexact-scalar`` at every
    ``group_k``: the kernel performs the oracle's operations in the
    oracle's order, sum(A) included, and is compiled without FMA
    contraction or fast-math.  Only selected products are added, so a
    saturated ``inf`` never meets ``inf * 0``.

    Raises:
        KernelBuildError: the kernel cannot be compiled (first use only).
        QuantizationError: ``table`` is not C-contiguous float64
            ``[rows, channels]`` or ``idx`` not C-contiguous uint16
            shaped like ``a16``: the kernel reads raw addresses.
    """
    if not (
        table.dtype == np.float64
        and table.ndim == 2
        and table.shape[1] == plan.channels
        and table.flags.c_contiguous
        and idx.dtype == np.uint16
        and idx.shape == a16.shape
        and idx.flags.c_contiguous
    ):
        raise QuantizationError(
            f"contraction operands do not match the kernel: table "
            f"{table.dtype}{table.shape}, idx {idx.dtype}{idx.shape}"
        )
    m = a16.shape[0]
    a64 = a16.astype(np.float64)
    out = np.empty((m, plan.n_dim))
    status = plan.contraction(
        table.ctypes.data, idx.ctypes.data, a64.ctypes.data, m, out.ctypes.data
    )
    if status:
        raise MemoryError("the contraction kernel could not allocate its row tiles")
    return out


def execute_batched(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """The contraction over :func:`product_table`, indexed by FP16 pattern."""
    a16 = np.ascontiguousarray(a, dtype=np.float16)
    return _contract(a16, product_table(plan.bits), a16.view(np.uint16), plan)


def _check_pack_alignment(plan: GemmPlan) -> None:
    pack_factor = 16 // plan.bits
    if plan.n_dim % pack_factor:
        raise QuantizationError(
            f"n={plan.n_dim} not divisible by pack factor {pack_factor}"
        )


def execute_bitexact_scalar(a: np.ndarray, plan: GemmPlan) -> np.ndarray:
    """Every product through the scalar bit-level multiplier (slow, exact).

    The original quadruple-nested validator loop, kept as the
    independent oracle of ``batched``.
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
