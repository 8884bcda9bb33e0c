"""The parallel FP-INT multiplier (paper Section IV, Fig. 5(b-d)).

One FP16 activation ``A`` is multiplied by four INT4 weights (or eight
INT2 weights) in a single cycle.  The trick: re-bias a signed weight
``B`` by ``2**(bits-1)`` and add 1024, giving ``T = B + 1032`` (INT4)
with ``T in [1024, 2048)``.  In FP16:

* the exponent of ``T`` is always ``11001b`` (biased 25, i.e. 2**10);
* the mantissa of ``T`` is ``000000yyyy`` where ``yyyy = B + 8``.

So all lanes share one sign (``s_A XOR 0``), one exponent adder
(``e_A + 25 - bias``) and one normalizer, and the 11x11 mantissa array
degenerates into four 11x4 products assembled per Fig. 5(d):

``m_out = { A[10:6],  A[5:0] + i[13:10],  i[9:0] }``

where ``i = (1.m_A) * yyyy`` is the 14-bit intermediate product.  Only
the per-lane rounding units are duplicated.

The model is **bit-exact**: for every lane the output equals
``fp16_mul(A, fp16(B + 1024 + rebias))`` — the paper's "there is no
approximation in our design" claim — which the test suite verifies
exhaustively over all mantissas and weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.fp import fp16
from repro.fp.fp16 import (
    BIAS,
    EXPONENT_SPECIAL,
    MANTISSA_BITS,
    MANTISSA_MASK,
    combine,
    from_int_exact,
    is_normalized,
    is_zero,
    split,
)
from repro.fp.mul import fp16_mul
from repro.multiplier.int11 import parallel_int11_mul

#: Biased exponent of every transformed weight: 1024 <= T < 2048.
TRANSFORM_EXPONENT = 25  # 11001b, value 2**(25 - 15) = 1024


def rebias_offset(weight_bits: int) -> int:
    """Signed -> unsigned offset: 8 for INT4, 2 for INT2."""
    if weight_bits not in (2, 4):
        raise EncodingError(f"parallel multiplier supports INT2/INT4, not INT{weight_bits}")
    return 1 << (weight_bits - 1)


def transform_offset(weight_bits: int) -> int:
    """The additive constant of Eq. (1): 1032 for INT4, 1026 for INT2.

    ``T = B + transform_offset`` puts every signed weight in
    ``[1024, 1024 + 2**bits)`` so the FP16 exponent is constant.
    """
    return 1024 + rebias_offset(weight_bits)


def lanes(weight_bits: int) -> int:
    """Parallel lanes per cycle: 4 for INT4, 8 for INT2."""
    rebias_offset(weight_bits)  # validates
    return 16 // weight_bits


def transformed_weight_bits(code: int, weight_bits: int) -> int:
    """FP16 bit pattern of ``code + transform_offset`` (exact).

    ``code`` is the *signed* weight.  By observation (1)+(2) of the
    paper the pattern is simply exponent 25 with the unsigned code in
    the mantissa LSBs — asserted here against the generic encoder.
    """
    offset = rebias_offset(weight_bits)
    if not -offset <= code < offset:
        raise EncodingError(f"code {code} out of INT{weight_bits} range")
    unsigned = code + offset
    direct = combine(0, TRANSFORM_EXPONENT, unsigned)
    assert direct == from_int_exact(1024 + unsigned)
    return direct


@dataclass(frozen=True)
class LaneTrace:
    """Datapath signals of one lane (Fig. 5(c)/(d))."""

    intermediate: int  #: i = significand(A) * y, up to 15 bits
    assembled_mantissa: int  #: 22-bit product significand before rounding
    result_bits: int


@dataclass(frozen=True)
class ParallelMulResult:
    """All lane outputs of one parallel multiply, with shared fields."""

    sign: int
    shared_exponent: int  #: biased e_out before any rounding carry
    lane_traces: tuple[LaneTrace, ...]

    @property
    def products(self) -> tuple[int, ...]:
        return tuple(trace.result_bits for trace in self.lane_traces)


def _assemble_mantissa(a_significand: int, intermediate: int) -> int:
    """Fig. 5(d) mantissa assembly.

    The exact 22-bit product is ``(sig_A << 10) + i``.  The hardware
    realizes it as a concatenation of A's top bits with a short
    addition: ``{A[10:6], A[5:0] + i[14:10], i[9:0]}``, where the
    6-bit adder's carry-out increments the upper concatenated field.
    This helper mirrors that wiring and is asserted against the exact
    integer product.
    """
    low = intermediate & 0x3FF  # i[9:0] passes straight through
    overlap = intermediate >> 10  # i[14:10], <= 5 bits for INT4 lanes
    mid = (a_significand & 0x3F) + overlap  # 6-bit adder (+ carry out)
    high = a_significand >> 6  # A[10:6]
    assembled = (high << 16) + (mid << 10) + low
    assert assembled == (a_significand << 10) + intermediate
    return assembled


def _round_lane(sign: int, exponent: int, assembled: int) -> int:
    """Per-lane rounding unit: normalize (<=1 bit) and round to nearest even.

    ``assembled`` is the 21/22-bit product significand valued
    ``assembled * 2**(exponent - BIAS - 20)``.
    """
    shift = 1 if assembled >= (1 << 21) else 0
    biased = exponent + shift
    rounded = fp16.round_to_nearest_even(assembled, MANTISSA_BITS + shift)
    if rounded >= (1 << (MANTISSA_BITS + 1)):
        rounded >>= 1
        biased += 1
    if biased >= EXPONENT_SPECIAL:
        return combine(sign, EXPONENT_SPECIAL, 0)
    if biased < 1:
        # Underflow into the subnormal range: defer to the generic
        # datapath (the hardware flushes through the general core).
        raise _SubnormalLane()
    return combine(sign, biased, rounded & MANTISSA_MASK)


class _SubnormalLane(Exception):
    """Internal signal: a lane result left the normalized range."""


def parallel_fp_int_mul(
    a_bits: int, codes: list[int], weight_bits: int
) -> ParallelMulResult:
    """Multiply FP16 ``A`` by all packed signed weights in one cycle.

    Args:
        a_bits: raw FP16 bits of the activation.
        codes: signed weight codes; at most :func:`lanes` of them.
        weight_bits: 4 (INT4) or 2 (INT2).

    Returns:
        A :class:`ParallelMulResult` whose lane ``result_bits`` equal
        ``fp16_mul(a_bits, transformed_weight_bits(code))`` exactly.
    """
    max_lanes = lanes(weight_bits)
    if not codes or len(codes) > max_lanes:
        raise EncodingError(
            f"INT{weight_bits} multiplier takes 1..{max_lanes} codes, got {len(codes)}"
        )
    offset = rebias_offset(weight_bits)
    unsigned = []
    for code in codes:
        if not -offset <= code < offset:
            raise EncodingError(f"code {code} out of INT{weight_bits} range")
        unsigned.append(code + offset)

    if not (is_normalized(a_bits) or is_zero(a_bits)):
        # Subnormal / inf / NaN activations bypass the fast datapath;
        # results remain bit-identical via the generic multiplier.
        return _fallback(a_bits, codes, weight_bits)

    sign_a, exp_a, man_a = split(a_bits)
    sign_out = sign_a ^ 0  # transformed weights are always positive
    shared_exponent = exp_a + TRANSFORM_EXPONENT - BIAS

    if is_zero(a_bits):
        zero = combine(sign_out, 0, 0)
        traces = tuple(LaneTrace(0, 0, zero) for _ in unsigned)
        return ParallelMulResult(sign_out, 0, traces)

    sig_a = (1 << MANTISSA_BITS) | man_a  # 11-bit 1.m_A
    intermediates = parallel_int11_mul(sig_a, unsigned, weight_bits)

    traces = []
    for inter in intermediates:
        assembled = _assemble_mantissa(sig_a, inter)
        try:
            result = _round_lane(sign_out, shared_exponent, assembled)
        except _SubnormalLane:
            return _fallback(a_bits, codes, weight_bits)
        traces.append(LaneTrace(inter, assembled, result))
    return ParallelMulResult(sign_out, shared_exponent, tuple(traces))


def _fallback(a_bits: int, codes: list[int], weight_bits: int) -> ParallelMulResult:
    """Generic-path results for operands outside the fast datapath."""
    traces = []
    for code in codes:
        t_bits = transformed_weight_bits(code, weight_bits)
        traces.append(LaneTrace(0, 0, fp16_mul(a_bits, t_bits)))
    sign = split(a_bits)[0]
    return ParallelMulResult(sign, 0, tuple(traces))


def reference_products(a_bits: int, codes: list[int], weight_bits: int) -> list[int]:
    """Dequantize-then-multiply reference: what the baseline flow computes.

    Each transformed weight is encoded to FP16 exactly and multiplied by
    the standard datapath; the parallel multiplier must match these bits.
    """
    return [
        fp16_mul(a_bits, transformed_weight_bits(code, weight_bits)) for code in codes
    ]
