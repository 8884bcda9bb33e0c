"""Integer significand multiplier arrays (paper Fig. 5(c), Table I).

An FP16 multiplier's core is an 11x11-bit unsigned multiplier for the
two hidden-bit-extended mantissas.  Table I of the paper inventories
it as **10 parallel INT16 adders** (one per non-LSB partial-product
row).  PacQ's parallel variant splits the array into four 11x4-bit
multiplications that run simultaneously, adding **2 INT16 adders and
4 INT6 adders** to the baseline array (Table I: ``Parallel INT11 MUL =
12 INT16 adders, 4 INT6 adders``).

This module models both arrays at the level the paper reasons about:
partial-product rows ANDed from the operands and reduced by counted
adders.  The value results are exact integers (verified against ``*``),
and the :class:`AdderInventory` feeds the energy model so the Fig. 9
power breakdowns derive from the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EncodingError

#: Width of the hidden-bit-extended FP16 significand.
SIGNIFICAND_BITS = 11


@dataclass(frozen=True)
class AdderInventory:
    """Counted adder resources of a multiplier array.

    ``adders`` maps adder bit-width -> count, mirroring Table I rows.
    """

    adders: dict[int, int] = field(default_factory=dict)

    def total_full_adder_bits(self) -> int:
        """Sum of width x count — the quantity the power model scales with."""
        return sum(width * count for width, count in self.adders.items())

    def merged_with(self, other: "AdderInventory") -> "AdderInventory":
        merged = dict(self.adders)
        for width, count in other.adders.items():
            merged[width] = merged.get(width, 0) + count
        return AdderInventory(merged)


#: Baseline 11x11 array: 11 partial-product rows reduced by 10 adders.
BASELINE_INT11_INVENTORY = AdderInventory({16: 10})
#: Parallel array: baseline's 10 adders + 2 extra INT16 + 4 INT6 adders.
PARALLEL_INT11_INVENTORY = AdderInventory({16: 12, 6: 4})
#: The subset of the parallel array inherited from the baseline design.
PARALLEL_INT11_REUSED = AdderInventory({16: 10})


def _check_unsigned(value: int, bits: int, name: str) -> None:
    if not 0 <= value < (1 << bits):
        raise EncodingError(f"{name} out of {bits}-bit unsigned range: {value}")


def partial_product_rows(a: int, b: int, b_bits: int) -> list[int]:
    """The AND-plane rows of an ``11 x b_bits`` array multiplier.

    Row ``j`` is ``a AND-replicated by bit j of b``, already shifted
    into position, so ``sum(rows) == a * b``.
    """
    _check_unsigned(a, SIGNIFICAND_BITS, "a")
    _check_unsigned(b, b_bits, "b")
    rows = []
    for j in range(b_bits):
        row = a if (b >> j) & 1 else 0
        rows.append(row << j)
    return rows


def baseline_int11_mul(a: int, b: int) -> int:
    """Exact 11x11 unsigned multiply via the modelled partial-product array."""
    rows = partial_product_rows(a, b, SIGNIFICAND_BITS)
    total = 0
    for row in rows:  # reduction through the 10-adder chain
        total += row
    assert total == a * b
    return total


def parallel_int11_mul(a: int, b_values: list[int], b_bits: int) -> list[int]:
    """Exact parallel ``11 x b_bits`` multiplies sharing one array.

    Computes ``a * b`` for every packed weight field in one pass,
    modelling the split array of Fig. 5(c).  ``b_bits`` is 4 for INT4
    (four lanes) or 2 for INT2 (eight lanes).
    """
    if b_bits not in (2, 4):
        raise EncodingError(f"parallel array supports 2- or 4-bit lanes, not {b_bits}")
    results = []
    for b in b_values:
        rows = partial_product_rows(a, b, b_bits)
        total = 0
        for row in rows:
            total += row
        assert total == a * b
        results.append(total)
    return results
