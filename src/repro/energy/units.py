"""Per-unit energy/area costs assembled from Table I inventories.

Each builder returns a :class:`UnitCost` whose components are tagged
``reused`` (inherited from the baseline design) or ``extra`` (added by
PacQ), so the Fig. 9 power breakdowns and the Fig. 8 throughput/watt
comparisons derive from one shared structural model.

Component inventories follow Table I of the paper verbatim:

===========================  ==============================================
INT11 MUL (baseline)         10 INT16 adders
Parallel INT11 MUL           12 INT16 adders, 4 INT6 adders
FP16 MUL (baseline)          1 INT11 MUL, 1 INT5 adder,
                             1 normalization unit, 1 rounding unit
Parallel FP-INT-16 MUL       1 parallel INT11 MUL, 1 INT5 adder,
                             1 normalization unit, 4 rounding units
FP-16 DP-4 (baseline)        4 FP16 MUL, 4 FP16 adders
Parallel FP-INT-16 DP-4      4 parallel FP-INT-16 MUL, 8 FP16 adders
Tensor core                  4 DP-4 units
===========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.tech import DEFAULT_TECH, TechnologyModel
from repro.errors import ConfigError
from repro.multiplier.int11 import SIGNIFICAND_BITS


@dataclass(frozen=True)
class Component:
    """One energy-bearing component of a unit."""

    name: str
    energy: float
    reused: bool = True  #: inherited from the baseline design?
    category: str = "other"  #: adders / mul / rounding / other — for Fig. 9


@dataclass(frozen=True)
class UnitCost:
    """Energy cost of one hardware unit, per fully-utilized cycle."""

    name: str
    components: tuple[Component, ...] = field(default_factory=tuple)

    @property
    def energy_per_op(self) -> float:
        return sum(component.energy for component in self.components)

    @property
    def reused_energy(self) -> float:
        return sum(c.energy for c in self.components if c.reused)

    @property
    def extra_energy(self) -> float:
        return sum(c.energy for c in self.components if not c.reused)

    @property
    def reuse_fraction(self) -> float:
        total = self.energy_per_op
        if total == 0:
            raise ConfigError(f"unit {self.name} has zero energy")
        return self.reused_energy / total

    def scaled(self, name: str, factor: float) -> "UnitCost":
        """A copy with every component energy scaled by ``factor``."""
        return UnitCost(
            name,
            tuple(
                Component(c.name, c.energy * factor, c.reused, c.category)
                for c in self.components
            ),
        )

    def merged_with(self, other: "UnitCost", name: str) -> "UnitCost":
        return UnitCost(name, self.components + other.components)


#: Effective toggled width of the INT16 adders in the parallel array
#: (they reduce 4-row columns; see tech.py calibration notes).
PARALLEL_ADDER_EFFECTIVE_WIDTH = 12


def int11_mul_baseline(tech: TechnologyModel = DEFAULT_TECH) -> UnitCost:
    """Baseline 11x11 significand multiplier: 10 INT16 adders + AND plane."""
    return UnitCost(
        "INT11 MUL (baseline)",
        (
            Component(
                "and-plane 11x11",
                tech.and_gate_bit * SIGNIFICAND_BITS * SIGNIFICAND_BITS,
                reused=True,
                category="mul",
            ),
            Component(
                "10x INT16 adders",
                10 * tech.adder_energy(16),
                reused=True,
                category="adders",
            ),
        ),
    )


def int11_mul_parallel(tech: TechnologyModel = DEFAULT_TECH) -> UnitCost:
    """Parallel INT11 MUL: the baseline's 10 adders reused, 2 INT16 + 4 INT6 added.

    The reused adders run at reduced effective width (narrow lanes);
    the AND plane shrinks to four 11x4 lanes.
    """
    return UnitCost(
        "Parallel INT11 MUL",
        (
            Component(
                "and-plane 4x(11x4)",
                tech.and_gate_bit * SIGNIFICAND_BITS * 4 * 4,
                reused=True,
                category="mul",
            ),
            Component(
                "10x INT16 adders (reused)",
                10 * tech.adder_energy(16, PARALLEL_ADDER_EFFECTIVE_WIDTH),
                reused=True,
                category="adders",
            ),
            Component(
                "2x INT16 adders (extra)",
                2 * tech.adder_energy(16, PARALLEL_ADDER_EFFECTIVE_WIDTH),
                reused=False,
                category="adders",
            ),
            Component(
                "4x INT6 adders (extra)",
                4 * tech.adder_energy(6),
                reused=False,
                category="adders",
            ),
        ),
    )


def fp16_mul_baseline(tech: TechnologyModel = DEFAULT_TECH) -> UnitCost:
    """Baseline FP16 multiplier (Fig. 5(a))."""
    core = int11_mul_baseline(tech)
    return UnitCost(
        "FP16 MUL (baseline)",
        core.components
        + (
            Component("INT5 exponent adder", tech.adder_energy(5), True, "adders"),
            Component("normalization unit", tech.lzc_normalizer, True, "other"),
            Component("rounding unit", tech.rounding_unit, True, "rounding"),
            Component("pipeline registers", tech.register_energy(38), True, "other"),
        ),
    )


def fp_int16_mul_parallel(
    weight_bits: int = 4, tech: TechnologyModel = DEFAULT_TECH
) -> UnitCost:
    """Parallel FP-INT-16 multiplier (Fig. 5(b)); INT4 or INT2 lanes."""
    if weight_bits not in (2, 4):
        raise ConfigError(f"unsupported weight precision INT{weight_bits}")
    num_lanes = 16 // weight_bits
    core = int11_mul_parallel(tech)
    return UnitCost(
        f"Parallel FP-INT-16 MUL (INT{weight_bits})",
        core.components
        + (
            Component("INT5 exponent adder", tech.adder_energy(5), True, "adders"),
            Component("normalization unit", tech.lzc_normalizer, True, "other"),
            Component(
                "rounding unit (reused)", tech.rounding_unit, True, "rounding"
            ),
            Component(
                f"{num_lanes - 1}x rounding units (extra)",
                (num_lanes - 1) * tech.rounding_unit,
                False,
                "rounding",
            ),
            Component("pipeline registers", tech.register_energy(38), True, "other"),
            Component(
                "lane output registers (extra)",
                tech.register_energy(16 * (num_lanes - 1)),
                False,
                "other",
            ),
        ),
    )


def fp16_adder(tech: TechnologyModel = DEFAULT_TECH) -> UnitCost:
    """One FP16 adder: align, 13-bit significand add, renormalize, round."""
    return UnitCost(
        "FP16 adder",
        (
            Component("align shifter", tech.shifter_energy(13, 4), True, "adders"),
            Component("13-bit significand adder", tech.adder_energy(13), True, "adders"),
            Component("normalization unit", tech.lzc_normalizer, True, "other"),
            Component("rounding unit", tech.rounding_unit, True, "rounding"),
            Component("pipeline registers", tech.register_energy(18), True, "other"),
        ),
    )


def dp_unit(
    width: int = 4,
    pack: int = 1,
    dup: int = 1,
    tech: TechnologyModel = DEFAULT_TECH,
) -> UnitCost:
    """A DP unit: ``width`` multipliers + ``dup`` adder-tree ways.

    ``pack == 1`` builds the baseline FP16 DP; ``pack in (4, 8)``
    builds the parallel FP-INT DP with weight precision ``16 / pack``.
    PacQ's extra adder-tree ways and the sum(A) accumulators are tagged
    ``extra`` per Fig. 9.
    """
    if pack == 1:
        mul = fp16_mul_baseline(tech)
    else:
        mul = fp_int16_mul_parallel(16 // pack, tech)
    adder = fp16_adder(tech)

    components: list[Component] = []
    for i in range(width):
        for c in mul.components:
            components.append(
                Component(f"mul{i}/{c.name}", c.energy, c.reused, c.category)
            )
    for way in range(dup):
        reused_way = way == 0  # the baseline ships one tree way
        for j in range(width):
            for c in adder.components:
                components.append(
                    Component(
                        f"tree{way}/add{j}/{c.name}", c.energy, reused_way, c.category
                    )
                )
    if pack > 1:
        # Small accumulators for sum(A) (Eq. (1) fusion) + psum regs.
        components.append(
            Component(
                "sum(A) accumulators",
                tech.adder_energy(16) + tech.register_energy(16),
                False,
                "other",
            )
        )
    name = "FP-16 DP-{w} (baseline)" if pack == 1 else "Parallel FP-INT-16 DP-{w}"
    return UnitCost(name.format(w=width), tuple(components))


def tensor_core(
    width: int = 4,
    pack: int = 1,
    dup: int = 1,
    num_dp: int = 4,
    tech: TechnologyModel = DEFAULT_TECH,
) -> UnitCost:
    """A tensor core: ``num_dp`` DP units + operand buffers (Table I)."""
    dp = dp_unit(width, pack, dup, tech)
    components = []
    for i in range(num_dp):
        for c in dp.components:
            components.append(Component(f"dp{i}/{c.name}", c.energy, c.reused, c.category))
    # Two 3072-bit operand buffers (Table I); charged per active cycle.
    components.append(
        Component("operand buffers", tech.register_energy(128), True, "other")
    )
    kind = "baseline" if pack == 1 else f"PacQ INT{16 // pack}"
    return UnitCost(f"Tensor core ({kind})", tuple(components))
