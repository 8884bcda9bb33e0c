"""PacQ's compute units: integer arrays, parallel FP-INT multiplier, DP units.

* :mod:`repro.multiplier.int11` — significand multiplier arrays and
  their adder inventories (Table I).
* :mod:`repro.multiplier.parallel` — the bit-exact parallel FP-INT
  multiplier of Fig. 5.
* :mod:`repro.multiplier.dp` — DP-4/8/16 cycle models and the fused
  Eq. (1) correction.
"""

from repro.multiplier.dp import (
    BASELINE_DP4,
    PACQ_DP4_INT2,
    PACQ_DP4_INT4,
    PIPELINE_FILL,
    CycleBreakdown,
    DpConfig,
    TileWork,
    corrected_dot,
    corrected_dot_reference,
    cycles_for,
    fig8_dp4_workload,
    packed_outputs,
    pacq_dp,
    throughput,
)
from repro.multiplier.int11 import (
    BASELINE_INT11_INVENTORY,
    PARALLEL_INT11_INVENTORY,
    PARALLEL_INT11_REUSED,
    AdderInventory,
    baseline_int11_mul,
    parallel_int11_mul,
)
from repro.multiplier.parallel import (
    LaneTrace,
    ParallelMulResult,
    lanes,
    parallel_fp_int_mul,
    rebias_offset,
    reference_products,
    transform_offset,
    transformed_weight_bits,
)

__all__ = [
    "AdderInventory",
    "BASELINE_DP4",
    "BASELINE_INT11_INVENTORY",
    "CycleBreakdown",
    "DpConfig",
    "LaneTrace",
    "PACQ_DP4_INT2",
    "PACQ_DP4_INT4",
    "PARALLEL_INT11_INVENTORY",
    "PARALLEL_INT11_REUSED",
    "PIPELINE_FILL",
    "ParallelMulResult",
    "TileWork",
    "baseline_int11_mul",
    "corrected_dot",
    "corrected_dot_reference",
    "cycles_for",
    "fig8_dp4_workload",
    "lanes",
    "packed_outputs",
    "pacq_dp",
    "parallel_fp_int_mul",
    "parallel_int11_mul",
    "rebias_offset",
    "reference_products",
    "throughput",
    "transform_offset",
    "transformed_weight_bits",
]
