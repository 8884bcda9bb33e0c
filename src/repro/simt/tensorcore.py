"""Tensor-core pipeline cycle model.

Consumes the per-tile issue list produced by the octet simulator and
prices each tile on the octet's DP units via the validated cycle model
of :mod:`repro.multiplier.dp` (the one reproducing the paper's
11/19/35-cycle datapoints).  Operand-fetch instruction pressure is
overlapped against compute up to the octet's fetch-port bandwidth;
the pipeline fill is paid once because consecutive tiles stream
through the same pipeline.

Flow -> DP configuration:

* standard / W16A16 and ``P(Bx)k``: baseline FP16 DP-4s (``pack=1`` —
  k-packed weights multiply different activations, so the parallel
  multiplier is inapplicable even though the data is packed);
* PacQ: parallel FP-INT DP-4s with ``pack = 16 / weight_bits`` and
  dup-2 adder trees (configurable for the Fig. 11/12 ablations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.multiplier.dp import PIPELINE_FILL, DpConfig, TileWork, cycles_for
from repro.simt.flows import FlowConfig
from repro.simt.octet import DEFAULT_OCTET_ARCH, OctetArch, OctetTrace


@dataclass(frozen=True)
class TensorCoreConfig:
    """DP-unit parameters of the tensor core under a given flow."""

    dp_width: int = 4
    adder_tree_dup: int = 2  #: PacQ default (Fig. 11's knee)

    def dp_config(self, flow: FlowConfig) -> DpConfig:
        if flow.uses_parallel_multiplier:
            return DpConfig(
                width=self.dp_width,
                pack=flow.pack_factor,
                dup=self.adder_tree_dup,
            )
        return DpConfig(width=self.dp_width, pack=1, dup=1)


#: The paper's tensor-core configuration (shared default).
DEFAULT_CORE = TensorCoreConfig()


def octet_cycles(
    flow: FlowConfig,
    trace: OctetTrace,
    arch: OctetArch = DEFAULT_OCTET_ARCH,
    core: TensorCoreConfig = DEFAULT_CORE,
) -> int:
    """End-to-end cycles for one octet's traced workload."""
    if not trace.tile_issues:
        raise ConfigError("trace carries no tile issues")
    compute = dp_busy_cycles(flow, trace, arch, core)
    fetch = math.ceil(trace.fetch_instructions / arch.fetch_ports)
    return PIPELINE_FILL + max(compute, fetch)


def dp_busy_cycles(
    flow: FlowConfig,
    trace: OctetTrace,
    arch: OctetArch = DEFAULT_OCTET_ARCH,
    core: TensorCoreConfig = DEFAULT_CORE,
) -> int:
    """Cycles the DP units are actually issuing (for energy accounting)."""
    dp = core.dp_config(flow)
    busy = 0
    for outputs, k_span in trace.tile_issues:
        per_dp_outputs = math.ceil(outputs / arch.dp_units)
        breakdown = cycles_for(dp, TileWork(per_dp_outputs, k_span))
        busy += max(breakdown.mul_cycles, breakdown.adder_cycles)
    return busy
