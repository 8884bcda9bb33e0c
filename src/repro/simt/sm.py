"""Streaming-multiprocessor and full-GEMM assembly (paper Table I).

An SM hosts 8 tensor cores behind a 96 KB L1; each tensor core's four
DP-4 units serve two octets.  A GEMM is tiled into warp-level
``mma.sync.m16n16k16`` operations (Fig. 3(a)), each decomposed into
four octet workloads whose traced activity and cycles come from
:mod:`repro.simt.octet` / :mod:`repro.simt.tensorcore`.  The general
core contributes unpack/dequant instructions (standard flow) or
correction/scale instructions (PacQ) per
:mod:`repro.simt.memoryhier`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError
from repro.quant.groups import GroupSpec
from repro.simt.flows import FlowConfig
from repro.simt.instruction import MMA_M16N16K16, OCTETS_PER_WARP, MmaShape
from repro.simt.memoryhier import GemmShape, general_core_work, hierarchy_traffic
from repro.simt.octet import OctetArch, OctetTrace, simulate_octet
from repro.simt.stats import RfTraffic, SimStats
from repro.simt.tensorcore import TensorCoreConfig, dp_busy_cycles, octet_cycles
from repro.simt.warp import decompose


@dataclass(frozen=True)
class MachineConfig:
    """SM-level machine parameters (Table I defaults).

    ``dram_beats_per_cycle`` is the off-chip bandwidth in 16-bit beats
    per core cycle per SM (Volta-class: ~900 GB/s across ~14 SMs at
    1.4 GHz is ~24 beats/cycle/SM).  It bounds the memory-bound regime
    of Fig. 1: single-batch GEMMs stall on weight traffic, which is
    where weight-only quantization already pays on stock hardware.
    """

    num_sms: int = 1
    tensor_cores_per_sm: int = 8
    octets_per_tensor_core: int = 2
    general_alus_per_sm: int = 64
    dram_beats_per_cycle: float = 24.0

    @property
    def octet_slots(self) -> int:
        return self.num_sms * self.tensor_cores_per_sm * self.octets_per_tensor_core

    @property
    def general_alu_slots(self) -> int:
        return self.num_sms * self.general_alus_per_sm

    @property
    def dram_beat_slots(self) -> float:
        return self.num_sms * self.dram_beats_per_cycle


@dataclass(frozen=True)
class GemmSimConfig:
    """Everything needed to price one GEMM under one flow."""

    machine: MachineConfig = MachineConfig()
    octet: OctetArch = OctetArch()
    core: TensorCoreConfig = TensorCoreConfig()
    mma: MmaShape = MMA_M16N16K16
    group: GroupSpec | None = None


#: The paper's full-GEMM simulation setup (shared default).
DEFAULT_SIM_CONFIG = GemmSimConfig()


def _check_tileable(shape: GemmShape, mma: MmaShape) -> tuple[int, int, int]:
    if shape.m % mma.m or shape.n % mma.n or shape.k % mma.k:
        raise ConfigError(f"{shape.name} is not tileable by {mma.name}")
    return shape.m // mma.m, shape.n // mma.n, shape.k // mma.k


@lru_cache(maxsize=None)
def _octet_trace(flow: FlowConfig, mma: MmaShape, octet: OctetArch) -> OctetTrace:
    """The one octet trace of ``mma`` under ``flow`` (shape-independent)."""
    return simulate_octet(flow, decompose(mma)[0], octet)


def simulate_gemm(
    flow: FlowConfig, shape: GemmShape, config: GemmSimConfig = DEFAULT_SIM_CONFIG
) -> SimStats:
    """Full-GEMM simulation: cycles, RF beats, hierarchy traffic.

    The GEMM is tiled into identical warp MMAs, so one octet is traced
    and its measured activity scaled by the tile count — exact because
    the flows are data-independent.  The trace depends on neither the
    shape nor the machine, so it is taken once per ``(flow, mma,
    octet)`` and shared by every GEMM priced under them.  Cross-MMA
    partial-sum round trips (the DP accumulators only persist within
    one MMA) are added for every k-step beyond the first.
    """
    mt, nt, kt = _check_tileable(shape, config.mma)
    mma_count = mt * nt * kt
    trace = _octet_trace(flow, config.mma, config.octet)
    per_octet_cycles = octet_cycles(flow, trace, config.octet, config.core)
    octets_total = mma_count * OCTETS_PER_WARP

    rf = RfTraffic(
        a_reads=trace.a_reads,
        b_reads=trace.b_reads,
        c_reads=trace.c_reads,
        c_writes=trace.c_writes,
    ).scaled(octets_total)

    # Cross-MMA psum accumulation: every k-step beyond the first
    # re-reads the octet's 8x8 C tile from the RF.
    nonfirst_octets = mt * nt * (kt - 1) * OCTETS_PER_WARP
    rf.c_reads += nonfirst_octets * trace.outputs

    general = general_core_work(flow, shape, config.group)
    rf.b_reads += general.rf_reads
    rf.c_writes += general.rf_writes  # dequantized FP16 weights staged in RF

    tc_cycles = math.ceil(
        octets_total * per_octet_cycles / config.machine.octet_slots
    )
    dequant_cycles = math.ceil(
        general.dequant_instructions / config.machine.general_alu_slots
    )
    mem = hierarchy_traffic(flow, shape)
    dram_cycles = math.ceil(mem.dram / config.machine.dram_beat_slots)
    cycles = max(tc_cycles, dequant_cycles, dram_cycles)
    return SimStats(
        cycles=cycles,
        rf=rf,
        mem=mem,
        fetch_instructions=trace.fetch_instructions * octets_total,
        dequant_instructions=general.dequant_instructions,
        scale_fetches=general.scale_fetches,
        products=trace.products * octets_total,
        outputs=shape.m * shape.n,
        buffer_evictions=trace.evictions * octets_total,
    )


def dp_busy_cycles_for_gemm(
    flow: FlowConfig, shape: GemmShape, config: GemmSimConfig = DEFAULT_SIM_CONFIG
) -> int:
    """Total DP-unit busy cycles across the whole GEMM (energy input)."""
    mt, nt, kt = _check_tileable(shape, config.mma)
    trace = _octet_trace(flow, config.mma, config.octet)
    per_octet_busy = dp_busy_cycles(flow, trace, config.octet, config.core)
    return per_octet_busy * mt * nt * kt * OCTETS_PER_WARP
