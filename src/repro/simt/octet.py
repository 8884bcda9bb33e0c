"""Trace-driven octet simulator: register-file traffic per flow.

This is the reproduction of the paper's "custom simulator in Python to
monitor memory access patterns" (Section V).  Each flow's loop nest is
executed literally: every operand-element touch goes through the
octet's operand buffers (:mod:`repro.simt.buffers`); buffer misses
count register-file beats, evictions are recorded, and operand-fetch
*instructions* are counted separately (the Fig. 4(a) overhead).

The hardware configuration mirrors Fig. 3(d): two A buffers of one
2x4 FP16 tile each (16 beats combined), a shared B buffer of one 4x4
tile (16 beats), and two DP-4 units per octet.  Partial sums live in
the register file for the weight-stationary flows and in the DP
accumulators for PacQ's output-stationary flow.

Loop nests
----------
* Standard / W16A16 (weight-stationary movement, Fig. 3(c)): for each
  ``(kt, nt)`` the B tile is staged once; A tiles stream over ``mt``;
  psums round-trip through the RF once per k-tile.
* ``P(Bx)k``: a B tile is four packed words covering ``k = x`` for
  four ``n`` columns.  Each word is consumed in ``x / 4`` DP-4 passes;
  every pass issues its own A-fetch instruction.  Pass order is
  k-chunk-major so a staged A chunk serves all four words before the
  next chunk evicts it (the fields of a fetched word are latched).
  Whenever the tile's A footprint exceeds the A buffers (INT2), the
  trace thrashes and the extra RF reads are *measured*.
* PacQ ``P(Bx)n``: output-stationary movement; a B tile is four words
  covering ``k = 4`` and ``x`` output columns; one staged A tile
  serves all ``x`` columns (the parallel multiplier consumes one
  activation against a whole word) and psums never leave the DP
  accumulators until the final write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simt.buffers import OperandBuffer
from repro.simt.flows import FlowConfig, FlowKind
from repro.simt.warp import OctetWorkload

#: Elements along one tile edge consumed by a DP-4 pass.
TILE = 4


@dataclass(frozen=True)
class OctetArch:
    """Per-octet hardware parameters (Fig. 3(d) / Table I)."""

    a_buffer_beats: int = 16  #: two 2x4 FP16 tiles
    b_buffer_beats: int = 16  #: one 4x4 tile (elements or packed words)
    dp_units: int = 2
    fetch_ports: int = 2

    def __post_init__(self) -> None:
        if min(self.a_buffer_beats, self.b_buffer_beats, self.dp_units) < 1:
            raise ConfigError(f"invalid octet architecture: {self}")


#: The paper's octet configuration (shared default for all tracers).
DEFAULT_OCTET_ARCH = OctetArch()


@dataclass(frozen=True)
class OctetTrace:
    """Measured register-file / instruction activity of one octet GEMM.

    Frozen because :mod:`repro.simt.sm` memoizes one trace per
    ``(flow, mma, octet)`` and shares it across every GEMM shape.
    """

    a_reads: int = 0
    b_reads: int = 0
    c_reads: int = 0
    c_writes: int = 0
    fetch_instructions: int = 0
    evictions: int = 0
    products: int = 0
    outputs: int = 0
    tile_issues: tuple[tuple[int, int], ...] = ()
    #: each entry: (outputs_in_tile, k_span_of_tile) for the cycle model

    @property
    def rf_total(self) -> int:
        return self.a_reads + self.b_reads + self.c_reads + self.c_writes


def _check_workload(flow: FlowConfig, work: OctetWorkload) -> None:
    if work.m % TILE or work.n % TILE or work.k % TILE:
        raise ConfigError(f"octet workload {work} is not 4x4x4-tileable")
    pack = flow.pack_factor
    if flow.kind is FlowKind.PACKED_K and work.k % pack:
        raise ConfigError(f"k={work.k} not divisible by pack factor {pack}")
    if flow.kind is FlowKind.PACQ and work.n % pack:
        raise ConfigError(f"n={work.n} not divisible by pack factor {pack}")


def simulate_octet(
    flow: FlowConfig, work: OctetWorkload, arch: OctetArch = DEFAULT_OCTET_ARCH
) -> OctetTrace:
    """Run one octet's GEMM under ``flow`` and measure its activity."""
    _check_workload(flow, work)
    if flow.kind is FlowKind.STANDARD_DEQUANT:
        return _trace_weight_stationary(work, arch, pack=1)
    if flow.kind is FlowKind.PACKED_K:
        return _trace_packed_k(work, arch, pack=flow.pack_factor)
    return _trace_pacq(work, arch, pack=flow.pack_factor)


def _trace_weight_stationary(
    work: OctetWorkload, arch: OctetArch, pack: int
) -> OctetTrace:
    """Fig. 3(c): WS tile movement, OS tile computation, FP16 operands."""
    del pack  # weights are FP16 beats after dequantization
    a_buf = OperandBuffer("A", arch.a_buffer_beats)
    b_buf = OperandBuffer("B", arch.b_buffer_beats)
    a_reads = b_reads = c_reads = c_writes = fetches = products = 0
    tile_issues: list[tuple[int, int]] = []

    for kt in range(work.k // TILE):
        for nt in range(work.n // TILE):
            fetches += 1  # B tile fetch
            for kk in range(TILE):
                for nn in range(TILE):
                    if not b_buf.access(("B", kt * TILE + kk, nt * TILE + nn)):
                        b_reads += 1
            for mt in range(work.m // TILE):
                fetches += 1  # A tile fetch
                for mm in range(TILE):
                    for kk in range(TILE):
                        if not a_buf.access(("A", mt * TILE + mm, kt * TILE + kk)):
                            a_reads += 1
                # Partial sums round-trip through the RF per k-tile.
                if kt > 0:
                    c_reads += TILE * TILE
                    fetches += 1
                c_writes += TILE * TILE
                fetches += 1
                products += TILE * TILE * TILE
                tile_issues.append((TILE * TILE, TILE))
    return OctetTrace(
        a_reads=a_reads, b_reads=b_reads, c_reads=c_reads, c_writes=c_writes,
        fetch_instructions=fetches, products=products, outputs=work.outputs,
        evictions=a_buf.stats.evictions + b_buf.stats.evictions,
        tile_issues=tuple(tile_issues),
    )


def _trace_packed_k(work: OctetWorkload, arch: OctetArch, pack: int) -> OctetTrace:
    """``P(Bx)k``: packed words along k, WS movement, serial activation use."""
    a_buf = OperandBuffer("A", arch.a_buffer_beats)
    b_buf = OperandBuffer("B", arch.b_buffer_beats)
    a_reads = b_reads = c_reads = c_writes = fetches = products = 0
    tile_issues: list[tuple[int, int]] = []
    chunks_per_word = pack // TILE  # DP-4 passes to drain one word

    for kwt in range(work.k // pack):  # one word-row of B per tile step
        for nt in range(work.n // TILE):
            fetches += 1  # B tile fetch (4 packed words)
            for nn in range(TILE):
                if not b_buf.access(("Bw", kwt, nt * TILE + nn)):
                    b_reads += 1
            for mt in range(work.m // TILE):
                # k-chunk-major drain: a staged A chunk serves all four
                # words before the next chunk evicts it; each (chunk,
                # word) pass still issues its own A-fetch instruction —
                # the Fig. 4(a) overhead is instructions, and becomes
                # data refetch whenever the footprint exceeds the
                # buffers (measured via the LRU, not assumed).
                for chunk in range(chunks_per_word):
                    for _nn in range(TILE):
                        fetches += 1  # A fetch per pass
                        for mm in range(TILE):
                            for kk in range(TILE):
                                k_index = kwt * pack + chunk * TILE + kk
                                if not a_buf.access(("A", mt * TILE + mm, k_index)):
                                    a_reads += 1
                        # One pass: 4 m-rows x 4 k against one n column.
                        products += TILE * TILE
                if kwt > 0:
                    c_reads += TILE * TILE
                    fetches += 1
                c_writes += TILE * TILE
                fetches += 1
                tile_issues.append((TILE * TILE, pack))
    return OctetTrace(
        a_reads=a_reads, b_reads=b_reads, c_reads=c_reads, c_writes=c_writes,
        fetch_instructions=fetches, products=products, outputs=work.outputs,
        evictions=a_buf.stats.evictions + b_buf.stats.evictions,
        tile_issues=tuple(tile_issues),
    )


def _trace_pacq(work: OctetWorkload, arch: OctetArch, pack: int) -> OctetTrace:
    """PacQ ``P(Bx)n``: OS movement + compute, parallel activation reuse."""
    a_buf = OperandBuffer("A", arch.a_buffer_beats)
    b_buf = OperandBuffer("B", arch.b_buffer_beats)
    a_reads = b_reads = c_writes = fetches = products = 0
    tile_issues: list[tuple[int, int]] = []

    for nt in range(work.n // pack):  # each word covers `pack` outputs
        for mt in range(work.m // TILE):
            for kt in range(work.k // TILE):
                fetches += 1  # B tile: 4 words (k x pack)
                for kk in range(TILE):
                    if not b_buf.access(("Bw", kt * TILE + kk, nt)):
                        b_reads += 1
                fetches += 1  # one A tile fetch, reused
                for mm in range(TILE):
                    for kk in range(TILE):
                        if not a_buf.access(("A", mt * TILE + mm, kt * TILE + kk)):
                            a_reads += 1
                products += TILE * TILE * pack
                tile_issues.append((TILE * pack, TILE))
            # Outputs leave the DP accumulators exactly once.
            c_writes += TILE * pack
            fetches += 1
    return OctetTrace(
        a_reads=a_reads, b_reads=b_reads, c_writes=c_writes,
        fetch_instructions=fetches, products=products, outputs=work.outputs,
        evictions=a_buf.stats.evictions + b_buf.stats.evictions,
        tile_issues=tuple(tile_issues),
    )
