"""PacQ core: architectures, functional GEMM, metrics, experiments.

* :mod:`repro.core.arch` — Table I architecture presets.
* :mod:`repro.core.gemm` — functional hyper-asymmetric GEMM API.
* :mod:`repro.core.workloads` — LLM GEMM shapes.
* :mod:`repro.core.metrics` — energy / EDP / throughput-per-watt.
* :mod:`repro.core.experiments` — one runner per paper table/figure.
* :mod:`repro.core.report` — plain-text result tables.
"""

from repro.core.arch import (
    Architecture,
    packed_k_baseline,
    pacq,
    standard_dequant,
    table1_inventory,
    volta_w16a16,
)
from repro.core.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    ResultRow,
    fig7a,
    fig7b,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12a,
    fig12b,
    table1,
    table2,
)
from repro.core.gemm import dequant_reference, hyper_gemm, pack_for_flow
from repro.core.metrics import (
    EnergyReport,
    EvalResult,
    edp_reduction,
    evaluate,
    normalized_edp,
    speedup,
    throughput_per_watt,
)
from repro.core.report import render_table
from repro.core.roofline import (
    MachineRoofline,
    RooflinePoint,
    analyze,
    crossover_batch,
    machine_for,
)
from repro.core.workloads import (
    LLAMA2_7B,
    LLAMA2_13B,
    OPT_6_7B,
    LlmSpec,
    batch_sweep,
    fig10_workload,
    microbench_workload,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "Architecture",
    "EnergyReport",
    "EvalResult",
    "ExperimentResult",
    "LLAMA2_13B",
    "LLAMA2_7B",
    "LlmSpec",
    "MachineRoofline",
    "OPT_6_7B",
    "ResultRow",
    "RooflinePoint",
    "analyze",
    "batch_sweep",
    "crossover_batch",
    "machine_for",
    "dequant_reference",
    "edp_reduction",
    "evaluate",
    "fig10",
    "fig10_workload",
    "fig11",
    "fig12a",
    "fig12b",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "hyper_gemm",
    "microbench_workload",
    "normalized_edp",
    "pack_for_flow",
    "packed_k_baseline",
    "pacq",
    "render_table",
    "speedup",
    "standard_dequant",
    "table1",
    "table1_inventory",
    "table2",
    "throughput_per_watt",
    "volta_w16a16",
]
