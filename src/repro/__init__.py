"""PacQ reproduction: SIMT microarchitecture for hyper-asymmetric GEMMs.

Python reproduction of *"PacQ: A SIMT Microarchitecture for Efficient
Dataflow in Hyper-asymmetric GEMMs"* (Yin, Li, Panda - DAC 2025).

Sub-packages:

* :mod:`repro.fp` - bit-exact IEEE-754 binary16 arithmetic.
* :mod:`repro.quant` - RTN PTQ, group geometry, ``P(Bx)y`` packing.
* :mod:`repro.multiplier` - the parallel FP-INT multiplier + DP units.
* :mod:`repro.energy` - analytical 32 nm cost model (DC/CACTI stand-in).
* :mod:`repro.simt` - trace-driven octet / tensor-core / SM simulator.
* :mod:`repro.engine` - GEMM execution engine
  (plan/execute split, one backend table).
* :mod:`repro.core` - architectures, functional GEMM, metrics,
  experiment runners for every paper table and figure.
* :mod:`repro.harness` - experiment orchestration: declarative sweeps,
  content-addressed result caching, serial/parallel execution,
  JSON/CSV/EXPERIMENTS.md artifact emission.
* :mod:`repro.mixgemm` - Mix-GEMM (binary segmentation) comparator.
* :mod:`repro.llm` - synthetic-LM substrate for Table II.
* :mod:`repro.model` - model-level quantization policies, directory
  checkpoints, and KV-cached inference sessions (the serving API).

Quickstart::

    import numpy as np
    from repro.quant import GroupSpec, quantize_rtn
    from repro.core import hyper_gemm, pacq, evaluate, fig10_workload

    weights = np.random.default_rng(0).normal(size=(4096, 4096))
    qweights = quantize_rtn(weights, bits=4, group=GroupSpec(128))
    activations = np.random.default_rng(1).normal(size=(16, 4096))
    outputs = hyper_gemm(activations, qweights)          # PacQ compute path
    result = evaluate(pacq(4), fig10_workload())          # PacQ cost model
"""

from repro import (
    core,
    energy,
    engine,
    fp,
    harness,
    llm,
    mixgemm,
    model,
    multiplier,
    quant,
    simt,
)
from repro.core import evaluate, hyper_gemm, pacq, standard_dequant
from repro.errors import (
    ConfigError,
    EncodingError,
    QuantizationError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "EncodingError",
    "QuantizationError",
    "ReproError",
    "SimulationError",
    "__version__",
    "core",
    "energy",
    "engine",
    "evaluate",
    "fp",
    "harness",
    "hyper_gemm",
    "llm",
    "mixgemm",
    "model",
    "multiplier",
    "pacq",
    "quant",
    "simt",
    "standard_dequant",
]
