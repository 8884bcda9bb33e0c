"""Multi-process data-parallel serving.

:class:`Router` runs N worker processes, each a
:class:`~repro.serve.Replica` of one shared checkpoint directory under
the router's :class:`~repro.serve.ServeConfig`, with
least-outstanding-tokens dispatch and fleet-merged GEMM histograms and
rejections.  It scales aggregate tokens/s with cores (given one BLAS
thread per worker); per-request latency is unchanged.  It rides
:mod:`repro.core.procutil` for process management and is wired into
``pacq-repro serve-sim`` via ``--workers N``.
"""

from repro.serve.shard.router import (
    FleetReport,
    Router,
    WorkerReport,
    queue_wait_percentiles,
)

__all__ = [
    "FleetReport",
    "Router",
    "WorkerReport",
    "queue_wait_percentiles",
]
