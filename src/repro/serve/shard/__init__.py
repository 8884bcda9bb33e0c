"""Multi-process data-parallel serving.

:class:`Router` runs N worker processes, each a full model loaded from
one shared checkpoint directory, with least-outstanding-tokens
dispatch and fleet-merged GEMM histograms.  It scales aggregate tokens/s
with cores (given one BLAS thread per worker); per-request latency is
unchanged.  It rides :mod:`repro.core.procutil` for process management
and is wired into ``pacq-repro serve-sim`` via ``--workers N``.
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
