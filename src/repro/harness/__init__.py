"""Experiment orchestration: sweeps, caching, parallel execution.

The harness turns the registered experiment runners
(:mod:`repro.core.experiments`) into an orchestrated pipeline:

1. **Specify** — :class:`SweepSpec` declares experiments x a parameter
   grid (e.g. every engine backend x every Table II group spec) and
   expands into independent :class:`Job` values.
2. **Execute** — :func:`run_jobs` resolves jobs against the
   content-addressed :class:`ResultCache` (keyed on experiment id +
   params + code version, so re-runs are incremental) and executes the
   misses serially or across a ``multiprocessing`` pool.
3. **Emit** — outcomes become :class:`repro.core.report.RunRecord`
   values that the report sink layer renders as per-run JSON, merged
   CSV, and the committed ``EXPERIMENTS.md`` paper-vs-measured table.

The CLI's ``run`` / ``sweep`` / ``report`` subcommands are thin
wrappers over this module; it is equally usable as a library::

    from repro.harness import SweepSpec, ResultCache, run_jobs

    spec = SweepSpec.make(["table2"], grid={"backend": ["batched", "reference"]})
    outcomes = run_jobs(spec.jobs(), workers=2, cache=ResultCache("cache/"))
"""

from repro.harness.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    code_version,
    default_cache_dir,
)
from repro.harness.executor import JobOutcome, run_job, run_jobs
from repro.harness.spec import Job, SweepSpec, default_sweep

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "Job",
    "JobOutcome",
    "ResultCache",
    "SweepSpec",
    "code_version",
    "default_cache_dir",
    "default_sweep",
    "run_job",
    "run_jobs",
]
