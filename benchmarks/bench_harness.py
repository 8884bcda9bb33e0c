"""Harness benchmark: cached vs executed jobs, cache lookup hot path.

The orchestration subsystem's pitch is incrementality: a swept job
re-runs only when its parameters or the code change.  This module
measures both sides of that trade:

* **report** — a small backend x spec sweep executed cold, then served
  entirely from the result cache, with the speedup printed;
* **benchmarks** — the cache-hit lookup (read + JSON decode +
  result reconstruction) and the in-process executor dispatch.

Run with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_harness.py --benchmark-only
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_result
from repro.harness import Job, ResultCache, SweepSpec, run_job, run_jobs

#: Cheap sweep: 2 backends x 2 specs at a reduced Table II size.
SWEEP = SweepSpec.make(
    ["table2"],
    grid={"backend": ["batched", "reference"], "spec": ["g128", "g[32,4]"]},
    base={"vocab": 64, "d_model": 256, "corpus_len": 128},
)


def test_harness_report(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = SWEEP.jobs()

    start = time.perf_counter()
    cold = run_jobs(jobs, cache=cache)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_jobs(jobs, cache=cache)
    warm_s = time.perf_counter() - start

    print()
    print(f"cold sweep ({len(jobs)} jobs): {cold_s * 1e3:8.1f} ms")
    print(f"warm sweep (all cached):   {warm_s * 1e3:8.1f} ms "
          f"({cold_s / warm_s:.1f}x faster)")
    print_result(cold[0].result)

    assert all(not o.cached for o in cold)
    assert all(o.cached for o in warm)
    assert [o.result for o in warm] == [o.result for o in cold]
    # The acceptance bar: a warm re-run is served >=90% from cache
    # (here: 100%) and is much cheaper than executing.
    assert warm_s < cold_s


def test_cache_hit_lookup_benchmark(benchmark, tmp_path):
    cache = ResultCache(tmp_path)
    job = SWEEP.jobs()[0]
    cache.put(job, run_job(job), 0.0)

    result = benchmark(cache.get, job)
    assert result is not None


def test_executor_dispatch_benchmark(benchmark):
    # fig9 is the cheapest registered experiment: this times the
    # harness layer (registry lookup, param binding, outcome assembly)
    # around an almost-free runner.
    job = Job.make("fig9", {})
    outcomes = benchmark(run_jobs, [job])
    assert outcomes[0].result.rows
