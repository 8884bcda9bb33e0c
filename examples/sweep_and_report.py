#!/usr/bin/env python3
"""Drive the experiment harness as a library: sweep, cache, report.

Walkthrough of :mod:`repro.harness` — the subsystem behind the CLI's
``sweep`` and ``report`` subcommands:

1. declare a :class:`SweepSpec` (experiments x parameter grid) and
   expand it into independent jobs;
2. execute the jobs through an on-disk :class:`ResultCache`
   (re-running this script is served from cache) and a worker pool;
3. render the outcomes through the artifact sink layer
   (:mod:`repro.core.report`) as a table and a merged CSV.

Run: ``PYTHONPATH=src python examples/sweep_and_report.py [--jobs N]``
"""

from __future__ import annotations

import argparse
import pathlib
import tempfile

from repro.core.report import RunRecord, check_records, render_csv, render_table
from repro.harness import ResultCache, SweepSpec, run_jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    parser.add_argument(
        "--cache-dir",
        default=str(pathlib.Path(tempfile.gettempdir()) / "pacq-example-cache"),
        help="result cache location (persists across runs)",
    )
    args = parser.parse_args()

    # 1. Declare: perplexity across engine backends x group geometries
    #    at a reduced problem size, plus a no-parameter experiment to
    #    show grid axes only apply where a runner accepts them.
    spec = SweepSpec.make(
        ["table2", "fig9"],
        grid={"backend": ["batched", "reference"], "spec": ["g128", "g[32,4]"]},
        base={"vocab": 64, "d_model": 256, "corpus_len": 128},
    )
    jobs = spec.jobs()
    print(f"expanded {len(jobs)} jobs from the sweep spec:")
    for job in jobs:
        print(f"  {job.label}")

    # 2. Execute through the cache; a second run of this script hits.
    cache = ResultCache(args.cache_dir)
    outcomes = run_jobs(jobs, workers=args.jobs, cache=cache)
    hits = sum(1 for o in outcomes if o.cached)
    print(f"\ncache {cache.root}: {hits}/{len(outcomes)} served from cache")

    # 3. Emit: summary table + merged CSV + tolerance check.
    rows = [
        [o.job.label, "hit" if o.cached else f"{o.elapsed_s:.2f}s",
         f"{o.result.rows[-1].measured:.4g} {o.result.rows[-1].unit}"]
        for o in outcomes
    ]
    print()
    print(render_table("sweep outcomes", ["job", "ran", "last row"], rows))

    records = [
        RunRecord(o.job.experiment, o.job.params_dict(), o.result, o.cached,
                  o.elapsed_s)
        for o in outcomes
    ]
    csv_text = render_csv(records)
    print(f"\nmerged CSV ({csv_text.count(chr(10)) - 1} rows), first lines:")
    for line in csv_text.splitlines()[:4]:
        print(f"  {line}")

    violations = check_records(records)
    print(f"\ntolerance check: {len(violations)} violation(s)")
    for message in violations:
        print(f"  {message}")


if __name__ == "__main__":
    main()
