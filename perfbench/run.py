#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads: ``decode``, ``shared-prefix`` and ``speculative``; ``decode``
also checks the co-design replay.  ``all`` runs each in its own
process.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced replay and writes its spans to
``perfbench/out/<workload>-seed<n>.trace.json`` (Chrome Trace Event
Format).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decode", "shared-prefix", "speculative")


def parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a small model and few inputs, for the self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one checked output (the self-test's negative case)")
    return p.parse_args(argv)


def child_args(args: argparse.Namespace, workload: str) -> list[str]:
    out = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    return out + (["--inject-fault"] if args.inject_fault else [])


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(child_args(args, workload), stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from common import Outcome, environment, pin_threads, print_environment

    pin_threads()  # before anything imports numpy
    sys.path.insert(0, str(ROOT / "src"))
    from catalog import CODESIGN_LAYERS, END_TO_END, PER_LAYER

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, size {args.size}")
    print_environment(env)
    import serving

    outcome = Outcome()
    artifacts: dict = {}
    serving.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
               args.inject_fault, outcome, artifacts)
    env["loadavg_end"] = list(os.getloadavg())
    print_environment(env)

    if args.trace:
        if args.workload != serving.CODESIGN_HOST:
            for name in CODESIGN_LAYERS:
                outcome.put(name, 0.0)  # this workload never calls those layers
        expected = PER_LAYER
        stem = f"{args.workload}-seed{args.seed}"
        meta = {"workload": args.workload, "seed": args.seed, "env": env}
        for key, suffix in (("recorder", ".trace.json"),
                            ("codesign_recorder", ".codesign.trace.json")):
            if artifacts.get(key) is not None:
                artifacts[key].write_chrome_trace(OUT / (stem + suffix), meta)
                print(f"trace written to {OUT / (stem + suffix)}")
        (OUT / (stem + ".ledger.json")).write_text(
            json.dumps({**meta, "ledger": artifacts["ledger"]}, indent=1))
    else:
        expected = END_TO_END
    if set(outcome.metrics) != set(expected):
        missing = sorted(set(expected) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(expected))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")

    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for message in outcome.failures:
        print(f"FAILED: {message}")
    print(f"checks: {outcome.attempted} attempted, {outcome.failed} failed")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0],
                           "unit": outcome.metrics[name][1]} for name in expected},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
