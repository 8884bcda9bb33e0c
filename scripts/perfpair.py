#!/usr/bin/env python3
"""Paired benchmark runs: two revisions, alternating, compared per metric.

Usage (from inside the repository)::

    python3 scripts/perfpair.py PARENT CHANGE --workload decode --pairs 5

Checks ``PARENT`` and ``CHANGE`` (any two git revisions) out into two
temporary ``git worktree``s and runs ``perfbench/run.py --trace 0`` in
each, ``--pairs`` times.  The order alternates within each pair, so a
machine that drifts during the session weighs on both sides alike.  For
every end-to-end metric that ``BENCHMARK.json`` declares it then prints
both medians, the spread within each tree (the interquartile range), and
how many pairs favour the change.  Exits 1 if any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile


def parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the baseline")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    return p.parse_args(argv)


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_bench(tree: pathlib.Path, args: argparse.Namespace) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON record."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "failed": -1, "metrics": {}}


def spread(values: list[float]) -> float:
    """Interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def report(runs: dict[str, list[dict]], metrics: list[dict]) -> None:
    header = (
        f"{'metric':<15} {'unit':<6} {'parent':>10} {'change':>10} "
        f"{'ratio':>7} {'IQR p':>9} {'IQR c':>9}  favour"
    )
    print(header)
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        favour = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
        mp, mc = statistics.median(parent), statistics.median(change)
        ratio = mc / mp if mp else float("nan")
        print(
            f"{name:<15} {metric['unit']:<6} {mp:>10.4g} {mc:>10.4g} "
            f"{ratio:>7.3f} {spread(parent):>9.3g} {spread(change):>9.3g}  "
            f"{favour}/{len(parent)}"
        )


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    revs = {"parent": args.parent, "change": args.change}
    revs = {side: git("rev-parse", rev) for side, rev in revs.items()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfpair-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in revs}
        try:
            for side, rev in revs.items():
                git("worktree", "add", "--detach", str(trees[side]), rev)
            declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
            if args.seconds is None:
                args.seconds = declared["run_seconds"]
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(trees[side], args)
                    runs[side].append(result)
                    print(
                        f"pair {pair + 1} {side}: failed {result['failed']}",
                        flush=True,
                    )
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
    failed = [r for side in runs.values() for r in side if not r["correct"]]
    print(
        f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s, seed {args.seed}; "
        f"parent {revs['parent'][:10]}, change {revs['change'][:10]}; "
        f"{len(failed)} runs with failed checks"
    )
    if not failed:
        report(runs, declared["end_to_end"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
