#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it asserts that

* the printed metric names and units match ``BENCHMARK.json``, for both
  ``--trace 0`` (end-to-end) and ``--trace 1`` (per layer);
* a different seed changes the inputs and still passes every check;
* an injected wrong output (``--inject-fault``) is counted as a failed
  operation and makes the command exit non-zero;

and that the command exits non-zero without printing a result when the
program's source is absent.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

from run import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(workload: str, seed: int, trace: int, *extra: str, run=RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False,
    )
    lines = proc.stdout.strip().split("\n")
    inputs = next((ln.split()[1] for ln in lines if ln.startswith("inputs:")), None)
    return proc, lines, inputs


def result(proc, lines) -> dict:
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise AssertionError(
            f"no JSON result (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        ) from None


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_workload(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines, inputs_a = bench(workload, 1, trace)
        out = result(proc, lines)
        assert proc.returncode == 0 and out["correct"] and out["failed"] == 0, (
            f"{workload} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
        printed = {name: m["unit"] for name, m in out["metrics"].items()}
        assert printed == declared(section), (
            f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json "
            f"{section}: {sorted(set(printed) ^ set(declared(section)))}")
        assert out["attempted"] >= 1
    proc, lines, inputs_b = bench(workload, 2, 0)
    out = result(proc, lines)
    assert inputs_a is not None and inputs_b is not None and inputs_a != inputs_b, (
        f"{workload}: seeds 1 and 2 drew the same inputs")
    assert proc.returncode == 0 and out["correct"] and out["failed"] == 0, (
        f"{workload} seed 2 failed:\n{proc.stdout}")
    proc, lines, _ = bench(workload, 1, 0, "--inject-fault")
    out = result(proc, lines)
    assert proc.returncode != 0 and not out["correct"] and out["failed"] >= 1, (
        f"{workload}: an injected wrong output was not counted as a failure")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc, lines, _ = bench("decode", 1, 0, run=bare / "perfbench" / "run.py")
        assert proc.returncode != 0, "ran without the program's source"
        assert not lines[-1].startswith("{"), "printed a result without the source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_bare_directory()
    print("ok: bare directory exits non-zero without a result", flush=True)
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"ok: {workload}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
