"""Helpers shared by every workload: timing statistics, memory, environment.

Nothing here imports numpy at module level: ``run.py`` pins the BLAS
thread count in the environment before numpy is first imported, and
this module is imported before that happens.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field

from catalog import UNITS

#: Thread-count variables pinned to 1 before numpy loads its BLAS.
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread: load comes from one process with one thread."""
    for name in PINNED_ENV:
        os.environ[name] = "1"


#: A run measures at least this many rounds, so medians over rounds
#: mean something, and at least this many busy steps, so that ten or
#: more lie beyond the p90.
MIN_ROUNDS = 5
MIN_STEPS = 100


def measuring(start: float, seconds: float, rounds: int, steps: int) -> bool:
    """Whether a run should replay another round."""
    return (
        time.perf_counter() - start < seconds
        or rounds < MIN_ROUNDS
        or steps < MIN_STEPS
    )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mib() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mib() -> float:
    """Resident set right now, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it exposes one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line.split()[-1]
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict[str, object]:
    """Machine and library facts that decide whether two runs compare."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


def print_environment(env: dict[str, object]) -> None:
    print(
        f"env: nproc={env['nproc']} affinity={env['affinity']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']} "
        f"numpy={env['numpy']} python={env['python']}"
    )
    print(
        "env: loadavg start="
        + " ".join(f"{x:.2f}" for x in env["loadavg_start"])
        + (
            " end=" + " ".join(f"{x:.2f}" for x in env["loadavg_end"])
            if "loadavg_end" in env
            else ""
        )
    )


@dataclass
class Outcome:
    """What one workload run reports: checks plus named metrics."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), UNITS[name])
