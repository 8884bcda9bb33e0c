"""Build and load the engine's C contraction kernel (``contract.c``).

The kernel is compiled by the system C compiler on first use and the
shared object is cached in the result-cache directory
(:func:`repro.harness.cache.default_cache_dir`), keyed by the sha256 of
the source, the compile command, the compiler's version and the host
CPU (``-march=native`` code is CPU-specific).  Builds publish by an
atomic rename, so concurrent first uses (router workers, test
processes) are safe; later processes only load the cached file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pathlib
import platform
import subprocess
import tempfile

from repro.errors import KernelBuildError

#: The system C compiler.
COMPILER = "cc"
#: ``-ffp-contract=off`` keeps every add and multiply separately rounded
#: (no FMA): the kernel's bit identity to the scalar oracle rests on it.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = pathlib.Path(__file__).with_name("contract.c")


def _run(cmd: list[str]) -> str:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise KernelBuildError(f"`{' '.join(cmd)}` could not run: {exc}") from None
    if done.returncode:
        raise KernelBuildError(
            f"`{' '.join(cmd)}` exited {done.returncode}: {done.stderr.strip()}"
        )
    return done.stdout


def _host_cpu() -> str:
    try:
        lines = pathlib.Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    keys = ("model name", "flags", "Features", "CPU part")
    seen = [line for line in lines if line.split(":")[0].strip() in keys]
    return "\n".join(dict.fromkeys(seen)) or platform.processor() or platform.machine()


@functools.cache
def contract_kernel():
    """The loaded ``pacq_contract`` function, built on first use.

    Raises:
        KernelBuildError: the compiler is missing or fails (the message
            names the command and carries its stderr), or the built
            library does not load.
    """
    # Imported here: repro.harness imports the engine (a cycle at load time).
    from repro.harness.cache import default_cache_dir

    command = [COMPILER, *FLAGS]
    version = _run([COMPILER, "--version"])
    key = hashlib.sha256()
    for part in (" ".join(command), version, _host_cpu()):
        key.update(part.encode() + b"\0")
    key.update(SOURCE.read_bytes())
    cache = default_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"contract-{key.hexdigest()[:20]}.so"
    if not path.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            _run([*command, "-o", tmp, str(SOURCE)])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        fn = ctypes.CDLL(str(path)).pacq_contract
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"cannot load {path}: {exc}") from None
    # Raw addresses: the caller passes C-contiguous arrays of the types
    # ``contract.c`` declares and keeps them alive across the call.
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [ptr, ptr, ptr, ctypes.c_double, i64, i64, i64, i64,
                   ptr, ptr, ptr, i64, ptr]
    fn.restype = ctypes.c_int
    return fn
