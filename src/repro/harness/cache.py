"""Content-addressed on-disk result cache for experiment jobs.

A cache entry is keyed by the SHA-256 of the job's identity — the
experiment name, its canonicalized parameters, and the *code version*
(a digest over every ``repro`` source file) — so re-running a sweep is
incremental: unchanged jobs are served from disk, and any edit to the
package invalidates everything it could have influenced.  Entries are
plain JSON (one file per job) written atomically; a corrupt or
truncated file is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field

from repro.core.experiments import ExperimentResult
from repro.harness.spec import Job

#: Environment override for the default cache location.
CACHE_DIR_ENV = "PACQ_CACHE_DIR"

_CODE_VERSION: str | None = None


def default_cache_dir() -> pathlib.Path:
    """``$PACQ_CACHE_DIR`` or ``~/.cache/pacq-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/pacq-repro").expanduser()


def code_version(refresh: bool = False) -> str:
    """Digest of every ``repro`` source file (cache-key ingredient).

    Hashes the relative path and contents of each ``*.py`` and ``*.c``
    (the engine's compiled kernel) under the installed ``repro``
    package, sorted, so any code change — not just to the experiment
    touched — invalidates prior results.  Computed once per process;
    ``refresh=True`` recomputes (tests).
    """
    global _CODE_VERSION
    if _CODE_VERSION is not None and not refresh:
        return _CODE_VERSION
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")) + sorted(root.rglob("*.c")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """One directory of content-addressed experiment results."""

    root: pathlib.Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def key(self, job: Job) -> str:
        """Content address of a job under the current code version."""
        payload = dict(job.payload())
        payload["code_version"] = code_version()
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, job: Job) -> pathlib.Path:
        return self.root / f"{job.experiment}-{self.key(job)[:20]}.json"

    def get(self, job: Job) -> ExperimentResult | None:
        """Cached result for ``job``, or None (counted as hit/miss)."""
        path = self.path(job)
        try:
            entry = json.loads(path.read_text())
            result = ExperimentResult.from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, job: Job, result: ExperimentResult, elapsed_s: float = 0.0) -> None:
        """Store a result atomically (write-temp-then-rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "job": job.payload(),
            "code_version": code_version(),
            "elapsed_s": elapsed_s,
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # default=str matches key(): params that are not JSON
                # types (e.g. a GemmShape) stringify for provenance
                # instead of aborting the store after the work ran.
                json.dump(entry, handle, indent=1, sort_keys=True, default=str)
            os.replace(tmp, self.path(job))
        except BaseException:  # pragma: no cover - cleanup path
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.json")):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        # detlint: ignore[D004]: order-free — counts entries without consuming order
        return sum(1 for _ in self.root.glob("*.json"))
