"""Declarative sweep specifications expanded into independent jobs.

A :class:`SweepSpec` names the experiments to run, a parameter *grid*
(axis name -> candidate values) and fixed *base* parameters.  Expansion
is per experiment: only the axes the experiment's runner actually
accepts apply to it, so one spec can sweep ``backend`` x ``spec`` over
``table2`` while ``fig7a`` (no parameters) contributes a single job.

Jobs are plain, hashable, picklable value objects — the unit the
executor schedules, the cache keys, and the artifact sinks label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.experiments import get_experiment
from repro.errors import ConfigError


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to hashable tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


def thaw(value: Any) -> Any:
    """Inverse-ish of ``_freeze`` for JSON emission (tuples -> lists)."""
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class Job:
    """One independent unit of work: an experiment plus bound params."""

    experiment: str
    params: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def make(experiment: str, params: Mapping[str, Any] | None = None) -> "Job":
        items = tuple(
            sorted((str(k), _freeze(v)) for k, v in (params or {}).items())
        )
        return Job(experiment=experiment, params=items)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def label(self) -> str:
        """Human-readable id, e.g. ``table2[backend=batched,spec=g128]``."""
        if not self.params:
            return self.experiment
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.experiment}[{inner}]"

    @property
    def slug(self) -> str:
        """Filesystem-safe id for artifact file names."""
        return "".join(
            c if c.isalnum() or c in "=_.-" else "_" for c in self.label
        )

    def payload(self) -> dict[str, Any]:
        """JSON-serializable identity (cache keys, artifact metadata)."""
        return {
            "experiment": self.experiment,
            "params": {k: thaw(v) for k, v in self.params},
        }


@dataclass(frozen=True)
class SweepSpec:
    """Experiments x parameter grid, expanded by :meth:`jobs`."""

    experiments: tuple[str, ...]
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        experiments: Sequence[str],
        grid: Mapping[str, Iterable[Any]] | None = None,
        base: Mapping[str, Any] | None = None,
    ) -> "SweepSpec":
        return SweepSpec(
            experiments=tuple(experiments),
            grid=tuple(
                (str(k), tuple(_freeze(v) for v in vs))
                for k, vs in (grid or {}).items()
            ),
            base=tuple(
                sorted((str(k), _freeze(v)) for k, v in (base or {}).items())
            ),
        )

    def jobs(self) -> tuple[Job, ...]:
        """Expand into jobs, deterministically ordered.

        Order: experiments as given, then row-major over the grid axes
        in the order they were declared.  Axes/base parameters an
        experiment does not accept are dropped for that experiment;
        an axis no experiment accepts is an error (a typo, not a
        harmless no-op).
        """
        if not self.experiments:
            raise ConfigError("sweep spec names no experiments")
        out: list[Job] = []
        used_axes: set[str] = set()
        for name in self.experiments:
            exp = get_experiment(name)  # raises with the registered names
            axes = [(k, vs) for k, vs in self.grid if exp.accepts(k)]
            used_axes.update(k for k, _ in axes)
            base = {k: v for k, v in self.base if exp.accepts(k)}
            if not axes:
                out.append(Job.make(name, base))
                continue
            for combo in itertools.product(*(vs for _, vs in axes)):
                params = dict(base)
                params.update({k: v for (k, _), v in zip(axes, combo, strict=False)})
                out.append(Job.make(name, params))
        unused = [k for k, _ in self.grid if k not in used_axes]
        if unused:
            raise ConfigError(
                f"grid axis(es) {', '.join(sorted(unused))} not accepted by "
                f"any of: {', '.join(self.experiments)}"
            )
        return tuple(out)


def default_sweep() -> SweepSpec:
    """The stock sweep: every engine backend x every Table II group spec.

    Problem sizes are reduced (vocab 64, d_model 256, 128-token corpus)
    so even the per-element ``bitexact-scalar`` oracle backend finishes a
    job in well under a minute; relative comparisons across backends/specs
    are the point of a sweep, not absolute Table II values.
    """
    from repro.engine import backend_names
    from repro.quant.groups import TABLE2_SPECS

    return SweepSpec.make(
        experiments=("table2",),
        grid={
            "backend": list(backend_names()),
            "spec": [s.label for s in TABLE2_SPECS],
        },
        base={"vocab": 64, "d_model": 256, "corpus_len": 128},
    )
