"""Workload captures: served GEMM histograms in a replayable form.

A :class:`WorkloadCapture` is the bridge object between the serving
layer and the hardware models: one phase-tagged ``{m: count}``
histogram per GEMM site (with the site's fixed ``n``/``k`` and weight
precision) plus the policy metadata needed to normalize costs per
served token.  Everything is a plain count — no wall-clock fields —
so a capture written by ``serve-sim --codesign`` replays to
byte-identical artifacts on any machine.

One builder, :func:`capture_from_histograms`, covers every capture
source: a :func:`repro.engine.plan_histograms` snapshot (or the
difference of two, so set-up work such as draft distillation is left
out) plus :func:`repro.engine.plan_dims`.  Single-process serving
snapshots its own plans; data-parallel serving merges the histograms
its worker processes ship back.

The JSON form (``codesign_capture/v1``) round-trips exactly:
``WorkloadCapture.from_dict(json.loads(json.dumps(c.to_dict()))) == c``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigError

#: Schema tag of a bare capture file (also embedded as the
#: ``codesign`` block of a ``serve_sim/v6`` record).
CAPTURE_SCHEMA = "codesign_capture/v1"

Histogram = tuple[tuple[int, int], ...]

#: Phase label the replay assigns to executions recorded outside any
#: ``Decoder._phased`` context (present only if such executions exist).
UNTAGGED_PHASE = "untagged"


def _freeze_hist(hist: Mapping[Any, Any]) -> Histogram:
    """Sorted ``((m, count), ...)`` from any ``{m: count}`` mapping."""
    return tuple(sorted((int(m), int(c)) for m, c in hist.items()))


@dataclass(frozen=True)
class SiteCapture:
    """One GEMM site's captured histogram.

    ``rows`` is the total ``(m, count)`` histogram over activation row
    counts; ``phases`` splits the phase-tagged portion of it by
    pipeline phase (``prefill`` / ``decode`` / ``verify``).  Phase
    counts never exceed the totals; executions issued outside a phase
    context appear only in ``rows``.
    """

    name: str
    n: int
    k: int
    weight_bits: int
    rows: Histogram
    phases: tuple[tuple[str, Histogram], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.weight_bits < 1:
            raise ConfigError(f"invalid site capture dims: {self.name!r}")
        totals = dict(self.rows)
        tagged: dict[int, int] = {}
        for _, hist in self.phases:
            for m, count in hist:
                tagged[m] = tagged.get(m, 0) + count
        for m, count in sorted(tagged.items()):
            if count > totals.get(m, 0):
                raise ConfigError(
                    f"site {self.name!r}: phase-tagged count {count} at "
                    f"m={m} exceeds the total histogram ({totals.get(m, 0)})"
                )

    @property
    def calls(self) -> int:
        """Total executions of this site."""
        return sum(count for _, count in self.rows)

    @property
    def total_rows(self) -> int:
        """Total activation rows (sum of ``m * count``)."""
        return sum(m * count for m, count in self.rows)

    @property
    def macs(self) -> int:
        """Exact (unpadded) MACs the site executed."""
        return self.total_rows * self.n * self.k

    def untagged_rows(self) -> Histogram:
        """The ``rows`` remainder not covered by any phase histogram."""
        remainder = dict(self.rows)
        for _, hist in self.phases:
            for m, count in hist:
                remainder[m] = remainder.get(m, 0) - count
        return tuple(
            (m, count) for m, count in sorted(remainder.items()) if count > 0
        )


@dataclass(frozen=True)
class WorkloadCapture:
    """A served workload: per-site histograms plus policy metadata.

    ``served_tokens`` (generated tokens) is the denominator of every
    per-token cost the replay reports; ``prompt_tokens`` counts prompt
    tokens ingested (prefilled or copied from a prefix cache) and
    ``requests`` the completed requests.
    """

    policy: str
    served_tokens: int
    prompt_tokens: int
    requests: int
    sites: tuple[SiteCapture, ...]

    def __post_init__(self) -> None:
        if not self.policy:
            raise ConfigError("a workload capture needs a policy label")
        if self.served_tokens < 1:
            raise ConfigError(
                f"capture {self.policy!r} served no tokens — nothing to "
                "normalize per-token costs against"
            )
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate site names in capture: {names}")

    @property
    def gemm_calls(self) -> int:
        return sum(site.calls for site in self.sites)

    @property
    def macs(self) -> int:
        return sum(site.macs for site in self.sites)

    def phase_names(self) -> tuple[str, ...]:
        """All phase labels present, sorted."""
        seen = {phase for site in self.sites for phase, _ in site.phases}
        if any(site.untagged_rows() for site in self.sites):
            seen.add(UNTAGGED_PHASE)
        return tuple(sorted(seen))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (``codesign_capture/v1``)."""
        return {
            "schema": CAPTURE_SCHEMA,
            "policy": self.policy,
            "served_tokens": self.served_tokens,
            "prompt_tokens": self.prompt_tokens,
            "requests": self.requests,
            "sites": {
                site.name: {
                    "n": site.n,
                    "k": site.k,
                    "weight_bits": site.weight_bits,
                    "rows": {str(m): count for m, count in site.rows},
                    "phases": {
                        phase: {str(m): count for m, count in hist}
                        for phase, hist in site.phases
                    },
                }
                for site in self.sites
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadCapture":
        schema = data.get("schema")
        if schema != CAPTURE_SCHEMA:
            raise ConfigError(
                f"not a workload capture: schema {schema!r} "
                f"(expected {CAPTURE_SCHEMA!r})"
            )
        sites = tuple(
            SiteCapture(
                name=name,
                n=int(site["n"]),
                k=int(site["k"]),
                weight_bits=int(site["weight_bits"]),
                rows=_freeze_hist(site["rows"]),
                phases=tuple(
                    sorted(
                        (phase, _freeze_hist(hist))
                        for phase, hist in site["phases"].items()
                    )
                ),
            )
            for name, site in sorted(data["sites"].items())
        )
        return cls(
            policy=str(data["policy"]),
            served_tokens=int(data["served_tokens"]),
            prompt_tokens=int(data["prompt_tokens"]),
            requests=int(data["requests"]),
            sites=sites,
        )


def capture_from_histograms(
    histograms: Mapping[str, Mapping[str, Any]],
    dims: Mapping[str, Mapping[str, int]],
    *,
    policy: str,
    served_tokens: int,
    prompt_tokens: int = 0,
    requests: int = 0,
) -> WorkloadCapture:
    """Capture a :func:`repro.engine.plan_histograms` snapshot.

    ``histograms`` is the ``{site: {"rows": ..., "phases": ...}}``
    shape of a plan snapshot, a
    :func:`~repro.engine.diff_plan_histograms` difference, or the
    router's fleet merge
    (:meth:`~repro.serve.FleetReport.merged_plan_rows`); ``dims`` is
    :func:`repro.engine.plan_dims` of the same plans (each site's
    ``n``, ``k`` and code precision ``bits``).  Sites that executed
    nothing are left out.
    """
    sites = []
    for name, snap in sorted(histograms.items()):
        rows = _freeze_hist(snap["rows"])
        if not rows:
            continue
        if name not in dims:
            raise ConfigError(
                f"histogram site {name!r} has no (n, k, bits) entry in dims"
            )
        site = dims[name]
        sites.append(
            SiteCapture(
                name=name,
                n=site["n"],
                k=site["k"],
                weight_bits=site["bits"],
                rows=rows,
                phases=tuple(
                    sorted(
                        (phase, _freeze_hist(hist))
                        for phase, hist in snap["phases"].items()
                    )
                ),
            )
        )
    return WorkloadCapture(
        policy=policy,
        served_tokens=served_tokens,
        prompt_tokens=prompt_tokens,
        requests=requests,
        sites=tuple(sites),
    )


def load_capture(path: str | pathlib.Path) -> WorkloadCapture:
    """Load a capture from a JSON file.

    Accepts either a bare ``codesign_capture/v1`` file or a
    ``serve_sim`` record (``v6``, or ``v5`` from older checkouts) with
    the ``codesign`` block stamped by ``serve-sim --codesign``.  A
    record without that block (older schemas, or a run without the
    flag) is rejected with a pointer at the flag that adds it.
    """
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"capture file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"capture {path} is not valid JSON: {exc}") from None
    schema = data.get("schema", "")
    if schema.startswith("serve_sim/"):
        block = data.get("codesign")
        if block is None:
            raise ConfigError(
                f"{path} is a {schema} record without a workload capture — "
                "re-run serve-sim with --codesign POLICY to stamp one in"
            )
        return WorkloadCapture.from_dict(block)
    return WorkloadCapture.from_dict(data)
