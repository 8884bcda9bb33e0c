"""Hardware co-design loop: replay served workloads through the cost models.

The serving stack (:mod:`repro.serve`) records the *exact* GEMM shape
histogram a served trace produced — the per-plan phase-tagged
``{m: count}`` histograms of :mod:`repro.engine`, the one record of
GEMM work (a session's :class:`~repro.model.session.Telemetry` and the
fleet-merged snapshots of :mod:`repro.serve.shard` read the same
histograms).  This package
closes the loop back to the paper's hardware models: a captured
workload is replayed bucket-by-bucket through the cycle-level SIMT
simulator (:func:`repro.simt.simulate_gemm`), the energy breakdown
(:func:`repro.core.metrics.evaluate`) and the roofline placement
(:func:`repro.core.roofline.analyze`), yielding cycles-per-served-token
and pJ-per-served-token per scheduler policy under a sweepable
architecture point.

Layers:

* :mod:`repro.codesign.capture` — :class:`WorkloadCapture`, the
  replayable phase-tagged shape histogram plus policy metadata
  (``codesign_capture/v1`` JSON; stamped into the ``codesign`` block of
  ``serve_sim/v6`` records by ``serve-sim --codesign``).
* :mod:`repro.codesign.replay` — :func:`replay_capture` prices every
  ``(site, phase, m, count)`` bucket on an :class:`ArchPoint` and
  aggregates per-phase / total costs.
* :mod:`repro.codesign.report` — deterministic CSV and the regenerated
  figures section of ``docs/codesign.md`` (same idiom as
  ``EXPERIMENTS.md``).
* :mod:`repro.codesign.experiment` — the registered ``codesign``
  experiment the harness sweeps and ``report --check`` gates.

See ``docs/codesign.md`` for the methodology and the CSV schema.
"""

from repro.codesign.capture import (
    CAPTURE_SCHEMA,
    SiteCapture,
    WorkloadCapture,
    capture_from_histograms,
    load_capture,
)
from repro.codesign.replay import ArchPoint, PhaseCost, ReplayCost, replay_capture
from repro.codesign.report import (
    CODESIGN_CSV_HEADER,
    cost_rows,
    render_codesign_csv,
    render_codesign_section,
    splice_section,
)

__all__ = [
    "ArchPoint",
    "CAPTURE_SCHEMA",
    "CODESIGN_CSV_HEADER",
    "PhaseCost",
    "ReplayCost",
    "SiteCapture",
    "WorkloadCapture",
    "capture_from_histograms",
    "cost_rows",
    "load_capture",
    "render_codesign_csv",
    "render_codesign_section",
    "replay_capture",
    "splice_section",
]
