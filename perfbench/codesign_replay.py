"""The co-design replay: captures priced over an architecture grid.

Inputs are the three committed ``docs/data/captures/*.json`` plus three
seeded synthetic captures at the serving model's site dimensions (d_model
256, d_ffn 1024, 2 layers).  The synthetic policies mix INT4, INT2 and
FP16 sites, so both the PacQ flow and the standard-dequant flow run.
Each capture is replayed with ``repro.codesign.replay_capture`` at every
``ArchPoint`` of the grid; no engine or serving code runs.

The replay rides on the ``decode`` workload: every run checks it, and a
traced run also replays the whole grid once with spans on, to fill the
``codesign``, ``metrics``, ``simt`` and ``roofline`` layer metrics.  It
has no end-to-end metrics of its own: its host time is pure Python,
which a shared machine can slow by ~40 % for tens of seconds at a time,
more than any regression bound could absorb.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib

import numpy as np

from common import Outcome
from spans import Patcher, Recorder, print_layer_table

import repro.codesign.replay as codesign_module
import repro.core.metrics as metrics_module
import repro.simt.sm as sm_module
from repro.codesign import (
    ArchPoint,
    SiteCapture,
    WorkloadCapture,
    cost_rows,
    load_capture,
    render_codesign_csv,
)
from repro.core.experiments import ExperimentResult
from repro.core.metrics import evaluate
from repro.core.report import RunRecord
from repro.simt.memoryhier import GemmShape

ROOT = pathlib.Path(__file__).resolve().parent.parent
CAPTURE_DIR = ROOT / "docs" / "data" / "captures"
COMMITTED_CSV = ROOT / "docs" / "data" / "codesign.csv"
#: The committed CSV's sweep (``scripts/regen_codesign.sh``).
CSV_NUM_SMS = (1, 2)

#: 48 points: SM count x DRAM beats/cycle x adder-tree dup x DP width.
GRIDS = {
    "full": [
        ArchPoint(num_sms=s, dram_beats=b, adder_tree_dup=d, dp_width=w)
        for s, b, d, w in itertools.product((1, 2, 4, 8), (12.0, 24.0, 48.0),
                                            (1, 2), (2, 4))
    ],
    "tiny": [ArchPoint(num_sms=1), ArchPoint(num_sms=2, adder_tree_dup=1)],
}

#: Synthetic capture policies: weight bits per site (default INT4).
SYNTHETIC = {
    "synthetic-int4": {},
    "synthetic-int2-ffn": {"w_gate": 2, "w_up": 2},
    "synthetic-fp16-attn": {"wq": 16, "wk": 16, "wv": 16, "wo": 16},
}

#: The serving model's sites: name -> (k, n).
SITE_DIMS = {
    "wq": (256, 256), "wk": (256, 256), "wv": (256, 256), "wo": (256, 256),
    "w_gate": (256, 1024), "w_up": (256, 1024), "w_down": (1024, 256),
}
N_LAYERS = 2

#: Replays re-derived bucket by bucket with unmemoized ``evaluate``.
CHECK_SAMPLE = 4


def synthetic_capture(policy: str, bits: dict, seed: int, index: int) -> WorkloadCapture:
    """One seeded capture whose histogram every site shares.

    Decode runs at m = 1..8 (more often at small m) and verify at m = 10,
    25 and 40, the same for every seed.  Prefill takes one seeded m in
    each 16-row warp tile up to 64, with seeded counts.  The padded
    shapes are therefore the same for every seed.
    """
    rng = np.random.default_rng([seed, 4, index])
    phases = {
        "decode": {m: 44 - 4 * m for m in range(1, 9)},
        "prefill": {int(rng.integers(lo, lo + 16)): int(rng.integers(1, 8))
                    for lo in (1, 17, 33, 49)},
        "verify": {10: 9, 25: 5, 40: 3},
    }
    rows: dict[int, int] = {}
    for hist in phases.values():
        for m, count in hist.items():
            rows[m] = rows.get(m, 0) + count
    frozen = tuple(sorted(
        (phase, tuple(sorted(hist.items()))) for phase, hist in phases.items()
    ))
    sites = tuple(
        SiteCapture(
            name=f"layer{layer}.{site}", n=n, k=k, weight_bits=bits.get(site, 4),
            rows=tuple(sorted(rows.items())), phases=frozen,
        )
        for layer in range(N_LAYERS)
        for site, (k, n) in SITE_DIMS.items()
    )
    return WorkloadCapture(
        policy=policy,
        served_tokens=sum(m * c for m, c in phases["decode"].items())
        + sum(m * c for m, c in phases["verify"].items()),
        prompt_tokens=sum(m * c for m, c in phases["prefill"].items()),
        requests=int(rng.integers(8, 33)),
        sites=sites,
    )


def load_inputs(seed: int, size: str) -> list[tuple[str, WorkloadCapture]]:
    committed = [(p.stem, load_capture(p)) for p in sorted(CAPTURE_DIR.glob("*.json"))]
    synthetic = [
        (policy, synthetic_capture(policy, bits, seed, i))
        for i, (policy, bits) in enumerate(SYNTHETIC.items())
    ]
    return committed + (synthetic if size == "full" else synthetic[:1])


def replay_all(captures, grid) -> list:
    """Every capture at every point of the grid, capture-major."""
    return [codesign_module.replay_capture(cap, point)
            for _, cap in captures for point in grid]


# -- correctness -------------------------------------------------------------


def unmemoized_total(capture: WorkloadCapture, point: ArchPoint) -> dict:
    """Sum ``evaluate`` over every bucket, one call per bucket."""
    pad = codesign_module.PAD_TO

    def up(v: int) -> int:
        return max(pad, -(-v // pad) * pad)

    calls = rows = macs = cycles = 0
    energy = dict.fromkeys(("rf", "l1", "l2", "dram", "compute", "general_core"), 0.0)
    for site in capture.sites:
        arch = point.architecture(site.weight_bits)
        hists = [hist for _, hist in site.phases] + [site.untagged_rows()]
        for hist in hists:
            for m, count in hist:
                shape = GemmShape(up(m), up(site.n), up(site.k))
                ev = evaluate(arch, shape)
                calls += count
                rows += m * count
                macs += shape.macs * count
                cycles += ev.stats.cycles * count
                for key in energy:
                    energy[key] += getattr(ev.energy, key) * count
    return {"calls": calls, "rows": rows, "macs": macs, "cycles": cycles, **energy}


def check_unmemoized(cost, capture, point, outcome: Outcome) -> None:
    outcome.attempted += 1
    want = unmemoized_total(capture, point)
    total = cost.total
    exact = (total.gemm_calls, total.rows, total.macs, total.cycles)
    if exact != (want["calls"], want["rows"], want["macs"], want["cycles"]):
        outcome.fail(f"{capture.policy} at {point.label}: counts {exact} differ from "
                     "the unmemoized bucket sum")
        return
    for key in ("rf", "l1", "l2", "dram", "compute", "general_core"):
        got = getattr(total.energy, key)
        if not np.isclose(got, want[key], rtol=1e-12, atol=0.0):
            outcome.fail(f"{capture.policy} at {point.label}: {key} energy {got!r} "
                         f"differs from the unmemoized sum {want[key]!r}")
            return


def check_committed_csv(captures, outcome: Outcome) -> None:
    """The committed captures at num_sms=1,2 must rebuild codesign.csv."""
    records = []
    for name, cap in captures:
        path = CAPTURE_DIR / f"{name}.json"
        if not path.exists():
            continue
        for num_sms in CSV_NUM_SMS:
            outcome.attempted += 1
            cost = codesign_module.replay_capture(cap, ArchPoint(num_sms=num_sms))
            records.append(RunRecord(
                "codesign", {"capture": str(path), "num_sms": num_sms},
                ExperimentResult("codesign", "", tuple(cost_rows(cost))),
            ))
    if render_codesign_csv(records) != COMMITTED_CSV.read_text():
        outcome.fail("replaying the committed captures does not reproduce "
                     f"{COMMITTED_CSV}")


# -- tracing -----------------------------------------------------------------


def instrument(patcher: Patcher) -> None:
    """Spans around the co-design, metrics, simt and roofline entry points."""
    wrap = patcher.wrap
    wrap(codesign_module, "replay_capture", "codesign.replay_capture")
    wrap(codesign_module, "evaluate_many", "metrics.evaluate_many",
         attrs=lambda args, kw: {"shapes": len(args[1])})
    wrap(codesign_module, "analyze_many", "roofline.analyze_many")
    wrap(metrics_module, "evaluate", "metrics.evaluate")
    wrap(metrics_module, "simulate_gemm", "simt.simulate_gemm")
    wrap(metrics_module, "dp_busy_cycles_for_gemm", "simt.dp_busy_cycles_for_gemm")
    wrap(sm_module, "simulate_octet", "simt.simulate_octet")


def layer_metrics(outcome: Outcome, recorder: Recorder) -> None:
    own = recorder.self_times()
    wall = recorder.spans[0].duration
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    buckets = 0
    for index, span in enumerate(recorder.spans):
        count[span.name] = count.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own[index]
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        if span.name == "metrics.evaluate_many":
            buckets += span.attrs["shapes"]

    def layer_self_ms(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) * 1e3

    shapes = count.get("metrics.evaluate", 0)
    put = outcome.put
    put("codesign.self_ms", layer_self_ms("codesign"))
    put("codesign.buckets", buckets)
    put("codesign.host_us_per_bucket",
        total_s.get("codesign.replay_capture", 0.0) * 1e6 / max(buckets, 1))
    put("metrics.self_ms", layer_self_ms("metrics"))
    put("metrics.distinct_shapes", shapes)
    put("simt.ms", layer_self_ms("simt"))
    put("simt.octet_traces_per_shape", count.get("simt.simulate_octet", 0) / max(shapes, 1))
    put("roofline.ms", total_s.get("roofline.analyze_many", 0.0) * 1e3)
    print(f"traced co-design replay: {wall * 1e3:.1f} ms, {len(recorder.spans)} spans")
    print_layer_table(recorder.layer_table(), wall)
    covered = sum(own[1:]) / wall
    print(f"self times cover {covered:.2%} of the traced co-design replay")
    if not 0.95 <= covered <= 1.0 + 1e-9:
        outcome.fail(f"co-design layer self times cover {covered:.2%} of wall time")


# -- the run -----------------------------------------------------------------


def run(seed: int, size: str, trace: bool, inject_fault: bool,
        outcome: Outcome) -> Recorder | None:
    """Check the replay; traced, also fill the co-design layer metrics.

    Returns the traced replay's recording, or ``None`` untraced.
    """
    captures = load_inputs(seed, size)
    grid = GRIDS[size]
    picks = sorted(int(p) for p in np.random.default_rng([seed, 8]).choice(
        len(captures) * len(grid), size=CHECK_SAMPLE, replace=False))
    recorder = None
    if trace:
        recorder = Recorder()
        with Patcher(recorder) as patcher:
            instrument(patcher)
            root = recorder.open("replay.grid")
            try:
                costs = replay_all(captures, grid)
            finally:
                recorder.close(root)
        layer_metrics(outcome, recorder)
        sample = [costs[i] for i in picks]
    else:
        sample = [codesign_module.replay_capture(captures[i // len(grid)][1],
                                                 grid[i % len(grid)]) for i in picks]
    for n, (i, cost) in enumerate(zip(picks, sample, strict=True)):
        if inject_fault and n == 0:
            cost = dataclasses.replace(
                cost, total=dataclasses.replace(cost.total, cycles=cost.total.cycles + 1))
        check_unmemoized(cost, captures[i // len(grid)][1], grid[i % len(grid)], outcome)
    check_committed_csv(captures, outcome)
    return recorder
