"""Tests for the experiment orchestration subsystem (repro.harness).

Covers the ISSUE checklist: cache hit/miss and invalidation on param
change, serial vs parallel sweeps producing identical artifacts,
``report --check`` exit codes on an injected deviation, and
old-CLI-alias backward compatibility.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.experiments import (
    ExperimentResult,
    ResultRow,
    get_experiment,
    register_experiment,
    unregister_experiment,
)
from repro.core.report import RunRecord, check_records, render_csv
from repro.errors import ConfigError
from repro.harness import (
    Job,
    ResultCache,
    SweepSpec,
    code_version,
    default_sweep,
    run_jobs,
)

#: A cheap table2 configuration (shared LM memo across tests).
SMALL = {"vocab": 64, "d_model": 256, "corpus_len": 64}


@pytest.fixture(scope="module")
def report_cache_dir(tmp_path_factory):
    """One result cache shared by every report test in this module.

    The first ``report`` invocation pays the full run; the rest are
    served from cache, keeping the suite fast.
    """
    return str(tmp_path_factory.mktemp("pacq-report-cache"))


def small_jobs(backends=("batched", "reference"), specs=("g128", "g[32,4]")):
    spec = SweepSpec.make(
        ["table2"],
        grid={"backend": list(backends), "spec": list(specs)},
        base=SMALL,
    )
    return spec.jobs()


class TestSweepSpec:
    def test_grid_expansion_counts(self):
        assert len(small_jobs()) == 4

    def test_axes_filtered_per_experiment(self):
        # fig9 takes no parameters: the backend axis must not apply.
        spec = SweepSpec.make(
            ["fig9", "table2"], grid={"backend": ["batched", "reference"]}, base=SMALL
        )
        jobs = spec.jobs()
        assert [j.experiment for j in jobs] == ["fig9", "table2", "table2"]
        assert jobs[0].params == ()

    def test_unknown_experiment_lists_registered(self):
        with pytest.raises(ConfigError, match="fig7a"):
            SweepSpec.make(["fig99"]).jobs()

    def test_axis_accepted_by_nobody_is_an_error(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            SweepSpec.make(["fig9"], grid={"warp_speed": [1, 2]}).jobs()

    def test_empty_spec_is_an_error(self):
        with pytest.raises(ConfigError):
            SweepSpec.make([]).jobs()

    def test_job_label_and_slug(self):
        job = Job.make("table2", {"backend": "batched", "spec": "g[32,4]"})
        assert job.label == "table2[backend=batched,spec=g[32,4]]"
        assert "/" not in job.slug and "," not in job.slug

    def test_default_sweep_covers_backends_x_specs(self):
        from repro.engine import backend_names
        from repro.quant.groups import TABLE2_SPECS

        jobs = default_sweep().jobs()
        assert len(jobs) == len(backend_names()) * len(TABLE2_SPECS)

    def test_jobs_are_hashable_and_deterministic(self):
        assert small_jobs() == small_jobs()
        assert len({hash(j) for j in small_jobs()}) == 4


class TestResultCache:
    def job(self):
        return Job.make("table2", dict(SMALL, backend="batched", spec="g128"))

    def result(self):
        return ExperimentResult(
            "table2", "t", (ResultRow("g128", 4.5, 5.73, "ppl"),)
        )

    def test_roundtrip_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self.job()) is None
        cache.put(self.job(), self.result(), 1.0)
        got = cache.get(self.job())
        assert got == self.result()
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1 and len(cache) == 1

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.job(), self.result())
        other = Job.make("table2", dict(SMALL, backend="reference", spec="g128"))
        assert cache.get(other) is None

    def test_code_version_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(self.job(), self.result())
        assert cache.get(self.job()) is not None
        monkeypatch.setattr("repro.harness.cache._CODE_VERSION", "0" * 64)
        assert cache.get(self.job()) is None

    def test_code_version_covers_the_c_kernel(self, tmp_path, monkeypatch):
        root = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        before = code_version(refresh=True)
        kernel = copy / "engine" / "contract.c"
        kernel.write_text(kernel.read_text() + "/* edited */\n")
        try:
            assert code_version(refresh=True) != before
        finally:
            monkeypatch.undo()
            code_version(refresh=True)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.job(), self.result())
        cache.path(self.job()).write_text("{not json")
        assert cache.get(self.job()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.job(), self.result())
        assert cache.clear() == 1 and len(cache) == 0

    def test_non_json_param_values_still_store(self, tmp_path):
        # Library callers may pass rich objects (e.g. a GemmShape);
        # both the key and the stored entry stringify them.
        from repro.simt.memoryhier import GemmShape

        job = Job.make("fig10", {"shape": GemmShape(16, 64, 64)})
        cache = ResultCache(tmp_path)
        cache.put(job, self.result())
        assert cache.get(job) == self.result()


class TestExecutor:
    def test_serial_and_parallel_artifacts_identical(self, tmp_path):
        jobs = small_jobs()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        to_records = lambda outs: [  # noqa: E731
            RunRecord(o.job.experiment, o.job.params_dict(), o.result)
            for o in outs
        ]
        assert render_csv(to_records(serial)) == render_csv(to_records(parallel))
        assert [o.result.to_dict() for o in serial] == [
            o.result.to_dict() for o in parallel
        ]

    def test_second_run_is_fully_cached(self, tmp_path):
        jobs = small_jobs(backends=("batched",), specs=("g128",))
        cache = ResultCache(tmp_path)
        first = run_jobs(jobs, cache=cache)
        second = run_jobs(jobs, cache=cache)
        assert [o.cached for o in first] == [False]
        assert [o.cached for o in second] == [True]
        assert first[0].result == second[0].result

    def test_force_reruns_despite_cache(self, tmp_path):
        jobs = small_jobs(backends=("batched",), specs=("g128",))
        cache = ResultCache(tmp_path)
        run_jobs(jobs, cache=cache)
        again = run_jobs(jobs, cache=cache, force=True)
        assert [o.cached for o in again] == [False]

    def test_outcomes_keep_input_order(self, tmp_path):
        jobs = list(small_jobs())
        outcomes = run_jobs(jobs, workers=2)
        assert [o.job for o in outcomes] == jobs

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_jobs([], workers=0)

    def test_unknown_param_raises(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            run_jobs([Job.make("fig9", {"warp_speed": 11})])


class TestCheck:
    def test_within_tolerance_passes(self):
        record = RunRecord(
            "table2",
            {},
            ExperimentResult("table2", "t", (ResultRow("g128", 5.73, 5.73, "ppl"),)),
        )
        assert check_records([record]) == []

    def test_injected_deviation_flagged(self):
        record = RunRecord(
            "table2",
            {},
            ExperimentResult("table2", "t", (ResultRow("g128", 57.3, 5.73, "ppl"),)),
        )
        violations = check_records([record])
        assert len(violations) == 1 and "g128" in violations[0]

    def test_row_tolerance_override_applies(self):
        # fig7a's INT4 row is allowed ±50%; a generic row only ±10%.
        exp = get_experiment("fig7a")
        assert exp.row_tolerance("INT4 RF reduction vs P(B4)k") == 0.50
        assert exp.row_tolerance("anything else") == 0.10


class TestReportCli:
    def test_report_regenerates_byte_identically(
        self, tmp_path, monkeypatch, report_cache_dir
    ):
        monkeypatch.setenv("PACQ_CACHE_DIR", report_cache_dir)
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--out", str(out)]) == 0
        first = out.read_text()
        assert main(["report", "--out", str(out), "--check"]) == 0
        assert out.read_text() == first
        assert "| configuration | measured | paper | deviation | unit |" in first

    def test_check_fails_on_stale_report(
        self, tmp_path, monkeypatch, report_cache_dir
    ):
        monkeypatch.setenv("PACQ_CACHE_DIR", report_cache_dir)
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--out", str(out)]) == 0
        out.write_text(out.read_text() + "tampered\n")
        stale = out.read_bytes()
        assert main(["report", "--out", str(out), "--check"]) == 1
        # A check never writes: the stale bytes stay, and so does the failure.
        assert out.read_bytes() == stale
        assert main(["report", "--out", str(out), "--check"]) == 1
        # Regenerating without --check repairs it.
        assert main(["report", "--out", str(out)]) == 0
        assert main(["report", "--out", str(out), "--check"]) == 0

    def test_check_fails_on_injected_deviation(
        self, tmp_path, monkeypatch, report_cache_dir
    ):
        monkeypatch.setenv("PACQ_CACHE_DIR", report_cache_dir)

        @register_experiment(
            artifact="Fig. 99",
            headline="injected deviation",
            tolerance=0.01,
            name="injected",
        )
        def injected() -> ExperimentResult:
            return ExperimentResult(
                "injected", "way off", (ResultRow("boom", 10.0, 1.0, "x"),)
            )

        try:
            out = tmp_path / "EXPERIMENTS.md"
            assert main(["report", "--out", str(out), "--check"]) == 1
            assert main(["report", "--out", str(out)]) == 0  # no --check: passes
        finally:
            unregister_experiment("injected")

    def test_report_emits_artifacts(
        self, tmp_path, monkeypatch, report_cache_dir
    ):
        monkeypatch.setenv("PACQ_CACHE_DIR", report_cache_dir)
        out = tmp_path / "EXPERIMENTS.md"
        art = tmp_path / "artifacts"
        assert main(["report", "--out", str(out), "--artifacts", str(art)]) == 0
        assert (art / "results.csv").is_file()
        payload = json.loads((art / "run-table2.json").read_text())
        assert payload["experiment"] == "table2"
        assert payload["result"]["rows"]


class TestCliCompat:
    """Every experiment runs through ``run``; the seed CLI's bare
    ``python -m repro <experiment>`` alias is gone."""

    def test_legacy_experiment_alias(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig9"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "invalid choice: 'fig9'" in err

    def test_legacy_backend_flag(self, capsys):
        # fig7a takes no backend: 'run' refuses the flag, where the
        # removed alias dropped it silently.
        assert main(["run", "fig7a", "--backend", "batched"]) == 1
        assert "does not accept parameter(s) backend" in capsys.readouterr().err

    def test_legacy_table1_and_backends(self, capsys):
        # Table I is 'run table1' now (tests/test_cli_and_report.py).
        with pytest.raises(SystemExit):
            main(["table1"])
        # The backend listing command is gone: --backend's choices name
        # the backends instead.
        with pytest.raises(SystemExit):
            main(["backends"])

    def test_run_subcommand_equivalent(self, capsys):
        assert main(["run", "fig9"]) == 0
        assert "fig9" in capsys.readouterr().out

    def test_run_rejects_unknown_param(self, capsys):
        assert main(["run", "fig9", "--set", "warp_speed=1"]) == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_sweep_cli_two_invocations_hit_cache(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--experiments", "table2",
            "--grid", "backend=batched,reference",
            "--set", "vocab=64", "--set", "d_model=256",
            "--set", "corpus_len=64", "--set", "spec=g128",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0/2 jobs served from cache" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: 2/2 jobs served from cache" in second

    def test_stock_sweep_honors_set_overrides(self, tmp_path, capsys):
        # Tiny sizes keep the stock sweep's bitexact-scalar jobs fast.
        argv = [
            "sweep", "--set", "corpus_len=24", "--set", "vocab=8",
            "--cache-dir", str(tmp_path), "--jobs", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "corpus_len=24" in out and "corpus_len=128" not in out
        assert "vocab=8" in out  # override replaced the stock vocab=64

    def test_grid_without_experiments_targets_accepting_runners(
        self, tmp_path, capsys
    ):
        argv = [
            "sweep", "--grid", "spec=g128",
            "--set", "vocab=64", "--set", "d_model=256",
            "--set", "corpus_len=64",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Only table2 accepts 'spec'; nothing else may run.
        assert "table2[" in out and "sweep: 1 jobs" in out

    def test_grid_axis_nobody_accepts_errors(self, capsys):
        assert main(["sweep", "--grid", "nonsense=1"]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_sweep_artifacts_out_dir(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--experiments", "fig9",
            "--no-cache",
            "--out", str(tmp_path / "art"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "art" / "results.csv").is_file()

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "tolerance" in out


class TestRowKeyError:
    def test_lists_available_labels(self):
        result = ExperimentResult("x", "d", (ResultRow("alpha", 1.0),))
        with pytest.raises(KeyError, match="alpha"):
            result.row("beta")
