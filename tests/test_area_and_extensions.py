"""Tests for the area model and extension experiments."""

import pytest

from repro.core.extensions import (
    EXTENSION_EXPERIMENTS,
    area_experiment,
    batch_sweep_experiment,
    motivation_experiment,
    roofline_experiment,
)
from repro.energy.area import (
    area_of,
    area_overhead_vs_baseline,
    throughput_per_area,
)
from repro.energy.units import (
    fp16_mul_baseline,
    fp_int16_mul_parallel,
    int11_mul_baseline,
    int11_mul_parallel,
)
from repro.errors import ConfigError


class TestAreaModel:
    def test_parallel_units_larger_than_baselines(self):
        assert (
            area_of(int11_mul_parallel()).total_ge
            > area_of(int11_mul_baseline()).total_ge
        )
        assert (
            area_of(fp_int16_mul_parallel(4)).total_ge
            > area_of(fp16_mul_baseline()).total_ge
        )

    def test_baseline_units_fully_reused(self):
        report = area_of(fp16_mul_baseline())
        assert report.reuse_fraction == pytest.approx(1.0)
        assert report.extra_ge == pytest.approx(0.0)

    def test_area_reuse_tracks_power_reuse(self):
        # Same inventory, different per-category rates: the area reuse
        # fraction should land near the paper's ~75 % power figure.
        report = area_of(int11_mul_parallel())
        assert report.reuse_fraction == pytest.approx(0.745, abs=0.15)

    def test_overheads_are_modest(self):
        # The efficiency story: each PacQ unit adds well under 1x area.
        overheads = area_overhead_vs_baseline()
        assert set(overheads) == {"INT11 MUL", "FP-INT-16 MUL", "DP-4"}
        for name, overhead in overheads.items():
            assert 0.0 < overhead < 1.0, name

    def test_dp4_overhead_is_largest(self):
        # Duplicated adder trees make the DP the least-reused unit,
        # mirroring Fig. 9's ordering.
        overheads = area_overhead_vs_baseline()
        assert overheads["DP-4"] > overheads["FP-INT-16 MUL"] > overheads["INT11 MUL"]

    def test_throughput_per_area_favours_parallel_mul(self):
        base = throughput_per_area(1.0, fp16_mul_baseline())
        ours = throughput_per_area(4.0, fp_int16_mul_parallel(4))
        assert ours > base

    def test_empty_unit_rejected(self):
        from repro.energy.units import UnitCost

        with pytest.raises(ConfigError):
            area_of(UnitCost("empty")).reuse_fraction


class TestExtensionExperiments:
    def test_registry(self):
        assert set(EXTENSION_EXPERIMENTS) == {
            "batch_sweep",
            "roofline",
            "area",
            "motivation",
            "spec_decode",
            "codesign",
        }

    def test_motivation_reproduces_fig1_story(self):
        result = motivation_experiment()
        rows = {r.label: r.measured for r in result.rows}
        mem_dequant = rows["batch 16 (memory-bound): dequant INT4 vs W16A16"]
        mem_pacq = rows["batch 16 (memory-bound): PacQ INT4 vs W16A16"]
        cpu_dequant = rows["batch 256 (compute-bound): dequant INT4 vs W16A16"]
        cpu_pacq = rows["batch 256 (compute-bound): PacQ INT4 vs W16A16"]
        # Memory-bound: quantization alone wins ~4x; PacQ adds nothing.
        assert mem_dequant == pytest.approx(3.9, abs=0.3)
        assert mem_pacq == pytest.approx(mem_dequant, rel=0.05)
        # Compute-bound: quantization alone wins nothing; PacQ wins ~2x.
        assert cpu_dequant == pytest.approx(1.0, abs=0.05)
        assert cpu_pacq == pytest.approx(1.955, abs=0.05)

    def test_batch_sweep_speedup_stable(self):
        result = batch_sweep_experiment(batches=(16, 64))
        speedups = [r.measured for r in result.rows if "speedup" in r.label]
        assert all(s == pytest.approx(1.955, abs=0.05) for s in speedups)

    def test_batch_sweep_edp_reduction_positive(self):
        result = batch_sweep_experiment(batches=(16, 64))
        cuts = [r.measured for r in result.rows if "EDP" in r.label]
        assert all(0.4 < c < 0.9 for c in cuts)

    def test_roofline_single_batch_memory_bound(self):
        result = roofline_experiment(batches=(1, 256))
        batch1 = [r for r in result.rows if r.label.startswith("batch 1 ")]
        assert batch1
        assert all("memory-bound" in r.label for r in batch1)

    def test_roofline_large_batch_compute_bound(self):
        result = roofline_experiment(batches=(1, 256))
        batch256 = [r for r in result.rows if r.label.startswith("batch 256")]
        assert batch256
        assert all("compute-bound" in r.label for r in batch256)

    def test_area_experiment_rows(self):
        result = area_experiment()
        assert len(result.rows) == 3
        assert all(0 < r.measured < 1 for r in result.rows)

    def test_cli_runs_extensions(self, capsys):
        from repro.cli import main

        assert main(["run", "area"]) == 0
        assert "area overhead" in capsys.readouterr().out
