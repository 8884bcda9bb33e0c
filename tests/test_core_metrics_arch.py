"""Tests for architecture presets and the evaluation metrics."""

import pytest

from repro.core.arch import (
    packed_k_baseline,
    pacq,
    standard_dequant,
    table1_inventory,
    volta_w16a16,
)
from repro.core.metrics import (
    edp_reduction,
    evaluate,
    normalized_edp,
    speedup,
    throughput_per_watt,
)
from repro.core.workloads import (
    LLAMA2_7B,
    LlmSpec,
    batch_sweep,
    fig10_workload,
    microbench_workload,
)
from repro.errors import ConfigError
from repro.simt.flows import FlowKind
from repro.simt.memoryhier import GemmShape

SHAPE = GemmShape(16, 64, 64)


class TestArchPresets:
    def test_volta_reference(self):
        arch = volta_w16a16()
        assert arch.weight_bits == 16
        assert arch.flow.kind is FlowKind.STANDARD_DEQUANT

    def test_standard_dequant(self):
        assert standard_dequant(4).flow.kind is FlowKind.STANDARD_DEQUANT
        assert standard_dequant(2).weight_bits == 2

    def test_packed_k(self):
        arch = packed_k_baseline(4)
        assert arch.flow.kind is FlowKind.PACKED_K
        assert arch.name == "P(B4)k"

    def test_pacq_defaults(self):
        arch = pacq(4)
        assert arch.sim.core.adder_tree_dup == 2
        assert arch.sim.core.dp_width == 4

    def test_pacq_ablation_knobs(self):
        arch = pacq(2, adder_tree_dup=4, dp_width=8)
        assert arch.sim.core.adder_tree_dup == 4
        assert arch.sim.core.dp_width == 8

    def test_pacq_rejects_int8(self):
        with pytest.raises(ConfigError):
            pacq(8)

    def test_table1_inventory_lists_all_units(self):
        units = dict(table1_inventory())
        assert units["INT11 MUL (baseline)"] == "10 INT16 adders"
        assert "12 INT16 adders" in units["Parallel INT11 MUL"]
        assert len(units) == 8


class TestEvaluate:
    def test_energy_components_positive(self):
        result = evaluate(pacq(4), SHAPE)
        e = result.energy
        assert e.rf > 0 and e.l1 > 0 and e.l2 > 0 and e.dram > 0 and e.compute > 0

    def test_on_chip_excludes_dram(self):
        e = evaluate(pacq(4), SHAPE).energy
        assert e.on_chip == pytest.approx(
            e.rf + e.l1 + e.l2 + e.compute + e.general_core
        )
        assert e.total == pytest.approx(e.on_chip + e.dram)

    def test_general_core_energy_only_for_dequant(self):
        assert evaluate(standard_dequant(4), SHAPE).energy.general_core > 0
        assert evaluate(pacq(4), SHAPE).energy.general_core == 0

    def test_speedup_close_to_two(self):
        std = evaluate(standard_dequant(4), SHAPE)
        ours = evaluate(pacq(4), SHAPE)
        assert speedup(std, ours) == pytest.approx(1.955, abs=0.05)

    def test_edp_reduction_in_paper_range(self):
        std = evaluate(standard_dequant(4), fig10_workload())
        ours = evaluate(pacq(4), fig10_workload())
        assert edp_reduction(std, ours) == pytest.approx(0.704, abs=0.05)

    def test_edp_reduction_int2_exceeds_int4(self):
        shape = fig10_workload()
        red4 = edp_reduction(evaluate(standard_dequant(4), shape), evaluate(pacq(4), shape))
        red2 = edp_reduction(evaluate(standard_dequant(2), shape), evaluate(pacq(2), shape))
        assert red2 > red4

    def test_normalized_edp(self):
        std = evaluate(standard_dequant(4), SHAPE)
        ours = evaluate(pacq(4), SHAPE)
        values = normalized_edp([std, ours], std)
        assert values[0] == pytest.approx(1.0)
        assert values[1] < 1.0

    def test_macs_per_cycle(self):
        result = evaluate(pacq(4), SHAPE)
        assert result.macs_per_cycle > 0

    def test_throughput_per_watt_helper(self):
        assert throughput_per_watt(4, 2.0) == 2.0


class TestWorkloads:
    def test_fig10_shape(self):
        shape = fig10_workload()
        assert (shape.m, shape.n, shape.k) == (16, 4096, 4096)

    def test_microbench_shape(self):
        assert microbench_workload().name == "m16n16k16"

    def test_llama2_7b_layer_gemms(self):
        gemms = dict(LLAMA2_7B.layer_gemms(16))
        assert gemms["qkv_proj"].n == 3 * 4096
        assert gemms["ffn_down"].k == 11008
        assert all(shape.m == 16 for shape in gemms.values())

    def test_batch_sweep(self):
        shapes = batch_sweep(GemmShape(1, 64, 64), [1, 8, 32])
        assert [s.m for s in shapes] == [1, 8, 32]

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            LLAMA2_7B.layer_gemms(0)

    def test_macs(self):
        assert GemmShape(2, 3, 4).macs == 24

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            GemmShape(0, 1, 1)

    def test_custom_spec(self):
        spec = LlmSpec("toy", hidden=64, intermediate=256, num_layers=2, vocab=100)
        gemms = spec.layer_gemms(4)
        assert dict(gemms)["ffn_up"].n == 256
