"""Tests for quantization group geometry (repro.quant.groups)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant.groups import (
    G32_4,
    G64_4,
    G128,
    G256,
    TABLE2_SPECS,
    GroupSpec,
    spec_from_label,
)


class TestSpecBasics:
    def test_size(self):
        assert GroupSpec(128, 1).size == 128
        assert GroupSpec(32, 4).size == 128

    def test_table2_specs_share_sizes_pairwise(self):
        assert G128.size == G32_4.size == 128
        assert G256.size == G64_4.size == 256

    def test_labels(self):
        assert G128.label == "g128"
        assert G32_4.label == "g[32,4]"

    def test_rejects_nonpositive_extents(self):
        with pytest.raises(QuantizationError):
            GroupSpec(0, 1)
        with pytest.raises(QuantizationError):
            GroupSpec(8, -1)


class TestTiling:
    def test_validate_accepts_exact_tiling(self):
        G128.validate_for(256, 64)

    def test_validate_rejects_ragged_k(self):
        with pytest.raises(QuantizationError):
            G128.validate_for(200, 64)

    def test_validate_rejects_ragged_n(self):
        with pytest.raises(QuantizationError):
            G32_4.validate_for(64, 10)

    def test_grid_shape(self):
        assert G32_4.grid_shape(64, 8) == (2, 2)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4), st.integers(1, 4))
    def test_grid_shape_times_group_size_recovers_matrix(self, gk, gn, k, n):
        spec = GroupSpec(k, n)
        shape = spec.grid_shape(gk * k, gn * n)
        assert shape == (gk, gn)
        assert shape[0] * shape[1] * spec.size == gk * k * gn * n


class TestScaleFetches:
    def test_k_only_group_needs_one_fetch_per_output(self):
        assert G128.scale_fetches_per_packed_word(4) == 4

    def test_n_spanning_group_collapses_fetches(self):
        assert G32_4.scale_fetches_per_packed_word(4) == 1

    def test_wider_group_than_word_still_one(self):
        assert GroupSpec(16, 8).scale_fetches_per_packed_word(4) == 1

    def test_int2_word_with_n4_group(self):
        assert G32_4.scale_fetches_per_packed_word(8) == 2

    def test_rejects_straddling_group(self):
        with pytest.raises(QuantizationError):
            GroupSpec(16, 3).scale_fetches_per_packed_word(8)

    def test_rejects_bad_pack(self):
        with pytest.raises(QuantizationError):
            G128.scale_fetches_per_packed_word(0)


class TestLabelParsing:
    def test_simple_label(self):
        assert spec_from_label("g128") == G128

    def test_two_dim_label(self):
        assert spec_from_label("g[32,4]") == G32_4

    def test_whitespace_and_case(self):
        assert spec_from_label("  G256 ") == G256

    def test_rejects_garbage(self):
        with pytest.raises(QuantizationError):
            spec_from_label("x128")

    def test_rejects_malformed_brackets(self):
        with pytest.raises(QuantizationError):
            spec_from_label("g[1,2,3]")

    def test_roundtrip_table2(self):
        for spec in TABLE2_SPECS:
            assert spec_from_label(spec.label) == spec
