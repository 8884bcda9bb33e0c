"""Tests for the significand multiplier arrays (repro.multiplier.int11)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.multiplier.int11 import (
    BASELINE_INT11_INVENTORY,
    PARALLEL_INT11_INVENTORY,
    PARALLEL_INT11_REUSED,
    AdderInventory,
    baseline_int11_mul,
    parallel_int11_mul,
    partial_product_rows,
)


class TestPartialProducts:
    def test_rows_sum_to_product(self):
        rows = partial_product_rows(0b10110010101, 0b1011, 4)
        assert sum(rows) == 0b10110010101 * 0b1011

    def test_zero_bit_gives_zero_row(self):
        rows = partial_product_rows(1023, 0b0101, 4)
        assert rows[1] == 0 and rows[3] == 0

    def test_rejects_wide_a(self):
        with pytest.raises(EncodingError):
            partial_product_rows(1 << 11, 1, 4)

    def test_rejects_wide_b(self):
        with pytest.raises(EncodingError):
            partial_product_rows(1, 16, 4)

    @given(st.integers(0, 2047), st.integers(0, 15))
    def test_property_int4(self, a, b):
        assert sum(partial_product_rows(a, b, 4)) == a * b


class TestBaselineArray:
    @given(st.integers(0, 2047), st.integers(0, 2047))
    @settings(max_examples=300)
    def test_exact(self, a, b):
        assert baseline_int11_mul(a, b) == a * b

    def test_max_operands(self):
        assert baseline_int11_mul(2047, 2047) == 2047 * 2047


class TestParallelArray:
    @given(st.integers(0, 2047), st.lists(st.integers(0, 15), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_exact_int4(self, a, bs):
        assert parallel_int11_mul(a, bs, 4) == [a * b for b in bs]

    @given(st.integers(0, 2047), st.lists(st.integers(0, 3), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_exact_int2(self, a, bs):
        assert parallel_int11_mul(a, bs, 2) == [a * b for b in bs]

    def test_rejects_wide_lane(self):
        with pytest.raises(EncodingError):
            parallel_int11_mul(1, [1], 8)


class TestInventories:
    def test_baseline_matches_table1(self):
        assert BASELINE_INT11_INVENTORY.adders == {16: 10}

    def test_parallel_matches_table1(self):
        assert PARALLEL_INT11_INVENTORY.adders == {16: 12, 6: 4}

    def test_reused_subset(self):
        assert PARALLEL_INT11_REUSED.adders == {16: 10}

    def test_total_full_adder_bits(self):
        assert BASELINE_INT11_INVENTORY.total_full_adder_bits() == 160
        assert PARALLEL_INT11_INVENTORY.total_full_adder_bits() == 216

    def test_merge(self):
        merged = AdderInventory({16: 2}).merged_with(AdderInventory({16: 1, 6: 4}))
        assert merged.adders == {16: 3, 6: 4}
