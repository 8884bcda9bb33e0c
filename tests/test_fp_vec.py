"""Vectorized kernel layer (repro.fp.vec) vs the scalar oracles.

The vec layer's contract is *bit-for-bit* equality with the scalar
bit-level models, so the codec is checked exhaustively over all 65,536
patterns (and the rounding midpoints between them), and the arithmetic
kernels over an adversarial edge-pattern cross product plus randomized
sweeps.
"""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.fp import fp16, vec
from repro.fp.add import fp16_add as scalar_add
from repro.fp.add import fp16_sum as scalar_sum
from repro.fp.add import fp16_tree_sum as scalar_tree_sum
from repro.fp.mul import fp16_mul as scalar_mul
from repro.multiplier.parallel import lanes, parallel_fp_int_mul

#: Every 16-bit pattern.
ALL_BITS = np.arange(1 << 16, dtype=np.uint16)

#: Adversarial patterns: zeros, smallest/largest subnormals, smallest/
#: largest normals, one, near-overflow, specials, NaN payloads and a
#: few mid-range values — both signs.
EDGE_BITS = np.array(
    [
        0x0000, 0x8000,  # +/- 0
        0x0001, 0x8001,  # smallest subnormals
        0x03FF, 0x83FF,  # largest subnormals
        0x0400, 0x8400,  # smallest normals
        0x3C00, 0xBC00,  # +/- 1
        0x3BFF, 0x4001,  # around 1
        0x7BFF, 0xFBFF,  # largest finite
        0x7800, 0x6400,  # large powers of two
        0x7C00, 0xFC00,  # +/- inf
        0x7E00, 0x7C01, 0xFE00,  # NaNs (quiet, payload, negative)
        0x0401, 0x1000, 0x23FF, 0x5555, 0xAAAA,
    ],
    dtype=np.uint16,
)


def _scalar_bits(fn, *arrays):
    """Map a scalar bit-level function over aligned flat arrays."""
    flat = [np.asarray(a).ravel() for a in arrays]
    out = np.array(
        [fn(*(int(col[i]) for col in flat)) for i in range(flat[0].size)],
        dtype=np.uint16,
    )
    return out.reshape(np.asarray(arrays[0]).shape)


class TestCodecExhaustive:
    def test_split_all_patterns(self):
        sign, exponent, mantissa = vec.split(ALL_BITS)
        assert np.array_equal(sign, ALL_BITS >> 15)
        recombined = vec.combine(sign, exponent, mantissa)
        assert np.array_equal(recombined, ALL_BITS)
        s, e, m = fp16.split(0x7BFF)
        assert (sign[0x7BFF], exponent[0x7BFF], mantissa[0x7BFF]) == (s, e, m)

    def test_to_float_all_patterns(self):
        expected = np.array([fp16.to_float(int(b)) for b in ALL_BITS])
        got = vec.to_float(ALL_BITS)
        nan = np.isnan(expected)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(expected[~nan], got[~nan])
        # Signed zeros decode with their sign.
        assert np.array_equal(np.signbit(expected[~nan]), np.signbit(got[~nan]))

    def test_from_float_roundtrips_all_finite_patterns(self):
        finite = ALL_BITS[vec.is_finite(ALL_BITS)]
        assert np.array_equal(vec.from_float(vec.to_float(finite)), finite)

    def test_from_float_all_rounding_midpoints(self):
        # The value exactly between every pair of adjacent finite
        # patterns must round to even, exactly as the scalar encoder.
        finite = np.sort(vec.to_float(ALL_BITS[vec.is_finite(ALL_BITS)]))
        midpoints = (finite[:-1] + finite[1:]) / 2.0
        expected = np.array(
            [fp16.from_float(float(v)) for v in midpoints], dtype=np.uint16
        )
        assert np.array_equal(vec.from_float(midpoints), expected)

    def test_from_float_perturbed_values(self):
        rng = np.random.default_rng(0)
        base = vec.to_float(ALL_BITS[vec.is_finite(ALL_BITS)])
        values = np.concatenate([
            base * (1 + 2.0 ** -12), base * (1 - 2.0 ** -12),
            np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
            base * rng.uniform(0.5, 2.0, size=base.size),
        ])
        expected = np.array(
            [fp16.from_float(float(v)) for v in values], dtype=np.uint16
        )
        assert np.array_equal(vec.from_float(values), expected)

    def test_from_float_specials_overflow_underflow(self):
        values = np.array([
            np.nan, np.inf, -np.inf, 0.0, -0.0,
            65519.9, 65520.0, 65536.0, -65520.0, 1e308, -1e308,
            2.0 ** -24, 2.0 ** -25, 2.0 ** -25 * (1 + 1e-9), -(2.0 ** -25),
            2.0 ** -26, 1e-300, 5e-324, -5e-324,
        ])
        expected = np.array(
            [fp16.from_float(float(v)) for v in values], dtype=np.uint16
        )
        assert np.array_equal(vec.from_float(values), expected)

    def test_predicates_all_patterns(self):
        for vec_fn, scalar_fn in [
            (vec.is_nan, fp16.is_nan), (vec.is_inf, fp16.is_inf),
            (vec.is_zero, fp16.is_zero), (vec.is_subnormal, fp16.is_subnormal),
            (vec.is_finite, fp16.is_finite), (vec.is_normalized, fp16.is_normalized),
        ]:
            expected = np.array([scalar_fn(int(b)) for b in ALL_BITS])
            assert np.array_equal(vec_fn(ALL_BITS), expected), vec_fn.__name__

    def test_rejects_out_of_range_and_float_dtypes(self):
        with pytest.raises(EncodingError):
            vec.as_bits(np.array([0x10000]))
        with pytest.raises(EncodingError):
            vec.as_bits(np.array([-1]))
        with pytest.raises(EncodingError):
            vec.as_bits(np.array([1.5]))
        with pytest.raises(EncodingError):
            vec.combine(np.array([2]), np.array([0]), np.array([0]))


class TestScalarCodecAcceptsNumpyIntegers:
    """Satellite: fp16 entry points take numpy.integer without int()."""

    def test_split_and_to_float(self):
        assert fp16.split(np.uint16(0x3C00)) == (0, 15, 0)
        assert fp16.to_float(np.uint16(0x3C00)) == 1.0
        assert fp16.to_float(np.int64(0x7BFF)) == 65504.0

    def test_predicates_and_significand(self):
        assert fp16.is_nan(np.uint16(0x7E00))
        assert fp16.is_inf(np.int32(0x7C00))
        assert fp16.significand(np.uint16(0x3C00)) == 1024

    def test_combine_accepts_numpy_fields(self):
        bits = fp16.combine(np.uint8(1), np.int64(15), np.uint16(1))
        assert bits == 0xBC01 and isinstance(bits, int)

    def test_fp16_wrapper_normalizes_numpy_bits(self):
        wrapped = fp16.Fp16(np.uint16(0x3C00))
        assert wrapped.bits == 0x3C00 and isinstance(wrapped.bits, int)

    def test_still_rejects_non_integers(self):
        with pytest.raises(EncodingError):
            fp16.split(1.5)
        with pytest.raises(EncodingError):
            fp16.split(np.float16(1.0))
        with pytest.raises(EncodingError):
            fp16.split(0x10000)


class TestMulVsOracle:
    def test_edge_cross_product(self):
        a, b = np.meshgrid(EDGE_BITS, EDGE_BITS, indexing="ij")
        assert np.array_equal(vec.fp16_mul(a, b), _scalar_bits(scalar_mul, a, b))

    def test_randomized_patterns(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 16, size=4000).astype(np.uint16)
        b = rng.integers(0, 1 << 16, size=4000).astype(np.uint16)
        assert np.array_equal(vec.fp16_mul(a, b), _scalar_bits(scalar_mul, a, b))

    def test_subnormal_times_subnormal_flushes(self):
        out = vec.fp16_mul(np.uint16(0x0001), np.uint16(0x0001))
        assert out == 0x0000

    def test_broadcasting(self):
        a = EDGE_BITS[:, None]
        b = EDGE_BITS[None, :]
        assert vec.fp16_mul(a, b).shape == (EDGE_BITS.size, EDGE_BITS.size)


class TestAddVsOracle:
    def test_edge_cross_product(self):
        a, b = np.meshgrid(EDGE_BITS, EDGE_BITS, indexing="ij")
        assert np.array_equal(vec.fp16_add(a, b), _scalar_bits(scalar_add, a, b))

    def test_randomized_patterns(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 1 << 16, size=4000).astype(np.uint16)
        b = rng.integers(0, 1 << 16, size=4000).astype(np.uint16)
        assert np.array_equal(vec.fp16_add(a, b), _scalar_bits(scalar_add, a, b))

    def test_near_cancellation(self):
        # x + (-x +- 1 ulp): the subtraction path with maximal alignment.
        finite = ALL_BITS[vec.is_finite(ALL_BITS) & (ALL_BITS < 0x7C00)]
        rng = np.random.default_rng(3)
        x = rng.choice(finite, size=2000).astype(np.uint16)
        neg = (x ^ 0x8000).astype(np.uint16)
        for other in (neg, (neg + 1).astype(np.uint16)):
            keep = vec.is_finite(other)
            assert np.array_equal(
                vec.fp16_add(x[keep], other[keep]),
                _scalar_bits(scalar_add, x[keep], other[keep]),
            )

    def test_signed_zero_rules(self):
        assert vec.fp16_add(np.uint16(0x8000), np.uint16(0x8000)) == 0x8000
        assert vec.fp16_add(np.uint16(0x8000), np.uint16(0x0000)) == 0x0000
        assert vec.fp16_add(np.uint16(0x3C00), np.uint16(0xBC00)) == 0x0000


class TestReductionsVsOracle:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 13])
    def test_tree_sum_matches_scalar(self, length):
        rng = np.random.default_rng(length)
        batch = rng.choice(EDGE_BITS, size=(64, length)).astype(np.uint16)
        got = vec.fp16_tree_sum(batch, axis=-1)
        expected = np.array(
            [scalar_tree_sum([int(b) for b in row]) for row in batch],
            dtype=np.uint16,
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("length", [1, 2, 5, 9])
    def test_left_to_right_sum_matches_scalar(self, length):
        rng = np.random.default_rng(20 + length)
        batch = rng.choice(EDGE_BITS, size=(32, length)).astype(np.uint16)
        got = vec.fp16_sum(batch, axis=-1)
        expected = np.array(
            [scalar_sum([int(b) for b in row]) for row in batch], dtype=np.uint16
        )
        assert np.array_equal(got, expected)

    def test_empty_axis_sums_to_positive_zero(self):
        empty = np.zeros((3, 0), dtype=np.uint16)
        assert np.array_equal(vec.fp16_tree_sum(empty), np.zeros(3, np.uint16))
        assert np.array_equal(vec.fp16_sum(empty), np.zeros(3, np.uint16))


class TestParallelVsOracle:
    def _scalar_lane_products(self, a_bits: int, codes: np.ndarray, bits: int):
        width = lanes(bits)
        out = []
        for start in range(0, codes.size, width):
            chunk = [int(c) for c in codes[start : start + width]]
            out.extend(parallel_fp_int_mul(a_bits, chunk, bits).products)
        return out

    @pytest.mark.parametrize("bits", [4, 2])
    def test_all_codes_edge_activations(self, bits):
        offset = 1 << (bits - 1)
        codes = np.arange(-offset, offset)
        got = vec.parallel_products(EDGE_BITS[:, None], codes[None, :], bits)
        for i, a_bits in enumerate(EDGE_BITS):
            expected = self._scalar_lane_products(int(a_bits), codes, bits)
            assert np.array_equal(got[i], np.array(expected, dtype=np.uint16)), hex(a_bits)

    @pytest.mark.parametrize("bits", [4, 2])
    def test_random_code_blocks(self, bits):
        rng = np.random.default_rng(50 + bits)
        offset = 1 << (bits - 1)
        k, n = 16, 4 * lanes(bits)
        a = rng.integers(0, 1 << 16, size=(k, 1)).astype(np.uint16)
        codes = rng.integers(-offset, offset, size=(k, n))
        got = vec.parallel_products(a, codes, bits)
        for i in range(k):
            expected = self._scalar_lane_products(int(a[i, 0]), codes[i], bits)
            assert np.array_equal(got[i], np.array(expected, dtype=np.uint16))

    @pytest.mark.parametrize("bits", [4, 2])
    def test_saturating_activations_overflow_to_inf(self, bits):
        offset = 1 << (bits - 1)
        a = np.full((1, 2 * offset), 0x7BFF, dtype=np.uint16)  # 65504
        codes = np.arange(-offset, offset)[None, :]
        got = vec.parallel_products(a, codes, bits)
        assert np.all(vec.is_inf(got))

    def test_matches_vectorized_reference_products(self):
        rng = np.random.default_rng(60)
        a = rng.integers(0, 1 << 16, size=(256, 1)).astype(np.uint16)
        codes = rng.integers(-8, 8, size=(256, 8))
        assert np.array_equal(
            vec.parallel_products(a, codes, 4),
            vec.reference_products(a, codes, 4),
        )

    def test_rejects_out_of_range_codes_and_widths(self):
        with pytest.raises(EncodingError):
            vec.parallel_products(EDGE_BITS[:1], np.array([8]), 4)
        with pytest.raises(EncodingError):
            vec.parallel_products(EDGE_BITS[:1], np.array([-3]), 2)
        with pytest.raises(EncodingError):
            vec.parallel_products(EDGE_BITS[:1], np.array([0]), 8)
