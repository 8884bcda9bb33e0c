"""Tests for RTN quantization (repro.quant.rtn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import QuantizationError
from repro.quant.groups import G128, GroupSpec
from repro.quant.rtn import RtnQuantizer, quantize_rtn


def _weights(k=64, n=16, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=(k, n))


class TestBasics:
    def test_codes_within_range_asymmetric(self):
        qm = quantize_rtn(_weights(), 4, GroupSpec(16, 4))
        assert qm.codes.min() >= 0
        assert qm.codes.max() <= 15

    def test_codes_within_range_symmetric(self):
        qm = quantize_rtn(_weights(), 4, GroupSpec(16, 4), symmetric=True)
        assert qm.codes.min() >= -8
        assert qm.codes.max() <= 7

    def test_rejects_unsupported_bits(self):
        with pytest.raises(QuantizationError):
            quantize_rtn(_weights(), 5, GroupSpec(16))

    def test_rejects_non_2d(self):
        with pytest.raises(QuantizationError):
            quantize_rtn(np.zeros(8), 4, GroupSpec(4))

    def test_rejects_ragged_group(self):
        with pytest.raises(QuantizationError):
            quantize_rtn(_weights(60, 16), 4, GroupSpec(16))

    def test_scales_shape_matches_grid(self):
        qm = quantize_rtn(_weights(64, 16), 4, GroupSpec(16, 4))
        assert qm.scales.shape == (4, 4)
        assert qm.zeros.shape == (4, 4)

    def test_int2_supported(self):
        qm = quantize_rtn(_weights(), 2, GroupSpec(16, 4))
        assert qm.codes.max() <= 3


class TestReconstruction:
    def test_error_bounded_by_half_scale(self):
        weights = _weights()
        qm = quantize_rtn(weights, 4, GroupSpec(16, 4))
        err = np.abs(weights - qm.dequantize())
        bound = qm.expand_scales() * 0.5 + 1e-12
        assert np.all(err <= bound)

    def test_zero_weight_is_exact_asymmetric(self):
        weights = _weights()
        weights[3, 3] = 0.0
        qm = quantize_rtn(weights, 4, GroupSpec(16, 4))
        assert qm.dequantize()[3, 3] == pytest.approx(0.0, abs=1e-12)

    def test_extremes_reconstruct_closely(self):
        weights = _weights()
        qm = quantize_rtn(weights, 4, GroupSpec(16, 4))
        recon = qm.dequantize()
        idx = np.unravel_index(np.argmax(weights), weights.shape)
        assert recon[idx] == pytest.approx(weights[idx], rel=0.2, abs=0.1)

    def test_constant_matrix_handled(self):
        weights = np.zeros((16, 8))
        qm = quantize_rtn(weights, 4, GroupSpec(16, 8))
        assert np.allclose(qm.dequantize(), 0.0)

    def test_finer_groups_reduce_error(self):
        weights = _weights(256, 16, scale=2.0)
        coarse = quantize_rtn(weights, 4, GroupSpec(256, 16))
        fine = quantize_rtn(weights, 4, GroupSpec(16, 1))
        err_coarse = np.mean((weights - coarse.dequantize()) ** 2)
        err_fine = np.mean((weights - fine.dequantize()) ** 2)
        assert err_fine < err_coarse

    def test_more_bits_reduce_error(self):
        weights = _weights(128, 16)
        spec = GroupSpec(32, 4)
        errs = []
        for bits in (2, 3, 4, 8):
            qm = quantize_rtn(weights, bits, spec)
            errs.append(np.mean((weights - qm.dequantize()) ** 2))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    @given(
        arrays(
            np.float64,
            (32, 8),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_error_bound_property(self, weights):
        qm = quantize_rtn(weights, 4, GroupSpec(8, 4))
        err = np.abs(weights - qm.dequantize())
        assert np.all(err <= qm.expand_scales() * 0.5 + 1e-9)


class TestSignedCodes:
    def test_asymmetric_shifts_by_rebias(self):
        qm = quantize_rtn(_weights(), 4, GroupSpec(16, 4))
        signed = qm.signed_codes()
        assert np.array_equal(signed, qm.codes - 8)
        assert signed.min() >= -8
        assert signed.max() <= 7

    def test_symmetric_passthrough(self):
        qm = quantize_rtn(_weights(), 4, GroupSpec(16, 4), symmetric=True)
        assert np.array_equal(qm.signed_codes(), qm.codes)

    def test_signed_codes_do_not_alias_storage(self):
        qm = quantize_rtn(_weights(), 4, GroupSpec(16, 4), symmetric=True)
        signed = qm.signed_codes()
        signed[0, 0] = 99
        assert qm.codes[0, 0] != 99


class TestMetadata:
    def test_qmin_qmax(self):
        asym = quantize_rtn(_weights(), 4, GroupSpec(16, 4))
        assert (asym.qmin, asym.qmax) == (0, 15)
        sym = quantize_rtn(_weights(), 4, GroupSpec(16, 4), symmetric=True)
        assert (sym.qmin, sym.qmax) == (-8, 7)

    def test_dims(self):
        qm = quantize_rtn(_weights(64, 16), 4, GroupSpec(16, 4))
        assert (qm.k_dim, qm.n_dim) == (64, 16)

    def test_storage_bits_accounts_for_metadata(self):
        qm = quantize_rtn(_weights(128, 16), 4, G128)
        n_groups = 16
        expected = 128 * 16 * 4 + n_groups * 16 + n_groups * 4
        assert qm.storage_bits() == expected

    def test_storage_smaller_than_fp16(self):
        qm = quantize_rtn(_weights(128, 16), 4, G128)
        assert qm.storage_bits() < 128 * 16 * 16

    def test_expand_scales_shape(self):
        qm = quantize_rtn(_weights(64, 16), 4, GroupSpec(16, 4))
        assert qm.expand_scales().shape == (64, 16)
        assert qm.expand_zeros().shape == (64, 16)


class TestQuantizerCallable:
    def test_call_matches_function(self):
        weights = _weights()
        q = RtnQuantizer(bits=4, group=GroupSpec(16, 4))
        a = q(weights)
        b = quantize_rtn(weights, 4, GroupSpec(16, 4))
        assert np.array_equal(a.codes, b.codes)

    def test_default_group_is_g128(self):
        assert RtnQuantizer().group == GroupSpec(128, 1)
