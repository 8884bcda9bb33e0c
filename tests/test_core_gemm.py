"""Tests for the functional hyper-asymmetric GEMM (repro.core.gemm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gemm import (
    dequant_reference,
    hyper_gemm,
    pack_for_flow,
)
from repro.errors import QuantizationError
from repro.quant.groups import GroupSpec
from repro.quant.packing import PackDim, unpack
from repro.quant.rtn import quantize_rtn


def _setup(m=4, k=32, n=16, bits=4, group=None, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    w = rng.normal(size=(k, n))
    spec = group if group is not None else GroupSpec(8, 4)
    qm = quantize_rtn(w, bits=bits, group=spec, symmetric=symmetric)
    return a, w, qm


def _datapath_envelope(a, qm):
    """Elementwise bound on the PacQ-vs-dequant deviation.

    Each transformed product rounds at magnitude ``<= 2048 * |a|``, so
    its error is at most ``|a| * 2**-11 * 2048 = |a|``; errors scale by
    the group scale and accumulate over k (see the gemm.py numerics
    note).  The bound is loose by design — it documents the mechanism.
    """
    a16 = np.abs(a.astype(np.float16).astype(np.float64))
    return a16 @ qm.expand_scales() + 1e-9


class TestAgainstDequantReference:
    @pytest.mark.parametrize("mode", ["batched", "bitexact-scalar"])
    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_fast_mode_matches_reference(self, bits, symmetric, mode):
        a, _, qm = _setup(bits=bits, symmetric=symmetric)
        ours = hyper_gemm(a, qm, mode=mode)
        ref = dequant_reference(a, qm)
        # Same math up to the transformed-product rounding envelope.
        assert np.all(np.abs(ours - ref) <= _datapath_envelope(a, qm))
        rel_fro = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
        assert rel_fro < (0.15 if bits == 4 else 0.55)

    def test_quantized_gemm_close_to_full_precision(self):
        a, w, qm = _setup(k=64, n=16, group=GroupSpec(16, 4))
        ours = hyper_gemm(a, qm)
        exact = a.astype(np.float16).astype(np.float64) @ w
        err = np.abs(ours - exact)
        assert err.mean() < 1.0  # 4-bit weights + datapath rounding

    @pytest.mark.parametrize(
        "group", [GroupSpec(32, 1), GroupSpec(8, 8), GroupSpec(16, 2)]
    )
    def test_group_shapes_all_work(self, group):
        a, _, qm = _setup(group=group, n=16)
        ours = hyper_gemm(a, qm)
        ref = dequant_reference(a, qm)
        assert np.all(np.abs(ours - ref) <= _datapath_envelope(a, qm))


class TestBitexactMode:
    """``batched`` against the ``bitexact-scalar`` oracle."""

    @pytest.mark.parametrize("mode", ["batched"])
    def test_fast_and_bitexact_agree(self, mode):
        a, _, qm = _setup(m=2, k=16, n=8, group=GroupSpec(8, 4))
        exact = hyper_gemm(a, qm, mode="bitexact-scalar")
        assert np.array_equal(hyper_gemm(a, qm, mode=mode), exact)

    @pytest.mark.parametrize("mode", ["batched"])
    def test_fast_and_bitexact_agree_int2(self, mode):
        a, _, qm = _setup(m=2, k=16, n=8, bits=2, group=GroupSpec(8, 4))
        exact = hyper_gemm(a, qm, mode="bitexact-scalar")
        assert np.array_equal(hyper_gemm(a, qm, mode=mode), exact)

    def test_batched_bit_identical_with_scalar_oracle_on_suite_matrices(self):
        for bits in (4, 2):
            for symmetric in (False, True):
                a, _, qm = _setup(bits=bits, symmetric=symmetric)
                assert np.array_equal(
                    hyper_gemm(a, qm, mode="bitexact-scalar"),
                    hyper_gemm(a, qm, mode="batched"),
                )

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_agreement_property(self, seed):
        a, _, qm = _setup(m=1, k=8, n=8, group=GroupSpec(8, 4), seed=seed)
        batched = hyper_gemm(a, qm)
        exact = hyper_gemm(a, qm, mode="bitexact-scalar")
        assert np.array_equal(batched, exact)


class TestValidation:
    def test_rejects_int8(self):
        a, w, _ = _setup()
        qm = quantize_rtn(w, bits=8, group=GroupSpec(8, 4))
        with pytest.raises(QuantizationError):
            hyper_gemm(a, qm)

    def test_rejects_shape_mismatch(self):
        a, _, qm = _setup()
        with pytest.raises(QuantizationError):
            hyper_gemm(a[:, :-1], qm)

    def test_rejects_unknown_mode(self):
        a, _, qm = _setup()
        with pytest.raises(QuantizationError):
            hyper_gemm(a, qm, mode="magic")

    def test_rejects_1d_activations(self):
        _, _, qm = _setup()
        with pytest.raises(QuantizationError):
            hyper_gemm(np.zeros(32), qm)


class TestPacking:
    def test_pack_for_flow_n_direction(self):
        _, _, qm = _setup()
        packed = pack_for_flow(qm, along_n=True)
        assert packed.spec.dim is PackDim.N
        assert packed.words.shape == (32, 4)

    def test_pack_for_flow_k_direction(self):
        _, _, qm = _setup()
        packed = pack_for_flow(qm, along_n=False)
        assert packed.spec.dim is PackDim.K

    def test_unpack_roundtrip_identity(self):
        _, _, qm = _setup()
        for along_n in (True, False):
            packed = pack_for_flow(qm, along_n)
            assert np.array_equal(unpack(packed), qm.signed_codes())


class TestNumericalProperties:
    def test_linear_in_activations(self):
        a, _, qm = _setup()
        doubled = hyper_gemm(2 * a, qm)
        single = hyper_gemm(a, qm)
        assert np.allclose(doubled, 2 * single, rtol=2e-3, atol=2e-2)

    def test_zero_activations_give_zero(self):
        _, _, qm = _setup()
        out = hyper_gemm(np.zeros((3, 32)), qm)
        assert np.allclose(out, 0.0)

    def test_output_shape(self):
        a, _, qm = _setup(m=5, n=16)
        assert hyper_gemm(a, qm).shape == (5, 16)


class TestDatapathSaturation:
    """The transformed-product FP16 overflow edge (gemm.py numerics note).

    All-backend coverage lives in tests/test_engine.py
    (TestSaturationAcrossBackends); here the edge is pinned through the
    public ``hyper_gemm`` wrapper.
    """

    @pytest.mark.parametrize("mode", ["batched", "bitexact-scalar"])
    def test_large_activations_saturate_transformed_products(self, mode):
        _, _, qm = _setup()
        a = np.full((1, 32), 70.0)  # 70 * 1039 > 65504: products -> inf
        out = hyper_gemm(a, qm, mode=mode)
        assert not np.all(np.isfinite(out))

    @pytest.mark.parametrize("mode", ["batched", "bitexact-scalar"])
    def test_safe_range_stays_finite(self, mode):
        _, _, qm = _setup()
        a = np.full((1, 32), 60.0)  # inside the |A| < ~63 envelope
        out = hyper_gemm(a, qm, mode=mode)
        assert np.all(np.isfinite(out))

    def test_dequant_baseline_handles_large_activations(self):
        _, _, qm = _setup()
        a = np.full((1, 32), 70.0)
        ref = dequant_reference(a, qm)
        assert np.all(np.isfinite(ref))
