"""Tests for the GEMM execution engine (repro.engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gemm import dequant_reference, hyper_gemm
from repro.engine import (
    GemmPlan,
    backend_names,
    backends,
    clear_plan_cache,
    get_backend,
    plan_cache_size,
    plan_gemm,
)
from repro.engine.backends import execute_fast
from repro.errors import QuantizationError
from repro.quant.groups import GroupSpec
from repro.quant.packing import PackDim
from repro.quant.rtn import quantize_rtn


def _setup(m=4, k=32, n=16, bits=4, group=None, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    w = rng.normal(size=(k, n))
    spec = group if group is not None else GroupSpec(8, 4)
    qm = quantize_rtn(w, bits=bits, group=spec, symmetric=symmetric)
    return a, qm


class TestRegistry:
    """The backend table: four names, one lookup."""

    def test_builtin_backends_registered(self):
        assert backend_names() == [
            "batched", "bitexact", "bitexact-scalar", "reference"
        ]

    def test_get_backend_returns_record(self):
        assert get_backend("batched") is backends.execute_batched
        assert get_backend("reference") is backends.execute_reference

    def test_unknown_backend_raises(self):
        with pytest.raises(QuantizationError, match="valid backends: batched, "):
            get_backend("warp-drive")
        with pytest.raises(QuantizationError, match="'fast'"):
            get_backend("fast")  # batched's fallback kernel, not a backend


class TestPlanCache:
    def test_same_matrix_same_plan(self):
        _, qm = _setup()
        assert plan_gemm(qm) is plan_gemm(qm)

    def test_different_matrices_different_plans(self):
        _, qm1 = _setup(seed=0)
        _, qm2 = _setup(seed=1)
        assert plan_gemm(qm1) is not plan_gemm(qm2)

    def test_cache_evicts_on_matrix_collection(self):
        clear_plan_cache()
        _, qm = _setup()
        plan_gemm(qm)
        assert plan_cache_size() == 1
        del qm
        assert plan_cache_size() == 0

    def test_clear_plan_cache(self):
        _, qm = _setup()
        plan_gemm(qm)
        clear_plan_cache()
        assert plan_cache_size() == 0
        assert plan_gemm(qm).matches(qm)


class TestPlanState:
    def test_rejects_int8(self):
        rng = np.random.default_rng(0)
        qm = quantize_rtn(rng.normal(size=(32, 16)), bits=8, group=GroupSpec(8, 4))
        with pytest.raises(QuantizationError):
            GemmPlan(qm)

    def test_rejects_bad_activation_shape(self):
        a, qm = _setup()
        plan = plan_gemm(qm)
        with pytest.raises(QuantizationError):
            plan.execute(a[:, :-1])
        with pytest.raises(QuantizationError):
            plan.execute(np.zeros(32))

    def test_transformed_slabs_match_codes(self):
        _, qm = _setup()
        plan = plan_gemm(qm)
        flat = plan.t_blocked.reshape(qm.k_dim, qm.n_dim)
        assert np.array_equal(flat, (qm.signed_codes() + 1032).astype(np.float32))
        assert np.array_equal(plan.lut32[plan.unsigned], flat)

    def test_w16_matches_dequantize(self):
        for symmetric in (False, True):
            _, qm = _setup(symmetric=symmetric)
            plan = plan_gemm(qm)
            expected = qm.dequantize().astype(np.float16).astype(np.float64)
            assert np.array_equal(plan.w16, expected)

    def test_packed_layout_is_pacq_convention(self):
        _, qm = _setup()
        packed = plan_gemm(qm).packed
        assert packed.spec.dim is PackDim.N
        assert packed.words.shape == (qm.k_dim, qm.n_dim // 4)

    def test_onehot_selects_each_weight_once(self):
        _, qm = _setup()
        plan = plan_gemm(qm)
        onehot = plan.onehot
        assert onehot.shape == (plan.gk, plan.group_k * plan.channels, qm.n_dim)
        # Exactly one channel set per (k, n) element.
        per_element = onehot.reshape(
            plan.gk, plan.group_k, plan.channels, qm.n_dim
        ).sum(axis=2)
        assert np.all(per_element == 1.0)


class TestCrossBackendAgreement:
    """``batched`` / ``bitexact`` / ``reference`` contracts.

    ``execute_fast`` is ``batched``'s per-k-group fallback kernel; it is
    called directly as the oracle of the contraction.
    """

    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize(
        "group", [GroupSpec(8, 4), GroupSpec(32, 1), GroupSpec(4, 16), GroupSpec(16, 16)]
    )
    def test_batched_bitexact_with_fast(self, bits, symmetric, group):
        a, qm = _setup(m=5, k=32, n=16, bits=bits, group=group, symmetric=symmetric)
        plan = plan_gemm(qm)
        fast = execute_fast(a, plan)
        batched = plan.execute(a, backend="batched")
        assert np.array_equal(fast, batched)

    @given(
        seed=st.integers(0, 10**6),
        bits=st.sampled_from([4, 2]),
        gk=st.sampled_from([4, 8, 16]),
        gn=st.sampled_from([1, 2, 8]),
        symmetric=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, seed, bits, gk, gn, symmetric):
        """execute_fast == batched bit-for-bit on random INT4/INT2 group specs."""
        a, qm = _setup(
            m=3, k=4 * gk, n=2 * max(gn, 4), bits=bits,
            group=GroupSpec(gk, gn), seed=seed, symmetric=symmetric,
        )
        plan = plan_gemm(qm)
        assert np.array_equal(execute_fast(a, plan), plan.execute(a, backend="batched"))

    def test_batched_matches_bit_level_multiplier(self):
        a, qm = _setup(m=2, k=16, n=8, group=GroupSpec(8, 4))
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="batched"), plan.execute(a, backend="bitexact")
        )

    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_bitexact_matches_scalar_oracle(self, bits, symmetric):
        """The vectorized validator vs the per-element loop it replaced."""
        a, qm = _setup(m=3, k=32, n=16, bits=bits, symmetric=symmetric)
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="bitexact"),
            plan.execute(a, backend="bitexact-scalar"),
        )

    @pytest.mark.parametrize("bits", [4, 2])
    def test_bitexact_realistic_shape_agreement(self, bits):
        """The vectorized validator covers realistic shapes in-suite.

        With the scalar loop this shape took minutes; the vec layer
        lets the cross-backend contract run at [8, 128] x [128, 128]
        on every CI run.
        """
        a, qm = _setup(m=8, k=128, n=128, bits=bits, group=GroupSpec(32, 4))
        plan = plan_gemm(qm)
        bitexact = plan.execute(a, backend="bitexact")
        assert np.array_equal(bitexact, execute_fast(a, plan))
        assert np.array_equal(bitexact, plan.execute(a, backend="batched"))

    def test_bitexact_oracle_agreement_beyond_exact_sum_ceiling(self):
        # group_k > 4096 exceeds the 53-bit exact-sum argument, so the
        # vectorized kernel switches to the oracle's sequential k-order
        # accumulation — equality must hold there too.
        rng = np.random.default_rng(5)
        qm = quantize_rtn(
            rng.normal(size=(8192, 4)), bits=4, group=GroupSpec(8192, 4)
        )
        a = rng.normal(size=(1, 8192))
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="bitexact"),
            plan.execute(a, backend="bitexact-scalar"),
        )

    def test_bitexact_subnormal_activations_agree(self):
        # Subnormal activations exercise the vec layer's generic-path
        # fallback inside the engine kernel.
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 32)) * 1e-7
        _, qm = _setup()
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="bitexact"),
            plan.execute(a, backend="bitexact-scalar"),
        )

    def test_reference_backend_matches_dequant_reference(self):
        a, qm = _setup()
        assert np.array_equal(
            plan_gemm(qm).execute(a, backend="reference"), dequant_reference(a, qm)
        )

    def test_large_group_k_falls_back_bit_exactly(self):
        # group_k beyond the exact-contraction ceiling takes the slab path.
        rng = np.random.default_rng(3)
        qm = quantize_rtn(
            rng.normal(size=(8192, 8)), bits=4, group=GroupSpec(8192, 8)
        )
        a = rng.normal(size=(2, 8192))
        plan = plan_gemm(qm)
        assert np.array_equal(execute_fast(a, plan), plan.execute(a, backend="batched"))

    def test_onehot_memory_ceiling_falls_back_bit_exactly(self, monkeypatch):
        # Matrices whose indicator operand would blow the memory ceiling
        # take the slab path and never build the indicator.
        monkeypatch.setattr(backends, "_BATCHED_MAX_ONEHOT_BYTES", 1024)
        a, qm = _setup()
        plan = GemmPlan(qm)  # uncached: inspect this plan's lazy state
        assert plan.onehot_nbytes > 1024
        batched = backends.execute_batched(a, plan)
        assert plan._onehot is None  # fallback skipped the indicator build
        assert np.array_equal(execute_fast(a, plan), batched)


class TestSaturationAcrossBackends:
    """The documented FP16 overflow edge, for every backend.

    ``|A| > 65504 / 1039 ~ 63`` saturates transformed products to inf,
    so every backend except ``reference`` (and ``batched``'s fallback
    kernel ``fast``) must go non-finite; ``reference`` skips the
    transform and must stay finite.
    """

    @pytest.mark.usefixtures("fast_kernel")
    @pytest.mark.parametrize("name", sorted([*backend_names(), "fast"]))
    def test_large_activations(self, name):
        _, qm = _setup()
        plan = plan_gemm(qm)
        out = plan.execute(np.full((1, 32), 70.0), backend=name)
        if name != "reference":
            assert not np.all(np.isfinite(out))
        else:
            assert np.all(np.isfinite(out))

    @pytest.mark.usefixtures("fast_kernel")
    @pytest.mark.parametrize("name", sorted([*backend_names(), "fast"]))
    def test_safe_range_stays_finite(self, name):
        _, qm = _setup()
        plan = plan_gemm(qm)
        out = plan.execute(np.full((1, 32), 60.0), backend=name)
        assert np.all(np.isfinite(out))

    def test_saturating_input_identical_fast_vs_batched(self):
        # The batched backend's saturation fallback must stay bit-exact,
        # NaN/inf placement included.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 32)) * 40.0  # straddles the ~63 edge
        _, qm = _setup()
        plan = plan_gemm(qm)
        fast = execute_fast(a, plan)
        batched = plan.execute(a, backend="batched")
        assert np.array_equal(np.isnan(fast), np.isnan(batched))
        mask = ~np.isnan(fast)
        assert np.array_equal(fast[mask], batched[mask])

    def test_saturating_input_identical_bitexact_vs_fast(self):
        # The vectorized datapath validator saturates lane products to
        # infinity exactly where the slab kernel, batched and the scalar
        # oracle do.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 32)) * 40.0
        _, qm = _setup()
        plan = plan_gemm(qm)
        fast = execute_fast(a, plan)
        batched = plan.execute(a, backend="batched")
        with np.errstate(invalid="ignore"):
            bitexact = plan.execute(a, backend="bitexact")
            scalar = plan.execute(a, backend="bitexact-scalar")
        for other in (batched, bitexact, scalar):
            assert np.array_equal(np.isnan(fast), np.isnan(other))
            mask = ~np.isnan(fast)
            assert np.array_equal(fast[mask], other[mask])


class TestFastPath:
    """Serving-shaped calls stay on each backend's fast path.

    The shapes are the benchmark model's weight sites (``d_model`` 256,
    ``d_ffn`` 1024, ``int4@g[32,4]``) at decode, small-batch and
    prefill row counts.  The slow paths are patched to raise, so a
    backend that quietly falls back fails here instead of only running
    slower.
    """

    def test_no_fallback_and_plan_state_reused(self, monkeypatch):
        def slow_path(*args, **kwargs):
            raise AssertionError("fell off the fast path")

        monkeypatch.setattr(backends, "execute_fast", slow_path)
        monkeypatch.setattr(backends, "parallel_fp_int_mul", slow_path)
        rng = np.random.default_rng(0)
        for k, n in ((256, 1024), (1024, 256)):
            qm = quantize_rtn(rng.normal(size=(k, n)), bits=4, group=GroupSpec(32, 4))
            plan = GemmPlan(qm)  # uncached: inspect this plan's lazy state
            for m in (1, 6, 48):
                plan.execute(rng.normal(size=(m, k)), backend="batched")
            onehot = plan._onehot
            assert onehot is not None
            plan.execute(rng.normal(size=(2, k)), backend="bitexact")
            plan.execute(rng.normal(size=(1, k)), backend="batched")
            assert plan._onehot is onehot  # built once, not per call


class TestDecoderIntegration:
    def test_decoder_caches_one_plan_per_matrix(self):
        from repro.llm.transformer import (
            Decoder,
            TransformerConfig,
            init_weights,
            quantize_weights,
        )

        config = TransformerConfig(vocab=32, d_model=32, n_heads=2, n_layers=1, d_ffn=64)
        weights = init_weights(config, seed=0)
        quantized = quantize_weights(weights, bits=4)
        decoder = Decoder(config, weights, quantized)
        assert set(decoder.plans) == set(quantized)
        for name, plan in decoder.plans.items():
            assert plan is plan_gemm(quantized[name])

    def test_decoder_backends_bit_identical(self):
        from repro.llm.transformer import (
            Decoder,
            TransformerConfig,
            init_weights,
            quantize_weights,
        )

        config = TransformerConfig(vocab=32, d_model=32, n_heads=2, n_layers=1, d_ffn=64)
        weights = init_weights(config, seed=0)
        quantized = quantize_weights(weights, bits=4)
        tokens = np.arange(8)
        batched = Decoder(config, weights, quantized).forward(tokens)
        bitexact = Decoder(config, weights, quantized, backend="bitexact").forward(tokens)
        assert np.array_equal(batched, bitexact)


class TestHyperGemmDispatch:
    def test_mode_batched_via_public_api(self):
        a, qm = _setup()
        assert np.array_equal(
            hyper_gemm(a, qm, mode="batched"), hyper_gemm(a, qm, mode="bitexact")
        )

    def test_mode_reference_via_public_api(self):
        a, qm = _setup()
        assert np.array_equal(
            hyper_gemm(a, qm, mode="reference"), dequant_reference(a, qm)
        )

    def test_repeated_calls_reuse_plan(self):
        a, qm = _setup()
        hyper_gemm(a, qm)
        plan = plan_gemm(qm)
        hyper_gemm(a, qm, mode="batched")
        assert plan_gemm(qm) is plan
