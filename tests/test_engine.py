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
    native,
    plan_cache_size,
    plan_gemm,
)
from repro.errors import KernelBuildError, QuantizationError
from repro.fp import vec
from repro.multiplier.parallel import parallel_fp_int_mul, rebias_offset
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
    """The backend table: three names, one lookup."""

    def test_builtin_backends_registered(self):
        assert backend_names() == ["batched", "bitexact-scalar", "reference"]

    def test_get_backend_returns_record(self):
        assert get_backend("batched") is backends.execute_batched
        assert get_backend("reference") is backends.execute_reference

    def test_unknown_backend_raises(self):
        with pytest.raises(QuantizationError, match="valid backends: batched, "):
            get_backend("warp-drive")
        with pytest.raises(QuantizationError, match="'fast'"):
            get_backend("fast")


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

    def test_w16_matches_dequantize(self):
        for symmetric in (False, True):
            _, qm = _setup(symmetric=symmetric)
            plan = plan_gemm(qm)
            expected = qm.dequantize().astype(np.float16).astype(np.float64)
            assert np.array_equal(plan.w16, expected)

    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_signed_codes_derived_on_first_use(self, bits, symmetric):
        _, qm = _setup(bits=bits, symmetric=symmetric)
        plan = GemmPlan(qm)
        assert plan._signed is None  # the contraction never needs them
        plan.execute(np.ones((2, 32)), backend="batched")
        assert plan._signed is None
        expected = qm.signed_codes()
        assert plan.signed.dtype == expected.dtype
        assert np.array_equal(plan.signed, expected)
        assert plan.signed is plan.signed

    def test_packed_layout_is_pacq_convention(self):
        _, qm = _setup()
        packed = plan_gemm(qm).packed
        assert packed.spec.dim is PackDim.N
        assert packed.words.shape == (qm.k_dim, qm.n_dim // 4)

    def test_codes_select_each_weight_once_in_k_order(self):
        _, qm = _setup()
        plan = plan_gemm(qm)
        codes = plan.codes
        assert codes.shape == (qm.n_dim, qm.k_dim)
        assert codes.dtype == np.uint8 and codes.flags.c_contiguous
        # Row j holds column j's channels in ascending k: one per weight.
        channels = qm.signed_codes() + rebias_offset(qm.bits)
        assert np.array_equal(codes, channels.T)
        assert codes.max() < plan.channels


class TestProductTable:
    """The whole-input table ``batched`` gathers from, against the datapath."""

    @pytest.mark.parametrize("bits", [4, 2])
    def test_every_fp16_input_matches_parallel_multiplier(self, bits):
        table = backends.product_table(bits)
        channels = 1 << bits
        assert table.shape == (1 << 16, channels)
        codes = np.arange(channels, dtype=np.int64) - rebias_offset(bits)
        for start in range(0, 1 << 16, 8192):
            patterns = np.arange(start, start + 8192, dtype=np.uint16)
            datapath = vec.parallel_products(patterns[:, None], codes[None, :], bits)
            ours = table[start:start + 8192]
            nan = np.isnan(ours)
            assert np.array_equal(nan, vec.is_nan(datapath))
            # Bit patterns, so signed zeros count; NaN sign bits carry no
            # meaning and differ between the two builds.
            ours_bits = ours.astype(np.float16).view(np.uint16)
            assert np.array_equal(ours_bits[~nan], datapath[~nan])

    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize(
        "pattern", [0x0000, 0x8000, 0x0001, 0x3C00, 0xB555, 0x5400, 0x7BFF, 0xFC00]
    )
    def test_rows_match_scalar_multiplier(self, bits, pattern):
        table = backends.product_table(bits)
        codes = [c - rebias_offset(bits) for c in range(1 << bits)]
        lanes = 16 // bits
        scalar = [
            bits_
            for i in range(0, len(codes), lanes)
            for bits_ in parallel_fp_int_mul(pattern, codes[i:i + lanes], bits).products
        ]
        ours = table[pattern].astype(np.float16).view(np.uint16)
        assert ours.tolist() == scalar


class TestCrossBackendAgreement:
    """``batched`` / ``bitexact-scalar`` / ``reference`` contracts.

    ``batched`` is held to the independent ``bitexact-scalar`` oracle
    at every shape the oracle can afford; at larger shapes the oracle
    runs on a column slice that is quantized on its own.
    """

    @pytest.mark.parametrize("bits", [4, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize(
        "group", [GroupSpec(8, 4), GroupSpec(32, 1), GroupSpec(4, 16), GroupSpec(16, 16)]
    )
    def test_batched_matches_scalar_oracle(self, bits, symmetric, group):
        """``batched``, the default, equals the scalar oracle bit for bit."""
        a, qm = _setup(m=5, k=32, n=16, bits=bits, group=group, symmetric=symmetric)
        plan = plan_gemm(qm)
        scalar = plan.execute(a, backend="bitexact-scalar")
        assert np.array_equal(scalar, plan.execute(a, backend="batched"))

    @given(
        seed=st.integers(0, 10**6),
        bits=st.sampled_from([4, 2]),
        gk=st.sampled_from([4, 8, 16]),
        gn=st.sampled_from([1, 2, 8]),
        symmetric=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, seed, bits, gk, gn, symmetric):
        """batched == bitexact-scalar bit-for-bit on random INT4/INT2 group specs."""
        a, qm = _setup(
            m=3, k=4 * gk, n=2 * max(gn, 4), bits=bits,
            group=GroupSpec(gk, gn), seed=seed, symmetric=symmetric,
        )
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="bitexact-scalar"),
            plan.execute(a, backend="batched"),
        )

    def test_batched_matches_bit_level_multiplier(self):
        a, qm = _setup(m=2, k=16, n=8, group=GroupSpec(8, 4))
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="batched"),
            plan.execute(a, backend="bitexact-scalar"),
        )

    @pytest.mark.parametrize("bits", [4, 2])
    def test_bitexact_realistic_shape_agreement(self, bits):
        """``batched`` at [8, 128] x [128, 128] against the scalar oracle.

        To keep the oracle cheap it runs on the last eight columns,
        quantized on their own: ``g[32,4]`` groups are column-local, so
        that slice has the same codes, scales and outputs as the
        matching columns of the whole matrix.
        """
        rng = np.random.default_rng(bits)
        a = rng.normal(size=(8, 128))
        w = rng.normal(size=(128, 128))
        plan = GemmPlan(quantize_rtn(w, bits=bits, group=GroupSpec(32, 4)))
        tail = GemmPlan(quantize_rtn(w[:, -8:], bits=bits, group=GroupSpec(32, 4)))
        assert np.array_equal(tail.codes, plan.codes[-8:])
        oracle = tail.execute(a, backend="bitexact-scalar")
        assert np.array_equal(plan.execute(a, backend="batched")[:, -8:], oracle)

    def test_order_sensitive_group_sums_match_scalar_oracle(self):
        """The contraction adds each group's products in the oracle's order.

        Three quarters of the activations sit at 63.0 (products near
        2**16, running sums near 2**29.6 with a 2**-23 ulp) and the rest
        at 2**-24 (products on a 2**-24 grid), so a group sum of 16,384
        products rounds differently in every order.  Only ascending k,
        the scalar oracle's ``s1 +=`` order, gives its bits.
        """
        rng = np.random.default_rng(0)
        k = 16384
        qm = quantize_rtn(rng.normal(size=(k, 4)), bits=4, group=GroupSpec(k, 4))
        a = np.full((1, k), 2.0**-24)
        a[0, rng.permutation(k)[: 3 * k // 4]] = 63.0
        plan = plan_gemm(qm)
        # The data must stay order-sensitive, or the test below is vacuous.
        patterns = a.astype(np.float16)[0].view(np.uint16)
        column = backends.product_table(4)[patterns, plan.unsigned[:, 0]]
        in_order = np.cumsum(column)[-1]  # sequential, ascending k
        assert in_order != np.cumsum(column[::-1])[-1]
        assert in_order != column.sum()
        scalar = plan.execute(a, backend="bitexact-scalar").view(np.uint64)
        ours = plan.execute(a, backend="batched").view(np.uint64)
        assert np.array_equal(ours, scalar)

    @pytest.mark.parametrize("name", ["bitexact-scalar"])
    def test_bitexact_backends_reject_unpackable_n(self, name):
        # n = 6 fills no whole 16-bit word of INT4 lanes (4 per word).
        a, qm = _setup(m=1, k=16, n=6, group=GroupSpec(8, 2))
        with pytest.raises(QuantizationError, match="pack factor 4"):
            plan_gemm(qm).execute(a, backend=name)

    def test_bitexact_subnormal_activations_agree(self):
        # Subnormal activations take the scalar multiplier's generic path.
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 32)) * 1e-7
        _, qm = _setup()
        plan = plan_gemm(qm)
        assert np.array_equal(
            plan.execute(a, backend="batched"),
            plan.execute(a, backend="bitexact-scalar"),
        )

    def test_reference_backend_matches_dequant_reference(self):
        a, qm = _setup()
        assert np.array_equal(
            plan_gemm(qm).execute(a, backend="reference"), dequant_reference(a, qm)
        )


class TestSaturationAcrossBackends:
    """The documented FP16 overflow edge, for every backend.

    ``|A| > 65504 / 1039 ~ 63`` saturates transformed products to inf,
    so every backend except ``reference`` must go non-finite;
    ``reference`` skips the transform and must stay finite.
    """

    @pytest.mark.parametrize("name", backend_names())
    def test_large_activations(self, name):
        _, qm = _setup()
        plan = plan_gemm(qm)
        out = plan.execute(np.full((1, 32), 70.0), backend=name)
        if name != "reference":
            assert not np.all(np.isfinite(out))
        else:
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", backend_names())
    def test_safe_range_stays_finite(self, name):
        _, qm = _setup()
        plan = plan_gemm(qm)
        out = plan.execute(np.full((1, 32), 60.0), backend=name)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", ["batched"])
    def test_saturating_input_identical_to_scalar_oracle(self, name):
        # Saturated products must sum to the scalar oracle's results,
        # NaN/inf placement included.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 32)) * 40.0  # straddles the ~63 edge
        _, qm = _setup()
        plan = plan_gemm(qm)
        with np.errstate(invalid="ignore"):
            ours = plan.execute(a, backend=name)
            scalar = plan.execute(a, backend="bitexact-scalar")
        assert np.array_equal(np.isnan(scalar), np.isnan(ours))
        mask = ~np.isnan(scalar)
        assert np.array_equal(scalar[mask], ours[mask])

    def test_saturating_call_gives_inf_without_nan(self):
        # One activation at 64.0 saturates its products to inf.  The
        # kernel adds only the selected products, so inf never meets
        # inf * 0: it gives the scalar oracle's inf outputs, and no NaN.
        rng = np.random.default_rng(2)
        qm = quantize_rtn(rng.normal(size=(64, 32)), bits=4, group=GroupSpec(32, 4))
        a = rng.normal(size=(2, 64))
        a[0, 40] = 64.0
        plan = GemmPlan(qm)
        scalar = plan.execute(a, backend="bitexact-scalar")
        batched = plan.execute(a, backend="batched")
        assert np.isinf(scalar).sum() == 32
        assert not np.isnan(scalar).any()
        assert np.array_equal(batched, scalar)


class TestFastPath:
    """Serving-shaped calls stay on each backend's fast path.

    The shapes are the benchmark model's weight sites (``d_model`` 256,
    ``d_ffn`` 1024, ``int4@g[32,4]``) at decode, small-batch and
    prefill row counts.  The scalar multiplier is patched to raise, so
    a backend that quietly falls back to it fails here instead of only
    running slower.
    """

    def test_no_fallback_and_plan_state_reused(self, monkeypatch):
        def slow_path(*args, **kwargs):
            raise AssertionError("fell off the fast path")

        monkeypatch.setattr(backends, "parallel_fp_int_mul", slow_path)
        # The kernel gathers its own products: a Python-side gather of a
        # [k, m, channels] products array fails here.
        monkeypatch.setattr(np, "take", slow_path)
        rng = np.random.default_rng(0)
        for k, n in ((256, 1024), (1024, 256)):
            qm = quantize_rtn(rng.normal(size=(k, n)), bits=4, group=GroupSpec(32, 4))
            plan = GemmPlan(qm)  # uncached: inspect this plan's lazy state
            assert plan._codes is None
            plan.execute(rng.normal(size=(1, k)), backend="batched")
            codes, contraction = plan._codes, plan._contraction
            assert codes is not None and contraction is not None
            for m in (6, 48, 1):
                plan.execute(rng.normal(size=(m, k)), backend="batched")
            assert plan._codes is codes  # built once, not per call
            assert plan._contraction is contraction  # bound once


def _assert_same_bits(ours, oracle):
    assert np.array_equal(np.isnan(ours), np.isnan(oracle))
    keep = ~np.isnan(oracle)
    assert np.array_equal(ours[keep].view(np.uint64), oracle[keep].view(np.uint64))


class TestKernel:
    """The compiled contraction: row tiles, column blocks, build path."""

    #: Every leftover-row count after the full 8-row tiles (exact 1- and
    #: 2-row tiles, padded 4- and 8-row tiles), and two prefill sizes.
    ROWS = (*range(1, 18), 40, 64)

    @pytest.mark.parametrize("k,n", [(256, 1024), (1024, 256), (256, 256)])
    def test_row_tiles_match_scalar_oracle(self, k, n):
        """Every m through the tiling equals the oracle, NaN positions too.

        The oracle's outputs are independent per row and per column, so
        it runs once, on the largest batch and on the last column block
        (a separately quantized slice: ``g[32,4]`` groups are
        column-local); each ``m`` compares its rows against that.
        """
        rng = np.random.default_rng(k + n)
        w = rng.normal(size=(k, n))
        a = rng.normal(size=(max(self.ROWS), k)) * 20.0  # some saturate
        plan = GemmPlan(quantize_rtn(w, bits=4, group=GroupSpec(32, 4)))
        tail = GemmPlan(quantize_rtn(w[:, -4:], bits=4, group=GroupSpec(32, 4)))
        assert np.array_equal(tail.codes, plan.codes[-4:])
        with np.errstate(all="ignore"):
            oracle = tail.execute(a, backend="bitexact-scalar")
            assert np.isnan(oracle).any() and np.isfinite(oracle).any()
            for m in self.ROWS:
                batched = plan.execute(a[:m], backend="batched")
                _assert_same_bits(batched[:, -4:], oracle[:m])

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_special_patterns_in_padded_tile_match_scalar_oracle(self, m):
        """Infinities, NaNs, -0.0 and 65504 in the last row of a padded tile.

        m = 3, 5 and 7 each end in a padded tile (4, 8 and 8 lanes), so
        the special row sits beside padding lanes; ``batched`` must give
        the oracle's bits, NaN positions included.
        """
        rng = np.random.default_rng(m)
        w = rng.normal(size=(32, 8))
        plan = GemmPlan(quantize_rtn(w, bits=4, group=GroupSpec(8, 4)))
        a16 = rng.normal(size=(m, 32)).astype(np.float16)
        special = np.array([0x7C00, 0xFC00, 0x7E00, 0xFFFF, 0x8000, 0x7BFF], np.uint16)
        assert special.view(np.float16)[-1] == 65504
        # Spread over all four k-groups of the last row.
        a16[-1, [0, 7, 8, 15, 23, 31]] = special.view(np.float16)
        with np.errstate(all="ignore"):
            oracle = plan.execute(a16, backend="bitexact-scalar")
            assert np.isnan(oracle[-1]).any() and np.isfinite(oracle[:-1]).all()
            _assert_same_bits(plan.execute(a16, backend="batched"), oracle)

    def test_operands_checked_before_the_foreign_call(self):
        _, qm = _setup()
        plan = GemmPlan(qm)
        a16 = np.ones((2, 32), dtype=np.float16)
        table = backends.product_table(4)
        bad = [
            (table.astype(np.float32), a16.view(np.uint16)),
            (table[:, :8], a16.view(np.uint16)),
            (table, a16.view(np.uint16).astype(np.int64)),
            (table, a16.view(np.uint16)[:1]),
            (table, np.asfortranarray(a16.view(np.uint16))),
        ]
        for operands in bad:
            with pytest.raises(QuantizationError, match="do not match the kernel"):
                backends._contract(a16, *operands, plan)
        assert plan._contraction is None  # rejected before binding the kernel

    def test_partial_column_block_matches_scalar_oracle(self):
        # n = 6 leaves a 2-column remainder after one 4-column block; the
        # oracle needs whole packed words, so it runs on the n = 8 matrix
        # whose first six columns are the same (g[8,2] is column-local).
        rng = np.random.default_rng(5)
        w = rng.normal(size=(32, 8))
        a = rng.normal(size=(11, 32))
        six = GemmPlan(quantize_rtn(w[:, :6], bits=4, group=GroupSpec(8, 2)))
        eight = GemmPlan(quantize_rtn(w, bits=4, group=GroupSpec(8, 2)))
        oracle = eight.execute(a, backend="bitexact-scalar")[:, :6]
        for m in range(1, 12):
            _assert_same_bits(six.execute(a[:m], backend="batched"), oracle[:m])

    def test_epilogue_order_matches_scalar_oracle(self):
        """Eq. (1) and adjust are applied in the oracle's order.

        Below ``group_k`` ~ 2**13 every epilogue operation but the
        scale is exact, so only a long group can tell orders apart:
        12,289 activations at 63.0 and an odd count at 2**-24 give a
        ``sum(A)`` with a 2**-24 bit, which ``acc + adjust * sA`` (acc
        near 2**30) must round and ``acc - offset * sA`` need not.
        """
        rng = np.random.default_rng(0)
        k = 16384
        qm = quantize_rtn(rng.normal(size=(k, 4)), bits=4, group=GroupSpec(k, 4))
        a = np.full((1, k), 2.0**-24)
        a[0, rng.permutation(k)[:12289]] = 63.0
        plan = plan_gemm(qm)
        # The data must tell the two orders apart, or the test is vacuous.
        patterns = a.astype(np.float16)[0].view(np.uint16)
        acc = np.cumsum(backends.product_table(4)[patterns, plan.unsigned[:, 0]])[-1]
        s_a = np.cumsum(a.astype(np.float16)[0].astype(np.float64))[-1]
        adjust, scale = plan.adjust_rows[0, 0], plan.scale_rows[0, 0]
        oracle_order = ((acc - plan.offset * s_a) + adjust * s_a) * scale
        assert oracle_order != ((acc + adjust * s_a) - plan.offset * s_a) * scale
        scalar = plan.execute(a, backend="bitexact-scalar").view(np.uint64)
        ours = plan.execute(a, backend="batched").view(np.uint64)
        assert np.array_equal(ours, scalar)

    @pytest.fixture
    def fresh_kernel(self, tmp_path, monkeypatch):
        """An empty kernel cache directory and no kernel loaded."""
        monkeypatch.setenv("PACQ_CACHE_DIR", str(tmp_path))
        native.contract_kernel.cache_clear()
        yield tmp_path
        monkeypatch.undo()
        native.contract_kernel.cache_clear()

    def test_missing_compiler_raises_typed_error(self, fresh_kernel, monkeypatch):
        monkeypatch.setattr(native, "COMPILER", "/nonexistent/cc")
        with pytest.raises(KernelBuildError, match="/nonexistent/cc"):
            native.contract_kernel()
        _, qm = _setup()
        with pytest.raises(KernelBuildError):
            GemmPlan(qm).execute(np.ones((1, 32)), backend="batched")

    def test_compile_failure_names_command_and_stderr(
        self, fresh_kernel, monkeypatch
    ):
        broken = fresh_kernel / "broken.c"
        broken.write_text("int pacq_contract(void) { return }\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with pytest.raises(KernelBuildError) as info:
            native.contract_kernel()
        assert "-ffp-contract=off" in str(info.value)
        assert "error" in str(info.value)
        assert not list(fresh_kernel.glob("*.so"))  # nothing half-published

    def test_cold_build_once_then_load_without_compiling(
        self, fresh_kernel, monkeypatch
    ):
        commands = []
        run = native._run

        def recording_run(cmd):
            commands.append(cmd)
            return run(cmd)

        monkeypatch.setattr(native, "_run", recording_run)
        native.contract_kernel()
        assert sum("-o" in cmd for cmd in commands) == 1
        assert len(list(fresh_kernel.glob("contract-*.so"))) == 1
        commands.clear()
        native.contract_kernel.cache_clear()  # as a second process would
        native.contract_kernel()
        assert not any("-o" in cmd for cmd in commands)
        assert len(list(fresh_kernel.iterdir())) == 1  # no temporaries left


class TestDecoderIntegration:
    def test_decoder_caches_one_plan_per_matrix(self):
        from repro.llm.transformer import Decoder, TransformerConfig, init_weights
        from repro.model import QuantPolicy, quantize_model

        config = TransformerConfig(vocab=32, d_model=32, n_heads=2, n_layers=1, d_ffn=64)
        weights = init_weights(config, seed=0)
        model = quantize_model(weights, QuantPolicy.uniform(4), compute_reports=False)
        quantized = model.matrices()
        decoder = Decoder(config, weights, model)
        assert set(decoder.plans) == set(quantized)
        for name, plan in decoder.plans.items():
            assert plan is plan_gemm(quantized[name])

    def test_decoder_backends_bit_identical(self):
        from repro.llm.transformer import Decoder, TransformerConfig, init_weights
        from repro.model import QuantPolicy, quantize_model

        config = TransformerConfig(vocab=32, d_model=32, n_heads=2, n_layers=1, d_ffn=64)
        weights = init_weights(config, seed=0)
        model = quantize_model(weights, QuantPolicy.uniform(4), compute_reports=False)
        tokens = np.arange(8)
        batched = Decoder(config, weights, model).forward(tokens)
        scalar = Decoder(config, weights, model, backend="bitexact-scalar")
        assert np.array_equal(batched, scalar.forward(tokens))


class TestHyperGemmDispatch:
    def test_mode_batched_via_public_api(self):
        a, qm = _setup()
        assert np.array_equal(
            hyper_gemm(a, qm, mode="batched"),
            hyper_gemm(a, qm, mode="bitexact-scalar"),
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
