"""End-to-end integration tests across the library's layers."""

import numpy as np
import pytest

from repro.core.arch import packed_k_baseline, pacq, standard_dequant
from repro.core.gemm import dequant_reference, hyper_gemm
from repro.core.metrics import evaluate
from repro.core.workloads import LLAMA2_7B
from repro.fp import fp16
from repro.llm.bigram import make_bigram_lm
from repro.llm.corpus import sample_tokens
from repro.llm.perplexity import evaluate_perplexity
from repro.multiplier.parallel import parallel_fp_int_mul, transform_offset
from repro.quant.groups import GroupSpec
from repro.quant.packing import PackDim, PackSpec, pack, unpack, unpack_word
from repro.quant.rtn import quantize_rtn
from repro.simt.memoryhier import GemmShape


class TestQuantizePackComputePipeline:
    """The full deployment pipeline: quantize -> pack -> compute."""

    def test_packed_words_drive_parallel_multiplier(self):
        # Quantize a weight column, pack it along n, feed one packed
        # word into the parallel multiplier, and verify the corrected
        # dot against the dequantized reference.
        rng = np.random.default_rng(42)
        weights = rng.normal(size=(8, 4))
        qm = quantize_rtn(weights, 4, GroupSpec(8, 4))
        packed = pack(qm.signed_codes(), PackSpec(4, PackDim.N))
        assert packed.words.shape == (8, 1)

        a = rng.normal(size=8)
        a16 = a.astype(np.float16)
        offset = transform_offset(4)
        acc = np.zeros(4)
        a_sum = 0.0
        for k in range(8):
            codes = unpack_word(int(packed.words[k, 0]), packed.spec)
            result = parallel_fp_int_mul(fp16.from_float(float(a16[k])), codes, 4)
            acc += [fp16.to_float(p) for p in result.products]
            a_sum += float(a16[k])
        corrected = acc - offset * a_sum
        adjust = 8 - qm.zeros[0]  # rebias - zero per group
        outputs = qm.scales[0] * (corrected + adjust * a_sum)

        reference = a16.astype(np.float64) @ qm.dequantize()
        # Transformed-product rounding envelope (see gemm.py numerics
        # note): per product <= |a| * scale after correction.
        envelope = float(np.abs(a16).sum()) * float(qm.scales.max()) + 1e-9
        assert np.all(np.abs(outputs - reference) <= envelope)

    def test_pack_direction_does_not_change_values(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(16, 8))
        qm = quantize_rtn(weights, 4, GroupSpec(8, 4))
        for dim in (PackDim.K, PackDim.N):
            packed = pack(qm.signed_codes(), PackSpec(4, dim))
            assert np.array_equal(unpack(packed), qm.signed_codes())

    def test_gemm_matches_reference_at_llm_like_scale(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 256))
        w = rng.normal(size=(256, 64))
        qm = quantize_rtn(w, 4, GroupSpec(64, 4))
        ours = hyper_gemm(a, qm)
        ref = dequant_reference(a, qm)
        rel_fro = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
        assert rel_fro < 0.1


class TestEndToEndEvaluation:
    def test_all_llama_layers_evaluate(self):
        for name, shape in LLAMA2_7B.layer_gemms(16):
            if shape.n % 16 or shape.k % 16:
                continue
            result = evaluate(pacq(4), shape)
            assert result.cycles > 0, name
            assert result.energy.on_chip > 0, name

    def test_pacq_wins_on_every_llama_layer(self):
        for name, shape in LLAMA2_7B.layer_gemms(16):
            if shape.n % 16 or shape.k % 16:
                continue
            std = evaluate(standard_dequant(4), shape)
            ours = evaluate(pacq(4), shape)
            assert ours.edp < std.edp, name
            assert ours.cycles < std.cycles, name

    def test_three_flow_ordering_consistent(self):
        shape = GemmShape(16, 256, 256)
        std = evaluate(standard_dequant(4), shape)
        pk = evaluate(packed_k_baseline(4), shape)
        ours = evaluate(pacq(4), shape)
        # Delay: PacQ < packed-k == standard-ish; EDP strictly ordered.
        assert ours.cycles < pk.cycles
        assert ours.edp < pk.edp < std.edp

    def test_batch_scaling_monotone(self):
        edps = []
        for batch in (16, 32, 64):
            shape = GemmShape(batch, 256, 256)
            edps.append(evaluate(pacq(4), shape).edp)
        assert edps[0] < edps[1] < edps[2]


class TestLlmThroughGemmPath:
    def test_perplexity_pipeline_uses_hyper_gemm(self):
        lm = make_bigram_lm(vocab=64, d_model=128, seed=1)
        tokens = sample_tokens(lm.language(), 256, seed=2)
        qhead = quantize_rtn(lm.head, 4, GroupSpec(32, 4))
        ppl = evaluate_perplexity(lm, tokens, quantized=qhead)
        base = evaluate_perplexity(lm, tokens)
        assert ppl >= base * 0.99
        assert ppl < base * 3.0  # degradation bounded

    def test_fast_and_bitexact_perplexity_agree(self):
        # The default backend (batched) against the bit-level oracle.
        lm = make_bigram_lm(vocab=16, d_model=16, seed=4)
        tokens = sample_tokens(lm.language(), 24, seed=6)
        qhead = quantize_rtn(lm.head, 4, GroupSpec(8, 4))
        batched = evaluate_perplexity(lm, tokens, quantized=qhead)
        exact = evaluate_perplexity(
            lm, tokens, quantized=qhead, mode="bitexact-scalar"
        )
        assert batched == pytest.approx(exact, rel=1e-9)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.errors import (
            ConfigError,
            EncodingError,
            QuantizationError,
            ReproError,
            SimulationError,
        )

        for err in (ConfigError, EncodingError, QuantizationError, SimulationError):
            assert issubclass(err, ReproError)
