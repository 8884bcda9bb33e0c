"""Tests for KV-cached decoding and inference sessions (repro.model)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.llm.bigram import make_bigram_lm
from repro.llm.perplexity import evaluate_perplexity
from repro.llm.transformer import (
    Decoder,
    TransformerConfig,
    init_weights,
)
from repro.model import (
    InferenceSession,
    QuantPolicy,
    parse_policy,
    quantize_model,
)
from repro.quant.groups import GroupSpec
from repro.quant.rtn import quantize_rtn


@pytest.fixture(scope="module")
def setup():
    config = TransformerConfig(
        vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64, max_seq=64
    )
    weights = init_weights(config, seed=1)
    tokens = np.random.default_rng(0).integers(0, config.vocab, size=24)
    policy = parse_policy("layer*.w_gate=int2@g[8,4];*=int4@g[8,4]")
    qmodel = quantize_model(weights, policy, config=config)
    return config, weights, tokens, qmodel


class TestKvCacheBitIdentity:
    """InferenceSession prefill + N x decode_step must equal forward
    bit-for-bit (the 1-slot batched cache path)."""

    #: Engine backends whose kernels compute each activation row
    #: independently of the batch ("reference" is BLAS-backed and
    #: carries no such guarantee; the ``bitexact-scalar`` oracle is too
    #: slow to decode with).
    BACKENDS = ("batched",)

    @staticmethod
    def assert_steps_match_forward(session, decoder, tokens, cut):
        full = decoder.forward(tokens)
        assert np.array_equal(session.prefill(tokens[:cut]), full[:cut])
        for i, token in enumerate(tokens[cut:]):
            step = session.decode_step(int(token))
            assert np.array_equal(step, full[cut + i]), i
        assert session.position == tokens.shape[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_steps_match_forward(self, setup, backend):
        config, weights, tokens, qmodel = setup
        session = InferenceSession(qmodel, backend=backend)
        decoder = Decoder(config, weights, qmodel, backend=backend)
        self.assert_steps_match_forward(session, decoder, tokens, 3)

    def test_single_token_prefill_and_long_offsets(self, setup):
        # RoPE offsets exercised far from zero: prefill one token, then
        # step through a long tail one position at a time.
        config, weights, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        decoder = Decoder(config, weights, qmodel)
        self.assert_steps_match_forward(session, decoder, tokens, 1)

    def test_fp16_fallback_path(self, setup):
        config, weights, tokens, _ = setup
        # no quantized layers at all: every linear is the FP16 fallback
        model = quantize_model(weights, parse_policy("*=fp16"), config=config)
        assert not model.matrices()
        session = InferenceSession(model)
        decoder = Decoder(config, weights)
        self.assert_steps_match_forward(session, decoder, tokens, 5)

    def test_partial_quantization_path(self, setup):
        config, weights, tokens, _ = setup
        model = quantize_model(
            weights, parse_policy("layer*.w[qkvo]=int4@g[8,4]"), config=config
        )
        attention = [
            f"layer{i}.{name}"
            for i in range(config.n_layers)
            for name in ("wq", "wk", "wv", "wo")
        ]
        assert sorted(model.matrices()) == sorted(attention)
        session = InferenceSession(model)
        decoder = Decoder(config, weights, model)
        self.assert_steps_match_forward(session, decoder, tokens, 4)

    def test_cache_misuse_rejected(self, setup):
        _, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        assert session.position == 0
        with pytest.raises(ConfigError):
            session.decode_step(1)  # decode before prefill
        session.prefill(tokens[:3])
        session.decode_step(1)
        # a second prefill starts a fresh sequence in the same slot
        again = session.prefill(tokens[:3])
        assert session.position == 3
        assert np.array_equal(again, session.prefill(tokens[:3]))

    def test_cache_capacity_enforced(self, setup):
        config, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        window = np.resize(tokens, config.max_seq)
        session.prefill(window[:-1])
        session.decode_step(int(window[-1]))  # the last position fits
        with pytest.raises(ConfigError, match=f"max_seq={config.max_seq}"):
            session.decode_step(1)  # one past the context window
        with pytest.raises(ConfigError, match=f"max_seq={config.max_seq}"):
            session.prefill(np.resize(tokens, config.max_seq + 1))


class TestInferenceSession:
    def test_greedy_matches_repeated_full_forward(self, setup):
        config, weights, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        result = session.generate(tokens[:6], 10)

        decoder = Decoder(config, weights, qmodel)
        seq = list(tokens[:6])
        for _ in range(10):
            logits = decoder.forward(np.asarray(seq))
            seq.append(int(np.argmax(logits[-1])))
        assert np.array_equal(result.tokens, np.asarray(seq))
        assert result.prompt_length == 6
        assert result.new_tokens.shape == (10,)

    def test_top_k_reproducible_per_seed(self, setup):
        _, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        a = session.generate(tokens[:4], 8, top_k=5, seed=3)
        b = session.generate(tokens[:4], 8, top_k=5, seed=3)
        assert np.array_equal(a.tokens, b.tokens)

    def test_generation_limits_enforced(self, setup):
        config, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        long_prompt = np.arange(config.max_seq) % config.vocab
        with pytest.raises(ConfigError):
            session.generate(long_prompt, 1)
        with pytest.raises(ConfigError):
            session.generate(tokens[:4], 0)
        with pytest.raises(ConfigError):
            session.generate(np.asarray([config.vocab]), 4)
        with pytest.raises(ConfigError):
            session.generate(tokens[:4], 4, top_k=0)
        fresh = InferenceSession(qmodel)
        with pytest.raises(ConfigError):
            fresh.decode_step(1)  # before any prefill

    def test_decode_step_validates_token_range(self, setup):
        config, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        session.prefill(tokens[:3])
        with pytest.raises(ConfigError):
            session.decode_step(-5)
        with pytest.raises(ConfigError):
            session.decode_step(config.vocab)

    def test_non_integer_prompt_rejected(self, setup):
        _, _, _, qmodel = setup
        session = InferenceSession(qmodel)
        with pytest.raises(ConfigError):
            session.prefill(np.asarray([0.5, 1.2]))

    def test_telemetry_counts_linears(self, setup):
        config, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        session.generate(tokens[:5], 4)
        # 7 linears per layer; prefill is one call each, plus one call
        # per decoded-but-not-final token (the last token is sampled
        # without a further step).
        calls_per_site = 1 + 3
        expected_sites = 7 * config.n_layers
        assert len(session.telemetry.stats) == expected_sites
        assert session.telemetry.gemm_calls == expected_sites * calls_per_site
        stat = session.telemetry.stats["layer0.wq"]
        assert stat.rows == 5 + 3  # prefill rows + one row per step
        assert stat.macs == stat.rows * stat.n * stat.k
        assert session.telemetry.total_weight_bytes > 0
        shapes = dict(session.telemetry.gemm_shapes())
        assert shapes["layer0.wq"].m == stat.rows

    def test_telemetry_shapes_price_through_cost_model(self, setup):
        from repro.core import evaluate, pacq

        _, _, tokens, qmodel = setup
        session = InferenceSession(qmodel)
        session.generate(tokens[:4], 3)
        name, shape = session.telemetry.gemm_shapes(pad_to=16)[0]
        assert shape.m % 16 == 0 and shape.n % 16 == 0 and shape.k % 16 == 0
        result = evaluate(pacq(4), shape)
        assert result.cycles > 0 and result.energy.on_chip > 0


class TestMatrixSession:
    def test_matches_plan_execution(self):
        lm = make_bigram_lm(vocab=32, d_model=64)
        qhead = quantize_rtn(lm.head, bits=4, group=GroupSpec(16, 4))
        tokens = np.arange(16) % lm.vocab
        direct = lm.logits_quantized(tokens, qhead)
        session = lm.serve(qhead)
        via_session = session(lm.embedding[tokens])
        assert np.array_equal(direct, via_session)
        assert session.telemetry.gemm_calls == 1
        assert session.telemetry.stats["head"].rows == 16

    def test_awq_layer_scales_applied(self):
        lm = make_bigram_lm(vocab=32, d_model=64)
        calibration = {
            "head": np.abs(lm.embedding.astype(np.float64)).mean(axis=0)
        }
        model = quantize_model(
            {"head": lm.head},
            QuantPolicy.uniform(bits=2, group=GroupSpec(16, 4), algorithm="awq"),
            calibration=calibration,
        )
        layer = model.layers["head"]
        tokens = np.arange(8)
        out = lm.serve(layer)(lm.embedding[tokens])
        assert np.all(np.isfinite(out))
        if layer.channel_scales is not None:
            # The session must divide activations by the equalization
            # scales; executing the raw activations differs.
            raw = lm.serve(layer.matrix)(lm.embedding[tokens])
            assert not np.array_equal(out, raw)

    def test_perplexity_accepts_policy_layer(self):
        lm = make_bigram_lm(vocab=32, d_model=64)
        tokens = np.random.default_rng(0).integers(0, 32, size=128)
        model = quantize_model(
            {"head": lm.head}, QuantPolicy.uniform(bits=4, group=GroupSpec(16, 4))
        )
        via_layer = evaluate_perplexity(
            lm, tokens, quantized=model.layers["head"]
        )
        via_matrix = evaluate_perplexity(
            lm, tokens, quantized=model.layers["head"].matrix
        )
        assert via_layer == via_matrix
