"""Tests for the NumPy decoder transformer (repro.llm.transformer)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.llm.transformer import (
    Decoder,
    TransformerConfig,
    gemm_shapes,
    init_weights,
)
from repro.model import QuantPolicy, parse_policy, quantize_model
from repro.model.policy import DEFAULT_GROUP
from repro.quant.groups import GroupSpec


def quantize(weights, bits=4, group=DEFAULT_GROUP):
    return quantize_model(
        weights, QuantPolicy.uniform(bits, group), compute_reports=False
    )


@pytest.fixture(scope="module")
def setup():
    config = TransformerConfig(vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64)
    weights = init_weights(config, seed=1)
    tokens = np.random.default_rng(0).integers(0, config.vocab, size=24)
    return config, weights, tokens


class TestConfig:
    def test_d_head(self):
        assert TransformerConfig(d_model=128, n_heads=4).d_head == 32

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            TransformerConfig(d_model=100, n_heads=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            TransformerConfig(n_layers=0)


class TestForward:
    def test_logits_shape(self, setup):
        config, weights, tokens = setup
        logits = Decoder(config, weights).forward(tokens)
        assert logits.shape == (tokens.shape[0], config.vocab)

    def test_deterministic(self, setup):
        config, weights, tokens = setup
        a = Decoder(config, weights).forward(tokens)
        b = Decoder(config, weights).forward(tokens)
        assert np.array_equal(a, b)

    def test_causality(self, setup):
        # Changing a later token must not affect earlier logits.
        config, weights, tokens = setup
        base = Decoder(config, weights).forward(tokens)
        mutated = tokens.copy()
        mutated[-1] = (mutated[-1] + 1) % config.vocab
        changed = Decoder(config, weights).forward(mutated)
        assert np.allclose(base[:-1], changed[:-1])
        assert not np.allclose(base[-1], changed[-1])

    def test_rejects_2d_tokens(self, setup):
        config, weights, _ = setup
        with pytest.raises(ConfigError):
            Decoder(config, weights).forward(np.zeros((2, 3), dtype=int))

    def test_rejects_overlong_sequence(self, setup):
        config, weights, _ = setup
        too_long = np.zeros(config.max_seq + 1, dtype=int)
        with pytest.raises(ConfigError):
            Decoder(config, weights).forward(too_long)

    def test_perplexity_positive_finite(self, setup):
        config, weights, tokens = setup
        ppl = Decoder(config, weights).perplexity(tokens)
        assert np.isfinite(ppl) and ppl > 1.0


class TestQuantizedForward:
    def test_quantized_logits_drift_bounded(self, setup):
        config, weights, tokens = setup
        base = Decoder(config, weights).forward(tokens)
        q = quantize(weights, 4, GroupSpec(8, 4))
        quant = Decoder(config, weights, q).forward(tokens)
        drift = np.linalg.norm(quant - base) / np.linalg.norm(base)
        assert 0 < drift < 0.5

    def test_int2_drifts_more_than_int4(self, setup):
        config, weights, tokens = setup
        base = Decoder(config, weights).forward(tokens)
        drifts = {}
        for bits in (4, 2):
            q = quantize(weights, bits, GroupSpec(8, 4))
            out = Decoder(config, weights, q).forward(tokens)
            drifts[bits] = np.linalg.norm(out - base)
        assert drifts[2] > drifts[4]

    def test_quantizes_every_linear(self, setup):
        config, weights, _ = setup
        q = quantize(weights)
        assert len(q.layers) == 7 * config.n_layers

    def test_partial_quantization_supported(self, setup):
        config, weights, tokens = setup
        only_ffn = quantize_model(
            weights, parse_policy("layer*.w_up=int4@g[8,4]"), compute_reports=False
        )
        assert sorted(only_ffn.layers) == ["layer0.w_up", "layer1.w_up"]
        decoder = Decoder(config, weights, only_ffn)
        assert sorted(decoder.plans) == sorted(only_ffn.layers)
        assert np.all(np.isfinite(decoder.forward(tokens)))

    def test_group_spec_clipped_to_layer_dims(self, setup):
        _, weights, _ = setup
        q = quantize(weights, 4, GroupSpec(4096, 4096))
        for qm in q.matrices().values():
            assert qm.group.k <= qm.k_dim
            assert qm.group.n <= qm.n_dim


class TestShapes:
    def test_gemm_shapes_match_paper_convention(self):
        config = TransformerConfig(d_model=128, d_ffn=256)
        shapes = dict(gemm_shapes(config, batch_tokens=16))
        assert shapes["wq"] == (16, 128, 128)
        assert shapes["w_up"] == (16, 256, 128)
        assert shapes["w_down"] == (16, 128, 256)

    def test_num_parameters(self, setup):
        config, weights, _ = setup
        expected_block = 4 * 32 * 32 + 2 * 32 * 64 + 64 * 32
        expected = (
            64 * 32  # embedding
            + config.n_layers * expected_block
            + config.n_layers * 2 * 32  # norms
            + 32  # final norm
        )
        assert weights.num_parameters() == expected
