"""Tests for the model layer: policies, quantize_model, checkpoints."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, QuantizationError
from repro.llm.transformer import (
    Decoder,
    TransformerConfig,
    init_weights,
)
from repro.model import (
    InferenceSession,
    LayerRule,
    QuantPolicy,
    load_model,
    parse_policy,
    quantize_model,
    save_model,
)
from repro.model.checkpoint import MANIFEST_NAME
from repro.quant.groups import GroupSpec
from repro.quant.rtn import quantize_rtn
from repro.serve import BatchedSession, Request, Scheduler, SessionDraft


@pytest.fixture(scope="module")
def setup():
    config = TransformerConfig(
        vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64, max_seq=64
    )
    weights = init_weights(config, seed=1)
    return config, weights


class TestPolicyParsing:
    def test_uniform_recipe(self):
        policy = parse_policy("rtn4@g[32,4]")
        rule = policy.rule_for("layer0.wq")
        assert rule.bits == 4
        assert rule.group == GroupSpec(32, 4)
        assert rule.algorithm == "rtn"
        assert not rule.symmetric

    def test_int_is_rtn_alias(self):
        assert parse_policy("int2@g128").rules[0].algorithm == "rtn"

    def test_default_group(self):
        assert parse_policy("rtn4").rules[0].group == GroupSpec(32, 4)

    def test_sym_flag(self):
        assert parse_policy("awq4@g128:sym").rules[0].symmetric

    def test_mixed_clauses_first_match_wins(self):
        policy = parse_policy("layer*.w_gate=int2@g[32,4];*=int4@g128")
        assert policy.rule_for("layer0.w_gate").bits == 2
        assert policy.rule_for("layer0.wq").bits == 4

    def test_unmatched_layer_kept(self):
        policy = parse_policy("layer0.*=int4")
        assert policy.rule_for("layer1.wq") is None

    def test_fp16_recipe(self):
        assert parse_policy("fp16").rules[0].algorithm == "fp16"

    def test_label_round_trips(self):
        text = "layer*.w_gate=rtn2@g[32,4];awq4@g128:sym"
        assert parse_policy(parse_policy(text).label).label == \
            parse_policy(text).label

    def test_dict_round_trip(self):
        policy = parse_policy("layer*.w_up=awq2@g[16,4]:sym;*=rtn4@g128")
        assert QuantPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize(
        "bad",
        ["", ";;", "xyz4@g128", "rtn5@g128", "rtn4@h128", "fp16:sym", "a="],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(QuantizationError):
            parse_policy(bad)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(QuantizationError):
            LayerRule(algorithm="gptq")

    def test_unservable_bits_rejected(self):
        with pytest.raises(QuantizationError):
            LayerRule(bits=8)


class TestQuantizeModel:
    def test_uniform_matches_per_layer_rtn(self, setup):
        # A uniform policy is per-layer RTN with the group clipped to
        # each layer's dims (g[128,4] is taller than every layer here).
        _, weights = setup
        spec = GroupSpec(128, 4)
        model = quantize_model(weights, QuantPolicy.uniform(bits=4, group=spec))
        names = [name for name, _ in weights.linear_matrices()]
        assert sorted(model.layers) == sorted(names)
        for name, weight in weights.linear_matrices():
            k, n = weight.shape
            clipped = GroupSpec(min(spec.k, k), min(spec.n, n))
            expect = quantize_rtn(weight, bits=4, group=clipped)
            got = model.layers[name].matrix
            assert got.group == clipped
            assert np.array_equal(got.codes, expect.codes)
            assert np.array_equal(got.scales, expect.scales)
            assert np.array_equal(got.zeros, expect.zeros)

    def test_mixed_precision_bits(self, setup):
        _, weights = setup
        policy = parse_policy("layer*.w_gate=int2@g[8,4];*=int4@g[8,4]")
        model = quantize_model(weights, policy)
        assert model.layers["layer0.w_gate"].matrix.bits == 2
        assert model.layers["layer0.wq"].matrix.bits == 4

    def test_fp16_rule_keeps_layer(self, setup):
        _, weights = setup
        policy = parse_policy("layer*.wo=fp16;*=int4@g[8,4]")
        model = quantize_model(weights, policy)
        assert "layer0.wo" not in model.layers
        assert "layer0.wo" in model.kept_fp16
        assert "layer1.wo" in model.kept_fp16

    def test_group_clipped_to_layer_dims(self, setup):
        _, weights = setup
        model = quantize_model(
            weights, QuantPolicy.uniform(group=GroupSpec(4096, 4096))
        )
        for layer in model.layers.values():
            assert layer.matrix.group.k <= layer.matrix.k_dim
            assert layer.matrix.group.n <= layer.matrix.n_dim

    def test_reports_finite(self, setup):
        _, weights = setup
        model = quantize_model(weights, QuantPolicy.uniform(group=GroupSpec(8, 4)))
        for name, report in model.reports().items():
            assert np.isfinite(report.mse) and report.mse > 0
            assert np.isfinite(report.sqnr_db)

    def test_awq_with_calibration_not_worse_than_rtn(self):
        rng = np.random.default_rng(3)
        k, n = 64, 32
        weight = rng.normal(size=(k, n)) * (1 + np.arange(n)) ** -0.3
        profile = np.abs(rng.normal(size=k)) + 0.1
        spec = GroupSpec(16, 4)
        rtn = quantize_model(
            {"w": weight}, QuantPolicy.uniform(bits=2, group=spec)
        )
        awq = quantize_model(
            {"w": weight},
            QuantPolicy.uniform(bits=2, group=spec, algorithm="awq"),
            calibration={"w": profile},
        )
        # AWQ minimizes the importance-weighted error; alpha=0 is RTN,
        # so the weighted reconstruction error cannot be worse.
        imp = profile / profile.mean()
        def weighted(recon):
            diff = (weight - recon) * imp[:, None]
            return float(np.mean(diff * diff))
        rtn_recon = rtn.layers["w"].matrix.dequantize()
        aw = awq.layers["w"]
        awq_recon = aw.matrix.dequantize()
        if aw.channel_scales is not None:
            awq_recon = awq_recon / aw.channel_scales[:, None]
        assert weighted(awq_recon) <= weighted(rtn_recon) + 1e-12

    def test_awq_without_calibration_degenerates_to_rtn(self, setup):
        _, weights = setup
        spec = GroupSpec(8, 4)
        rtn = quantize_model(weights, QuantPolicy.uniform(bits=4, group=spec))
        awq = quantize_model(
            weights, QuantPolicy.uniform(bits=4, group=spec, algorithm="awq")
        )
        for name in rtn.layers:
            assert awq.layers[name].channel_scales is None
            assert np.array_equal(
                awq.layers[name].matrix.codes, rtn.layers[name].matrix.codes
            )

    def test_decoder_divides_activations_by_awq_scales(self, setup):
        # AWQ folds s into the weight rows, so the layer's plan must see
        # x / s; without the division every input channel is off by s.
        config, weights = setup
        profile = 2.0 ** np.arange(config.d_model) % 61 + 1.0
        model = quantize_model(
            weights,
            parse_policy("layer0.wq=awq4@g[8,4]"),
            calibration={"layer0.wq": profile},
            compute_reports=False,
        )
        scales = model.activation_scales()["layer0.wq"]
        assert scales.max() / scales.min() > 2
        decoder = Decoder(config, weights, model)
        x = np.random.default_rng(4).normal(size=(3, config.d_model))
        expect = decoder.plans["layer0.wq"].execute(x / scales[None, :])
        got = decoder._linear(x, 0, "wq")
        assert np.linalg.norm(got - expect) <= 1e-3 * np.linalg.norm(expect)

    def test_plain_mapping_input(self):
        rng = np.random.default_rng(0)
        model = quantize_model(
            {"head": rng.normal(size=(32, 16))},
            QuantPolicy.uniform(group=GroupSpec(8, 4)),
        )
        assert set(model.layers) == {"head"}
        assert model.config is None and model.weights is None


class TestCheckpoint:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        config = TransformerConfig(
            vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64, max_seq=64
        )
        weights = init_weights(config, seed=1)
        policy = parse_policy(
            "layer*.w_gate=int2@g[8,4];layer1.wo=fp16;*=awq4@g[8,4]"
        )
        calibration = {
            name: np.abs(w).mean(axis=1) + 0.1
            for name, w in weights.linear_matrices()
        }
        model = quantize_model(
            weights, policy, config=config, calibration=calibration
        )
        path = tmp_path_factory.mktemp("ckpt") / "model"
        save_model(path, model)
        return config, weights, model, path

    def test_layers_round_trip_exactly(self, saved):
        _, _, model, path = saved
        loaded = load_model(path)
        assert set(loaded.layers) == set(model.layers)
        for name, layer in model.layers.items():
            other = loaded.layers[name]
            assert np.array_equal(other.matrix.codes, layer.matrix.codes)
            assert np.array_equal(other.matrix.scales, layer.matrix.scales)
            assert np.array_equal(other.matrix.zeros, layer.matrix.zeros)
            assert other.matrix.group == layer.matrix.group
            assert other.matrix.symmetric == layer.matrix.symmetric
            assert other.rule == layer.rule
            if layer.channel_scales is None:
                assert other.channel_scales is None
            else:
                assert np.array_equal(other.channel_scales, layer.channel_scales)

    def test_policy_config_reports_round_trip(self, saved):
        _, _, model, path = saved
        loaded = load_model(path)
        assert loaded.policy == model.policy
        assert loaded.config == model.config
        assert loaded.kept_fp16 == model.kept_fp16
        for name, report in model.reports().items():
            assert loaded.reports()[name] == report

    def test_kept_masters_and_embedding_exact(self, saved):
        _, weights, _, path = saved
        loaded = load_model(path)
        assert np.array_equal(loaded.weights.embedding, weights.embedding)
        assert np.array_equal(
            loaded.weights.blocks[1]["wo"], weights.blocks[1]["wo"]
        )
        assert np.array_equal(
            loaded.weights.norms[0]["attn"], weights.norms[0]["attn"]
        )

    def test_round_trip_generation_identical(self, saved):
        _, _, model, path = saved
        a = InferenceSession(model)
        b = InferenceSession.from_checkpoint(path)
        prompt = np.asarray([1, 5, 9])
        ra = a.generate(prompt, 12, top_k=6, seed=11)
        rb = b.generate(prompt, 12, top_k=6, seed=11)
        assert np.array_equal(ra.tokens, rb.tokens)

    def test_blocks_hold_only_kept_masters(self, saved):
        """Quantized layers' float64 masters are not kept, nor reloaded."""
        _, weights, model, path = saved
        assert model.kept_fp16 == ("layer1.wo",)
        for qmodel in (model, load_model(path)):
            held = {name for name, _ in qmodel.weights.linear_matrices()}
            assert held == {"layer1.wo"}
            assert qmodel.weights is not weights
        # The caller's weights are not mutated.
        assert len(weights.linear_matrices()) == 2 * 7

    def test_saved_and_reloaded_models_serve_identical_streams(self, saved):
        _, _, model, path = saved
        prompts = [np.asarray([1, 5, 9]), np.asarray([7, 2]), np.arange(6)]
        requests = [
            Request(prompt=p, max_new=8, top_k=None if i % 2 else 5, seed=i)
            for i, p in enumerate(prompts)
        ]
        streams = []
        for qmodel in (model, load_model(path)):
            scheduler = Scheduler(BatchedSession(qmodel, max_slots=2), max_batch=2)
            streams.append([r.tokens for r in scheduler.run(requests)])
        for ours, reloaded in zip(*streams, strict=True):
            assert np.array_equal(ours, reloaded)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(QuantizationError):
            load_model(tmp_path)

    def test_version_mismatch_rejected(self, saved, tmp_path):
        _, _, model, path = saved
        clone = tmp_path / "clone"
        save_model(clone, model)
        manifest = json.loads((clone / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (clone / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(QuantizationError, match="version 99"):
            load_model(clone)

    def test_missing_version_rejected(self, saved, tmp_path):
        _, _, model, path = saved
        clone = tmp_path / "clone"
        save_model(clone, model)
        manifest = json.loads((clone / MANIFEST_NAME).read_text())
        del manifest["version"]
        (clone / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(QuantizationError, match="version"):
            load_model(clone)

    def test_wrong_kind_rejected(self, saved, tmp_path):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / MANIFEST_NAME).write_text(json.dumps({"kind": "other"}))
        with pytest.raises(QuantizationError):
            load_model(clone)

    def test_resave_removes_stale_layer_files(self, saved, tmp_path):
        config, weights, model, _ = saved
        target = tmp_path / "ckpt"
        save_model(target, model)
        first_files = {p.name for p in target.glob("layer-*.npz")}
        narrow = quantize_model(
            weights, parse_policy("layer0.wq=int4@g[16,4];*=fp16"),
            config=config,
        )
        save_model(target, narrow)
        remaining = {p.name for p in target.glob("layer-*.npz")}
        assert remaining == {"layer-layer0.wq.npz"}
        assert first_files - remaining  # old files really were removed
        loaded = load_model(target)
        assert set(loaded.layers) == {"layer0.wq"}

    def test_reports_optional_round_trip(self, saved, tmp_path):
        config, weights, _, _ = saved
        model = quantize_model(
            weights, QuantPolicy.uniform(group=GroupSpec(8, 4)),
            config=config, compute_reports=False,
        )
        assert model.reports() == {}
        assert all(row[2] == "-" for row in model.summary_rows())
        target = tmp_path / "ckpt"
        save_model(target, model)
        loaded = load_model(target)
        assert loaded.reports() == {}

    def test_session_requires_weights(self):
        rng = np.random.default_rng(0)
        model = quantize_model(
            {"head": rng.normal(size=(32, 16))},
            QuantPolicy.uniform(group=GroupSpec(8, 4)),
        )
        for session in (InferenceSession, BatchedSession, SessionDraft):
            with pytest.raises(ConfigError, match="needs decoder config and weights"):
                session(model)


class TestDecoderShims:
    def test_fallback_w16_cached_at_construction(self, setup):
        config, weights = setup
        decoder = Decoder(config, weights)  # nothing quantized
        key = "layer0.wq"
        assert key in decoder._w16
        assert np.array_equal(
            decoder._w16[key],
            weights.blocks[0]["wq"].astype(np.float16).astype(np.float64),
        )
        # Quantized layers get plans, not fallback copies.
        q = quantize_model(
            weights,
            QuantPolicy.uniform(4, GroupSpec(8, 4)),
            compute_reports=False,
        )
        quantized = Decoder(config, weights, q)
        assert key not in quantized._w16
        assert key in quantized.plans
