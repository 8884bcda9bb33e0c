"""One backend table, one default.

Every entry point that takes an engine backend defaults to
``DEFAULT_BACKEND``, and an unknown name fails when the session is
built (before any worker process starts), naming the valid backends.
"""

import inspect

import pytest

import repro.serve.shard.router as router_module
from repro.cli import _build_parser
from repro.core.experiments import table2
from repro.core.gemm import hyper_gemm
from repro.engine import DEFAULT_BACKEND, GemmPlan, backend_names
from repro.errors import QuantizationError
from repro.llm.bigram import BigramLm
from repro.llm.perplexity import evaluate_perplexity, table2_rows
from repro.llm.transformer import Decoder, TransformerConfig, init_weights
from repro.model import InferenceSession, MatrixSession, parse_policy, quantize_model
from repro.serve import (
    BatchedSession,
    Router,
    ServeConfig,
    SessionDraft,
)

#: (callable, name of its backend parameter) for every entry point.
ENTRY_POINTS = [
    (GemmPlan.execute, "backend"),
    (hyper_gemm, "mode"),
    (evaluate_perplexity, "mode"),
    (table2_rows, "mode"),
    (table2, "backend"),
    (Decoder, "backend"),
    (MatrixSession, "backend"),
    (InferenceSession, "backend"),
    (InferenceSession.from_checkpoint, "backend"),
    (BatchedSession, "backend"),
    (ServeConfig, "backend"),
    (SessionDraft, "backend"),
    (BigramLm.serve, "backend"),
    (BigramLm.logits_quantized, "mode"),
]


def test_default_backend_is_batched():
    assert DEFAULT_BACKEND == "batched"
    assert DEFAULT_BACKEND in backend_names()


@pytest.mark.parametrize(
    "fn, param", ENTRY_POINTS, ids=[fn.__qualname__ for fn, _ in ENTRY_POINTS]
)
def test_signature_defaults_to_default_backend(fn, param):
    assert inspect.signature(fn).parameters[param].default == DEFAULT_BACKEND


@pytest.mark.parametrize(
    "argv", [["generate", "--model", "ckpt"], ["serve-sim"]], ids=lambda a: a[0]
)
def test_cli_defaults_to_default_backend(argv):
    assert _build_parser().parse_args(argv).backend == DEFAULT_BACKEND


@pytest.fixture(scope="module")
def qmodel():
    config = TransformerConfig(vocab=32, d_model=32, n_heads=2, n_layers=1, d_ffn=64)
    weights = init_weights(config, seed=0)
    return quantize_model(weights, parse_policy("*=int4@g[8,4]"), config=config)


def _no_spawn(*args, **kwargs):
    raise AssertionError("spawned a worker for an unknown backend")


@pytest.mark.parametrize(
    "build",
    [
        lambda model, tmp: InferenceSession(model, backend="nope"),
        lambda model, tmp: BatchedSession(model, backend="nope"),
        lambda model, tmp: MatrixSession(
            next(iter(model.matrices().values())), backend="nope"
        ),
        lambda model, tmp: Router(tmp, 2, ServeConfig(backend="nope")),
    ],
    ids=["InferenceSession", "BatchedSession", "MatrixSession", "Router"],
)
def test_unknown_backend_fails_at_construction(
    build, qmodel, tmp_path, monkeypatch
):
    monkeypatch.setattr(router_module, "spawn_worker", _no_spawn)
    with pytest.raises(
        QuantizationError,
        match="'nope'; valid backends: batched, bitexact-scalar, reference",
    ):
        build(qmodel, tmp_path)

