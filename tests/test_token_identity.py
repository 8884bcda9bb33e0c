"""Cross-layer token identity: every serving path, one token stream.

The repo-wide contract, asserted in one place: for the same prompts,
sampling params and seeds, every path through the stack emits the
same tokens —

* ``InferenceSession.generate`` (the single-sequence reference),
* ``Scheduler`` replay (continuous batching),
* chunked prefill (``prefill_chunk``),
* the radix prefix cache (``prefix_cache``),
* speculative decoding (``speculate=(draft, k)``, also over a
  single slot),
* and any stack of those features.

Batching, chunking, caching and speculation are *scheduling*
decisions; none of them may change a single emitted token.
"""

import numpy as np
import pytest

from repro.engine import DEFAULT_BACKEND
from repro.llm.transformer import TransformerConfig, init_weights
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.serve import (
    AdversarialDraft,
    BatchedSession,
    BigramDraft,
    RadixPrefixCache,
    Request,
    Scheduler,
    SessionDraft,
)

#: Scheduler configurations under test, as keyword-builder tuples:
#: (needs_prefix_cache, prefill_chunk, speculate_draft_name, spec_k).
PATHS = {
    "scheduler": (False, None, None, 0),
    "chunked-prefill": (False, 6, None, 0),
    "prefix-cache": (True, 6, None, 0),
    "speculative-bigram": (False, None, "bigram", 4),
    "speculative-int2": (False, None, "int2", 2),
    "speculative-adversarial": (False, None, "adversarial", 3),
    "everything-on": (True, 6, "bigram", 4),
}

#: How many requests of the workload the ``bitexact-scalar`` oracle serves.
ORACLE_REQUESTS = 3


@pytest.fixture(scope="module")
def setup():
    config = TransformerConfig(
        vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64, max_seq=64
    )
    weights = init_weights(config, seed=1)
    qmodel = quantize_model(
        weights, parse_policy("*=int4@g[8,4]"), config=config
    )
    return config, weights, qmodel


@pytest.fixture(scope="module")
def requests(setup):
    """A mixed workload: greedy + top-k, eos + length, shared prefixes."""
    config, _, _ = setup
    rng = np.random.default_rng(17)
    shared = rng.integers(0, config.vocab, size=10)
    out = []
    for i in range(8):
        suffix = rng.integers(0, config.vocab, size=3 + i)
        prompt = (
            np.concatenate([shared, suffix]) if i % 2 == 0 else suffix
        )
        out.append(
            Request(
                prompt=prompt,
                max_new=4 + i,
                top_k=4 if i % 3 == 2 else None,
                temperature=0.8 if i % 3 == 2 else 1.0,
                seed=100 + i,
                eos_token=9 if i % 2 == 0 else None,
            )
        )
    return out


def make_draft(name, setup):
    config, weights, qmodel = setup
    if name == "bigram":
        session = BatchedSession(qmodel, max_slots=1)
        return BigramDraft.distill(session.decoder)
    if name == "int2":
        low = quantize_model(
            weights, parse_policy("*=int2@g[8,4]"), config=config
        )
        return SessionDraft(low, max_slots=4)
    if name == "adversarial":
        return AdversarialDraft(
            SessionDraft(qmodel, max_slots=4), config.vocab
        )
    raise AssertionError(name)


def reference_streams(qmodel, requests):
    """Per-request (tokens, finish_reason) via InferenceSession."""
    out = []
    for request in requests:
        result = InferenceSession(qmodel).generate(
            request.prompt,
            request.max_new,
            top_k=request.top_k,
            temperature=request.temperature,
            seed=request.seed,
        )
        new = list(map(int, result.tokens[request.prompt.shape[0]:]))
        finish = "length"
        if request.eos_token is not None and request.eos_token in new:
            new = new[: new.index(request.eos_token) + 1]
            finish = "eos"
        out.append((list(map(int, request.prompt)) + new, finish))
    return out


@pytest.fixture(scope="module")
def reference(setup, requests):
    """The reference streams, computed once per module."""
    return reference_streams(setup[2], requests)


def scheduler_streams(setup, requests, path, backend=DEFAULT_BACKEND):
    config, _, qmodel = setup
    with_cache, chunk, draft_name, k = PATHS[path]
    session = BatchedSession(
        qmodel,
        backend=backend,
        max_slots=4,
        prefix_cache=RadixPrefixCache(4 << 20) if with_cache else None,
    )
    speculate = (
        (make_draft(draft_name, setup), k) if draft_name is not None else None
    )
    scheduler = Scheduler(
        session, max_batch=4, prefill_chunk=chunk, speculate=speculate
    )
    results = scheduler.run(requests)
    return [(list(map(int, r.tokens)), r.finish_reason) for r in results]


class TestTokenIdentity:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_path_matches_reference(self, setup, requests, reference, path):
        got = scheduler_streams(setup, requests, path)
        for request_index, (a, b) in enumerate(zip(reference, got, strict=False)):
            assert a == b, (path, request_index)

    @pytest.mark.parametrize("backend", ("batched", "bitexact-scalar"))
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_path_matches_reference_on_backend(
        self, setup, requests, reference, path, backend
    ):
        """The matrix holds on every row-independent backend, including
        the ``bitexact-scalar`` oracle, whose streams must also equal the
        default backend's reference.  The oracle's per-element loop is
        slow, so it serves the first ``ORACLE_REQUESTS`` requests: greedy
        and top-k, eos and length stops, with and without the shared
        prefix."""
        n = ORACLE_REQUESTS if backend == "bitexact-scalar" else len(requests)
        got = scheduler_streams(setup, requests[:n], path, backend=backend)
        assert got == reference[:n]

    def test_speculative_session_matches_generate(self, setup, requests):
        """Speculation over a single slot joins the same matrix."""
        config, _, qmodel = setup
        draft = make_draft("bigram", setup)
        session = BatchedSession(qmodel, max_slots=1)
        greedy = [r for r in requests if r.top_k is None]
        expect = reference_streams(qmodel, greedy)
        for request, (tokens, finish) in zip(greedy, expect, strict=False):
            [result] = Scheduler(session, speculate=(draft, 4)).run([request])
            assert list(map(int, result.tokens)) == tokens
            assert result.finish_reason == finish

    def test_paths_agree_pairwise(self, setup, requests):
        """Belt and braces: all scheduler paths emit one stream set."""
        streams = {
            path: scheduler_streams(setup, requests, path)
            for path in sorted(PATHS)
        }
        baseline = streams.pop("scheduler")
        for path, got in streams.items():
            assert got == baseline, path
