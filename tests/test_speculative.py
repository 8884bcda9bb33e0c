"""Property suite for speculative decoding (repro.serve.speculative).

The load-bearing claim: speculation is a *scheduling* optimization —
for any draft model, any window ``k`` and any row-independent backend,
the emitted tokens are bit-identical to plain
``InferenceSession.generate``.  The drafts span the behaviour space:

* ``bigram``  — distilled table (the production default);
* ``int2``    — a low-bit checkpoint of the target (SessionDraft);
* ``oracle``  — the target itself as its own draft (always right);
* ``adversarial`` — the oracle shifted off by one (always wrong);
* ``flaky``   — test-local: corrupts the middle of every window, so
  the partial-acceptance path (accept some, reject the rest) runs.
"""

import numpy as np
import pytest

from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.llm.transformer import (
    BatchedKVCache,
    Decoder,
    TransformerConfig,
    init_weights,
)
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.serve import (
    AdversarialDraft,
    BatchedSession,
    BigramDraft,
    DraftModel,
    Request,
    Scheduler,
    SessionDraft,
    propose_batch,
)

#: Backends whose kernels compute each activation row independently of
#: the batch (the bit-identity guarantee; "reference" is BLAS-backed
#: and excluded, and the ``bitexact-scalar`` oracle is too slow to
#: decode with).
BACKENDS = ("batched",)
DRAFTS = ("bigram", "int2", "oracle", "adversarial", "flaky")
KS = (1, 2, 4, 8)


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


class FlakyDraft:
    """Corrupt the middle token of every window the inner draft emits.

    Forces partial acceptance: the prefix before the corrupted
    position can be accepted, everything at and after it cannot.
    """

    def __init__(self, inner, vocab):
        self.inner = inner
        self.vocab = vocab

    def propose(self, context, k):
        proposals = np.array(self.inner.propose(context, k))
        if proposals.shape[0] >= 2:
            mid = proposals.shape[0] // 2
            proposals[mid] = (proposals[mid] + 1) % self.vocab
        return proposals


@pytest.fixture(scope="module")
def drafts(setup):
    """name -> draft instance (drafts are deterministic per context)."""
    config, weights, qmodel = setup
    decoder = Decoder(config, weights, qmodel)
    oracle = SessionDraft(qmodel, max_slots=8)
    int2 = quantize_model(
        weights, parse_policy("*=int2@g[8,4]"), config=config
    )
    return {
        "bigram": BigramDraft.distill(decoder),
        "int2": SessionDraft(int2, max_slots=8),
        "oracle": oracle,
        "adversarial": AdversarialDraft(
            SessionDraft(qmodel, max_slots=8), config.vocab
        ),
        "flaky": FlakyDraft(
            SessionDraft(qmodel, max_slots=8), config.vocab
        ),
    }


def reference_stream(qmodel, prompt, max_new, backend=DEFAULT_BACKEND, eos=None):
    """What plain generate emits (truncated at the first eos)."""
    tokens = InferenceSession(qmodel, backend=backend).generate(
        prompt, max_new
    ).tokens
    new = list(map(int, tokens[len(prompt):]))
    if eos is not None and eos in new:
        new = new[: new.index(eos) + 1]
    return list(map(int, prompt)) + new


def speculate(session, draft, k, prompt, max_new, eos=None):
    """One greedy request through ``Scheduler(speculate=(draft, k))``.

    Returns the request's result and the run's scheduler stats.
    """
    scheduler = Scheduler(session, speculate=(draft, k))
    [result] = scheduler.run([Request(prompt, max_new, eos_token=eos)])
    return result, scheduler.stats()


def one_slot(qmodel, backend=DEFAULT_BACKEND):
    return BatchedSession(qmodel, backend=backend, max_slots=1)


class TestSessionIdentity:
    """A speculative scheduler over one slot == InferenceSession.generate."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", DRAFTS)
    @pytest.mark.parametrize("k", KS)
    def test_matches_generate(self, setup, drafts, backend, name, k):
        config, _, qmodel = setup
        rng = np.random.default_rng(0)
        session = one_slot(qmodel, backend)
        for size, max_new in [(3, 12), (9, 7)]:
            prompt = rng.integers(0, config.vocab, size=size)
            expect = reference_stream(qmodel, prompt, max_new, backend)
            result, _ = speculate(session, drafts[name], k, prompt, max_new)
            assert list(map(int, result.tokens)) == expect, (backend, name, k)
            assert result.finish_reason == "length"
            assert len(result.new_tokens) == max_new

    @pytest.mark.parametrize("name", DRAFTS)
    def test_eos_inside_window(self, setup, drafts, name):
        """EOS emitted mid-window stops the stream exactly there."""
        config, _, qmodel = setup
        prompt = np.arange(5) % config.vocab
        probe = reference_stream(qmodel, prompt, 8)
        eos = probe[len(prompt) + 2]  # third generated token
        expect = reference_stream(qmodel, prompt, 8, eos=eos)
        result, _ = speculate(one_slot(qmodel), drafts[name], 4, prompt, 8, eos)
        assert list(map(int, result.tokens)) == expect
        assert result.finish_reason == "eos"
        assert int(result.tokens[-1]) == eos

    @pytest.mark.parametrize("name", DRAFTS)
    def test_window_overruns_max_new(self, setup, drafts, name):
        """k far beyond the budget: exactly max_new tokens come out."""
        config, _, qmodel = setup
        prompt = np.arange(4) % config.vocab
        result, _ = speculate(one_slot(qmodel), drafts[name], 8, prompt, 3)
        assert list(map(int, result.tokens)) == reference_stream(
            qmodel, prompt, 3
        )
        assert result.finish_reason == "length"
        assert len(result.new_tokens) == 3

    def test_k_zero_degenerates_to_plain_decode(self, setup, drafts):
        config, _, qmodel = setup
        prompt = np.arange(6) % config.vocab
        result, stats = speculate(one_slot(qmodel), drafts["bigram"], 0, prompt, 8)
        assert list(map(int, result.tokens)) == reference_stream(
            qmodel, prompt, 8
        )
        assert result.drafted_tokens == 0
        assert result.accepted_draft_tokens == 0
        assert stats.draft_acceptance_rate == 0.0
        # one verify pass (m=1: plain decode) per non-final token
        assert stats.verify_steps == 7

    def test_telemetry_extremes(self, setup, drafts):
        """Oracle accepts everything, adversarial nothing, flaky some."""
        config, _, qmodel = setup
        prompt = np.arange(5) % config.vocab

        def run(name):
            return speculate(one_slot(qmodel), drafts[name], 4, prompt, 12)

        oracle, oracle_stats = run("oracle")
        assert oracle_stats.draft_acceptance_rate == 1.0
        assert oracle.wasted_draft_tokens == 0
        assert oracle_stats.accepted_per_verify_step > 0
        adversarial, adversarial_stats = run("adversarial")
        assert adversarial.drafted_tokens > 0
        assert adversarial.accepted_draft_tokens == 0
        assert adversarial_stats.draft_acceptance_rate == 0.0
        assert adversarial.wasted_draft_tokens == adversarial.drafted_tokens
        flaky, flaky_stats = run("flaky")
        assert 0.0 < flaky_stats.draft_acceptance_rate < 1.0
        # fewer accepts means more verify passes, never different tokens
        assert adversarial_stats.verify_steps > oracle_stats.verify_steps
        assert np.array_equal(oracle.tokens, adversarial.tokens)
        assert np.array_equal(oracle.tokens, flaky.tokens)

    def test_validation(self, setup, drafts):
        _, _, qmodel = setup
        session = one_slot(qmodel)
        with pytest.raises(ConfigError, match="k must be >= 0"):
            Scheduler(session, speculate=(drafts["bigram"], -1))
        with pytest.raises(ConfigError, match="propose"):
            Scheduler(session, speculate=(object(), 2))
        scheduler = Scheduler(session, speculate=(drafts["bigram"], 2))
        assert scheduler.run([Request(np.array([1]), 0)]) == []
        assert scheduler.rejections == [(0, "max_new must be >= 1")]


class TestSchedulerSpeculation:
    """Scheduler(speculate=...) == plain Scheduler, stream for stream."""

    def requests(self, config, greedy=True):
        rng = np.random.default_rng(3)
        return [
            Request(
                prompt=rng.integers(0, config.vocab, size=3 + 2 * i),
                max_new=4 + i,
                top_k=None if greedy or i % 2 else 4,
                seed=i,
                eos_token=5 if i % 3 == 0 else None,
            )
            for i in range(6)
        ]

    def run(self, qmodel, requests, speculate=None, prefill_chunk=None):
        session = BatchedSession(qmodel, max_slots=3)
        scheduler = Scheduler(
            session,
            max_batch=3,
            prefill_chunk=prefill_chunk,
            speculate=speculate,
        )
        return scheduler.run(requests), scheduler.stats()

    @pytest.mark.parametrize("name", DRAFTS)
    @pytest.mark.parametrize("k", (1, 4))
    def test_matches_plain_scheduler(self, setup, drafts, name, k):
        config, _, qmodel = setup
        requests = self.requests(config)
        plain, _ = self.run(qmodel, requests)
        spec, stats = self.run(qmodel, requests, speculate=(drafts[name], k))
        for a, b in zip(plain, spec, strict=False):
            assert np.array_equal(a.tokens, b.tokens), (name, k, a.request_id)
            assert a.finish_reason == b.finish_reason
        assert stats.verify_steps > 0
        assert stats.drafted_tokens > 0

    def test_mixed_topk_trace_identical(self, setup, drafts):
        """Sampling requests ride along undrafted with identical rng
        streams — greedy selection consumes no rng draws."""
        config, _, qmodel = setup
        requests = self.requests(config, greedy=False)
        plain, _ = self.run(qmodel, requests, prefill_chunk=8)
        spec, _ = self.run(
            qmodel,
            requests,
            speculate=(drafts["bigram"], 4),
            prefill_chunk=8,
        )
        for request, a, b in zip(requests, plain, spec, strict=False):
            assert np.array_equal(a.tokens, b.tokens), a.request_id
            if request.top_k is not None:
                assert b.drafted_tokens == 0

    def test_per_request_telemetry(self, setup, drafts):
        config, _, qmodel = setup
        requests = self.requests(config)
        results, stats = self.run(
            qmodel, requests, speculate=(drafts["oracle"], 4)
        )
        assert sum(r.drafted_tokens for r in results) == stats.drafted_tokens
        assert (
            sum(r.accepted_draft_tokens for r in results)
            == stats.accepted_draft_tokens
        )
        assert stats.draft_acceptance_rate == 1.0
        assert stats.wasted_draft_tokens == 0
        assert stats.accepted_per_verify_step > 0
        for r in results:
            assert r.wasted_draft_tokens == 0
            if r.spec_steps:
                assert r.accepted_per_step >= 0

    def test_draft_output_validated_before_clipping(self, setup):
        """A draft proposing more than the k it was asked for breaks
        the DraftModel contract: rejected, never clipped and served."""
        config, _, qmodel = setup

        class TooMany:
            def propose(self, context, k):
                return np.zeros(k + 1, dtype=np.int64)

        session = BatchedSession(qmodel, max_slots=2)
        scheduler = Scheduler(session, max_batch=2, speculate=(TooMany(), 2))
        with pytest.raises(ConfigError, match="at most 2"):
            scheduler.run([Request(prompt=np.arange(4) % config.vocab, max_new=8)])

    def test_speculate_validated(self, setup, drafts):
        _, _, qmodel = setup
        session = BatchedSession(qmodel, max_slots=2)
        with pytest.raises(ConfigError, match="propose"):
            Scheduler(session, max_batch=2, speculate=(object(), 2))
        with pytest.raises(ConfigError, match=">= 0"):
            Scheduler(session, max_batch=2, speculate=(drafts["bigram"], -1))


class TestDrafts:
    def test_draft_protocol(self, drafts):
        for name, draft in drafts.items():
            assert isinstance(draft, DraftModel), name

    def test_bigram_from_lm_roundtrip(self, setup):
        from repro.llm.bigram import make_bigram_lm

        config, _, _ = setup
        lm = make_bigram_lm(vocab=16, seed=0)
        draft = BigramDraft.from_lm(lm)
        context = np.array([3, 7])
        proposals = draft.propose(context, 3)
        expect = []
        last = 7
        for _ in range(3):
            last = int(np.argmax(lm.logits(np.array([last]))[0]))
            expect.append(last)
        assert list(map(int, proposals)) == expect

    def test_bigram_table_validated(self):
        with pytest.raises(ConfigError, match="1-D"):
            BigramDraft(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ConfigError, match="lie in"):
            BigramDraft(np.array([5]))  # vocab 1, entry out of range

    def test_session_draft_prefix_reuse(self, setup):
        """Growing one context re-decodes only the fresh suffix."""
        config, weights, qmodel = setup
        draft = SessionDraft(qmodel, max_slots=2)
        context = np.arange(8) % config.vocab
        first = draft.propose(context, 3)
        plans = draft.decoder.plans
        before = {
            name: sum(plan.executions.values())
            for name, plan in plans.items()
        }
        grown = np.concatenate([context, first[:1]])
        second = draft.propose(grown, 3)
        # the second proposal resumed from the resident prefix: far
        # fewer new GEMM executions than re-prefilling 9 tokens
        grew = {
            name: sum(plan.executions.values()) - before[name]
            for name, plan in plans.items()
        }
        assert max(grew.values()) <= 4  # 1 suffix pass + 2 decode steps
        # and the proposals still chain greedily off the new context
        fresh = SessionDraft(qmodel, max_slots=2)
        assert np.array_equal(second, fresh.propose(grown, 3))

    def test_session_draft_respects_context_window(self, setup):
        config, _, qmodel = setup
        draft = SessionDraft(qmodel, max_slots=1)
        near_edge = np.zeros(config.max_seq - 2, dtype=np.int64)
        assert draft.propose(near_edge, 8).shape[0] == 2
        at_edge = np.zeros(config.max_seq, dtype=np.int64)
        assert draft.propose(at_edge, 8).shape[0] == 0

    def test_session_draft_pool_eviction(self, setup):
        """More distinct contexts than slots: LRU eviction, same output."""
        config, _, qmodel = setup
        small = SessionDraft(qmodel, max_slots=2)
        rng = np.random.default_rng(8)
        contexts = [rng.integers(0, config.vocab, size=6) for _ in range(4)]
        first = [small.propose(ctx, 2) for ctx in contexts]
        again = [small.propose(ctx, 2) for ctx in contexts]
        for a, b in zip(first, again, strict=False):
            assert np.array_equal(a, b)
        with pytest.raises(ConfigError, match="pool exhausted"):
            small.propose_batch(contexts[:3], 2)

    def test_propose_batch_fallback(self, setup, drafts):
        """Drafts without propose_batch still serve batched callers."""
        config, _, qmodel = setup
        rng = np.random.default_rng(4)
        contexts = [rng.integers(0, config.vocab, size=5) for _ in range(3)]
        flaky = drafts["flaky"]  # has no propose_batch
        assert not hasattr(flaky, "propose_batch")
        batched = propose_batch(flaky, contexts, 4)
        for ctx, proposals in zip(contexts, batched, strict=False):
            assert np.array_equal(proposals, flaky.propose(ctx, 4))

    def test_adversarial_validated(self, drafts):
        with pytest.raises(ConfigError, match="vocab >= 2"):
            AdversarialDraft(drafts["bigram"], 1)
        with pytest.raises(ConfigError, match="nonzero shift"):
            AdversarialDraft(drafts["bigram"], 4, shift=8)

    def test_bad_proposals_rejected(self, setup):
        config, _, qmodel = setup

        class TooMany:
            def propose(self, context, k):
                return np.zeros(k + 1, dtype=np.int64)

        class OutOfVocab:
            def propose(self, context, k):
                return np.full(k, config.vocab, dtype=np.int64)

        prompt = np.arange(4) % config.vocab
        with pytest.raises(ConfigError, match="at most"):
            speculate(one_slot(qmodel), TooMany(), 2, prompt, 6)
        with pytest.raises(ConfigError, match="outside"):
            speculate(one_slot(qmodel), OutOfVocab(), 2, prompt, 6)

    def test_failed_generate_frees_the_slot(self, setup, drafts):
        """A draft error mid-run frees the slot: the session stays usable."""
        config, _, qmodel = setup

        class BreaksOnce:
            def __init__(self, inner):
                self.inner = inner
                self.broken = False

            def propose(self, context, k):
                if not self.broken:
                    self.broken = True
                    return np.zeros(k + 1, dtype=np.int64)
                return self.inner.propose(context, k)

        session = one_slot(qmodel)
        draft = BreaksOnce(drafts["bigram"])
        prompt = np.arange(4) % config.vocab
        with pytest.raises(ConfigError, match="at most"):
            speculate(session, draft, 2, prompt, 6)
        assert session.free_slots == 1
        result, _ = speculate(session, draft, 2, prompt, 6)
        assert list(map(int, result.tokens)) == reference_stream(qmodel, prompt, 6)


class TestTruncate:
    """BatchedKVCache.truncate — the speculative rollback primitive."""

    def test_truncate_then_redecode_bit_identical(self, setup):
        """Decode 3, roll 2 back, decode 2 different tokens: every row
        matches a cache that never saw the rolled-back tokens."""
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        prompt = np.arange(6) % config.vocab
        cache = decoder.init_batched_cache(1, capacity=16)
        slot = cache.allocate()
        decoder.prefill_ragged([prompt], cache, [slot])
        decoder.decode_batch([1], cache, [slot])
        decoder.decode_batch([2], cache, [slot])
        decoder.decode_batch([3], cache, [slot])
        cache.truncate(slot, prompt.shape[0] + 1)  # keep prompt + token 1
        clean = decoder.init_batched_cache(1, capacity=16)
        clean_slot = clean.allocate()
        decoder.prefill_ragged([prompt], clean, [clean_slot])
        decoder.decode_batch([1], clean, [clean_slot])
        for token in (7, 8):
            rolled = decoder.decode_batch([token], cache, [slot])
            fresh = decoder.decode_batch([token], clean, [clean_slot])
            assert np.array_equal(rolled[0], fresh[0])

    def test_composes_with_snapshot_and_copy_into(self, setup):
        """snapshot sees the truncated length; a snapshot taken before
        a truncate restores the full prefix via copy_into."""
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        prompt = np.arange(8) % config.vocab
        cache = decoder.init_batched_cache(2, capacity=16)
        slot = cache.allocate()
        decoder.prefill_ragged([prompt], cache, [slot])
        keys, values = cache.snapshot(slot, 8)
        cache.truncate(slot, 5)
        with pytest.raises(ConfigError, match="holding 5"):
            cache.snapshot(slot, 8)
        other = cache.allocate()
        cache.copy_into(other, keys, values)
        assert int(cache.lengths[other]) == 8
        short_k, short_v = cache.snapshot(slot, 5)
        full_k, full_v = cache.snapshot(other, 8)
        assert np.array_equal(short_k, full_k[:, :, :5])
        assert np.array_equal(short_v, full_v[:, :, :5])

    def test_out_of_range_truncate_raises(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=2, capacity=8)
        slot = cache.allocate()
        cache.lengths[slot] = 4
        with pytest.raises(ConfigError, match=r"lie in \[0, 4\]"):
            cache.truncate(slot, 5)
        with pytest.raises(ConfigError, match=r"lie in \[0, 4\]"):
            cache.truncate(slot, -1)
        cache.truncate(slot, 4)  # no-op truncate is fine
        cache.truncate(slot, 0)  # so is a full rollback
        free = cache.allocate()
        cache.release(free)
        with pytest.raises(ConfigError, match="free slot"):
            cache.truncate(free, 0)
        with pytest.raises(ConfigError, match="slot"):
            cache.truncate(99, 0)


class TestPhaseTelemetry:
    """GemmPlan.row_stats phase labels: a verify pass of m rows is
    distinguishable from a decode batch of m sequences."""

    def test_phases_tagged(self, setup):
        config, weights, _ = setup
        # plans are memoized per QuantizedMatrix: quantize fresh copies
        # so no other test's executions pollute the histograms
        qmodel = quantize_model(
            weights, parse_policy("*=int4@g[8,4]"), config=config
        )
        dummy = BigramDraft(np.zeros(config.vocab, dtype=np.int64))
        session = one_slot(qmodel)
        speculate(session, dummy, 3, np.arange(5) % config.vocab, 8)
        plans = session.decoder.plans
        phases = set()
        for plan in plans.values():
            phases.update(plan.phases())
        # the speculative loop only prefills and verifies — it never
        # issues a plain decode step
        assert phases == {"prefill", "verify"}
        plan = next(iter(plans.values()))
        verify = plan.row_stats(phase="verify")
        assert verify, "verify passes must be tagged"
        # every verify pass carried the pending token + <= k drafts
        assert all(1 <= m <= 4 for m in verify)
        # the phase split accounts for every execution of the plan
        total = sum(plan.executions.values())
        by_phase = sum(
            count
            for stats in plan.phases().values()
            for count in stats.values()
        )
        assert by_phase == total

    def test_row_stats_phase_filter(self, setup):
        """decode vs verify at the same m: the label disambiguates."""
        config, weights, _ = setup
        qmodel = quantize_model(
            weights, parse_policy("*=int4@g[8,4]"), config=config
        )
        decoder = Decoder(config, weights, qmodel)
        cache = decoder.init_batched_cache(3, capacity=16)
        slots = [cache.allocate() for _ in range(3)]
        prompts = [np.arange(4) % config.vocab for _ in range(3)]
        decoder.prefill_ragged(prompts, cache, slots)
        # a decode batch of 3 and a verify pass of 3 rows: same m
        decoder.decode_batch([1, 2, 3], cache, slots)
        decoder.prefill_ragged(
            [np.array([4, 5, 6])], cache, [slots[0]], resume=True,
            phase="verify",
        )
        plan = next(iter(decoder.plans.values()))
        assert plan.row_stats(phase="decode") == {3: 1}
        assert plan.row_stats(phase="verify") == {3: 1}
        assert plan.row_stats()[3] == 2  # aggregate view unchanged
        assert plan.row_stats(phase="nonesuch") == {}
