"""Tests for the multi-request serving layer (repro.serve)."""

import numpy as np
import pytest

from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError, RequestError
from repro.llm.transformer import (
    INITIAL_CAPACITY,
    BatchedKVCache,
    Decoder,
    TransformerConfig,
    init_weights,
)
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.serve import (
    BatchedSession,
    RadixPrefixCache,
    Request,
    Scheduler,
    TraceSpec,
    synthesize,
)

#: Engine backends whose kernels compute each activation row
#: independently of the batch (the bit-identity guarantee; "reference"
#: is BLAS-backed and excluded, and the ``bitexact-scalar`` oracle is
#: too slow to decode with).
BACKENDS = ("batched",)


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


def make_session(qmodel, backend=DEFAULT_BACKEND, max_slots=4, capacity=16):
    return BatchedSession(
        qmodel, backend=backend, max_slots=max_slots, capacity=capacity
    )


class TestBatchedKVCache:
    def test_slot_lifecycle(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=2, capacity=8)
        a = cache.allocate()
        b = cache.allocate()
        assert {a, b} == {0, 1}
        assert cache.free_slots == 0
        with pytest.raises(ConfigError, match="no free slot"):
            cache.allocate()
        cache.release(a)
        assert cache.free_slots == 1
        assert cache.active_slots == [b]
        with pytest.raises(ConfigError, match="already free"):
            cache.release(a)
        assert cache.allocate() == a  # lowest slot reused first

    def test_grow_preserves_content(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=2, capacity=4)
        slot = cache.allocate()
        k = np.arange(config.n_heads * 3 * config.d_head, dtype=float).reshape(
            config.n_heads, 3, config.d_head
        )
        cache.store(slot, 0, 0, k, 2 * k)
        cache.lengths[slot] = 3
        cache.ensure(slot, 4)  # 3 + 4 > 4 -> grow
        assert cache.capacity == 8
        k_view, v_view = cache.view(slot, 0, 3)
        assert np.array_equal(k_view, k)
        assert np.array_equal(v_view, 2 * k)

    def test_grow_caps_at_context_window(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=1, capacity=4)
        slot = cache.allocate()
        with pytest.raises(ConfigError, match=f"max_seq={config.max_seq}"):
            cache.ensure(slot, config.max_seq + 1)

    def test_overflow_without_grow(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=1, capacity=2)
        slot = cache.allocate()
        k = np.zeros((config.n_heads, 3, config.d_head))
        with pytest.raises(ConfigError, match="cache overflow"):
            cache.store(slot, 0, 0, k, k)


    def test_buffers_live_only_while_a_slot_is_held(self, setup):
        config, _, _ = setup
        cache = BatchedKVCache(config, max_slots=2, capacity=4)
        assert cache.nbytes == 0 and cache.keys is None
        a = cache.allocate()
        per_buffer = 2 * config.n_layers * config.n_heads * 4 * config.d_head * 8
        assert cache.nbytes == 2 * per_buffer
        b = cache.allocate()
        cache.ensure(b, 6)  # grows both buffers to capacity 8
        assert cache.nbytes == 4 * per_buffer
        cache.release(a)
        assert cache.nbytes == 4 * per_buffer  # b still holds its tokens
        cache.release(b)
        assert cache.nbytes == 0 and cache.keys is None
        cache.allocate()
        assert cache.capacity == 4  # back at the initial capacity
        assert cache.nbytes == 2 * per_buffer


class TestBitIdentity:
    """Batched multi-sequence decode == single-sequence decode, per row."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ragged_prefill_matches_single(self, setup, backend):
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel, backend=backend)
        rng = np.random.default_rng(0)
        prompts = [rng.integers(0, config.vocab, size=n) for n in (5, 9, 3, 12)]
        singles = [decoder.forward(prompt) for prompt in prompts]
        batched_cache = decoder.init_batched_cache(len(prompts), capacity=16)
        slots = [batched_cache.allocate() for _ in prompts]
        ragged = decoder.prefill_ragged(prompts, batched_cache, slots)
        for i, rows in enumerate(ragged):
            assert np.array_equal(rows, singles[i]), (backend, i)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lockstep_decode_matches_single(self, setup, backend):
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel, backend=backend)
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, config.vocab, size=n) for n in (5, 9, 3)]
        solos = [InferenceSession(qmodel, backend=backend) for _ in prompts]
        for solo, prompt in zip(solos, prompts, strict=True):
            solo.prefill(prompt)
        batched_cache = decoder.init_batched_cache(len(prompts), capacity=16)
        slots = [batched_cache.allocate() for _ in prompts]
        ragged = decoder.prefill_ragged(prompts, batched_cache, slots)
        batch_last = [rows[-1] for rows in ragged]
        for step in range(5):
            tokens = [int(np.argmax(row)) for row in batch_last]
            batch = decoder.decode_batch(tokens, batched_cache, slots)
            for i, token in enumerate(tokens):
                single = solos[i].decode_step(token)
                assert np.array_equal(batch[i], single), (backend, i, step)
            batch_last = list(batch)

    def test_join_retire_midstream(self, setup):
        """Evict one sequence mid-decode, join another; rows stay exact."""
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        rng = np.random.default_rng(2)
        prompts = [rng.integers(0, config.vocab, size=n) for n in (6, 4, 8)]
        solos = [InferenceSession(qmodel) for _ in prompts]
        for solo, prompt in zip(solos, prompts, strict=True):
            solo.prefill(prompt)
        batched_cache = decoder.init_batched_cache(3, capacity=16)
        slots = [batched_cache.allocate() for _ in prompts]
        decoder.prefill_ragged(prompts, batched_cache, slots)
        decoder.decode_batch([1, 2, 3], batched_cache, slots)
        for solo, token in zip(solos, (1, 2, 3), strict=True):
            solo.decode_step(token)
        # retire the middle sequence; the survivors keep decoding exactly
        batched_cache.release(slots[1])
        batch = decoder.decode_batch([4, 5], batched_cache, [slots[0], slots[2]])
        assert np.array_equal(batch[0], solos[0].decode_step(4))
        assert np.array_equal(batch[1], solos[2].decode_step(5))
        # a new sequence joins in the freed slot
        joined = rng.integers(0, config.vocab, size=5)
        slot = batched_cache.allocate()
        assert slot == slots[1]
        expect = decoder.forward(joined)
        got = decoder.prefill_ragged([joined], batched_cache, [slot])
        assert np.array_equal(got[0], expect)

    def test_decode_batch_with_grow(self, setup):
        """Capacity growth mid-stream does not perturb the rows."""
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        prompt = np.arange(6) % config.vocab
        single = InferenceSession(qmodel)
        single.prefill(prompt)
        cache = decoder.init_batched_cache(1, capacity=7)
        slot = cache.allocate()
        decoder.prefill_ragged([prompt], cache, [slot])
        for token in (1, 2, 3):  # crosses capacity 7 -> grows to 14
            batch = decoder.decode_batch([token], cache, [slot])
            assert np.array_equal(batch[0], single.decode_step(token))
        assert cache.capacity == 14


def admit_and_prefill(session, prompts):
    """Admit each prompt, prefill all of them in one ragged pass.

    Returns ``(slots, rows)`` with one ``[len, vocab]`` logits array
    per prompt.
    """
    slots = [session.admit(prompt)[0] for prompt in prompts]
    return slots, session.prefill_step(slots, prompts)


class TestBatchedSession:
    def test_join_returns_last_rows(self, setup):
        # A prompt joins by admit + one ragged prefill_step.
        config, _, qmodel = setup
        session = make_session(qmodel)
        reference = InferenceSession(qmodel)
        prompts = [np.arange(5) % config.vocab, np.arange(3) % config.vocab]
        slots, rows = admit_and_prefill(session, prompts)
        assert len(slots) == 2
        for i, prompt in enumerate(prompts):
            assert rows[i].shape == (prompt.shape[0], config.vocab)
            assert np.array_equal(rows[i][-1], reference.prefill(prompt)[-1])
            assert session.position(slots[i]) == prompt.shape[0]

    def test_join_overflow_rejected(self, setup):
        _, _, qmodel = setup
        session = make_session(qmodel, max_slots=2)
        session.admit(np.array([1]))
        session.admit(np.array([2]))
        with pytest.raises(ConfigError, match="all 2 slots in use"):
            session.admit(np.array([3]))
        assert session.free_slots == 0

    def test_join_rejects_long_prompt(self, setup):
        config, _, qmodel = setup
        session = make_session(qmodel)
        too_long = np.zeros(config.max_seq + 1, dtype=np.int64)
        with pytest.raises(ConfigError, match=f"max_seq={config.max_seq}"):
            session.admit(too_long)
        assert session.free_slots == session.max_slots  # nothing allocated

    def test_decode_unprefilled_slot(self, setup):
        _, _, qmodel = setup
        session = make_session(qmodel)
        slot = session.cache.allocate()
        with pytest.raises(ConfigError, match="no prefilled tokens"):
            session.decode_step([slot], [1])

    def test_retire_frees_slot(self, setup):
        _, _, qmodel = setup
        session = make_session(qmodel, max_slots=1)
        slot, reused = session.admit(np.array([1, 2]))
        assert reused == 0 and session.free_slots == 0
        session.retire(slot)
        assert session.free_slots == 1


class TestKVFootprint:
    def test_idle_session_holds_no_kv_bytes(self, setup):
        config, _, qmodel = setup
        session = make_session(qmodel)
        assert session.cache.nbytes == 0
        slot, _ = session.admit(np.arange(4) % config.vocab)
        assert session.cache.nbytes > 0
        session.retire(slot)
        assert session.cache.nbytes == 0

    def test_drain_refill_decode_matches_solo_generate(self, setup):
        """Serving through a pool that was drained (buffers dropped)
        and refilled gives each request solo ``generate``'s tokens."""
        config, _, qmodel = setup
        session = make_session(qmodel, max_slots=2, capacity=4)
        scheduler = Scheduler(session, max_batch=2)
        rng = np.random.default_rng(8)
        for wave in range(2):
            requests = [
                Request(
                    prompt=rng.integers(0, config.vocab, size=3 + i + wave),
                    max_new=4 + i,
                    top_k=None if i % 2 else 4,
                    seed=i,
                )
                for i in range(3)
            ]
            results = scheduler.run(requests)[3 * wave :]  # cumulative
            assert session.cache.nbytes == 0  # drained between waves
            for request, result in zip(requests, results, strict=True):
                solo = InferenceSession(qmodel).generate(
                    request.prompt,
                    request.max_new,
                    top_k=request.top_k,
                    seed=request.seed,
                )
                assert np.array_equal(result.tokens, solo.tokens)


    def test_default_pool_grows_past_its_start(self):
        """A pool built without ``capacity`` starts small and doubles.

        The model's window is four times :data:`INITIAL_CAPACITY`.  Wave
        one's prompt fits the initial capacity, so the pool grows while
        decoding; wave two ingests a longer prompt into the prefix
        cache; wave three, on a pool rebuilt at the initial capacity
        after the drain, is seeded with that prefix by ``copy_into``,
        which grows it.  Every stream equals solo ``generate``.
        """
        config = TransformerConfig(
            vocab=64,
            d_model=32,
            n_heads=2,
            n_layers=1,
            d_ffn=64,
            max_seq=4 * INITIAL_CAPACITY,
        )
        weights = init_weights(config, seed=2)
        qmodel = quantize_model(
            weights, parse_policy("*=int4@g[8,4]"), config=config
        )
        session = BatchedSession(
            qmodel, max_slots=2, prefix_cache=RadixPrefixCache(1 << 22)
        )
        cache = session.cache
        assert cache.capacity == INITIAL_CAPACITY
        grown = []  # (where, capacity before, capacity after)
        for name in ("copy_into", "decode_step"):
            owner = cache if name == "copy_into" else session
            inner = getattr(owner, name)

            def spy(*args, _inner=inner, _name=name):
                before = cache.capacity
                out = _inner(*args)
                if cache.capacity != before:
                    grown.append((_name, before, cache.capacity))
                return out

            setattr(owner, name, spy)
        rng = np.random.default_rng(4)
        long_prompt = rng.integers(0, config.vocab, size=INITIAL_CAPACITY + 8)
        waves = [
            [Request(prompt=long_prompt[: INITIAL_CAPACITY - 4], max_new=10)],
            [Request(prompt=long_prompt, max_new=3, top_k=4, seed=1)],
            [Request(prompt=np.concatenate([long_prompt, [5, 6]]), max_new=4)],
        ]
        scheduler = Scheduler(session, max_batch=2)
        for wave, requests in enumerate(waves):
            results = scheduler.run(requests)[wave:]  # cumulative
            assert cache.nbytes == 0  # drained: the next wave starts small
            for request, result in zip(requests, results, strict=True):
                solo = InferenceSession(qmodel).generate(
                    request.prompt,
                    request.max_new,
                    top_k=request.top_k,
                    seed=request.seed,
                )
                assert np.array_equal(result.tokens, solo.tokens)
        start, doubled = INITIAL_CAPACITY, 2 * INITIAL_CAPACITY
        assert grown == [
            ("decode_step", start, doubled),
            ("copy_into", start, doubled),
        ]
        assert session.prefix_cache.stats().hit_tokens > INITIAL_CAPACITY


class TestScheduler:
    def test_matches_single_sequence_generate(self, setup):
        """Continuous batching serves each request the exact tokens the
        single-sequence session would generate (greedy and top-k)."""
        config, _, qmodel = setup
        session = make_session(qmodel, max_slots=3)
        scheduler = Scheduler(session, max_batch=3)
        rng = np.random.default_rng(3)
        requests = [
            Request(
                prompt=rng.integers(0, config.vocab, size=4 + i),
                max_new=3 + i,
                top_k=None if i % 2 else 4,
                seed=i,
            )
            for i in range(6)
        ]
        results = scheduler.run(requests)
        assert [r.request_id for r in results] == list(range(6))
        for request, result in zip(requests, results, strict=False):
            single = InferenceSession(qmodel).generate(
                request.prompt,
                request.max_new,
                top_k=request.top_k,
                seed=request.seed,
            )
            assert np.array_equal(result.tokens, single.tokens)
            assert result.finish_reason == "length"

    def test_eos_retires_early(self, setup):
        config, _, qmodel = setup
        probe = Scheduler(make_session(qmodel), max_batch=1)
        prompt = np.arange(5) % config.vocab
        [first] = probe.run([Request(prompt=prompt, max_new=6)])
        eos = int(first.new_tokens[2])
        stop_at = int(np.argmax(first.new_tokens == eos)) + 1  # first hit
        scheduler = Scheduler(make_session(qmodel), max_batch=1)
        [result] = scheduler.run(
            [Request(prompt=prompt, max_new=6, eos_token=eos)]
        )
        assert result.finish_reason == "eos"
        assert len(result.new_tokens) == stop_at
        assert int(result.new_tokens[-1]) == eos

    def test_rejects_oversized_request(self, setup):
        config, _, qmodel = setup
        scheduler = Scheduler(make_session(qmodel))
        prompt = np.zeros(config.max_seq - 2, dtype=np.int64)
        with pytest.raises(RequestError, match=f"max_seq={config.max_seq}"):
            scheduler.submit(Request(prompt=prompt, max_new=10))
        # also an idiomatic ValueError for callers outside the library
        with pytest.raises(ValueError):
            scheduler.submit(Request(prompt=prompt, max_new=10))
        assert scheduler.stats().rejected == 2
        with pytest.raises(RequestError, match="max_new"):
            scheduler.submit(Request(prompt=np.array([1]), max_new=0))

    def test_rejects_invalid_sampling_at_submit(self, setup):
        """Bad sampling params are refused up front, never mid-step
        (where a failure would strand the other resident requests)."""
        _, _, qmodel = setup
        scheduler = Scheduler(make_session(qmodel))
        with pytest.raises(RequestError, match="top_k"):
            scheduler.submit(Request(prompt=np.array([1]), max_new=2, top_k=0))
        with pytest.raises(RequestError, match="temperature"):
            scheduler.submit(
                Request(prompt=np.array([1]), max_new=2, top_k=4, temperature=0.0)
            )
        # a malformed prompt also counts as a refusal in the telemetry
        with pytest.raises(ConfigError):
            scheduler.submit(Request(prompt=np.array([[1, 2]]), max_new=2))
        assert scheduler.stats().rejected == 3
        assert scheduler.active == 0 and scheduler.queued == 0

    def test_continuous_admission(self, setup):
        """More requests than slots: later ones wait, then join."""
        config, _, qmodel = setup
        scheduler = Scheduler(make_session(qmodel, max_slots=2), max_batch=2)
        requests = [
            Request(prompt=np.array([i + 1, i + 2]), max_new=2 + i, seed=i)
            for i in range(5)
        ]
        results = scheduler.run(requests)
        assert len(results) == 5
        assert any(r.queue_wait_steps > 0 for r in results)
        stats = scheduler.stats()
        assert stats.completed == 5
        assert 0 < stats.mean_occupancy <= 1.0
        assert stats.total_new_tokens == sum(2 + i for i in range(5))
        assert stats.aggregate_tokens_per_s > 0

    def test_admits_once_right_before_first_chunk(self, setup):
        """``session.admit`` runs once per request, in the pass that
        ingests its first prompt chunk, and always finds a free slot —
        also for residents the chunk budget left waiting a step, and
        with one slot held outside the scheduler."""
        config, _, qmodel = setup
        session = make_session(qmodel, max_slots=3, capacity=64)
        held, _ = session.admit(np.array([1]))
        events: list[tuple[str, list[int]]] = []
        admit, prefill_step = session.admit, session.prefill_step

        def recording_admit(prompt):
            slot, reused = admit(prompt)
            events.append(("admit", [slot]))
            return slot, reused

        def recording_prefill(slots, chunks):
            events.append(("prefill", list(slots)))
            return prefill_step(slots, chunks)

        session.admit = recording_admit
        session.prefill_step = recording_prefill
        rng = np.random.default_rng(13)
        requests = [
            Request(prompt=rng.integers(0, config.vocab, size=n), max_new=3)
            for n in (9, 7, 5, 11, 3)
        ]
        results = Scheduler(session, prefill_chunk=4).run(requests)
        assert len(results) == len(requests)
        admits = [i for i, (kind, _) in enumerate(events) if kind == "admit"]
        assert len(admits) == len(requests)
        for i in admits:
            # the next prefill pass carries the freshly admitted slot
            _, slots = next(e for e in events[i + 1 :] if e[0] == "prefill")
            assert events[i][1][0] in slots
        assert session.active_slots == [held]

    def test_max_batch_validated(self, setup):
        _, _, qmodel = setup
        with pytest.raises(ConfigError, match="max_batch"):
            Scheduler(make_session(qmodel, max_slots=2), max_batch=3)

    def test_no_free_slot_raises_instead_of_spinning(self, setup):
        """Queued work, no residents and every slot held elsewhere: a
        step can never make progress, so it raises."""
        _, _, qmodel = setup
        session = make_session(qmodel, max_slots=1)
        session.admit(np.array([1]))
        scheduler = Scheduler(session)
        scheduler.submit(Request(prompt=np.array([2, 3]), max_new=2))
        with pytest.raises(ConfigError, match="cannot make progress"):
            for _ in range(1_000):  # bounded: a spinning step fails, not hangs
                scheduler.step()
        assert scheduler.queued == 1 and scheduler.steps == 0


class TestTraceReplay:
    def run_trace(self, qmodel, spec, vocab, max_seq):
        scheduler = Scheduler(make_session(qmodel, max_slots=4), max_batch=4)
        trace = synthesize(spec, vocab, max_seq)
        return scheduler.run(trace), scheduler.stats()

    def test_deterministic_under_fixed_seed(self, setup):
        config, _, qmodel = setup
        spec = TraceSpec(
            requests=10,
            seed=5,
            prompt_len=(3, 12),
            max_new=(2, 8),
            mean_interarrival=3.0,
            top_k=4,
        )
        first, stats_a = self.run_trace(qmodel, spec, config.vocab, config.max_seq)
        second, stats_b = self.run_trace(qmodel, spec, config.vocab, config.max_seq)
        tokens_a = [r.tokens.tolist() for r in first]
        tokens_b = [r.tokens.tolist() for r in second]
        assert tokens_a == tokens_b
        assert stats_a.steps == stats_b.steps
        assert stats_a.decode_steps == stats_b.decode_steps
        assert stats_a.total_new_tokens == stats_b.total_new_tokens

    def test_arrival_pacing(self, setup):
        config, _, qmodel = setup
        spec = TraceSpec(
            requests=4, seed=1, mean_interarrival=10.0, max_new=(2, 3)
        )
        trace = synthesize(spec, config.vocab, config.max_seq)
        scheduler = Scheduler(make_session(qmodel, max_slots=4), max_batch=4)
        submitted = []
        submit = scheduler.submit

        def recording_submit(request):
            submitted.append(scheduler.steps)
            return submit(request)

        scheduler.submit = recording_submit
        results = scheduler.run(trace)
        assert len(results) == 4
        # each request is submitted exactly at its arrival step, and the
        # clock ticked through the idle gaps between them
        assert submitted == [r.arrival for r in trace]
        assert scheduler.stats().steps > scheduler.stats().busy_steps

    def test_synthesize_rejects_unservable_max_new(self, setup):
        """A max_new range no prompt could accompany is a spec error,
        not a stream of doomed requests."""
        config, _, _ = setup
        spec = TraceSpec(requests=2, max_new=(config.max_seq, config.max_seq))
        with pytest.raises(ConfigError, match="context window"):
            synthesize(spec, config.vocab, config.max_seq)

    def test_unsorted_trace_rejected(self, setup):
        config, _, qmodel = setup
        scheduler = Scheduler(make_session(qmodel))
        requests = [
            Request(prompt=np.array([1]), max_new=1, arrival=5),
            Request(prompt=np.array([2]), max_new=1, arrival=0),
        ]
        with pytest.raises(ConfigError, match="sorted by arrival"):
            scheduler.run(requests)
        assert scheduler.queued == 0 and scheduler.steps == 0

    def test_lenient_replay_records_rejections(self, setup):
        config, _, qmodel = setup
        scheduler = Scheduler(make_session(qmodel))
        oversized = Request(
            prompt=np.zeros(config.max_seq, dtype=np.int64), max_new=8
        )
        fine = Request(prompt=np.array([1, 2, 3]), max_new=2)
        results = scheduler.run([oversized, fine])
        assert len(results) == 1
        assert len(scheduler.rejections) == 1
        index, message = scheduler.rejections[0]
        assert index == 0 and f"max_seq={config.max_seq}" in message
        assert scheduler.stats().rejected == 1
        # a malformed prompt is the caller's bug: it still raises
        with pytest.raises(ConfigError, match="1-D token sequence"):
            Scheduler(make_session(qmodel)).run(
                [Request(prompt=np.array([[1, 2]]), max_new=2)]
            )

    @pytest.mark.parametrize("failing", ["prefill_step", "decode_step"])
    def test_failed_run_frees_its_slots(self, setup, failing):
        """A step that raises frees the slots its residents hold — and
        only those, skipping a resident the same step already retired —
        so the session serves the next run in full."""
        config, _, qmodel = setup
        session = make_session(qmodel, max_slots=3, capacity=32)
        held, _ = session.admit(np.array([1]))
        method = getattr(session, failing)
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("injected failure")
            return method(*args)

        setattr(session, failing, fails_once)
        rng = np.random.default_rng(21)
        # The 1-token request retires in the step whose decode raises.
        requests = [
            Request(prompt=rng.integers(0, config.vocab, size=n), max_new=m)
            for n, m in ((6, 1), (5, 4), (7, 4))
        ]
        with pytest.raises(RuntimeError, match="injected"):
            Scheduler(session).run(requests)
        assert session.active_slots == [held]
        results = Scheduler(session).run(requests)
        for request, result in zip(requests, results, strict=True):
            expect = InferenceSession(qmodel).generate(request.prompt, request.max_new)
            assert np.array_equal(result.tokens, expect.tokens)
        assert session.active_slots == [held]


class TestChunkedPrefill:
    def test_token_identical_and_bounded(self, setup):
        """Chunked ingestion changes scheduling, never tokens: every
        request's stream matches the unchunked run, and no step
        prefills more than the budget."""
        config, _, qmodel = setup
        rng = np.random.default_rng(9)
        requests = [
            Request(
                prompt=rng.integers(0, config.vocab, size=n),
                max_new=4,
                top_k=4,
                seed=20 + n,
            )
            for n in (40, 3, 25, 5)
        ]

        def run(prefill_chunk):
            scheduler = Scheduler(
                make_session(qmodel, max_slots=4, capacity=64),
                max_batch=4,
                prefill_chunk=prefill_chunk,
            )
            return scheduler.run(requests), scheduler.stats()

        plain, plain_stats = run(None)
        chunked, stats = run(8)
        for a, b in zip(plain, chunked, strict=False):
            assert np.array_equal(a.tokens, b.tokens), a.request_id
        assert stats.max_prefill_tokens_per_step <= 8
        assert stats.prefill_stall_steps >= 1
        assert stats.prefill_tokens == plain_stats.prefill_tokens == sum(
            r.prompt.shape[0] for r in requests
        )
        # bounding the per-step prefill takes more scheduler steps
        assert stats.prefill_steps > plain_stats.prefill_steps

    def test_residents_decode_while_long_prompt_ingests(self, setup):
        """A long prompt must not stall the batch: short residents keep
        decoding (and can finish) while it streams in chunks."""
        config, _, qmodel = setup
        scheduler = Scheduler(
            make_session(qmodel, max_slots=2, capacity=64),
            max_batch=2,
            prefill_chunk=4,
        )
        rng = np.random.default_rng(10)
        scheduler.submit(
            Request(prompt=rng.integers(0, config.vocab, size=3), max_new=2)
        )
        scheduler.submit(
            Request(prompt=rng.integers(0, config.vocab, size=40), max_new=2)
        )
        while not scheduler.results():
            assert scheduler.step()
        # the short request finished; the long prompt is still ingesting
        assert [r.request_id for r in scheduler.results()] == [0]
        assert any(s.ingesting for s in scheduler._active)
        while scheduler.step():
            pass
        assert [r.request_id for r in scheduler.results()] == [0, 1]
        assert scheduler.stats().prefill_stall_steps >= 1

    def test_prefill_chunk_validated(self, setup):
        _, _, qmodel = setup
        with pytest.raises(ConfigError, match="prefill_chunk"):
            Scheduler(make_session(qmodel), prefill_chunk=0)

    def test_join_chunked_matches_monolithic(self, setup):
        """Every logits row of a prompt ingested in 6-token ragged
        chunks equals the same row of a one-pass prefill."""
        config, _, qmodel = setup
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, config.vocab, size=n) for n in (17, 5, 26)]
        _, mono = admit_and_prefill(make_session(qmodel, capacity=32), prompts)
        session = make_session(qmodel, capacity=32)
        slots = [session.admit(prompt)[0] for prompt in prompts]
        chunked: list[list[np.ndarray]] = [[] for _ in prompts]
        for start in range(0, max(p.shape[0] for p in prompts), 6):
            live = [i for i, p in enumerate(prompts) if start < p.shape[0]]
            rows = session.prefill_step(
                [slots[i] for i in live], [prompts[i][start : start + 6] for i in live]
            )
            for i, chunk_rows in zip(live, rows, strict=True):
                chunked[i].append(chunk_rows)
        for i in range(len(prompts)):
            assert np.array_equal(np.concatenate(chunked[i]), mono[i])


class TestSlotChurn:
    def test_slot_reuse_after_release_under_churn(self, setup):
        """Interleaved admit/decode/retire keeps every slot's state
        exact: a freed slot re-admits a fresh prompt whose rows match a
        clean single-sequence session."""
        config, _, qmodel = setup
        session = make_session(qmodel, max_slots=2, capacity=32)
        rng = np.random.default_rng(12)
        resident: dict[int, InferenceSession] = {}  # slot -> reference

        def admit_one():
            prompt = rng.integers(0, config.vocab, size=int(rng.integers(3, 9)))
            reference = InferenceSession(qmodel)
            expect = reference.prefill(prompt)[-1]
            slots, rows = admit_and_prefill(session, [prompt])
            assert np.array_equal(rows[0][-1], expect)
            resident[slots[0]] = reference

        admit_one()
        admit_one()
        for round_ in range(6):
            # decode all residents lock-step, checked per row
            slots = sorted(resident)
            tokens = [int(rng.integers(0, config.vocab)) for _ in slots]
            batch = session.decode_step(slots, tokens)
            for row, slot, token in zip(batch, slots, tokens, strict=False):
                assert np.array_equal(row, resident[slot].decode_step(token))
            # retire one resident (alternating which) and refill its slot
            victim = slots[round_ % len(slots)]
            session.retire(victim)
            del resident[victim]
            assert session.free_slots == 1
            admit_one()
            assert session.free_slots == 0
