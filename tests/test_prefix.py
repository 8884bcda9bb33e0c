"""Tests for the radix prompt-prefix cache (repro.serve.prefix).

Three layers of coverage: the radix tree itself (matching, edge
splits, LRU eviction under a byte budget, copy-on-write isolation),
the :class:`BatchedKVCache` snapshot/copy_into primitives it is built
on, and end-to-end bit-identity — serving with the cache on must
produce exactly the logits and token streams of serving with it off,
across every row-independent engine backend.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.llm.transformer import Decoder, TransformerConfig, init_weights
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.serve import (
    BatchedSession,
    RadixPrefixCache,
    Request,
    Scheduler,
)

#: Backends with the row-independence guarantee ("reference" is
#: BLAS-backed and excluded) — same set as tests/test_serve.py.
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


def ingest(session, prompt):
    """Admit ``prompt``, prefill its uncached suffix, record it.

    Returns ``(slot, last_row)``: the final position's logits row.
    """
    slot, reused = session.admit(prompt)
    [rows] = session.prefill_step([slot], [prompt[reused:]])
    session.record_prefix(slot, prompt)
    return slot, rows[-1]


def fake_kv(tokens):
    """Synthetic per-token KV blocks: position ``i`` carries ``tokens[i]``.

    Shape ``[1 layer, 1 head, len, 2]``; 16 bytes per token, which the
    eviction tests rely on.
    """
    arr = np.asarray(tokens, dtype=np.float64)
    keys = np.zeros((1, 1, arr.shape[0], 1))
    keys[0, 0, :, 0] = arr
    return keys, -keys


class TestRadixTree:
    def test_miss_on_empty(self):
        cache = RadixPrefixCache(1 << 20)
        match, keys, values = cache.lookup(np.array([1, 2, 3]))
        assert (match, keys, values) == (0, None, None)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 0
        assert stats.lookup_tokens == 3 and stats.hit_tokens == 0

    def test_exact_and_partial_hits(self):
        cache = RadixPrefixCache(1 << 20)
        tokens = [5, 6, 7, 8]
        assert cache.insert(np.array(tokens), *fake_kv(tokens)) == 4
        match, keys, values = cache.lookup(np.array(tokens))
        assert match == 4
        assert np.array_equal(keys[0, 0, :, 0], tokens)
        assert np.array_equal(values, -keys)
        # a diverging prompt still reuses the shared two tokens
        match, keys, _ = cache.lookup(np.array([5, 6, 9]))
        assert match == 2
        assert np.array_equal(keys[0, 0, :, 0], [5, 6])
        assert cache.lookup(np.array([9, 9]))[0] == 0

    def test_insert_shares_existing_prefix(self):
        cache = RadixPrefixCache(1 << 20)
        cache.insert(np.array([1, 2, 3]), *fake_kv([1, 2, 3]))
        longer = [1, 2, 3, 4, 5]
        assert cache.insert(np.array(longer), *fake_kv(longer)) == 2
        assert cache.insert(np.array(longer), *fake_kv(longer)) == 0
        stats = cache.stats()
        assert stats.inserted_tokens == 5  # 3 + 2, no duplication
        assert stats.bytes == 5 * 16
        match, keys, _ = cache.lookup(np.array(longer))
        assert match == 5 and np.array_equal(keys[0, 0, :, 0], longer)

    def test_edge_split_preserves_both_branches(self):
        cache = RadixPrefixCache(1 << 20)
        cache.insert(np.array([1, 2, 3, 4]), *fake_kv([1, 2, 3, 4]))
        assert cache.insert(np.array([1, 2, 9]), *fake_kv([1, 2, 9])) == 1
        # split head [1,2] + tail [3,4] + new leaf [9]
        assert cache.stats().nodes == 3
        for tokens in ([1, 2, 3, 4], [1, 2, 9]):
            match, keys, values = cache.lookup(np.array(tokens))
            assert match == len(tokens)
            assert np.array_equal(keys[0, 0, :, 0], tokens)
            assert np.array_equal(values, -keys)

    def test_lru_eviction_under_budget(self):
        cache = RadixPrefixCache(4 * 16)  # room for 4 tokens
        cache.insert(np.array([1, 2, 3]), *fake_kv([1, 2, 3]))
        cache.insert(np.array([7, 8, 9]), *fake_kv([7, 8, 9]))
        stats = cache.stats()
        assert stats.evictions == 1 and stats.evicted_tokens == 3
        assert stats.bytes <= stats.max_bytes
        assert cache.lookup(np.array([1, 2, 3]))[0] == 0  # LRU victim
        assert cache.lookup(np.array([7, 8, 9]))[0] == 3

    def test_lookup_protects_from_eviction(self):
        cache = RadixPrefixCache(5 * 16)
        cache.insert(np.array([1, 2, 3]), *fake_kv([1, 2, 3]))
        cache.insert(np.array([7]), *fake_kv([7]))
        cache.lookup(np.array([1, 2, 3]))  # now [7] is least recent
        cache.insert(np.array([8, 9]), *fake_kv([8, 9]))
        assert cache.lookup(np.array([7]))[0] == 0
        assert cache.lookup(np.array([1, 2, 3]))[0] == 3

    def test_interior_nodes_evict_leaf_first(self):
        cache = RadixPrefixCache(3 * 16)
        cache.insert(np.array([1, 2]), *fake_kv([1, 2]))
        cache.insert(np.array([1, 2, 3, 4]), *fake_kv([1, 2, 3, 4]))
        # over budget by one token: only the [3,4] leaf may go
        assert cache.lookup(np.array([1, 2]))[0] == 2
        assert cache.lookup(np.array([1, 2, 3, 4]))[0] == 2
        assert cache.stats().evicted_tokens == 2

    def test_oversized_entry_dropped_immediately(self):
        cache = RadixPrefixCache(2 * 16)
        cache.insert(np.array([1, 2, 3, 4]), *fake_kv([1, 2, 3, 4]))
        assert cache.stats().bytes == 0
        assert cache.lookup(np.array([1, 2, 3, 4]))[0] == 0

    def test_budget_always_respected_under_churn(self):
        cache = RadixPrefixCache(6 * 16)
        rng = np.random.default_rng(3)
        for _ in range(50):
            tokens = rng.integers(0, 8, size=int(rng.integers(1, 5)))
            cache.insert(tokens, *fake_kv(tokens))
            assert cache.stats().bytes <= cache.max_bytes

    def test_insert_validation(self):
        cache = RadixPrefixCache(1 << 20)
        with pytest.raises(ConfigError, match="empty token sequence"):
            cache.insert(np.array([], dtype=np.int64), *fake_kv([]))
        keys, values = fake_kv([1, 2])
        with pytest.raises(ConfigError, match="insert expects"):
            cache.insert(np.array([1, 2, 3]), keys, values)
        with pytest.raises(ConfigError, match="budget must be"):
            RadixPrefixCache(0)


class TestCopyOnWrite:
    def test_lookup_returns_fresh_copies(self):
        cache = RadixPrefixCache(1 << 20)
        cache.insert(np.array([1, 2, 3]), *fake_kv([1, 2, 3]))
        _, keys, values = cache.lookup(np.array([1, 2, 3]))
        keys[...] = 99.0
        values[...] = 99.0
        _, again, again_v = cache.lookup(np.array([1, 2, 3]))
        assert np.array_equal(again[0, 0, :, 0], [1, 2, 3])
        assert np.array_equal(again_v, -again)

    def test_insert_copies_the_snapshot(self):
        cache = RadixPrefixCache(1 << 20)
        keys, values = fake_kv([4, 5])
        cache.insert(np.array([4, 5]), keys, values)
        keys[...] = -1.0  # the request keeps decoding into its slot
        values[...] = -1.0
        _, cached, _ = cache.lookup(np.array([4, 5]))
        assert np.array_equal(cached[0, 0, :, 0], [4, 5])


class TestSnapshotCopyInto:
    def test_resume_from_snapshot_is_bit_identical(self, setup):
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        prompt = np.arange(10) % config.vocab
        cache = decoder.init_batched_cache(2, capacity=16)
        a = cache.allocate()
        full = decoder.prefill_ragged([prompt], cache, [a])[0]
        keys, values = cache.snapshot(a, 6)
        b = cache.allocate()
        cache.copy_into(b, keys, values)
        assert int(cache.lengths[b]) == 6
        rows = decoder.prefill_ragged([prompt[6:]], cache, [b], resume=True)
        assert np.array_equal(rows[0], full[6:])

    def test_snapshot_bounds(self, setup):
        config, _, _ = setup
        from repro.llm.transformer import BatchedKVCache

        cache = BatchedKVCache(config, max_slots=2, capacity=8)
        slot = cache.allocate()
        with pytest.raises(ConfigError, match="snapshot of"):
            cache.snapshot(slot, 1)  # slot holds nothing yet

    def test_copy_into_rejects_busy_slot_and_bad_shapes(self, setup):
        config, weights, qmodel = setup
        decoder = Decoder(config, weights, qmodel)
        cache = decoder.init_batched_cache(2, capacity=16)
        a = cache.allocate()
        decoder.prefill_ragged([np.arange(4)], cache, [a])
        keys, values = cache.snapshot(a, 4)
        with pytest.raises(ConfigError, match="empty slot"):
            cache.copy_into(a, keys, values)
        b = cache.allocate()
        with pytest.raises(ConfigError, match="copy_into"):
            cache.copy_into(b, keys[:1], values[:1])  # wrong layer count
        with pytest.raises(ConfigError, match="at least one token"):
            cache.copy_into(b, keys[:, :, :0], values[:, :, :0])


class TestBitIdentityWithCache:
    """Cache on == cache off, to the last bit, on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_prefix_hit_matches_reference(self, setup, backend):
        config, _, qmodel = setup
        rng = np.random.default_rng(5)
        shared = rng.integers(0, config.vocab, size=12)
        prompts = [
            np.concatenate([shared, rng.integers(0, config.vocab, size=n)])
            for n in (3, 5)
        ]
        session = BatchedSession(
            qmodel,
            backend=backend,
            max_slots=2,
            capacity=32,
            prefix_cache=RadixPrefixCache(1 << 20),
        )
        # first prompt: cold miss, recorded; second: 12-token hit
        slots = []
        for prompt in prompts:
            reference = InferenceSession(qmodel, backend=backend)
            slot, last = ingest(session, prompt)
            assert np.array_equal(last, reference.prefill(prompt)[-1])
            slots.append(slot)
        stats = session.prefix_cache.stats()
        assert stats.hits == 1 and stats.hit_tokens == 12
        # decoding a cache-seeded slot stays exact too
        single = InferenceSession(qmodel, backend=backend)
        last = single.prefill(prompts[1])
        for token in (1, 2):
            batch = session.decode_step([slots[1]], [token])
            assert np.array_equal(batch[0], single.decode_step(token))

    @pytest.mark.parametrize("backend", ("batched",))
    def test_full_prompt_cached_still_samples(self, setup, backend):
        """Reuse is capped at len-1: an identical prompt re-prefills
        exactly one position and gets the same last row."""
        config, _, qmodel = setup
        session = BatchedSession(
            qmodel,
            backend=backend,
            max_slots=3,
            capacity=32,
            prefix_cache=RadixPrefixCache(1 << 20),
        )
        prompt = np.arange(9) % config.vocab
        _, first = ingest(session, prompt)
        _, second = ingest(session, prompt)
        assert np.array_equal(first, second)
        # the tree matches all 9 tokens; the session reuses only 8
        assert session.prefix_cache.stats().hit_tokens == 9
        _, reused = session.admit(prompt)
        assert reused == 8  # capped at len - 1

    def test_post_eviction_reprefill_is_exact(self, setup):
        config, _, qmodel = setup
        rng = np.random.default_rng(6)
        prompt = rng.integers(0, config.vocab, size=10)
        kv_bytes_per_token = 2 * config.n_layers * config.n_heads * (
            config.d_head * np.dtype(np.float64).itemsize
        )
        # budget below one prompt: every insert is evicted right away
        session = BatchedSession(
            qmodel,
            max_slots=2,
            capacity=32,
            prefix_cache=RadixPrefixCache(5 * kv_bytes_per_token),
        )
        reference = InferenceSession(qmodel)
        expect = reference.prefill(prompt)[-1]
        for _ in range(3):
            slot, last = ingest(session, prompt)
            assert np.array_equal(last, expect)
            session.retire(slot)
        assert session.prefix_cache.stats().evictions >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduler_streams_identical_cache_on_off(self, setup, backend):
        config, _, qmodel = setup
        rng = np.random.default_rng(8)
        shared = rng.integers(0, config.vocab, size=10)
        requests = []
        for i in range(6):
            suffix = rng.integers(0, config.vocab, size=2 + i % 3)
            requests.append(
                Request(
                    prompt=np.concatenate([shared, suffix]),
                    max_new=4,
                    top_k=4,
                    seed=100 + i,
                    arrival=i,  # mid-stream joins while others decode
                )
            )

        def run(prefix_cache, prefill_chunk):
            session = BatchedSession(
                qmodel,
                backend=backend,
                max_slots=3,
                capacity=32,
                prefix_cache=prefix_cache,
            )
            scheduler = Scheduler(
                session, max_batch=3, prefill_chunk=prefill_chunk
            )
            return scheduler.run(requests), scheduler.stats()

        plain, _ = run(None, None)
        cached, stats = run(RadixPrefixCache(1 << 22), 8)
        assert stats.cached_prefix_tokens > 0
        for a, b in zip(plain, cached, strict=False):
            assert np.array_equal(a.tokens, b.tokens), (backend, a.request_id)
