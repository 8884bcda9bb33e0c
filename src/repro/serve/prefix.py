"""Radix prompt-prefix cache over KV state.

Real traffic shares long prompt prefixes (system prompts, few-shot
preambles).  Their KV state is a pure function of the token ids and
the model — RoPE keys depend only on *absolute* position, and every
prefix sits at positions ``0..p-1`` — so recomputing it per request is
wasted prefill.  :class:`RadixPrefixCache` stores per-layer K/V blocks
for previously served prompts in a radix tree (compressed trie) keyed
on token sequences:

* :meth:`lookup` walks the tree and returns the **longest cached
  prefix** of a prompt, as concatenated ``[layers, heads, match,
  d_head]`` key/value arrays ready for
  :meth:`~repro.llm.transformer.BatchedKVCache.copy_into`;
* :meth:`insert` stores a fully ingested prompt's KV state
  (:meth:`~repro.llm.transformer.BatchedKVCache.snapshot`), sharing
  the storage of every already-cached prefix (the radix property:
  one copy of a shared system prompt, however many continuations);
* eviction is LRU over leaf nodes under a byte budget
  (``max_bytes``): least-recently-touched leaves are dropped until
  the cache fits, so hot prefixes survive and interior nodes are
  only evicted once every continuation below them is gone.

Isolation is by copy, not reference counting: ``insert`` copies the
snapshot into tree-owned arrays and ``lookup`` returns freshly
concatenated copies, so a request mutating its
:class:`~repro.llm.transformer.BatchedKVCache` slot can never corrupt
a cached prefix or a sibling request (copy-on-write at both edges).

Bit-identity: a slot seeded from a cached prefix holds *exactly* the
K/V floats a fresh prefill of those tokens would produce (the decoder
computes each token row independently of its batch — see
:mod:`repro.llm.transformer`), so serving with the cache on is
bit-identical to serving with it off.  The cache is keyed on tokens
only: share one instance per model/weights (the engine's
``batched`` and ``bitexact-scalar`` backends produce identical KV, so
backend mixes are safe; BLAS-backed ``reference`` is not).

Telemetry (:meth:`stats`) counts hits/misses at both request and
token granularity plus evictions and resident bytes, and feeds the
``prefix_cache`` block of the ``serve_sim/v6`` record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class _Node:
    """One radix-tree edge: a run of tokens and their KV blocks.

    ``keys``/``values`` are ``[layers, heads, len(tokens), d_head]``
    tree-owned copies; ``children`` maps the first token of each child
    edge to the child.  The root is the only node with an empty edge.
    """

    tokens: tuple[int, ...]
    keys: np.ndarray | None
    values: np.ndarray | None
    children: dict[int, "_Node"] = field(default_factory=dict)
    parent: "_Node | None" = None
    last_used: int = 0

    @property
    def nbytes(self) -> int:
        if self.keys is None:
            return 0
        return int(self.keys.nbytes + self.values.nbytes)


@dataclass(frozen=True)
class PrefixCacheStats:
    """Counters accumulated over a :class:`RadixPrefixCache` lifetime."""

    lookups: int  #: calls to ``lookup``
    hits: int  #: lookups that matched at least one token
    misses: int  #: lookups that matched nothing
    lookup_tokens: int  #: prompt tokens presented across lookups
    hit_tokens: int  #: prompt tokens served from the cache
    inserted_tokens: int  #: tokens newly stored (shared prefixes excluded)
    evictions: int  #: nodes dropped by the LRU budget
    evicted_tokens: int  #: tokens those nodes held
    bytes: int  #: resident K/V bytes
    max_bytes: int  #: the configured budget
    nodes: int  #: resident radix nodes (root excluded)

    @property
    def token_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        return self.hit_tokens / self.lookup_tokens if self.lookup_tokens else 0.0

    def since(self, before: "PrefixCacheStats") -> "PrefixCacheStats":
        """The counters accumulated after ``before``; gauges stay current."""
        gauges = ("bytes", "max_bytes", "nodes")
        counters = {
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(self)
            if f.name not in gauges
        }
        return dataclasses.replace(self, **counters)


class RadixPrefixCache:
    """LRU-bounded radix tree of prompt-prefix KV state.

    ``max_bytes`` bounds the resident K/V bytes; an insertion that
    pushes the tree over the budget evicts least-recently-used leaves
    until it fits (an entry larger than the whole budget is evicted
    straight away — the cache never over-commits).
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 1:
            raise ConfigError("prefix cache budget must be >= 1 byte")
        self.max_bytes = int(max_bytes)
        self._root = _Node(tokens=(), keys=None, values=None)
        self._clock = 0
        self._bytes = 0
        self._nodes = 0
        self._lookups = 0
        self._hits = 0
        self._misses = 0
        self._lookup_tokens = 0
        self._hit_tokens = 0
        self._inserted_tokens = 0
        self._evictions = 0
        self._evicted_tokens = 0

    # -- queries -------------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Resident K/V bytes."""
        return self._bytes

    def stats(self) -> PrefixCacheStats:
        """Lifetime counters (see :class:`PrefixCacheStats`)."""
        return PrefixCacheStats(
            lookups=self._lookups,
            hits=self._hits,
            misses=self._misses,
            lookup_tokens=self._lookup_tokens,
            hit_tokens=self._hit_tokens,
            inserted_tokens=self._inserted_tokens,
            evictions=self._evictions,
            evicted_tokens=self._evicted_tokens,
            bytes=self._bytes,
            max_bytes=self.max_bytes,
            nodes=self._nodes,
        )

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _walk(
        self, tokens: tuple[int, ...]
    ) -> tuple[list[tuple[_Node, int]], int]:
        """Match ``tokens`` down the tree.

        Returns ``(path, matched)`` where ``path`` lists every touched
        node with how many of its edge tokens matched (the last entry
        may be a partial edge match), and ``matched`` is the total.
        """
        path: list[tuple[_Node, int]] = []
        node = self._root
        matched = 0
        while matched < len(tokens):
            child = node.children.get(tokens[matched])
            if child is None:
                break
            edge = child.tokens
            take = 0
            limit = min(len(edge), len(tokens) - matched)
            while take < limit and edge[take] == tokens[matched + take]:
                take += 1
            path.append((child, take))
            matched += take
            if take < len(edge):
                break
            node = child
        return path, matched

    def lookup(
        self, tokens: np.ndarray
    ) -> tuple[int, np.ndarray | None, np.ndarray | None]:
        """Longest cached prefix of ``tokens``.

        Returns ``(match, keys, values)``: ``match`` tokens of KV
        state as freshly concatenated ``[layers, heads, match,
        d_head]`` arrays (``(0, None, None)`` on a miss).  Every node
        on the matched path is LRU-touched.
        """
        key = tuple(int(t) for t in np.asarray(tokens).reshape(-1))
        self._lookups += 1
        self._lookup_tokens += len(key)
        path, matched = self._walk(key)
        if matched == 0:
            self._misses += 1
            return 0, None, None
        now = self._tick()
        for node, _ in path:
            node.last_used = now
        self._hits += 1
        self._hit_tokens += matched
        keys = np.concatenate(
            [node.keys[:, :, :take] for node, take in path], axis=2
        )
        values = np.concatenate(
            [node.values[:, :, :take] for node, take in path], axis=2
        )
        return matched, keys, values

    # -- insertion -----------------------------------------------------------

    def insert(
        self, tokens: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> int:
        """Store a prompt's KV state; returns tokens newly cached.

        ``keys``/``values`` are ``[layers, heads, len(tokens),
        d_head]`` (a :meth:`BatchedKVCache.snapshot
        <repro.llm.transformer.BatchedKVCache.snapshot>` of the fully
        ingested prompt).  The already-cached prefix is shared, not
        duplicated; only the new suffix allocates.  May evict LRU
        leaves to respect ``max_bytes``.
        """
        key = tuple(int(t) for t in np.asarray(tokens).reshape(-1))
        if not key:
            raise ConfigError("cannot insert an empty token sequence")
        if (
            keys.ndim != 4
            or keys.shape != values.shape
            or keys.shape[2] != len(key)
        ):
            raise ConfigError(
                f"insert expects [layers, heads, {len(key)}, d_head] "
                f"keys/values, got {keys.shape} / {values.shape}"
            )
        path, matched = self._walk(key)
        now = self._tick()
        for node, _ in path:
            node.last_used = now
        if matched == len(key):
            return 0  # fully cached already
        # Attach point: the deepest fully matched node (split a
        # partially matched edge first).
        if path and path[-1][1] < len(path[-1][0].tokens):
            parent = self._split(*path[-1])
        elif path:
            parent = path[-1][0]
        else:
            parent = self._root
        suffix = key[matched:]
        # np.array (not ascontiguousarray) — the matched == 0 slice is
        # the caller's whole array and must still be copied, not aliased.
        node = _Node(
            tokens=suffix,
            keys=np.array(keys[:, :, matched:], order="C"),
            values=np.array(values[:, :, matched:], order="C"),
            parent=parent,
            last_used=now,
        )
        parent.children[suffix[0]] = node
        self._bytes += node.nbytes
        self._nodes += 1
        self._inserted_tokens += len(suffix)
        self._evict()
        return len(suffix)

    def _split(self, node: _Node, at: int) -> _Node:
        """Split ``node``'s edge after ``at`` tokens; returns the head.

        The head keeps the first ``at`` tokens (and ``node``'s place in
        the tree); the tail keeps the rest plus all children.  Byte
        accounting is unchanged — the KV blocks are merely re-sliced.
        """
        head = _Node(
            tokens=node.tokens[:at],
            keys=np.ascontiguousarray(node.keys[:, :, :at]),
            values=np.ascontiguousarray(node.values[:, :, :at]),
            parent=node.parent,
            last_used=node.last_used,
        )
        tail = _Node(
            tokens=node.tokens[at:],
            keys=np.ascontiguousarray(node.keys[:, :, at:]),
            values=np.ascontiguousarray(node.values[:, :, at:]),
            parent=head,
            last_used=node.last_used,
            children=node.children,
        )
        for child in tail.children.values():
            child.parent = tail
        head.children = {tail.tokens[0]: tail}
        node.parent.children[head.tokens[0]] = head
        self._nodes += 1
        return head

    # -- eviction ------------------------------------------------------------

    def _leaves(self) -> list[_Node]:
        out: list[_Node] = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children.values())
            else:
                out.append(node)
        return out

    def _evict(self) -> None:
        """Drop LRU leaves until the tree fits ``max_bytes``."""
        while self._bytes > self.max_bytes:
            leaves = self._leaves()
            if not leaves:
                break
            victim = min(leaves, key=lambda n: (n.last_used, n.tokens))
            del victim.parent.children[victim.tokens[0]]
            self._bytes -= victim.nbytes
            self._nodes -= 1
            self._evictions += 1
            self._evicted_tokens += len(victim.tokens)
