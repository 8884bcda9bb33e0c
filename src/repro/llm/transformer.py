"""A NumPy decoder-only transformer with quantizable linear layers.

The bigram LM of :mod:`repro.llm.bigram` isolates Table II's claim;
this module provides the *full* workload the paper motivates: a
Llama-style decoder (RMSNorm, multi-head causal attention, SwiGLU FFN,
tied LM head) whose every linear layer is a ``[k, n]`` weight matrix
that can be quantized and executed through the GEMM engine
(:mod:`repro.engine`) — i.e. the PacQ compute path end to end.
Weights are seeded-random with realistic per-channel scale variation
(no checkpoints are available offline), so the model is used for
*relative* studies: quantized-vs-fp16 drift, group-shape effects, and
generating the exact GEMM shapes the simulator prices.

Incremental, batched decoding
-----------------------------

Serving decodes one token at a time; re-running the full sequence per
token is O(seq) redundant work.  A server also decodes *many*
sequences concurrently; stepping them one by one pays one GEMM per
weight matrix **per sequence** even though the engine's backends
amortize over activation rows.  The decoder has one cached path for
both — :class:`BatchedKVCache` (a preallocated slot pool with per-slot
lengths, grow, truncate and release) plus
:meth:`Decoder.prefill_ragged` / :meth:`Decoder.decode_batch` — which
packs the new tokens of every active sequence into one row stack so
each linear layer issues **one** GEMM for the whole batch (rows =
active slots), while attention, RoPE and norms stay per-sequence.
Single-sequence decoding is the same path with one slot:
:meth:`Decoder.forward` is a prefill into a throwaway 1-slot cache, and
:class:`repro.model.InferenceSession` owns a persistent one.

Because every reduction on the path computes each activation row
independently of its batch neighbours (see below), each sequence's
logits are bit-identical to stepping it alone, and every row is
bit-identical to :meth:`Decoder.forward` on the concatenated
sequence.  That guarantee needs reductions whose result for one token
row does not depend on how many other rows are in the batch, so every
matmul-shaped reduction here goes through :func:`_contract`
(``np.einsum`` with ``optimize=False``): its per-output-element
accumulation order is fixed by the reduction length alone, and
trailing *exact zeros* (masked attention columns) do not perturb it.
BLAS ``@`` has neither property (its accumulation blocking depends on
the batch dimension), which is why it is not used on this path.  The
quantized linears keep the same guarantee because the engine's
``batched`` and ``bitexact-scalar`` backends compute each activation
row independently (``reference`` is BLAS-backed and excluded).

The implementation favours clarity over speed; dimensions are kept
small enough for tests while scaling to ~10M parameters for examples.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import DEFAULT_BACKEND, get_backend, plan_gemm
from repro.errors import ConfigError

if TYPE_CHECKING:  # repro.model imports this module
    from repro.model.policy import QuantizedModel


@dataclass(frozen=True)
class TransformerConfig:
    """Dimensions of the toy decoder."""

    vocab: int = 256
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ffn: int = 256
    max_seq: int = 128
    rms_eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must divide evenly into heads")
        if min(self.vocab, self.d_model, self.n_heads, self.n_layers, self.d_ffn) < 1:
            raise ConfigError(f"invalid transformer config: {self}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


#: The linear-layer names of one decoder block, with [k, n] shapes.
def _layer_shapes(config: TransformerConfig) -> dict[str, tuple[int, int]]:
    d, f = config.d_model, config.d_ffn
    return {
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "w_gate": (d, f),
        "w_up": (d, f),
        "w_down": (f, d),
    }


@dataclass
class DecoderWeights:
    """All parameters of the decoder (float64 masters)."""

    embedding: np.ndarray  #: [vocab, d_model]
    blocks: list[dict[str, np.ndarray]]
    final_norm: np.ndarray  #: [d_model]
    norms: list[dict[str, np.ndarray]] = field(default_factory=list)

    def linear_matrices(self) -> list[tuple[str, np.ndarray]]:
        """Every quantizable [k, n] weight, with a qualified name."""
        out = []
        for i, block in enumerate(self.blocks):
            for name, weight in block.items():
                out.append((f"layer{i}.{name}", weight))
        return out

    def num_parameters(self) -> int:
        total = self.embedding.size + self.final_norm.size
        for block in self.blocks:
            total += sum(w.size for w in block.values())
        for norm in self.norms:
            total += sum(v.size for v in norm.values())
        return total


def init_weights(config: TransformerConfig, seed: int = 0) -> DecoderWeights:
    """Seeded init with per-output-channel scale variation.

    Channel scales follow a shuffled Zipf profile (as in
    :mod:`repro.llm.bigram`) so quantization-group geometry matters the
    way it does for trained LLM weights.
    """
    rng = np.random.default_rng(seed)
    embedding = rng.normal(scale=0.8, size=(config.vocab, config.d_model))

    blocks = []
    norms = []
    for _ in range(config.n_layers):
        block = {}
        for name, (k, n) in _layer_shapes(config).items():
            scales = (1.0 + np.arange(n)) ** -0.3
            rng.shuffle(scales)
            block[name] = rng.normal(size=(k, n)) * scales[None, :] / np.sqrt(k)
        blocks.append(block)
        norms.append(
            {
                "attn": np.ones(config.d_model),
                "ffn": np.ones(config.d_model),
            }
        )
    final_norm = np.ones(config.d_model)
    return DecoderWeights(embedding, blocks, final_norm, norms)


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x / rms * gain


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """Batch-stable contraction: the decoder's only matmul primitive.

    ``np.einsum(optimize=False)`` accumulates each output element over
    the contracted axis in a fixed order that depends only on the axis
    length — not on the batch (row) dimension — and trailing exact
    zeros leave the nonzero prefix's accumulation unchanged.  Both
    properties are required for cached decoding to be bit-identical to
    ``forward`` (see module docstring); plain ``@``
    provides neither.
    """
    return np.einsum(subscripts, *operands, optimize=False)


def _rope(x: np.ndarray, offset: int = 0) -> np.ndarray:
    """Rotary position embedding over the last dimension (pairs).

    ``x`` is ``[..., m, d]`` holding positions ``offset .. offset+m-1``
    (``offset`` is the number of tokens already in the cache).  Purely
    elementwise per position, so cached and block evaluation agree
    bit-for-bit.
    """
    m, d = x.shape[-2], x.shape[-1]
    half = d // 2
    positions = (offset + np.arange(m))[:, None]
    freqs = 1.0 / (10000 ** (np.arange(half) / half))
    angles = positions * freqs[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


#: Per-slot token capacity a :class:`BatchedKVCache` starts at when no
#: ``capacity`` is given (clipped to ``max_seq``); :meth:`BatchedKVCache.ensure`
#: doubles it on demand, so a pool pays only for the longest sequence
#: it actually holds.
INITIAL_CAPACITY = 64


class BatchedKVCache:
    """A preallocated pool of per-sequence KV caches ("slots").

    The serving layer's cache: ``max_slots`` independent sequences
    share one pair of ``[slots, layers, heads, capacity, d_head]``
    buffers, so admitting a request is a slot allocation (no array
    allocation on the hot path) and retiring one returns the slot to
    the free list.  Each slot keeps its own ``lengths[slot]`` position,
    letting sequences of different ages decode lock-step.

    * :meth:`allocate` / :meth:`release` — slot lifecycle (release is
      the eviction primitive: the slot's tokens are dropped and the
      slot is immediately reusable).  The buffers exist only while a
      slot is allocated: the first allocation creates them at the
      initial capacity (``capacity``, else :data:`INITIAL_CAPACITY`
      tokens clipped to ``config.max_seq``) and releasing the last slot
      drops them, so an idle pool holds no KV memory (:attr:`nbytes`);
    * :meth:`ensure` — grow the shared ``capacity`` axis (doubling,
      capped at ``config.max_seq``) when a sequence is about to
      outrun it;
    * :meth:`store` / :meth:`view` — write a block's roped keys/values
      and read a slot's attention window;
    * :meth:`truncate` — roll a slot back (speculative rollback);
    * :meth:`snapshot` / :meth:`copy_into` — copy a prefix of a slot's
      KV state out of / into the pool.  These are the prefix-cache
      primitives (:mod:`repro.serve.prefix`): both *copy*, so a cached
      snapshot and a slot seeded from it can never alias — mutating
      one request's slot cannot corrupt a cached prefix or a sibling
      slot (copy-on-write isolation).
    """

    def __init__(
        self,
        config: TransformerConfig,
        max_slots: int,
        capacity: int | None = None,
    ) -> None:
        if max_slots < 1:
            raise ConfigError("a batched cache needs at least one slot")
        self.config = config
        self.max_slots = max_slots
        if capacity is None:
            capacity = min(INITIAL_CAPACITY, config.max_seq)
        self.capacity = capacity
        if not 1 <= self.capacity <= config.max_seq:
            raise ConfigError(
                f"cache capacity must lie in [1, max_seq={config.max_seq}], "
                f"got {self.capacity}"
            )
        self._initial_capacity = self.capacity
        #: ``[slots, layers, heads, capacity, d_head]`` buffers while any
        #: slot is allocated, else None.
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.lengths = np.zeros(max_slots, dtype=np.int64)
        # Free slots, popped lowest-first so occupancy packs densely.
        self._free = list(range(max_slots - 1, -1, -1))

    @property
    def nbytes(self) -> int:
        """Bytes the key/value buffers hold (0 while every slot is free)."""
        if self.keys is None:
            return 0
        return int(self.keys.nbytes + self.values.nbytes)

    @property
    def free_slots(self) -> int:
        """Slots currently available for :meth:`allocate`."""
        return len(self._free)

    @property
    def active_slots(self) -> list[int]:
        """Allocated slots, in ascending order."""
        free = set(self._free)
        return [s for s in range(self.max_slots) if s not in free]

    def allocate(self) -> int:
        """Claim a free slot (length 0); raises when the pool is full."""
        if not self._free:
            raise ConfigError(
                f"no free slot: all {self.max_slots} in use "
                "(retire a sequence first)"
            )
        if self.keys is None:
            self.capacity = self._initial_capacity
            shape = (
                self.max_slots,
                self.config.n_layers,
                self.config.n_heads,
                self.capacity,
                self.config.d_head,
            )
            self.keys = np.zeros(shape)
            self.values = np.zeros(shape)
        slot = self._free.pop()
        self.lengths[slot] = 0
        return slot

    def release(self, slot: int) -> None:
        """Evict a sequence: drop its tokens and free its slot.

        Freeing the last allocated slot also drops the buffers.
        """
        self._check_slot(slot)
        if slot in self._free:
            raise ConfigError(f"slot {slot} is already free")
        self.lengths[slot] = 0
        self._free.append(slot)
        self._free.sort(reverse=True)
        if len(self._free) == self.max_slots:
            self.keys = self.values = None

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.max_slots:
            raise ConfigError(
                f"slot {slot} out of range [0, {self.max_slots})"
            )

    def ensure(self, slot: int, extra: int) -> None:
        """Grow ``capacity`` so ``slot`` can take ``extra`` more tokens.

        Doubles the shared capacity axis (all slots grow together —
        one reallocation, existing entries copied) up to the model
        context window ``config.max_seq``; beyond that the sequence
        cannot fit and a :class:`~repro.errors.ConfigError` is raised.
        """
        self._check_slot(slot)
        needed = int(self.lengths[slot]) + extra
        if needed <= self.capacity:
            return
        if needed > self.config.max_seq:
            raise ConfigError(
                f"sequence of {needed} tokens exceeds the model context "
                f"window max_seq={self.config.max_seq}"
            )
        new_capacity = min(
            self.config.max_seq, max(needed, 2 * self.capacity)
        )
        shape = list(self.keys.shape)
        shape[3] = new_capacity
        for name in ("keys", "values"):
            old = getattr(self, name)
            grown = np.zeros(tuple(shape))
            grown[:, :, :, : self.capacity] = old
            setattr(self, name, grown)
        self.capacity = new_capacity

    def store(
        self, slot: int, layer: int, offset: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Write a block's roped keys/values for one slot."""
        self._check_slot(slot)
        m = k.shape[1]
        if offset + m > self.capacity:
            raise ConfigError(
                f"cache overflow in slot {slot}: {offset + m} tokens > "
                f"capacity {self.capacity} (grow first via ensure())"
            )
        self.keys[slot, layer][:, offset : offset + m] = k
        self.values[slot, layer][:, offset : offset + m] = v

    def view(self, slot: int, layer: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """One slot's keys/values over its first ``upto`` positions."""
        self._check_slot(slot)
        # detlint: ignore[D007]: deliberate read-only attention view — consumed
        # within the step; callers that retain state use snapshot()/copy_into().
        return self.keys[slot, layer][:, :upto], self.values[slot, layer][:, :upto]

    def truncate(self, slot: int, length: int) -> None:
        """Roll ``slot`` back to its first ``length`` tokens.

        The speculative-decoding rollback primitive: a verify pass
        appends the whole drafted window to the slot, then truncates
        away the rejected suffix.  Only the per-slot length moves — the
        stale keys/values beyond it are unreachable (``view``/
        ``snapshot`` stop at ``lengths[slot]``) and are overwritten in
        place by the next ``store`` at that offset, so decoding after a
        truncate is bit-identical to never having decoded the dropped
        tokens at all.
        """
        self._check_slot(slot)
        if slot in self._free:
            raise ConfigError(f"cannot truncate free slot {slot}")
        held = int(self.lengths[slot])
        if not 0 <= length <= held:
            raise ConfigError(
                f"cannot truncate slot {slot} to {length} tokens: it "
                f"holds {held} (length must lie in [0, {held}])"
            )
        self.lengths[slot] = length

    def snapshot(self, slot: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy the first ``upto`` positions of ``slot`` out of the pool.

        Returns ``(keys, values)`` shaped ``[layers, heads, upto,
        d_head]`` — independent copies, so later writes to the slot
        (or its release) cannot disturb them.  This is what a prefix
        cache stores after a prompt has been fully ingested.
        """
        self._check_slot(slot)
        if not 0 <= upto <= int(self.lengths[slot]):
            raise ConfigError(
                f"snapshot of {upto} tokens from slot {slot} holding "
                f"{int(self.lengths[slot])}"
            )
        return (
            self.keys[slot, :, :, :upto].copy(),
            self.values[slot, :, :, :upto].copy(),
        )

    def copy_into(self, slot: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Seed an empty slot with snapshot KV state (copy-on-write).

        ``keys``/``values`` are ``[layers, heads, m, d_head]`` as
        returned by :meth:`snapshot` (or a prefix-cache lookup); they
        are *copied* into the slot's own buffers and the slot's length
        becomes ``m``, exactly as if those ``m`` tokens had just been
        prefilled.  Subsequent writes touch only the slot — never the
        source arrays — which is the isolation a shared prefix cache
        relies on.
        """
        self._check_slot(slot)
        if self.lengths[slot] != 0:
            raise ConfigError(f"copy_into needs an empty slot, got slot {slot}")
        expected = (
            self.config.n_layers,
            self.config.n_heads,
            keys.shape[2] if keys.ndim == 4 else -1,
            self.config.d_head,
        )
        if keys.shape != values.shape or keys.shape != expected:
            raise ConfigError(
                f"copy_into expects [layers, heads, m, d_head] keys/values, "
                f"got {keys.shape} / {values.shape}"
            )
        m = keys.shape[2]
        if m < 1:
            raise ConfigError("copy_into needs at least one token of KV state")
        self.ensure(slot, m)
        self.keys[slot, :, :, :m] = keys
        self.values[slot, :, :, :m] = values
        self.lengths[slot] = m


class Decoder:
    """Forward-only decoder, optionally running quantized linears.

    ``model`` is a :class:`~repro.model.QuantizedModel` (build one with
    :func:`repro.model.quantize_model`); every matmul it quantizes
    routes through the GEMM execution engine (:mod:`repro.engine`): each
    weight matrix is planned **once** at construction and the cached
    :class:`~repro.engine.GemmPlan` is executed per call, so per-token
    decoding pays no repeated planning cost.  ``backend`` names the
    engine backend (:data:`~repro.engine.DEFAULT_BACKEND` by default);
    an unknown name fails here, not at the first GEMM.  Layers without
    a quantized matrix fall back to FP16-rounded reference weights,
    cached at construction.

    A model-level quantized bundle also carries AWQ equalization
    scales; the corresponding activations are divided by them before
    the GEMM (the fold-upstream deployment, applied at runtime).

    GEMM work is counted once, by the plans themselves: every
    execution lands in its plan's phase-tagged row histogram, which
    :class:`repro.model.session.Telemetry` and :mod:`repro.codesign`
    read.  FP16-kept linears have no plan and are not counted.
    """

    def __init__(
        self,
        config: TransformerConfig,
        weights: DecoderWeights,
        model: QuantizedModel | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        get_backend(backend)
        self.config = config
        self.weights = weights
        self.backend = backend
        matrices = model.matrices() if model is not None else {}
        act_scales = model.activation_scales() if model is not None else {}
        #: One plan per quantized weight matrix, built up front.
        self.plans = {name: plan_gemm(qm) for name, qm in matrices.items()}
        #: Reciprocal AWQ equalization scales, applied to activations.
        self._inv_scales = {
            name: 1.0 / np.asarray(scales, dtype=np.float64)
            for name, scales in act_scales.items()
        }
        #: FP16-rounded reference weights for every layer without a
        #: plan, cached once here instead of being re-derived per call.
        self._w16: dict[str, np.ndarray] = {}
        for i, block in enumerate(weights.blocks):
            for name, weight in block.items():
                key = f"layer{i}.{name}"
                if key not in self.plans:
                    self._w16[key] = weight.astype(np.float16).astype(np.float64)
        #: Pipeline phase label the public entry points stamp on every
        #: engine execution they issue (``GemmPlan.execute(phase=...)``)
        #: so per-plan shape histograms separate prefill / decode /
        #: verify traffic.  ``None`` outside a public call.
        self._phase: str | None = None

    @contextmanager
    def _phased(self, phase: str):
        """Stamp engine executions inside the block with ``phase``."""
        previous = self._phase
        self._phase = phase
        try:
            yield
        finally:
            self._phase = previous

    def _linear(self, x: np.ndarray, layer: int, name: str) -> np.ndarray:
        key = f"layer{layer}.{name}"
        plan = self.plans.get(key)
        if plan is not None:
            inv = self._inv_scales.get(key)
            a = x if inv is None else x * inv[None, :]
            return plan.execute(a, backend=self.backend, phase=self._phase)
        return _contract(
            "ij,jk->ik", x.astype(np.float16).astype(np.float64), self._w16[key]
        )

    def _heads(self, t: np.ndarray) -> np.ndarray:
        """``[m, d_model]`` rows -> ``[heads, m, d_head]`` per-head view."""
        cfg = self.config
        return t.reshape(t.shape[0], cfg.n_heads, cfg.d_head).transpose(1, 0, 2)

    def _attend(
        self,
        q: np.ndarray,
        k_all: np.ndarray,
        v_all: np.ndarray,
        offset: int,
    ) -> np.ndarray:
        """Causal attention of roped queries against one sequence's cache.

        ``q`` is ``[heads, m, d_head]`` (positions ``offset..``),
        ``k_all``/``v_all`` are ``[heads, total, d_head]`` with
        ``total = offset + m``.  Returns the merged ``[m, d_model]``
        context rows (pre-``wo``).  Pure per-sequence work — the
        batched path calls this once per active slot.
        """
        cfg = self.config
        m, total = q.shape[1], k_all.shape[1]
        scores = _contract("hid,hjd->hij", q, k_all) / np.sqrt(cfg.d_head)
        if m > 1:
            # Causal mask inside the block: key j visible to query row i
            # iff j <= offset + i.  (A single-row step sees only cached
            # keys, all visible.)
            j = np.arange(total)[None, :]
            i = offset + np.arange(m)[:, None]
            scores = scores + np.where(j > i, -np.inf, 0.0)[None, :, :]
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)  # masked columns are exact zeros
        denom = _contract("hij,hjo->hio", e, np.ones((cfg.n_heads, total, 1)))
        attn = e / denom
        mixed = _contract("hij,hjd->hid", attn, v_all)  # [heads, m, d_head]
        return mixed.transpose(1, 0, 2).reshape(m, cfg.d_model)

    def _ffn(self, x: np.ndarray, layer: int) -> np.ndarray:
        gate = self._linear(x, layer, "w_gate")
        up = self._linear(x, layer, "w_up")
        return self._linear(_silu(gate) * up, layer, "w_down")

    def _block_multi(
        self,
        groups: list[np.ndarray],
        cache: BatchedKVCache,
        slots: list[int],
    ) -> list[np.ndarray]:
        """Run one block of new tokens for several slots with shared GEMMs.

        ``groups[i]`` is the (non-empty, 1-D) token block appended to
        ``slots[i]``; blocks may have different lengths (ragged).  All
        rows are packed into one stack so every linear layer issues a
        single GEMM of ``m = sum(len(g))`` rows; RoPE, cache writes and
        attention run per slot at that slot's own offset.  Returns one
        ``[len(groups[i]), vocab]`` logits array per group, each
        bit-identical to running that block alone in a 1-slot cache at
        the same offset (row-independent reductions throughout — see
        the module docstring).
        """
        cfg = self.config
        if len(groups) != len(slots) or not groups:
            raise ConfigError("groups and slots must be non-empty and aligned")
        if len(set(slots)) != len(slots):
            raise ConfigError(f"duplicate slots in batch: {slots}")
        offsets = [int(cache.lengths[slot]) for slot in slots]
        lengths = [g.shape[0] for g in groups]
        if min(lengths) < 1:
            raise ConfigError("every token block must be non-empty")
        starts = np.concatenate([[0], np.cumsum(lengths)])
        total_rows = int(starts[-1])
        spans = [slice(int(starts[i]), int(starts[i + 1]))
                 for i in range(len(groups))]

        x = self.weights.embedding[np.concatenate(groups)]
        for layer in range(cfg.n_layers):
            norm = self.weights.norms[layer]
            h = _rms_norm(x, norm["attn"], cfg.rms_eps)
            q = self._linear(h, layer, "wq")
            k = self._linear(h, layer, "wk")
            v = self._linear(h, layer, "wv")
            merged = np.empty((total_rows, cfg.d_model))
            for span, slot, offset, m in zip(spans, slots, offsets, lengths, strict=False):
                q_i = _rope(self._heads(q[span]), offset)
                k_i = _rope(self._heads(k[span]), offset)
                cache.store(slot, layer, offset, k_i, self._heads(v[span]))
                k_all, v_all = cache.view(slot, layer, offset + m)
                merged[span] = self._attend(q_i, k_all, v_all, offset)
            x = x + self._linear(merged, layer, "wo")
            x = x + self._ffn(_rms_norm(x, norm["ffn"], cfg.rms_eps), layer)
        x = _rms_norm(x, self.weights.final_norm, cfg.rms_eps)
        for slot, offset, m in zip(slots, offsets, lengths, strict=False):
            cache.lengths[slot] = offset + m
        logits = _contract("id,vd->iv", x, self.weights.embedding) / np.sqrt(
            cfg.d_model
        )
        return [logits[span] for span in spans]

    # -- public inference API ------------------------------------------------

    def init_batched_cache(
        self, max_slots: int, capacity: int | None = None
    ) -> BatchedKVCache:
        """A fresh slot-pool cache for multi-sequence decoding."""
        return BatchedKVCache(self.config, max_slots, capacity)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits for every position of a token sequence."""
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ConfigError("forward takes a 1-D token sequence")
        if tokens.shape[0] > cfg.max_seq:
            raise ConfigError(f"sequence longer than max_seq={cfg.max_seq}")
        if tokens.shape[0] == 0:
            return np.zeros((0, cfg.vocab))
        # One code path with serving: forward is a prefill into a
        # throwaway 1-slot cache, so the two are bit-identical by
        # construction.
        cache = BatchedKVCache(cfg, 1, capacity=tokens.shape[0])
        with self._phased("prefill"):
            return self._block_multi([tokens], cache, [cache.allocate()])[0]

    def prefill_ragged(
        self,
        prompts: list[np.ndarray],
        cache: BatchedKVCache,
        slots: list[int],
        resume: bool = False,
        phase: str = "prefill",
    ) -> list[np.ndarray]:
        """Prefill several prompts into their slots with shared GEMMs.

        Prompts may have different lengths; their rows are packed so
        each linear layer runs once over all of them.  Returns one
        ``[len(prompt_i), vocab]`` logits array per prompt, each
        bit-identical to :meth:`forward` on ``prompt_i``.  Slots
        must be empty (fresh from :meth:`BatchedKVCache.allocate`)
        unless ``resume=True``, in which case each block is appended
        at its slot's current offset — the chunked-prefill primitive:
        ingesting a prompt as several ``resume`` chunks (or on top of
        KV state seeded via :meth:`BatchedKVCache.copy_into`) produces
        logits rows bit-identical to the corresponding rows of one
        monolithic prefill, because every reduction on the path
        computes each token row independently (see the module
        docstring).  ``phase`` labels the engine executions this pass
        issues; the speculative verify path reuses this method with
        ``phase="verify"`` so plan histograms keep the phases apart.
        """
        prompts = [np.asarray(p) for p in prompts]
        for p in prompts:
            if p.ndim != 1 or p.shape[0] < 1:
                raise ConfigError(
                    "prefill_ragged takes non-empty 1-D token sequences"
                )
        for prompt, slot in zip(prompts, slots, strict=False):
            if not resume and cache.lengths[slot] != 0:
                raise ConfigError(f"slot {slot} is not empty")
            cache.ensure(slot, prompt.shape[0])
        with self._phased(phase):
            return self._block_multi(prompts, cache, slots)

    def decode_batch(
        self,
        tokens: list[int] | np.ndarray,
        cache: BatchedKVCache,
        slots: list[int],
    ) -> np.ndarray:
        """Append one token to each slot; returns ``[batch, vocab]`` logits.

        The lock-step serving hot path: one GEMM per weight matrix for
        the whole batch.  Row ``i`` is bit-identical to decoding
        ``tokens[i]`` with slot ``i``'s sequence alone in the cache.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1 or tokens.shape[0] != len(slots):
            raise ConfigError("decode_batch needs one token per slot")
        for slot in slots:
            if cache.lengths[slot] < 1:
                raise ConfigError(
                    f"slot {slot} has no prefilled tokens"
                )
            cache.ensure(slot, 1)
        with self._phased("decode"):
            rows = self._block_multi(
                [np.asarray([int(t)]) for t in tokens], cache, slots
            )
        return np.concatenate(rows, axis=0)

    def sequence_nll(self, tokens: np.ndarray) -> float:
        """Mean next-token negative log-likelihood over a sequence."""
        logits = self.forward(tokens[:-1])
        shifted = logits - logits.max(axis=1, keepdims=True)
        # detlint: ignore[D003]: per-row reduction over the fixed vocab axis.
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        targets = tokens[1:]
        return float(-log_probs[np.arange(targets.shape[0]), targets].mean())

    def perplexity(self, tokens: np.ndarray) -> float:
        return float(np.exp(self.sequence_nll(tokens)))


def gemm_shapes(config: TransformerConfig, batch_tokens: int) -> list[tuple[str, tuple[int, int, int]]]:
    """The (m, n, k) GEMM shapes one forward pass issues per block.

    These are the shapes to hand to the simulator when pricing the
    decoder on PacQ (``m`` is the token count, paper convention).
    """
    shapes = []
    for name, (k, n) in _layer_shapes(config).items():
        shapes.append((name, (batch_tokens, n, k)))
    return shapes
