"""Speculative decoding with bit-exact greedy verification.

A cheap **draft model** proposes ``k`` tokens; the **target** decoder
verifies all of them (plus the token it was already committed to) in
ONE multi-row pass — one GEMM per weight matrix with ``m = k + 1``
rows, the same shape a batch of ``k + 1`` single-token decodes would
issue.  The longest draft prefix that matches the target's own greedy
(argmax) chain is accepted; at the first mismatch the target's argmax
replaces the draft token and the KV cache rolls the rejected suffix
back (:meth:`~repro.llm.transformer.BatchedKVCache.truncate`).

Why greedy identity holds by construction
-----------------------------------------

Every emitted token is ``argmax`` of a target logits row, and every
one of those rows is computed with the draft's tokens as *inputs only
up to the positions already accepted*: row ``i`` of a verify pass over
``[pending, d_1 .. d_k]`` conditions on ``pending, d_1 .. d_i`` —
exactly the sequence emitted so far whenever ``d_1 .. d_i`` were all
accepted.  Because every reduction in the decoder computes each token
row independently of its neighbours (the repo-wide row-independence
property, :mod:`repro.llm.transformer`), those rows are bit-identical
to the rows plain one-token-at-a-time decoding would produce.  An
induction over emitted tokens then gives bit-identical output to
:meth:`repro.model.InferenceSession.generate` for *any* draft — a
draft can only change how many tokens each verify pass yields, never
which tokens come out.

Drafts
------

* :class:`BigramDraft` — a vocab-sized next-token table walked
  greedily: zero GEMMs per proposal.  Build it from the existing
  ``llm.bigram`` head (:meth:`BigramDraft.from_lm`) or distil it from
  the target itself (:meth:`BigramDraft.distill`: the target's argmax
  continuation of every single-token context, one ragged prefill).
* :class:`SessionDraft` — a full autoregressive decoder under its own
  (typically lower-bit) :class:`~repro.model.QuantPolicy` checkpoint,
  with a slot pool + longest-common-prefix reuse so repeated proposals
  for the same request only decode the fresh suffix.  Pointing it at
  the *same* model as the target makes an always-right oracle draft.
* :class:`AdversarialDraft` — wraps any draft and shifts every
  proposal off by one (mod vocab); wrapping the oracle yields an
  always-wrong draft.  Both extremes must still be token-identical —
  they are the property suite's bounds.

The accept/rollback loop lives in one place,
``Scheduler(speculate=(draft, k))`` (:mod:`repro.serve.scheduler`),
which verifies every resident greedy request's window in one ragged
pass per step.  Single-sequence speculative generation is that loop
over one slot: ``Replica(qmodel, ServeConfig(max_batch=1,
draft="bigram")).serve([Request(prompt, 64)])``.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.llm.bigram import BigramLm
from repro.llm.transformer import BatchedKVCache, Decoder
from repro.model.policy import QuantizedModel
from repro.model.session import build_decoder, check_tokens


@runtime_checkable
class DraftModel(Protocol):
    """What the verify loop needs from a draft.

    ``propose(context, k)`` returns up to ``k`` greedy continuation
    tokens of ``context`` (1-D, ints in ``[0, vocab)``); returning
    fewer than ``k`` is allowed (e.g. near the context window).
    Drafts may additionally implement ``propose_batch(contexts, k)``
    (see :func:`propose_batch`) so a batched scheduler can draft for
    all residents in lock-step.
    """

    def propose(self, context: np.ndarray, k: int) -> np.ndarray: ...


def propose_batch(
    draft: DraftModel, contexts: Sequence[np.ndarray], k: int
) -> list[np.ndarray]:
    """Draft ``k`` tokens for several contexts at once.

    Uses the draft's own ``propose_batch`` when it has one (both
    built-in drafts do — :class:`BigramDraft` vectorizes the table
    walk, :class:`SessionDraft` shares one ragged pass per proposal
    step) and falls back to per-context :meth:`DraftModel.propose`.
    """
    batched = getattr(draft, "propose_batch", None)
    if batched is not None:
        return list(batched(contexts, k))
    return [draft.propose(ctx, k) for ctx in contexts]


def _check_proposals(proposals: np.ndarray, k: int, vocab: int) -> np.ndarray:
    """Validate one draft's output: 1-D, at most ``k``, in-vocab."""
    proposals = np.asarray(proposals, dtype=np.int64)
    if proposals.ndim != 1 or proposals.shape[0] > k:
        raise ConfigError(
            f"draft proposed shape {proposals.shape}, expected at most "
            f"{k} tokens in a 1-D array"
        )
    if proposals.size and not ((proposals >= 0).all() and (proposals < vocab).all()):
        raise ConfigError(f"draft proposed token ids outside [0, {vocab})")
    return proposals


class BigramDraft:
    """A next-token table walked greedily — drafting costs no GEMMs.

    ``table[t]`` is the proposed continuation of a context ending in
    ``t``; a window of ``k`` proposals is ``k`` table lookups.  The
    table can come from the ``llm.bigram`` head (:meth:`from_lm`) or
    be distilled from the target decoder itself (:meth:`distill`),
    which captures the target's last-token-conditional behaviour and
    is what ``--draft bigram`` uses.
    """

    def __init__(self, table: np.ndarray) -> None:
        table = np.asarray(table, dtype=np.int64)
        vocab = table.shape[0]
        if table.ndim != 1 or vocab < 1:
            raise ConfigError("BigramDraft needs a 1-D next-token table")
        if not ((table >= 0).all() and (table < vocab).all()):
            raise ConfigError(f"next-token table entries must lie in [0, {vocab})")
        self.table = table

    @classmethod
    def from_lm(cls, lm: BigramLm) -> "BigramDraft":
        """Greedy transition table of a ``llm.bigram`` head."""
        logits = lm.logits(np.arange(lm.vocab))
        return cls(np.argmax(logits, axis=1))

    @classmethod
    def distill(cls, decoder: Decoder) -> "BigramDraft":
        """The target's own argmax continuation of every 1-token context.

        One ragged prefill over all ``vocab`` single-token prompts
        (capacity-1 slots, one GEMM per weight matrix) — a one-time
        cost of roughly one ``vocab``-token prefill.
        """
        vocab = decoder.config.vocab
        cache = decoder.init_batched_cache(vocab, capacity=1)
        slots = [cache.allocate() for _ in range(vocab)]
        rows = decoder.prefill_ragged(
            [np.asarray([t]) for t in range(vocab)], cache, slots
        )
        return cls(np.asarray([int(np.argmax(r[0])) for r in rows]))

    def propose(self, context: np.ndarray, k: int) -> np.ndarray:
        return self.propose_batch([context], k)[0]

    def propose_batch(self, contexts: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
        if k < 0:
            raise ConfigError(f"draft window k must be >= 0, got {k}")
        last = np.asarray([int(np.asarray(ctx)[-1]) for ctx in contexts])
        out = np.empty((len(contexts), k), dtype=np.int64)
        for step in range(k):
            last = self.table[last]
            out[:, step] = last
        return [out[i] for i in range(len(contexts))]


class SessionDraft:
    """An autoregressive draft decoder with its own KV slot pool.

    Runs any quantized model (typically a lower-bit
    :class:`~repro.model.QuantPolicy` checkpoint of the target's
    weights — mixed draft/target precision as a one-line policy spec)
    as the proposer.  Each proposal greedily decodes ``k`` tokens.
    Contexts are matched to resident slots by longest common prefix
    and rolled back with
    :meth:`~repro.llm.transformer.BatchedKVCache.truncate`, so across
    a generation loop only the freshly accepted suffix is re-decoded;
    ``propose_batch`` drafts for all contexts in lock-step (one GEMM
    per weight matrix per proposal step).

    Pointing it at the *same* model+backend as the target makes an
    always-right oracle: its greedy chain is bit-identical to the
    target's, so every proposal is accepted.
    """

    def __init__(
        self,
        model: QuantizedModel,
        backend: str = DEFAULT_BACKEND,
        max_slots: int = 8,
    ) -> None:
        self.backend = backend
        self.decoder = build_decoder(model, backend)
        self.config = self.decoder.config
        self.cache: BatchedKVCache = self.decoder.init_batched_cache(max_slots)
        #: slot -> resident token sequence (for prefix matching).
        self._held: dict[int, list[int]] = {}
        #: slot -> last-use stamp (LRU eviction when the pool is full).
        self._stamp: dict[int, int] = {}
        self._clock = 0

    def _acquire(self, context: list[int], used: set[int]) -> tuple[int, int]:
        """A slot for ``context`` plus its usable common-prefix length."""
        best_slot, best_common = -1, 0
        for slot, held in self._held.items():
            if slot in used:
                continue
            limit = min(len(held), len(context))
            common = 0
            while common < limit and held[common] == context[common]:
                common += 1
            if common > best_common:
                best_slot, best_common = slot, common
        if best_common > 0:
            return best_slot, best_common
        if self.cache.free_slots > 0:
            return self.cache.allocate(), 0
        candidates = [s for s in self._held if s not in used]
        if not candidates:
            raise ConfigError(
                f"draft pool exhausted: batch needs more than "
                f"{self.cache.max_slots} slots"
            )
        victim = min(candidates, key=lambda s: self._stamp[s])
        return victim, 0

    def propose(self, context: np.ndarray, k: int) -> np.ndarray:
        return self.propose_batch([context], k)[0]

    def propose_batch(self, contexts: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
        if k < 0:
            raise ConfigError(f"draft window k must be >= 0, got {k}")
        checked = [
            list(map(int, check_tokens(ctx, self.config.vocab)))
            for ctx in contexts
        ]
        # A context can only be continued while it fits the draft's own
        # window; propose fewer tokens (possibly none) near the edge.
        budgets = [min(k, self.config.max_seq - len(ctx)) for ctx in checked]
        if max(budgets, default=0) < 1:
            return [np.zeros(0, dtype=np.int64) for _ in checked]
        used: set[int] = set()
        slots: list[int] = []
        suffixes: list[np.ndarray] = []
        for ctx in checked:
            slot, common = self._acquire(ctx, used)
            # Keep at least the final context token to feed, so the
            # ragged pass below always yields the next-token row.
            common = min(common, len(ctx) - 1)
            self.cache.truncate(slot, common)
            used.add(slot)
            slots.append(slot)
            suffixes.append(np.asarray(ctx[common:], dtype=np.int64))
            self._clock += 1
            self._stamp[slot] = self._clock
        rows = self.decoder.prefill_ragged(suffixes, self.cache, slots, resume=True)
        last = [int(np.argmax(r[-1])) for r in rows]
        proposals: list[list[int]] = [
            [t] if budgets[i] >= 1 else [] for i, t in enumerate(last)
        ]
        for step in range(1, max(budgets)):
            live = [i for i in range(len(checked)) if budgets[i] > step]
            logits = self.decoder.decode_batch(
                [last[i] for i in live],
                self.cache,
                [slots[i] for i in live],
            )
            for i, row in zip(live, logits, strict=False):
                last[i] = int(np.argmax(row))
                proposals[i].append(last[i])
        for i, slot in enumerate(slots):
            # The final proposal was never fed into the draft's cache.
            self._held[slot] = checked[i] + proposals[i][:-1]
        return [np.asarray(p, dtype=np.int64) for p in proposals]


class AdversarialDraft:
    """Shift another draft's proposals off by one (mod vocab).

    A test fixture: wrapping an always-right oracle yields an
    always-wrong draft, the worst case for acceptance rate.  Both
    extremes must produce token-identical output — speculation only
    changes how much each verify pass yields.
    """

    def __init__(self, inner: DraftModel, vocab: int, shift: int = 1) -> None:
        if vocab < 2 or shift % vocab == 0:
            raise ConfigError(
                "an adversarial draft needs vocab >= 2 and a nonzero shift"
            )
        self.inner = inner
        self.vocab = vocab
        self.shift = shift

    def propose(self, context: np.ndarray, k: int) -> np.ndarray:
        return (self.inner.propose(context, k) + self.shift) % self.vocab

    def propose_batch(self, contexts: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
        return [
            (p + self.shift) % self.vocab
            for p in propose_batch(self.inner, contexts, k)
        ]
