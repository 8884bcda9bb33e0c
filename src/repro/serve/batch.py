"""Multi-sequence serving sessions over the batched decode path.

:class:`BatchedSession` is the serving counterpart of
:class:`repro.model.InferenceSession`: where the inference session
keeps one sequence in a 1-slot
:class:`~repro.llm.transformer.BatchedKVCache`, this session owns a
pool of many slots and steps all resident sequences lock-step through
:meth:`~repro.llm.transformer.Decoder.decode_batch`, so each decode
step issues **one** GEMM per weight matrix with ``m = active slots``
rows — the amortization the engine's ``batched`` backend exists for.
Admission allocates a slot (:meth:`admit`), prompts are ingested by
ragged prefill (:meth:`prefill_step`), retirement frees the slot
(:meth:`retire`), and every sequence's logits stay bit-identical to
decoding it alone (see the transformer module docstring for the
row-independence argument).

Prefix reuse and chunked prefill
--------------------------------

Construct the session with a
:class:`~repro.serve.prefix.RadixPrefixCache` and :meth:`admit` seeds
each new slot with the longest cached prefix of its prompt
(copy-on-write via
:meth:`~repro.llm.transformer.BatchedKVCache.copy_into`), so only the
uncached suffix is prefilled; :meth:`record_prefix` stores a fully
ingested prompt back into the cache.  :meth:`prefill_step` appends
prompt-token chunks to partially ingested slots (one ragged GEMM pass
for all of them), which is what lets a scheduler interleave long
prompt ingestion with decode steps of resident sequences.  Both
mechanisms preserve bit-identity: a slot seeded from the cache and
prefilled in chunks produces exactly the logits a monolithic prefill
would.

The session is slot-explicit and policy-free: it does not queue, batch
or sample.  That is :class:`repro.serve.Scheduler`'s job.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine import DEFAULT_BACKEND, plan_histograms
from repro.errors import ConfigError
from repro.llm.transformer import BatchedKVCache
from repro.model.policy import QuantizedModel
from repro.model.session import Telemetry, build_decoder, check_tokens
from repro.serve.prefix import RadixPrefixCache


class BatchedSession:
    """A quantized decoder serving several sequences concurrently.

    Construction precompiles one GEMM plan per quantized layer (shared
    by all slots — the plans are row-count agnostic) and preallocates
    the slot pool.  The public surface is slot lifecycle plus the
    lock-step decode:

    * :meth:`admit` / :meth:`prefill_step` / :meth:`record_prefix` —
      allocate + prefix-cache seed, then ingest the remaining prompt in
      ragged chunks (what a scheduler interleaves with decoding);
    * :meth:`decode_step` — append one token to each given slot, one
      GEMM per weight matrix for the whole batch;
    * :meth:`retire` — evict a sequence and free its slot.
    """

    def __init__(
        self,
        model: QuantizedModel,
        backend: str = DEFAULT_BACKEND,
        max_slots: int = 8,
        capacity: int | None = None,
        prefix_cache: RadixPrefixCache | None = None,
    ) -> None:
        self.model = model
        self.backend = backend
        self.prefix_cache = prefix_cache
        self.decoder = build_decoder(model, backend)
        self.config = self.decoder.config
        self._ledger_start = plan_histograms(self.decoder.plans)
        self.cache: BatchedKVCache = self.decoder.init_batched_cache(
            max_slots, capacity
        )

    @property
    def telemetry(self) -> Telemetry:
        """GEMM work this session's plans executed since it was built."""
        return Telemetry.since(self.decoder.plans, self._ledger_start)

    # -- slot lifecycle ------------------------------------------------------

    @property
    def max_slots(self) -> int:
        return self.cache.max_slots

    @property
    def free_slots(self) -> int:
        return self.cache.free_slots

    @property
    def active_slots(self) -> list[int]:
        return self.cache.active_slots

    @property
    def context_window(self) -> int:
        """The model's maximum sequence length (``config.max_seq``)."""
        return self.config.max_seq

    def position(self, slot: int) -> int:
        """Tokens currently cached in ``slot``."""
        return int(self.cache.lengths[slot])

    def _check_prompt(self, prompt: np.ndarray) -> np.ndarray:
        prompt = check_tokens(prompt, self.config.vocab)
        if prompt.shape[0] > self.context_window:
            raise ConfigError(
                f"prompt of {prompt.shape[0]} tokens exceeds the model "
                f"context window max_seq={self.context_window}"
            )
        return prompt

    def admit(self, prompt: np.ndarray) -> tuple[int, int]:
        """Allocate a slot for ``prompt``, seeded from the prefix cache.

        Returns ``(slot, reused)`` where ``reused`` counts the prompt
        tokens whose KV state was copied from the prefix cache
        (0 without a cache or on a miss).  No GEMMs run here; the
        caller ingests ``prompt[reused:]`` via :meth:`prefill_step`.
        Raises :class:`~repro.errors.ConfigError` when no slot is free
        or the prompt is malformed / longer than the context window.
        """
        prompt = self._check_prompt(prompt)
        if self.cache.free_slots < 1:
            raise ConfigError(
                f"cannot admit a prompt: all {self.max_slots} slots in use"
            )
        slot = self.cache.allocate()
        return slot, self.seed_prefix(slot, prompt)

    def seed_prefix(self, slot: int, prompt: np.ndarray) -> int:
        """Copy ``prompt``'s longest cached prefix into an empty slot.

        Returns the tokens reused (0 without a cache or on a miss),
        capped at ``len(prompt) - 1`` so the final prompt position is
        always recomputed — its logits row is what sampling the first
        generated token needs.  Copy-on-write: the slot gets its own
        copy, so decoding into it never touches the cached state.
        """
        if self.prefix_cache is None:
            return 0
        prompt = np.asarray(prompt)
        match, keys, values = self.prefix_cache.lookup(prompt)
        match = min(match, prompt.shape[0] - 1)
        if match < 1:
            return 0
        self.cache.copy_into(slot, keys[:, :, :match], values[:, :, :match])
        return match

    def prefill_step(
        self, slots: Sequence[int], chunks: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Append prompt-token chunks to their slots in one ragged pass.

        ``chunks[i]`` extends ``slots[i]`` at its current offset; all
        rows share one GEMM per weight matrix.  Returns one
        ``[len(chunks[i]), vocab]`` logits array per chunk, each row
        bit-identical to the corresponding row of a monolithic prefill
        of the whole prompt.
        """
        checked = [check_tokens(c, self.config.vocab) for c in chunks]
        return self.decoder.prefill_ragged(
            checked, self.cache, list(slots), resume=True
        )

    def record_prefix(self, slot: int, prompt: np.ndarray) -> int:
        """Store an ingested prompt's KV state in the prefix cache.

        ``prompt`` may be any already-ingested prefix of the slot's
        prompt — recording chunk by chunk lets concurrent same-prefix
        requests share state before any prompt finishes.  Returns the
        number of tokens newly cached (0 without a cache, or when the
        prefix was already fully resident).  The snapshot is a copy, so
        the request is free to keep decoding into the slot.
        """
        if self.prefix_cache is None:
            return 0
        prompt = np.asarray(prompt)
        keys, values = self.cache.snapshot(slot, prompt.shape[0])
        return self.prefix_cache.insert(prompt, keys, values)

    def decode_step(
        self, slots: Sequence[int], tokens: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Append ``tokens[i]`` to ``slots[i]``; returns ``[batch, vocab]``.

        One GEMM per weight matrix for the whole batch; row ``i`` is
        bit-identical to single-sequence ``decode_step`` on that slot's
        sequence.
        """
        tokens = check_tokens(np.asarray(tokens), self.config.vocab)
        return self.decoder.decode_batch(tokens, self.cache, list(slots))

    def verify_step(
        self, slots: Sequence[int], blocks: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Append speculative windows to their slots in one ragged pass.

        ``blocks[i]`` is slot ``i``'s ``[pending] + drafted`` window;
        all rows share one GEMM per weight matrix (``m`` = total window
        tokens), tagged with the ``"verify"`` engine phase so plan
        histograms keep verify traffic apart from plain decode.
        Returns one ``[len(blocks[i]), vocab]`` logits array per slot,
        each row bit-identical to single-token decoding that slot's
        sequence (row independence — the speculative identity
        guarantee rests on this).  The caller accepts a prefix and
        rolls the rest back via :meth:`truncate`.
        """
        checked = [check_tokens(b, self.config.vocab) for b in blocks]
        return self.decoder.prefill_ragged(
            checked, self.cache, list(slots), resume=True, phase="verify"
        )

    def truncate(self, slot: int, length: int) -> None:
        """Roll a slot back to ``length`` tokens (speculative rollback)."""
        self.cache.truncate(slot, length)

    def retire(self, slot: int) -> None:
        """Evict a sequence and return its slot to the pool."""
        self.cache.release(slot)
