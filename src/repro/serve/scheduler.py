"""Continuous batching: a FIFO request queue over lock-step decode.

The scheduling model is the standard one (Orca/vLLM-style, scaled to
this repo): requests queue FIFO, the server admits up to ``max_batch``
of them into KV-cache slots, and every :meth:`Scheduler.step` decodes
**all** resident sequences in lock-step — one GEMM per weight matrix
with ``m = active`` rows.  Between steps the batch membership changes
continuously: finished sequences retire immediately (EOS or length
budget) and waiting requests join via ragged prefill, so the batch
never drains to refill (the "continuous" in continuous batching).
Admission happens in one place: a waiting request joins the batch
between steps, and gets its KV slot from
:meth:`~repro.serve.batch.BatchedSession.admit` right before its first
prefill chunk.

Chunked prefill
---------------

Without a bound, admitting a long prompt runs its whole prefill inside
one step, freezing every resident sequence for the duration
(seconds to prefill a few hundred tokens vs tens of ms per decode
token).  ``prefill_chunk`` caps the total prompt tokens
ingested per step: each step ingests at most ``prefill_chunk``
prompt tokens across the partially ingested residents *before* the
decode pass — so resident sequences keep decoding between chunks, and
no step's wall time is dominated by a single long prompt.  A request
starts sampling only once its prompt is fully ingested; its token
stream is bit-identical either way (chunked prefill rows equal
monolithic prefill rows — see :mod:`repro.llm.transformer`).

Prefix reuse
------------

When the session carries a
:class:`~repro.serve.prefix.RadixPrefixCache`, each prompt's longest
cached prefix is copied into its slot (copy-on-write) and only the
uncached suffix is prefilled.  The lookup runs at the request's
*first prefill chunk*, not when it joins the batch, and every ingested
chunk is recorded into the cache immediately — so when a burst of same-prefix
requests arrives at once (the shared-system-prompt shape), the first
request's first chunk publishes the prefix and every later request in
the burst reuses it instead of re-prefilling it in parallel.
``SchedulerStats`` reports the resulting prefill-vs-cached token split
and the per-step prefill bound.

Speculative decoding
--------------------

``Scheduler(speculate=(draft, k))`` replaces the one-token decode pass
with a speculative verify pass: each resident *greedy* request drafts
``k`` tokens (:func:`repro.serve.speculative.propose_batch` — all
residents draft in lock-step), and one ragged pass verifies every
request's ``[pending] + drafts`` window — still one GEMM per weight
matrix per step, just with more rows.  The longest draft prefix
matching each request's own argmax chain is emitted, the rejected
suffix rolls back (:meth:`~repro.llm.transformer.BatchedKVCache.
truncate`), and per-request telemetry records drafted / accepted /
wasted tokens and accepted-per-step.  Sampling requests (``top_k``
set) ride the same pass with a one-token window — their streams, like
the greedy ones, are bit-identical to the non-speculative scheduler's
(see :mod:`repro.serve.speculative` for the identity argument).

Admission control happens at :meth:`Scheduler.submit`: a request whose
``prompt + max_new`` cannot fit the model context window is rejected
up front with a :class:`~repro.errors.RequestError` (a ``ValueError``)
naming the limit — not accepted and then blown up positions deep
inside RoPE.

Telemetry is recorded per request (queue wait, decode time, tokens/s,
cached prefix tokens) and in aggregate (:meth:`Scheduler.stats`: step
counts, mean batch occupancy, aggregate throughput, prefill/decode
token split, prefill stalls); ``docs/serving.md`` documents every
field.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, RequestError
from repro.model.session import check_tokens, select_token
from repro.serve.batch import BatchedSession


@dataclass(frozen=True)
class Request:
    """One generation request, as submitted to the scheduler.

    ``arrival`` is the replay timestamp in scheduler steps — only
    :meth:`Scheduler.run` interprets it (``submit`` queues
    immediately); it lets synthetic traces model requests arriving
    while the server is mid-decode.
    """

    prompt: np.ndarray
    max_new: int
    top_k: int | None = None
    temperature: float = 1.0
    seed: int = 0
    eos_token: int | None = None
    arrival: int = 0


@dataclass(frozen=True)
class RequestResult:
    """Outcome and per-request telemetry of one served request."""

    request_id: int
    tokens: np.ndarray  #: prompt + generated tokens
    prompt_length: int
    finish_reason: str  #: ``"length"`` or ``"eos"``
    queue_wait_steps: int  #: steps between submit and admission
    queue_wait_s: float  #: wall time between submit and admission
    decode_s: float  #: wall time between admission and completion
    tokens_per_s: float  #: generated tokens / ``decode_s``
    cached_prefix_tokens: int = 0  #: prompt tokens reused from the prefix cache
    drafted_tokens: int = 0  #: draft proposals verified for this request
    accepted_draft_tokens: int = 0  #: of which matched its argmax chain
    spec_steps: int = 0  #: verify passes that carried a draft window

    @property
    def new_tokens(self) -> np.ndarray:
        """The generated continuation only."""
        # detlint: ignore[D007]: slice of the result-owned token array, not
        # pool-backed cache state — nothing mutates it after completion.
        return self.tokens[self.prompt_length :]

    @property
    def wasted_draft_tokens(self) -> int:
        """Drafted positions whose verify rows were thrown away."""
        return self.drafted_tokens - self.accepted_draft_tokens

    @property
    def accepted_per_step(self) -> float:
        """Mean accepted draft tokens per verify pass with a window."""
        if not self.spec_steps:
            return 0.0
        return self.accepted_draft_tokens / self.spec_steps


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregate telemetry over one scheduler lifetime."""

    steps: int  #: scheduler iterations, including idle ticks
    busy_steps: int  #: iterations that admitted, sampled or decoded
    decode_steps: int  #: iterations that issued a batched decode or verify GEMM pass
    completed: int  #: requests finished
    rejected: int  #: requests refused at submit()
    max_batch: int  #: admission ceiling
    mean_occupancy: float  #: mean active/max_batch over busy steps
    total_new_tokens: int  #: generated tokens across completed requests
    elapsed_s: float  #: wall time from first busy step to last completion
    aggregate_tokens_per_s: float  #: total_new_tokens / elapsed_s
    mean_queue_wait_steps: float
    mean_queue_wait_s: float
    prefill_tokens: int = 0  #: prompt tokens ingested through prefill GEMMs
    cached_prefix_tokens: int = 0  #: prompt tokens copied from the prefix cache
    decode_tokens: int = 0  #: token rows through batched decode or verify GEMMs
    prefill_steps: int = 0  #: iterations that issued a prefill GEMM pass
    prefill_stall_steps: int = 0  #: iterations that hit the chunk budget
    #: with prompt tokens still pending
    max_prefill_tokens_per_step: int = 0  #: the observed per-step bound
    drafted_tokens: int = 0  #: draft proposals fed through verify passes
    accepted_draft_tokens: int = 0  #: of which matched an argmax chain
    verify_steps: int = 0  #: iterations that issued a speculative verify pass

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prompt tokens served from the prefix cache."""
        total = self.prefill_tokens + self.cached_prefix_tokens
        return self.cached_prefix_tokens / total if total else 0.0

    @property
    def wasted_draft_tokens(self) -> int:
        """Drafted positions whose verify rows were thrown away."""
        return self.drafted_tokens - self.accepted_draft_tokens

    @property
    def draft_acceptance_rate(self) -> float:
        """Accepted / drafted across the run (0.0 with no drafting)."""
        if not self.drafted_tokens:
            return 0.0
        return self.accepted_draft_tokens / self.drafted_tokens

    @property
    def accepted_per_verify_step(self) -> float:
        """Mean accepted draft tokens per speculative verify pass."""
        if not self.verify_steps:
            return 0.0
        return self.accepted_draft_tokens / self.verify_steps


@dataclass
class _ActiveRequest:
    """Scheduler-internal bookkeeping for one admitted request."""

    request_id: int
    request: Request
    prompt: np.ndarray
    rng: np.random.Generator
    submitted_step: int
    submitted_time: float
    slot: int = -1  #: -1 until ``session.admit`` at its first chunk
    admitted_step: int = -1
    admitted_time: float = 0.0
    ingested: int = 0  #: prompt tokens resident in the slot so far
    cached_prefix: int = 0  #: of which copied from the prefix cache
    generated: list[int] = field(default_factory=list)
    last_logits: np.ndarray | None = None
    drafted: int = 0  #: draft tokens verified for this request
    accepted: int = 0  #: of which matched its argmax chain
    spec_steps: int = 0  #: verify passes that carried a draft window

    @property
    def ingesting(self) -> bool:
        """Still streaming prompt tokens in; not yet sampling."""
        return self.ingested < self.prompt.shape[0]


class Scheduler:
    """FIFO admission + lock-step batched decode over a session.

    Drive it either request-by-request (:meth:`submit` then
    :meth:`step` until it returns ``False``) or in one call
    (:meth:`run`, which replays a trace arrival-paced, records
    rejections in :attr:`rejections` and frees its residents' slots
    when a step raises).  ``prefill_chunk`` caps the prompt
    tokens ingested per step (``None`` = unbounded, prompts prefill in
    one pass at admission).  ``speculate=(draft, k)`` turns the decode
    pass into a speculative verify pass for greedy residents (see the
    module docstring); token streams are identical either way.
    """

    def __init__(
        self,
        session: BatchedSession,
        max_batch: int | None = None,
        prefill_chunk: int | None = None,
        speculate: tuple[object, int] | None = None,
    ) -> None:
        self.session = session
        self.max_batch = session.max_slots if max_batch is None else max_batch
        if not 1 <= self.max_batch <= session.max_slots:
            raise ConfigError(
                f"max_batch must lie in [1, {session.max_slots}] "
                f"(the session's slot count), got {self.max_batch}"
            )
        if prefill_chunk is not None and prefill_chunk < 1:
            raise ConfigError(f"prefill_chunk must be >= 1 token, got {prefill_chunk}")
        self.prefill_chunk = prefill_chunk
        self.draft = None
        self.spec_k = 0
        if speculate is not None:
            draft, spec_k = speculate
            if not callable(getattr(draft, "propose", None)):
                raise ConfigError(
                    "speculate needs (draft, k) with a draft implementing "
                    "propose(context, k) — see repro.serve.speculative"
                )
            if spec_k < 0:
                raise ConfigError(f"speculation depth k must be >= 0, got {spec_k}")
            self.draft = draft
            self.spec_k = int(spec_k)
        self.drafted_tokens = 0
        self.accepted_draft_tokens = 0
        self.verify_steps = 0
        self.steps = 0
        self.busy_steps = 0
        self.decode_steps = 0
        self.rejected = 0
        #: (index into the :meth:`run` trace, message) per RequestError.
        self.rejections: list[tuple[int, str]] = []
        self.prefill_tokens = 0
        self.cached_prefix_tokens = 0
        self.decode_tokens = 0
        self.prefill_steps = 0
        self.prefill_stall_steps = 0
        self.max_prefill_tokens_per_step = 0
        self._occupancy_total = 0.0
        self._queue: deque[_ActiveRequest] = deque()
        self._active: list[_ActiveRequest] = []
        self._results: list[RequestResult] = []
        self._next_id = 0
        self._first_busy_time: float | None = None
        self._last_finish_time: float | None = None

    # -- request intake ------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests waiting for a batch slot."""
        return len(self._queue)

    @property
    def active(self) -> int:
        """Requests currently resident in the batch."""
        return len(self._active)

    def submit(self, request: Request) -> int:
        """Queue a request; returns its id.

        Rejects malformed prompts (:class:`~repro.errors.ConfigError`)
        and requests with invalid sampling parameters or that cannot
        fit the model context window
        (:class:`~repro.errors.RequestError`, a ``ValueError``) before
        they reach the decode path — never mid-step, where a failure
        would strand the other resident requests.
        """
        try:
            prompt = check_tokens(request.prompt, self.session.config.vocab)
            if request.max_new < 1:
                raise RequestError("max_new must be >= 1")
            if request.top_k is not None:
                if request.top_k < 1:
                    raise RequestError("top_k must be >= 1")
                if request.temperature <= 0:
                    raise RequestError("temperature must be > 0")
            window = self.session.context_window
            total = prompt.shape[0] + request.max_new
            if total > window:
                raise RequestError(
                    f"request needs {prompt.shape[0]} prompt + "
                    f"{request.max_new} new = {total} tokens, which exceeds "
                    f"the model context window max_seq={window}"
                )
        except (ConfigError, RequestError):
            self.rejected += 1
            raise
        request_id = self._next_id
        self._next_id += 1
        self._queue.append(
            _ActiveRequest(
                request_id=request_id,
                request=request,
                prompt=prompt,
                rng=np.random.default_rng(request.seed),
                submitted_step=self.steps,
                submitted_time=time.perf_counter(),
            )
        )
        return request_id

    # -- the scheduling loop -------------------------------------------------

    def _admit(self) -> int:
        """Move queued requests into the batch while it has room.

        No slot, GEMM or cache lookup here: :meth:`_ingest` calls
        ``session.admit`` right before a request's first chunk — as
        late as possible, so prefixes recorded by earlier residents are
        visible to requests that arrived in the same burst.  Room
        reserves a free slot for every resident still waiting for its
        own, so none of them finds the pool full at its first chunk.
        """
        unslotted = sum(1 for s in self._active if s.slot < 0)
        room = min(
            self.max_batch - len(self._active),
            self.session.free_slots - unslotted,
        )
        joining = []
        while self._queue and len(joining) < room:
            joining.append(self._queue.popleft())
        if not joining:
            return 0
        now = time.perf_counter()
        for state in joining:
            state.admitted_step = self.steps
            state.admitted_time = now
        self._active.extend(joining)
        return len(joining)

    def _ingest(self) -> None:
        """Stream prompt chunks into partially ingested residents.

        One ragged prefill pass over at most ``prefill_chunk`` total
        prompt tokens (unbounded when ``None``), FIFO across the
        ingesting requests.  A request's first chunk is preceded by
        ``session.admit``, which allocates its slot and seeds it from
        the prefix cache; every ingested chunk is recorded into the
        cache so in-flight prompts already share their ingested prefix.
        A request whose prompt completes gets its final logits row
        (sampling starts next).
        """
        pending = [s for s in self._active if s.ingesting]
        if not pending:
            return
        budget = self.prefill_chunk
        slots: list[int] = []
        chunks: list[np.ndarray] = []
        states: list[_ActiveRequest] = []
        taken = 0
        for state in pending:
            if budget is not None and taken >= budget:
                break
            if state.slot < 0:
                state.slot, reused = self.session.admit(state.prompt)
                state.ingested = state.cached_prefix = reused
                self.cached_prefix_tokens += reused
            remaining = state.prompt.shape[0] - state.ingested
            if budget is not None:
                remaining = min(remaining, budget - taken)
            slots.append(state.slot)
            chunks.append(state.prompt[state.ingested : state.ingested + remaining])
            states.append(state)
            taken += remaining
        rows = self.session.prefill_step(slots, chunks)
        for state, chunk, chunk_rows in zip(states, chunks, rows, strict=False):
            state.ingested += chunk.shape[0]
            self.session.record_prefix(state.slot, state.prompt[: state.ingested])
            if not state.ingesting:
                state.last_logits = chunk_rows[-1]
        self.prefill_tokens += taken
        self.prefill_steps += 1
        self.max_prefill_tokens_per_step = max(self.max_prefill_tokens_per_step, taken)
        if any(s.ingesting for s in self._active):
            self.prefill_stall_steps += 1

    def _finish(self, state: _ActiveRequest, reason: str) -> None:
        now = time.perf_counter()
        self._last_finish_time = now
        self.session.retire(state.slot)
        decode_s = max(now - state.admitted_time, 1e-12)
        self._results.append(
            RequestResult(
                request_id=state.request_id,
                tokens=np.concatenate(
                    [state.prompt, np.asarray(state.generated, dtype=np.int64)]
                ),
                prompt_length=state.prompt.shape[0],
                finish_reason=reason,
                queue_wait_steps=state.admitted_step - state.submitted_step,
                queue_wait_s=state.admitted_time - state.submitted_time,
                decode_s=decode_s,
                tokens_per_s=len(state.generated) / decode_s,
                cached_prefix_tokens=state.cached_prefix,
                drafted_tokens=state.drafted,
                accepted_draft_tokens=state.accepted,
                spec_steps=state.spec_steps,
            )
        )

    def step(self) -> bool:
        """One scheduler iteration; returns whether any work was done.

        Admit waiting requests into free room, ingest up to
        ``prefill_chunk`` prompt tokens across the partially ingested
        residents (a request's first chunk allocates and seeds its
        slot), sample one token for every
        fully ingested request, retire the ones that hit EOS or their
        length budget, then decode the continuing batch in lock-step
        (one GEMM per weight matrix, ``m`` = continuing requests).
        Idle schedulers (nothing queued or resident) return ``False``
        without counting a step; one that has queued requests but no
        residents and no free slot raises
        :class:`~repro.errors.ConfigError` rather than spin.
        """
        if not self._queue and not self._active:
            return False
        if self._first_busy_time is None:
            self._first_busy_time = time.perf_counter()
        self._admit()
        if not self._active:
            raise ConfigError(
                f"{len(self._queue)} queued requests cannot make progress: "
                f"all {self.session.max_slots} session slots are held "
                "outside this scheduler"
            )
        self._ingest()
        self._occupancy_total += len(self._active) / self.max_batch
        continuing: list[_ActiveRequest] = []
        tokens: list[int] = []
        remaining: list[_ActiveRequest] = []
        for state in self._active:
            if state.ingesting:
                remaining.append(state)  # still streaming its prompt in
                continue
            req = state.request
            token = select_token(
                state.last_logits, state.rng, req.top_k, req.temperature
            )
            state.generated.append(token)
            if req.eos_token is not None and token == req.eos_token:
                self._finish(state, "eos")
            elif len(state.generated) >= req.max_new:
                self._finish(state, "length")
            else:
                continuing.append(state)
                tokens.append(token)
                remaining.append(state)
        if continuing:
            if self.draft is not None:
                finished = self._verify_decode(continuing, tokens)
                if finished:
                    remaining = [s for s in remaining if id(s) not in finished]
            else:
                logits = self.session.decode_step(
                    [state.slot for state in continuing], tokens
                )
                for state, row in zip(continuing, logits, strict=False):
                    state.last_logits = row
                self.decode_tokens += len(continuing)
            self.decode_steps += 1
        self._active = remaining
        self.steps += 1
        self.busy_steps += 1
        return True

    def _verify_decode(
        self, states: list[_ActiveRequest], tokens: list[int]
    ) -> set[int]:
        """Speculative decode pass; returns ids of states it finished.

        Greedy residents draft up to ``spec_k`` tokens in lock-step
        (clamped to each request's remaining budget); one ragged verify
        pass appends every request's ``[token] + drafts`` window (one
        GEMM per weight matrix for the whole batch).  Each request
        emits its longest draft prefix matching its own argmax chain —
        retiring mid-window on EOS or a filled budget — and rolls the
        rejected suffix back out of its slot.  Sampling requests carry
        an empty window: for them this is exactly a decode step.  With
        ``spec_k = 0`` every window is empty and each step is an
        ``m = 1``-per-request verify pass.
        """
        from repro.serve.speculative import _check_proposals, propose_batch

        vocab = self.session.config.vocab
        windows: list[int] = []
        for state in states:
            if state.request.top_k is not None:
                windows.append(0)
            else:
                windows.append(
                    min(
                        self.spec_k,
                        state.request.max_new - len(state.generated),
                    )
                )
        drafting = [i for i, w in enumerate(windows) if w > 0]
        drafts: list[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in states]
        if drafting:
            contexts = [
                np.concatenate(
                    [
                        states[i].prompt,
                        np.asarray(states[i].generated, dtype=np.int64),
                    ]
                )
                for i in drafting
            ]
            asked = max(windows[i] for i in drafting)
            proposals = propose_batch(self.draft, contexts, asked)
            for i, proposed in zip(drafting, proposals, strict=False):
                # Validate against what was asked before clipping to the
                # request's own window: a draft that breaks the
                # DraftModel contract is rejected, never served.
                drafts[i] = _check_proposals(proposed, asked, vocab)[: windows[i]]
        bases = [self.session.position(state.slot) for state in states]
        blocks = [
            np.concatenate([[token], draft]).astype(np.int64)
            for token, draft in zip(tokens, drafts, strict=False)
        ]
        rows_per_state = self.session.verify_step(
            [state.slot for state in states], blocks
        )
        self.verify_steps += 1
        self.decode_tokens += sum(len(b) for b in blocks)
        finished: set[int] = set()
        for state, draft, base, rows in zip(states, drafts, bases, rows_per_state, strict=False):
            req = state.request
            if draft.shape[0]:
                state.drafted += draft.shape[0]
                state.spec_steps += 1
                self.drafted_tokens += draft.shape[0]
            j = 0
            next_token = int(np.argmax(rows[0]))
            terminal: str | None = None
            while j < draft.shape[0] and int(draft[j]) == next_token:
                state.generated.append(next_token)
                state.accepted += 1
                self.accepted_draft_tokens += 1
                j += 1
                if req.eos_token is not None and next_token == req.eos_token:
                    terminal = "eos"
                    break
                if len(state.generated) >= req.max_new:
                    terminal = "length"
                    break
                next_token = int(np.argmax(rows[j]))
            if terminal is not None:
                self._finish(state, terminal)
                finished.add(id(state))
            else:
                self.session.truncate(state.slot, base + 1 + j)
                state.last_logits = rows[j]
        return finished

    def skip_idle(self) -> None:
        """Advance the step clock through an idle tick (trace replay)."""
        self.steps += 1

    def run(self, requests: Sequence[Request]) -> list[RequestResult]:
        """Replay ``requests`` arrival-paced and step until drained.

        Each request is submitted once the step clock reaches its
        ``arrival`` (the trace must be arrival-sorted, as
        :func:`repro.serve.synthesize` produces); idle gaps tick the
        clock without decoding.  A :class:`~repro.errors.RequestError`
        rejection is recorded in :attr:`rejections` and the rest are
        served; a malformed prompt (:class:`~repro.errors.ConfigError`)
        raises.  When anything raises, the slots of this scheduler's
        residents are freed first, so the session stays usable.
        Returns completed results ordered by request id.
        """
        arrivals = [r.arrival for r in requests]
        if arrivals != sorted(arrivals):
            raise ConfigError("trace must be sorted by arrival step")
        index = 0
        try:
            while True:
                while index < len(requests) and requests[index].arrival <= self.steps:
                    try:
                        self.submit(requests[index])
                    except RequestError as exc:
                        self.rejections.append((index, str(exc)))
                    index += 1
                if self.step():
                    continue
                if index == len(requests):
                    return self.results()
                self.skip_idle()  # gap before the next arrival
        except BaseException:
            # A raising step may already have retired some residents.
            held = set(self.session.active_slots)
            for state in self._active:
                if state.slot in held:
                    self.session.retire(state.slot)
            self._active = []
            raise

    # -- telemetry -----------------------------------------------------------

    def results(self) -> list[RequestResult]:
        """Completed requests so far, ordered by request id."""
        return sorted(self._results, key=lambda r: r.request_id)

    def stats(self) -> SchedulerStats:
        """Aggregate telemetry over this scheduler's lifetime."""
        done = self._results
        total_new = sum(len(r.new_tokens) for r in done)
        if self._first_busy_time is None or self._last_finish_time is None:
            elapsed = 0.0
        else:
            elapsed = max(self._last_finish_time - self._first_busy_time, 1e-12)
        return SchedulerStats(
            steps=self.steps,
            busy_steps=self.busy_steps,
            decode_steps=self.decode_steps,
            completed=len(done),
            rejected=self.rejected,
            max_batch=self.max_batch,
            mean_occupancy=(
                self._occupancy_total / self.busy_steps if self.busy_steps else 0.0
            ),
            total_new_tokens=total_new,
            elapsed_s=elapsed,
            aggregate_tokens_per_s=total_new / elapsed if elapsed else 0.0,
            mean_queue_wait_steps=(
                sum(r.queue_wait_steps for r in done) / len(done) if done else 0.0
            ),
            mean_queue_wait_s=(
                sum(r.queue_wait_s for r in done) / len(done) if done else 0.0
            ),
            prefill_tokens=self.prefill_tokens,
            cached_prefix_tokens=self.cached_prefix_tokens,
            decode_tokens=self.decode_tokens,
            prefill_steps=self.prefill_steps,
            prefill_stall_steps=self.prefill_stall_steps,
            max_prefill_tokens_per_step=self.max_prefill_tokens_per_step,
            drafted_tokens=self.drafted_tokens,
            accepted_draft_tokens=self.accepted_draft_tokens,
            verify_steps=self.verify_steps,
        )
