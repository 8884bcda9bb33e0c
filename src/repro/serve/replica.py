"""One served model: the run every serving entry point drives.

A :class:`Replica` builds, once, what a :class:`ServeConfig` asks for:
a :class:`~repro.serve.batch.BatchedSession` with ``max_batch`` slots,
an optional :class:`~repro.serve.prefix.RadixPrefixCache` and an
optional speculative draft.  :meth:`Replica.serve` replays a trace
through a fresh :class:`~repro.serve.scheduler.Scheduler`
(:meth:`~repro.serve.scheduler.Scheduler.run`, arrival-paced) and
returns a :class:`WorkerReport` of that call alone: plan histograms
and cache counters are differences against a snapshot taken just
before the replay, so set-up (draft distillation included) and earlier
calls never count.  Rejected requests are recorded, not raised, so one
bad request does not stop the rest; a run that raises frees its slots,
so the replica's next call serves in full.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.engine import DEFAULT_BACKEND
from repro.engine.backends import get_backend
from repro.engine.plan import diff_plan_histograms, plan_dims, plan_histograms
from repro.errors import ConfigError
from repro.model.policy import QuantizedModel
from repro.serve.batch import BatchedSession
from repro.serve.prefix import PrefixCacheStats, RadixPrefixCache
from repro.serve.scheduler import Request, RequestResult, Scheduler, SchedulerStats
from repro.serve.speculative import BigramDraft, SessionDraft


@dataclass(frozen=True)
class ServeConfig:
    """How a :class:`Replica` serves.

    ``max_batch`` is both the slot count and the admission ceiling;
    ``prefix_cache_bytes=0`` turns the prefix cache off.  ``draft`` is
    ``None``, ``"bigram"`` (distilled from the served model) or a draft
    :class:`~repro.model.QuantizedModel`, proposing ``spec_k`` tokens.
    """

    backend: str = DEFAULT_BACKEND
    max_batch: int = 8
    capacity: int | None = None
    prefill_chunk: int | None = None
    prefix_cache_bytes: int = 0
    draft: str | QuantizedModel | None = None
    spec_k: int = 4

    def __post_init__(self) -> None:
        get_backend(self.backend)  # fail here, not in every worker
        if self.draft is None:
            return
        if not (isinstance(self.draft, QuantizedModel) or self.draft == "bigram"):
            raise ConfigError(
                f"draft must be None, 'bigram' or a QuantizedModel, got {self.draft!r}"
            )
        if self.spec_k < 1:
            raise ConfigError(f"a draft needs spec_k >= 1, got {self.spec_k}")


def queue_wait_percentiles(results) -> dict[str, float]:
    """``{"p50": ..., "p95": ...}`` over queue-wait steps of ``results``."""
    waits = np.asarray([r.queue_wait_steps for r in results], dtype=np.float64)
    return {
        f"p{p}": float(np.percentile(waits, p)) if waits.size else 0.0
        for p in (50, 95)
    }


@dataclass(frozen=True)
class WorkerReport:
    """One :meth:`Replica.serve` call: a fleet worker's share of a run.

    Request ids and rejection indices are positions in the trace the
    replica served; a :class:`~repro.serve.shard.Router` relabels them
    to global trace indices and sets ``rank`` and ``assigned``.
    """

    rank: int
    assigned: tuple[int, ...]  #: trace indices served, dispatch order
    results: tuple[RequestResult, ...]  #: completed requests, trace order
    rejected: tuple[tuple[int, str], ...]  #: (trace index, message)
    stats: SchedulerStats  #: this run's scheduler counters
    plan_rows: dict  #: this run's :func:`plan_histograms` difference
    plan_dims: dict  #: :func:`plan_dims` of the replica's plans
    prefix_cache: PrefixCacheStats | None  #: this run's cache counters
    elapsed_s: float  #: wall time of the replay

    @property
    def new_tokens(self) -> int:
        return sum(len(r.new_tokens) for r in self.results)

    @property
    def tokens_per_s(self) -> float:
        return self.new_tokens / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def occupancy(self) -> float:
        return self.stats.mean_occupancy

    def queue_wait(self) -> dict[str, float]:
        """Queue-wait step percentiles for this worker's requests."""
        return queue_wait_percentiles(self.results)


class Replica:
    """A quantized model built once to serve traces under ``config``."""

    def __init__(self, qmodel: QuantizedModel, config: ServeConfig) -> None:
        self.config = config
        cache = (
            RadixPrefixCache(config.prefix_cache_bytes)
            if config.prefix_cache_bytes > 0
            else None
        )
        self.session = BatchedSession(
            qmodel,
            backend=config.backend,
            max_slots=config.max_batch,
            capacity=config.capacity,
            prefix_cache=cache,
        )
        self.speculate = None
        if config.draft == "bigram":
            self.speculate = (BigramDraft.distill(self.session.decoder), config.spec_k)
        elif config.draft is not None:
            draft = SessionDraft(
                config.draft, backend=config.backend, max_slots=config.max_batch
            )
            self.speculate = (draft, config.spec_k)

    def serve(self, requests: list[Request]) -> WorkerReport:
        """Replay ``requests`` (arrival-sorted) and report this run only."""
        scheduler = Scheduler(
            self.session,
            max_batch=self.config.max_batch,
            prefill_chunk=self.config.prefill_chunk,
            speculate=self.speculate,
        )
        plans = self.session.decoder.plans
        cache = self.session.prefix_cache
        before = plan_histograms(plans)
        cache_before = cache.stats() if cache is not None else None
        start = time.perf_counter()
        results = scheduler.run(requests)
        elapsed = time.perf_counter() - start
        # Scheduler ids count accepted requests only; map them to positions.
        skipped = {index for index, _ in scheduler.rejections}
        accepted = [i for i in range(len(requests)) if i not in skipped]
        return WorkerReport(
            rank=0,
            assigned=tuple(range(len(requests))),
            results=tuple(
                dataclasses.replace(r, request_id=accepted[r.request_id])
                for r in results
            ),
            rejected=tuple(scheduler.rejections),
            stats=scheduler.stats(),
            plan_rows=diff_plan_histograms(plan_histograms(plans), before),
            plan_dims=plan_dims(plans),
            prefix_cache=(
                cache.stats().since(cache_before) if cache is not None else None
            ),
            elapsed_s=elapsed,
        )
