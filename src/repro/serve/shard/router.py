"""Data parallelism: a router over N full-model worker processes.

Each worker loads its own :class:`~repro.serve.batch.BatchedSession`
from the *same* ``model.checkpoint`` directory (the checkpoint acts as
a many-reader artifact store — loads are read-only and concurrent by
construction) and runs a private
:class:`~repro.serve.scheduler.Scheduler`.  The router assigns
requests with **least-outstanding-tokens** dispatch: requests are
walked in arrival order and each goes to the rank with the fewest
promised tokens (``prompt + max_new``) so far — a load balance that
needs no feedback channel and is deterministic for a given trace.

Every worker talks over its own duplex pipe.  A ``serve()`` call ships
each rank its request subset in one message; workers run their
schedulers concurrently and ship back ``(results, stats, plan
histograms, plan dims, prefix-cache counters, elapsed)`` — the
histograms and cache counters being the run's own (a difference
against a snapshot taken just before it), so repeated ``serve()``
calls on one router never double-count.  The router re-labels results
with their global trace indices and merges everything into one
:class:`FleetReport` — fleet-wide :class:`SchedulerStats`, prefix-cache
counters, queue-wait percentiles and GEMM histograms, plus the
per-worker reports.  A one-worker in-process run is the same report
with a single :class:`WorkerReport`.

Token streams are unaffected by dispatch: a request's tokens depend
only on the request itself (prompt, sampling params, seed) and the
checkpoint, never on which worker served it or who shared its batch —
the per-row bit-identity guarantee of the batched decode path.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.core.procutil import spawn_worker
from repro.engine.backends import DEFAULT_BACKEND, get_backend
from repro.engine.plan import (
    diff_plan_histograms,
    merge_plan_histograms,
    plan_dims,
    plan_histograms,
)
from repro.errors import ConfigError
from repro.serve.prefix import PrefixCacheStats
from repro.serve.scheduler import Request, RequestResult, Scheduler, SchedulerStats


def queue_wait_percentiles(
    results,
    percentiles: tuple[int, ...] = (50, 95),
) -> dict[str, float]:
    """``{"p50": ..., "p95": ...}`` over queue-wait steps of ``results``."""
    waits = [r.queue_wait_steps for r in results]
    if not waits:
        return {f"p{p}": 0.0 for p in percentiles}
    arr = np.asarray(waits, dtype=np.float64)
    return {f"p{p}": float(np.percentile(arr, p)) for p in percentiles}


def _data_worker_main(
    conn,
    rank: int,
    checkpoint: str,
    backend: str,
    max_slots: int,
    capacity,
    prefill_chunk,
    prefix_cache_bytes: int,
) -> None:
    """Worker loop: load the checkpoint once, serve request batches."""
    from repro.serve.batch import BatchedSession
    from repro.serve.prefix import RadixPrefixCache

    try:
        cache = RadixPrefixCache(prefix_cache_bytes) if prefix_cache_bytes else None
        session = BatchedSession.from_checkpoint(
            checkpoint,
            backend=backend,
            max_slots=max_slots,
            capacity=capacity,
            prefix_cache=cache,
        )
    except Exception as exc:
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", rank))
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            op = message[0]
            if op == "run":
                requests = message[1]
                try:
                    plans = session.decoder.plans
                    before = plan_histograms(plans)
                    cache_before = cache.stats() if cache is not None else None
                    scheduler = Scheduler(
                        session,
                        max_batch=max_slots,
                        prefill_chunk=prefill_chunk,
                    )
                    start = time.perf_counter()
                    results = scheduler.run(list(requests))
                    elapsed = time.perf_counter() - start
                    payload = (
                        results,
                        scheduler.stats(),
                        diff_plan_histograms(plan_histograms(plans), before),
                        plan_dims(plans),
                        (
                            cache.stats().since(cache_before)
                            if cache is not None
                            else None
                        ),
                        elapsed,
                    )
                except Exception as exc:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", payload))
            else:
                conn.send(("err", f"unknown op {op!r}"))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


@dataclass(frozen=True)
class WorkerReport:
    """One worker's share of a :meth:`Router.serve` call."""

    rank: int
    assigned: tuple[int, ...]  #: global trace indices, dispatch order
    results: tuple[RequestResult, ...]  #: re-labelled with global indices
    stats: SchedulerStats  #: the worker scheduler's own aggregate view
    plan_rows: dict  #: this run's :func:`plan_histograms` difference
    plan_dims: dict  #: :func:`plan_dims` of the worker's plans
    prefix_cache: PrefixCacheStats | None  #: this run's cache counters
    elapsed_s: float  #: worker wall time for its scheduler run

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


@dataclass(frozen=True)
class FleetReport:
    """Merged outcome of one :meth:`Router.serve` call."""

    workers: tuple[WorkerReport, ...]
    results: tuple[RequestResult, ...]  #: all requests, trace order
    elapsed_s: float  #: router wall time (dispatch to last worker done)

    @property
    def stats(self) -> SchedulerStats:
        """Fleet-wide scheduler stats.

        Counters sum over workers (``max_batch`` becomes the fleet's
        slot count), occupancy is busy-step weighted, the prefill peak is
        the largest worker's, queue waits average over every request and
        throughput is over router wall time.
        """
        per_worker = [w.stats for w in self.workers]
        summed = {
            f.name: sum(getattr(s, f.name) for s in per_worker)
            for f in dataclasses.fields(SchedulerStats)
        }
        busy = summed["busy_steps"]
        occupancy = sum(s.mean_occupancy * s.busy_steps for s in per_worker)
        done = len(self.results)
        elapsed = self.elapsed_s
        summed.update(
            mean_occupancy=occupancy / busy if busy else 0.0,
            max_prefill_tokens_per_step=max(
                s.max_prefill_tokens_per_step for s in per_worker
            ),
            elapsed_s=elapsed,
            aggregate_tokens_per_s=(
                summed["total_new_tokens"] / elapsed if elapsed else 0.0
            ),
            mean_queue_wait_steps=(
                sum(r.queue_wait_steps for r in self.results) / done if done else 0.0
            ),
            mean_queue_wait_s=(
                sum(r.queue_wait_s for r in self.results) / done if done else 0.0
            ),
        )
        return SchedulerStats(**summed)

    @property
    def prefix_cache(self) -> PrefixCacheStats | None:
        """The workers' cache counters summed (``None`` without a cache)."""
        caches = [w.prefix_cache for w in self.workers if w.prefix_cache is not None]
        if not caches:
            return None
        summed = {
            f.name: sum(getattr(c, f.name) for c in caches)
            for f in dataclasses.fields(PrefixCacheStats)
        }
        return PrefixCacheStats(**summed)

    def queue_wait(self) -> dict[str, float]:
        """Fleet-wide queue-wait step percentiles."""
        return queue_wait_percentiles(self.results)

    @property
    def plan_dims(self) -> dict[str, dict[str, int]]:
        """Per-site dims (every worker loads the same checkpoint)."""
        return self.workers[0].plan_dims

    def merged_plan_rows(self) -> dict[str, dict]:
        """All workers' plan histograms for this call, folded into one."""
        merged: dict[str, dict] = {}
        for worker in self.workers:
            merge_plan_histograms(merged, worker.plan_rows)
        return merged


class Router:
    """Least-outstanding-tokens dispatch over N checkpoint workers.

    ``checkpoint`` is a :func:`repro.model.checkpoint.save_model`
    directory; every worker loads it independently at startup (the
    concurrent-reader stress the checkpoint format is designed for).
    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        checkpoint,
        workers: int,
        *,
        backend: str = DEFAULT_BACKEND,
        max_slots: int = 8,
        capacity: int | None = None,
        prefill_chunk: int | None = None,
        prefix_cache_bytes: int = 0,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"router needs >= 1 worker, got {workers}")
        get_backend(backend)  # fail before spawning, not in every worker
        self.workers = workers
        self._procs = []
        self._conns = []
        self._closed = False
        try:
            for rank in range(workers):
                proc, conn = spawn_worker(
                    _data_worker_main,
                    (
                        rank,
                        str(checkpoint),
                        backend,
                        max_slots,
                        capacity,
                        prefill_chunk,
                        prefix_cache_bytes,
                    ),
                    name=f"serve-worker-{rank}",
                )
                self._procs.append(proc)
                self._conns.append(conn)
            for rank, conn in enumerate(self._conns):
                kind, payload = self._recv(rank, conn)
                if kind != "ready":
                    raise RuntimeError(f"serve worker {rank}: {payload}")
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _recv(rank: int, conn):
        try:
            return conn.recv()
        except EOFError:
            raise RuntimeError(f"serve worker {rank} died") from None

    def dispatch(self, requests: list[Request]) -> list[list[int]]:
        """Assign global request indices to ranks, least-outstanding first.

        Requests are walked in trace order; each lands on the rank with
        the fewest outstanding promised tokens (``prompt + max_new``),
        ties broken by rank.  Pure function of the trace — no clock, no
        feedback — so the assignment is reproducible.
        """
        assignment: list[list[int]] = [[] for _ in range(self.workers)]
        outstanding = [0] * self.workers
        for index, request in enumerate(requests):
            rank = min(range(self.workers), key=lambda r: (outstanding[r], r))
            assignment[rank].append(index)
            outstanding[rank] += int(request.prompt.shape[0]) + request.max_new
        return assignment

    def serve(self, requests: list[Request]) -> FleetReport:
        """Dispatch ``requests`` across the fleet and merge the outcome."""
        if self._closed:
            raise RuntimeError("router is closed")
        assignment = self.dispatch(requests)
        start = time.perf_counter()
        for rank, conn in enumerate(self._conns):
            subset = [requests[i] for i in assignment[rank]]
            conn.send(("run", subset))
        reports = []
        merged: list[RequestResult | None] = [None] * len(requests)
        for rank, conn in enumerate(self._conns):
            kind, payload = self._recv(rank, conn)
            if kind != "ok":
                raise RuntimeError(f"serve worker {rank}: {payload}")
            results, stats, plan_rows, dims, cache_stats, elapsed = payload
            relabelled = []
            for result in results:
                global_id = assignment[rank][result.request_id]
                relabelled.append(
                    dataclasses.replace(result, request_id=global_id)
                )
                merged[global_id] = relabelled[-1]
            reports.append(
                WorkerReport(
                    rank=rank,
                    assigned=tuple(assignment[rank]),
                    results=tuple(relabelled),
                    stats=stats,
                    plan_rows=plan_rows,
                    plan_dims=dims,
                    prefix_cache=cache_stats,
                    elapsed_s=elapsed,
                )
            )
        elapsed_s = time.perf_counter() - start
        return FleetReport(
            workers=tuple(reports),
            results=tuple(r for r in merged if r is not None),
            elapsed_s=elapsed_s,
        )

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
