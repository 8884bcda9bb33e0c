"""Data parallelism: a router over N full-model worker processes.

Each worker loads the model from the *same* ``checkpoint`` directory
(the checkpoint acts as a many-reader artifact store — loads are
read-only and concurrent by construction) and keeps one
:class:`~repro.serve.replica.Replica` built from the router's
:class:`~repro.serve.replica.ServeConfig`, draft included, for its
whole life.  The router assigns requests with
**least-outstanding-tokens** dispatch: requests are walked in arrival
order and each goes to the rank with the fewest promised tokens
(``prompt + max_new``) so far — a load balance that needs no feedback
channel and is deterministic for a given trace.

Every worker talks over its own duplex pipe.  A ``serve()`` call ships
each rank its request subset in one message; each worker replays its
subset arrival-paced on its own step clock (:meth:`Replica.serve`)
and ships back a :class:`~repro.serve.replica.WorkerReport` holding
only that call's work, so repeated ``serve()`` calls on one router
never double-count.  The router relabels results and rejections with
their global trace indices and merges everything into one
:class:`FleetReport` — fleet-wide :class:`SchedulerStats`, prefix-cache
counters, queue-wait percentiles, rejections and GEMM histograms, plus
the per-worker reports.  A one-worker in-process run is the same
report with a single :class:`WorkerReport`.

Token streams are unaffected by dispatch: a request's tokens depend
only on the request itself (prompt, sampling params, seed) and the
checkpoint, never on which worker served it or who shared its batch —
the per-row bit-identity guarantee of the batched decode path.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.core.procutil import spawn_worker
from repro.engine.plan import merge_plan_histograms
from repro.errors import ConfigError
from repro.serve.prefix import PrefixCacheStats
from repro.serve.replica import (
    Replica,
    ServeConfig,
    WorkerReport,
    queue_wait_percentiles,
)
from repro.serve.scheduler import Request, RequestResult, SchedulerStats


def _data_worker_main(conn, rank: int, checkpoint: str, config: ServeConfig) -> None:
    """Worker loop: load the checkpoint once, serve request batches."""
    from repro.model.checkpoint import load_model

    try:
        replica = Replica(load_model(checkpoint), config)
    except Exception as exc:
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", rank))
    try:
        while (requests := conn.recv()) is not None:
            try:
                report = replica.serve(requests)
            except Exception as exc:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", report))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


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

    @property
    def rejected(self) -> tuple[tuple[int, str], ...]:
        """Every worker's ``(trace index, message)`` rejections, in order."""
        return tuple(sorted(r for w in self.workers for r in w.rejected))

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
    concurrent-reader stress the checkpoint format is designed for) and
    serves it under ``config`` (default: :class:`ServeConfig`'s).
    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self, checkpoint, workers: int, config: ServeConfig | None = None
    ) -> None:
        if workers < 1:
            raise ConfigError(f"router needs >= 1 worker, got {workers}")
        config = config if config is not None else ServeConfig()
        self.workers = workers
        self._procs = []
        self._conns = []
        self._closed = False
        try:
            for rank in range(workers):
                proc, conn = spawn_worker(
                    _data_worker_main,
                    (rank, str(checkpoint), config),
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
            conn.send([requests[i] for i in assignment[rank]])
        reports = []
        for rank, conn in enumerate(self._conns):
            kind, report = self._recv(rank, conn)
            if kind != "ok":
                raise RuntimeError(f"serve worker {rank}: {report}")
            indices = assignment[rank]
            reports.append(
                dataclasses.replace(
                    report,
                    rank=rank,
                    assigned=tuple(indices),
                    results=tuple(
                        dataclasses.replace(r, request_id=indices[r.request_id])
                        for r in report.results
                    ),
                    rejected=tuple(
                        (indices[index], message) for index, message in report.rejected
                    ),
                )
            )
        elapsed_s = time.perf_counter() - start
        results = sorted(
            (r for report in reports for r in report.results),
            key=lambda r: r.request_id,
        )
        return FleetReport(tuple(reports), tuple(results), elapsed_s)

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
