"""Multi-request serving: continuous batching over batched KV-cache decode.

The layer between :mod:`repro.model` (one sequence per session) and a
traffic-facing server: many concurrent requests share one quantized
decoder so the per-token GEMMs amortize across the whole batch.

* :class:`BatchedSession` (:mod:`repro.serve.batch`) — slot-based
  multi-sequence KV cache + lock-step ``decode_step`` issuing **one**
  GEMM per weight matrix for all resident sequences, bit-identical per
  sequence to single-sequence decode;
* :class:`Scheduler` (:mod:`repro.serve.scheduler`) — continuous
  batching: FIFO queue, admission up to ``max_batch``, join-on-arrival
  and retire-on-EOS-or-length between steps, chunked prefill
  (``prefill_chunk`` bounds prompt tokens ingested per step so a long
  prompt cannot stall resident decodes), per-request and aggregate
  telemetry; :meth:`Scheduler.run` is the one drive loop — it replays
  a trace arrival-paced, records rejections and frees its slots when a
  step raises;
* :class:`RadixPrefixCache` (:mod:`repro.serve.prefix`) — a radix-tree
  prompt-prefix cache over KV state with LRU eviction under a byte
  budget; sessions seeded from it skip re-prefilling shared prompt
  prefixes, bit-identically;
* drafts (:mod:`repro.serve.speculative`) — speculative decoding with
  bit-exact greedy verification: a cheap draft (:class:`BigramDraft`
  table, :class:`SessionDraft` low-bit checkpoint) proposes ``k``
  tokens, the target verifies all ``k + 1`` positions in one
  multi-row pass and rolls rejects back; the scheduler integrates it
  via ``speculate=(draft, k)``;
* :func:`synthesize` (:mod:`repro.serve.trace`) — deterministic
  synthetic request traces, including shared-prefix traffic;
* :class:`Replica` (:mod:`repro.serve.replica`) — the one served run
  that ``serve-sim``, every :class:`Router` worker, the co-design
  captures and ``spec_decode`` drive: session, prefix cache and draft
  built once from a frozen :class:`ServeConfig`, then ``serve(trace)``
  into a :class:`WorkerReport` of that run alone;
* :class:`Router` (:mod:`repro.serve.shard`) — multi-process
  data-parallel serving: N replicas of one shared checkpoint, streams
  bit-identical to one replica.

Typical use::

    from repro.serve import Replica, ServeConfig, TraceSpec, synthesize

    replica = Replica(qmodel, ServeConfig(max_batch=8, draft="bigram"))
    report = replica.serve(synthesize(TraceSpec(), vocab, max_seq))
    for result in report.results:
        print(result.request_id, result.new_tokens, result.tokens_per_s)

See ``docs/serving.md`` for the scheduling model and every telemetry
field.
"""

from repro.serve.batch import BatchedSession
from repro.serve.prefix import PrefixCacheStats, RadixPrefixCache
from repro.serve.replica import Replica, ServeConfig
from repro.serve.scheduler import (
    Request,
    RequestResult,
    Scheduler,
    SchedulerStats,
)
from repro.serve.shard import (
    FleetReport,
    Router,
    WorkerReport,
)
from repro.serve.speculative import (
    AdversarialDraft,
    BigramDraft,
    DraftModel,
    SessionDraft,
    propose_batch,
)
from repro.serve.trace import TraceSpec, synthesize

__all__ = [
    "AdversarialDraft",
    "BatchedSession",
    "BigramDraft",
    "DraftModel",
    "FleetReport",
    "PrefixCacheStats",
    "RadixPrefixCache",
    "Replica",
    "Request",
    "RequestResult",
    "Router",
    "Scheduler",
    "SchedulerStats",
    "ServeConfig",
    "SessionDraft",
    "TraceSpec",
    "WorkerReport",
    "propose_batch",
    "synthesize",
]
