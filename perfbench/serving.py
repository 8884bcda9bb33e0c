"""The three serving workloads: decode, shared-prefix and speculative.

All three serve one model (d_model 256, d_ffn 1024, 2 layers, vocab
512, policy ``*=int4@g[32,4]``, ``max_batch`` 8, backend ``batched``)
through the public API: ``repro.model`` builds and quantizes it,
``repro.serve`` schedules requests, ``repro.engine`` executes GEMMs.

Arrivals are step-paced, as in ``repro.serve.replay``: a request is
submitted at the scheduler step it is due, so every run of a seed does
identical work (a closed loop in wall-clock terms).  A run replays
rounds — each a fresh trace drawn from ``(seed, round)`` on a fresh
session and prefix cache over the same quantized model — until the
time budget is spent.

The ``decode`` workload also carries the co-design replay
(:mod:`codesign_replay`): its checks run on every decode run, and a
traced decode run fills the co-design layer metrics.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from common import (
    Outcome,
    current_rss_mib,
    measuring,
    median,
    peak_rss_mib,
    percentile,
)
from spans import Patcher, Recorder, print_layer_table

import codesign_replay

import repro.serve.scheduler as scheduler_module
import repro.serve.speculative as speculative_module
from repro.engine import GemmPlan
from repro.errors import ConfigError, RequestError
from repro.llm.transformer import BatchedKVCache, Decoder, TransformerConfig, init_weights
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.serve import BatchedSession, BigramDraft, RadixPrefixCache, Request, Scheduler

POLICY = "*=int4@g[32,4]"
BACKEND = "batched"
MAX_BATCH = 8
SITES = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
PHASES = ("prefill", "decode", "verify")

MODELS = {
    "full": TransformerConfig(
        vocab=512, d_model=256, n_heads=4, n_layers=2, d_ffn=1024, max_seq=256
    ),
    "tiny": TransformerConfig(
        vocab=64, d_model=32, n_heads=4, n_layers=2, d_ffn=64, max_seq=128
    ),
}

#: The workload whose runs also check (and, traced, measure) the
#: co-design replay; it has no serving work of its own to time.
CODESIGN_HOST = "decode"
#: Requests whose streams are re-derived by solo decode after timing.
CHECK_SAMPLE = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reference-backend replays of round 0 behind ``efficiency_vs_reference``.
REFERENCE_REPEATS = 3


@dataclass(frozen=True)
class ServeShape:
    """How one serving workload draws its trace and configures serving."""

    index: int  #: mixes into the seed so workloads never share inputs
    requests: dict  #: requests per round, by model size
    prompt_len: tuple[int, int]
    max_new: tuple[int, int]
    gap: int  #: scheduler steps between consecutive arrivals
    top_k: int | None = None
    system_lens: tuple[int, ...] = ()  #: one seeded system prompt per length
    shared_every: int = 0  #: every n-th request skips the system prompts
    prefill_chunk: int | None = None
    prefix_budget_tokens: int = 0  #: prefix-cache budget, in tokens of KV
    spec_k: int = 0


SHAPES = {
    # Short prompts, long top-k generations, staggered arrivals: the
    # batch fills to 8 and drains, so decode GEMMs run at m = 1..8.
    "decode": ServeShape(
        index=1, requests={"full": 8, "tiny": 4}, prompt_len=(4, 12),
        max_new=(48, 64), gap=4, top_k=8,
    ),
    # Long prompts, most opening with one of four system prompts, short
    # generations; the prefix-cache budget holds the system prompts and
    # a few suffixes, so LRU eviction runs throughout.
    "shared-prefix": ServeShape(
        index=2, requests={"full": 12, "tiny": 6}, prompt_len=(80, 112),
        max_new=(4, 8), gap=1, top_k=8, system_lens=(48, 56, 64, 72),
        shared_every=8, prefill_chunk=64, prefix_budget_tokens=640,
    ),
    # Greedy requests verified against a distilled bigram draft, k = 4.
    "speculative": ServeShape(
        index=3, requests={"full": 12, "tiny": 4}, prompt_len=(8, 24),
        max_new=(32, 48), gap=3, spec_k=4,
    ),
}


def kv_bytes_per_token(config: TransformerConfig) -> int:
    return 2 * config.n_layers * config.n_heads * config.d_head * 8


def make_trace(shape: ServeShape, config, size: str, seed: int,
               round_index: int) -> list[Request]:
    """Round ``round_index`` of workload ``shape`` for ``seed``.

    The shape of a round is fixed: evenly spaced prompt and generation
    lengths over the workload's ranges and every system prompt equally
    often, in one shuffled order that every seed and round shares.  The
    seed draws the token ids (system prompts included) and sampling
    seeds, so it changes the inputs but not the amount of work, nor
    which requests can hit the prefix cache.
    """
    n = shape.requests[size]
    layout = np.random.default_rng(shape.index)
    rng = np.random.default_rng([seed, shape.index, round_index + 1])

    def stratified(lo: int, hi: int) -> np.ndarray:
        return layout.permutation(np.linspace(lo, hi, n).round().astype(int))

    prompt_lens = stratified(*shape.prompt_len)
    max_news = stratified(*shape.max_new)
    systems = []
    if shape.system_lens:
        sys_rng = np.random.default_rng([seed, shape.index, 0])
        systems = [sys_rng.integers(0, config.vocab, size=k) for k in shape.system_lens]
        choice = layout.permutation(np.resize(np.arange(len(systems)), n))
    trace = []
    for i in range(n):
        length = int(prompt_lens[i])
        if systems and i % shape.shared_every:
            system = systems[int(choice[i])]
            suffix = rng.integers(0, config.vocab, size=length - system.shape[0])
            prompt = np.concatenate([system, suffix])
        else:
            prompt = rng.integers(0, config.vocab, size=length)
        trace.append(
            Request(
                prompt=prompt.astype(np.int64),
                max_new=int(max_news[i]),
                top_k=shape.top_k,
                seed=int(rng.integers(2**31)),
                arrival=i * shape.gap,
            )
        )
    return trace


def trace_digest(trace: list[Request]) -> str:
    h = hashlib.sha256()
    for r in trace:
        h.update(np.asarray(r.prompt, dtype=np.int64).tobytes())
        h.update(f"{r.max_new},{r.top_k},{r.seed},{r.arrival};".encode())
    return h.hexdigest()[:16]


class Served:
    """A set-up serving stack: quantized model, draft, session factory."""

    def __init__(self, shape: ServeShape, config: TransformerConfig) -> None:
        start = time.perf_counter()
        weights = init_weights(config, seed=0)
        self.config = config
        self.shape = shape
        self.model = quantize_model(
            weights, parse_policy(POLICY), config=config, compute_reports=False
        )
        # Session construction plans every weight matrix; the plans are
        # memoized per quantized matrix, so later sessions reuse them.
        session = self.session()
        #: id(plan) -> site name; every session shares these plans.
        self.sites = {id(plan): site for site, plan in session.decoder.plans.items()}
        rss_cold = current_rss_mib()
        # Distillation and one warm request build the lazy plan operands.
        self.draft = BigramDraft.distill(session.decoder) if shape.spec_k else None
        warm = Request(prompt=np.arange(8) % config.vocab, max_new=2, top_k=shape.top_k)
        self.scheduler(session).run([warm])
        self.warm_rss_mib = current_rss_mib() - rss_cold
        self.setup_s = time.perf_counter() - start

    def session(self, backend: str = BACKEND) -> BatchedSession:
        cache = None
        if self.shape.prefix_budget_tokens:
            cache = RadixPrefixCache(
                self.shape.prefix_budget_tokens * kv_bytes_per_token(self.config)
            )
        return BatchedSession(
            self.model, backend=backend, max_slots=MAX_BATCH, prefix_cache=cache
        )

    def scheduler(self, session: BatchedSession) -> Scheduler:
        speculate = (self.draft, self.shape.spec_k) if self.draft is not None else None
        return Scheduler(
            session,
            max_batch=MAX_BATCH,
            prefill_chunk=self.shape.prefill_chunk,
            speculate=speculate,
        )


@dataclass
class Round:
    trace: list[Request]
    accepted: list[Request]  #: in submit order, so index == request id
    wall_s: float
    step_ms: list[float]
    results: list
    stats: object
    session: BatchedSession


def serve_round(served: Served, trace: list[Request], backend: str = BACKEND) -> Round:
    """Replay one trace, step-paced; time every busy ``Scheduler.step``."""
    session = served.session(backend)
    scheduler = served.scheduler(session)
    step_ms: list[float] = []
    accepted: list[Request] = []
    index = 0
    start = time.perf_counter()
    while True:
        while index < len(trace) and trace[index].arrival <= scheduler.steps:
            try:
                scheduler.submit(trace[index])
                accepted.append(trace[index])
            except (RequestError, ConfigError):
                pass  # counted as failed by check_rounds
            index += 1
        t0 = time.perf_counter()
        busy = scheduler.step()
        if busy:
            step_ms.append((time.perf_counter() - t0) * 1e3)
            continue
        if index < len(trace):
            scheduler.skip_idle()
            continue
        break
    wall = time.perf_counter() - start
    return Round(trace, accepted, wall, step_ms, scheduler.results(),
                 scheduler.stats(), session)


def generated(rounds: list[Round]) -> int:
    return sum(len(r.new_tokens) for rnd in rounds for r in rnd.results)


# -- correctness -------------------------------------------------------------


def check_rounds(served: Served, rounds: list[Round], seed: int,
                 outcome: Outcome, inject_fault: bool) -> None:
    """Every request completes in full; a sample matches solo decode."""
    pairs = []
    for rnd in rounds:
        outcome.attempted += len(rnd.trace)
        for _ in range(len(rnd.trace) - len(rnd.accepted)):
            outcome.fail("request rejected at submit")
        results = {r.request_id: r for r in rnd.results}
        for request_id, request in enumerate(rnd.accepted):
            result = results.get(request_id)
            if result is None:
                outcome.fail(f"request {request_id} never completed")
            elif len(result.new_tokens) != request.max_new:
                outcome.fail(f"request {request_id}: {len(result.new_tokens)} of "
                             f"{request.max_new} tokens")
            else:
                pairs.append((request, result))
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(pairs), size=min(CHECK_SAMPLE, len(pairs)), replace=False)
    solo = InferenceSession(served.model, backend=BACKEND)
    for n, pick in enumerate(sorted(int(p) for p in picks)):
        request, result = pairs[pick]
        served_tokens = np.array(result.tokens)
        if inject_fault and n == 0:
            served_tokens[-1] = (served_tokens[-1] + 1) % served.config.vocab
        expected = solo.generate(
            request.prompt, request.max_new, top_k=request.top_k,
            temperature=request.temperature, seed=request.seed,
        ).tokens
        if not np.array_equal(served_tokens, expected):
            outcome.fail(f"request {result.request_id}: served stream differs "
                         "from solo InferenceSession.generate")


def check_repeat(first: Round, again: Round, outcome: Outcome) -> None:
    """A replay of the same trace must produce the same streams."""
    for a, b in zip(first.results, again.results, strict=True):
        if not np.array_equal(a.tokens, b.tokens):
            outcome.fail(f"request {a.request_id}: replay of round 0 diverged")


# -- tracing -----------------------------------------------------------------


def instrument(patcher: Patcher, recorder: Recorder, site_of: dict[int, str],
               prefix_peak: list[float], kv_bytes: list[int]) -> None:
    """Spans around every serving layer's public calls (see README)."""
    slot_request: dict[int, int] = {}
    waiting: deque[int] = deque()

    def engine_attrs(args, kwargs):
        plan, a = args[0], args[1]
        return {"site": site_of.get(id(plan)), "phase": kwargs.get("phase"),
                "m": int(np.shape(a)[0]), "n": plan.n_dim, "k": plan.k_dim}

    def slot_arg(args):
        return slot_request.get(args[1])

    def submitted(args, kwargs, request_id):
        waiting.append(request_id)
        recorder.requests[request_id] = {"submit": time.perf_counter()}

    def admitted(args, kwargs, result):
        slot_request[result[0]] = waiting.popleft()

    def retired(args, kwargs, result):
        request_id = slot_request.pop(args[1], None)
        if request_id is not None:
            recorder.requests[request_id]["end"] = time.perf_counter()

    def snapshot_bytes(args, kwargs, result):
        kv_bytes[0] += result[0].nbytes + result[1].nbytes

    def copy_bytes(args, kwargs, result):
        kv_bytes[0] += args[2].nbytes + args[3].nbytes

    def inserted(args, kwargs, result):
        prefix_peak[0] = max(prefix_peak[0], args[0].bytes / 2**20)

    wrap = patcher.wrap
    wrap(GemmPlan, "execute", "engine.execute", attrs=engine_attrs)
    wrap(Decoder, "prefill_ragged", "llm.prefill_ragged")
    wrap(Decoder, "decode_batch", "llm.decode_batch")
    wrap(Scheduler, "step", "scheduler.step")
    wrap(Scheduler, "submit", "scheduler.submit", after=submitted)
    wrap(BatchedSession, "admit", "batch.admit", after=admitted)
    wrap(BatchedSession, "retire", "batch.retire", request=slot_arg, after=retired)
    for name in ("seed_prefix", "record_prefix", "truncate"):
        wrap(BatchedSession, name, f"batch.{name}", request=slot_arg)
    for name in ("prefill_step", "decode_step", "verify_step"):
        wrap(BatchedSession, name, f"batch.{name}")
    wrap(BatchedKVCache, "snapshot", "kv.snapshot", after=snapshot_bytes)
    wrap(BatchedKVCache, "copy_into", "kv.copy_into", after=copy_bytes)
    wrap(BatchedKVCache, "truncate", "kv.truncate")
    wrap(RadixPrefixCache, "lookup", "prefix.lookup")
    wrap(RadixPrefixCache, "insert", "prefix.insert", after=inserted)
    # Both are called through their module namespace at call time.
    wrap(scheduler_module, "select_token", "sampling.select_token")
    wrap(speculative_module, "propose_batch", "spec.propose_batch")


def traced_round(served: Served, trace: list[Request]):
    """One replay with spans on; returns the round and its recording."""
    recorder = Recorder()
    prefix_peak = [0.0]
    kv_bytes = [0]
    with Patcher(recorder) as patcher:
        instrument(patcher, recorder, served.sites, prefix_peak, kv_bytes)
        root = recorder.open("replay.round")
        try:
            rnd = serve_round(served, trace)
        finally:
            recorder.close(root)
    return rnd, recorder, prefix_peak[0], kv_bytes[0]


def m_bucket(m: int) -> str:
    hi = 1
    while hi < m:
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    return f"{lo}-{hi}" if lo != hi else str(hi)


def engine_ledger(recorder: Recorder, served_tokens: int) -> list[dict]:
    """Engine ms per (site, phase, m-bucket), weighted per served token."""
    rows: dict[tuple, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0})
    for span in recorder.spans:
        if span.name != "engine.execute":
            continue
        site = (span.attrs.get("site") or "?").split(".")[-1]
        key = (site, span.attrs.get("phase") or "untagged", m_bucket(span.attrs["m"]))
        row = rows[key]
        row["calls"] += 1
        row["ms"] += span.duration * 1e3
    ledger = []
    for (site, phase, bucket), row in sorted(rows.items()):
        ledger.append({
            "site": site, "phase": phase, "m_bucket": bucket,
            "calls": row["calls"], "ms_total": row["ms"],
            "ms_per_call": row["ms"] / row["calls"],
            "ms_per_served_token": row["ms"] / served_tokens,
        })
    return ledger


def print_ledger(ledger: list[dict]) -> None:
    """The ledger summed over sites; the per-site rows go to the JSON file."""
    rows: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for row in ledger:
        acc = rows[(row["phase"], row["m_bucket"])]
        acc[0] += row["calls"]
        acc[1] += row["ms_total"]
        acc[2] += row["ms_per_served_token"]
    print(f"{'phase':<8} {'m':>6} {'calls':>6} {'ms/call':>8} {'ms/tok':>8}")
    for (phase, bucket), (calls, ms, per_token) in sorted(
        rows.items(), key=lambda kv: (kv[0][0], int(kv[0][1].split("-")[0]))
    ):
        print(f"{phase:<8} {bucket:>6} {calls:>6} {ms / calls:>8.3f} {per_token:>8.3f}")


def layer_metrics(outcome: Outcome, recorder: Recorder, rnd: Round,
                  served: Served, prefix_peak: float,
                  kv_bytes: int) -> tuple[float, list[dict]]:
    """Fill every serving per-layer metric; returns wall time and ledger."""
    own = recorder.self_times()
    root = recorder.spans[0]
    wall = root.duration
    tokens = generated([rnd])
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(recorder.spans):
        by_name[span.name].append(index)

    def self_ms(prefix: str) -> float:
        return sum(own[i] for name, ids in by_name.items()
                   if name.startswith(prefix) for i in ids) * 1e3

    def total_ms(name: str) -> float:
        return sum(recorder.spans[i].duration for i in by_name.get(name, ())) * 1e3

    engine = [recorder.spans[i] for i in by_name.get("engine.execute", ())]
    engine_ms = self_ms("engine.")
    macs = sum(s.attrs["m"] * s.attrs["n"] * s.attrs["k"] for s in engine)
    put = outcome.put
    put("engine.calls", len(engine))
    put("engine.self_ms", engine_ms)
    ledger = engine_ledger(recorder, tokens)
    put("engine.ms_per_token", sum(r["ms_per_served_token"] for r in ledger))
    for phase in PHASES:
        put(f"engine.{phase}_ms",
            sum(s.duration for s in engine if s.attrs["phase"] == phase) * 1e3)
    for site in SITES:
        put(f"engine.{site}_ms",
            sum(s.duration for s in engine
                if (s.attrs["site"] or "").endswith("." + site)) * 1e3)
    put("engine.mean_rows", sum(s.attrs["m"] for s in engine) / max(len(engine), 1))
    put("engine.gmac_per_s", macs / max(engine_ms / 1e3, 1e-12) / 1e9)
    put("engine.share", engine_ms / (wall * 1e3))
    put("engine.warm_rss_mib", served.warm_rss_mib)

    llm_calls = len(by_name.get("llm.prefill_ragged", ())) + len(
        by_name.get("llm.decode_batch", ()))
    put("llm.calls", llm_calls)
    put("llm.self_ms", self_ms("llm."))
    put("llm.self_ms_per_token", self_ms("llm.") / tokens)

    put("batch.self_ms", self_ms("batch."))
    put("kv.copy_ms", total_ms("kv.snapshot") + total_ms("kv.copy_into"))
    put("kv.copy_mib", kv_bytes / 2**20)
    put("kv.truncate_calls", len(by_name.get("kv.truncate", ())))

    stats = rnd.stats
    put("scheduler.steps", stats.busy_steps)
    put("scheduler.self_ms", self_ms("scheduler."))
    put("scheduler.mean_occupancy", stats.mean_occupancy)
    put("scheduler.prefill_stall_steps", stats.prefill_stall_steps)
    put("scheduler.mean_queue_wait_steps", stats.mean_queue_wait_steps)
    put("sampling.ms", self_ms("sampling."))

    cache = rnd.session.prefix_cache
    cache_stats = cache.stats() if cache is not None else None
    put("prefix.lookup_ms", total_ms("prefix.lookup"))
    put("prefix.insert_ms", total_ms("prefix.insert"))
    put("prefix.token_hit_rate", cache_stats.token_hit_rate if cache_stats else 0.0)
    put("prefix.evictions", cache_stats.evictions if cache_stats else 0)
    put("prefix.peak_mib", prefix_peak)
    put("prefix.budget_mib", cache.max_bytes / 2**20 if cache else 0.0)

    put("spec.propose_ms", total_ms("spec.propose_batch"))
    put("spec.acceptance_rate", stats.draft_acceptance_rate)
    put("spec.accepted_per_verify_step", stats.accepted_per_verify_step)
    put("spec.wasted_rows", stats.wasted_draft_tokens)

    print(f"traced round: {wall * 1e3:.1f} ms, {len(recorder.spans)} spans")
    print_layer_table(recorder.layer_table(), wall)
    print("engine ledger (site, phase, m-bucket):")
    print_ledger(ledger)
    return wall, ledger


# -- the run -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        inject_fault: bool, outcome: Outcome, artifacts: dict) -> None:
    shape = SHAPES[workload]
    config = MODELS[size]
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        served = None  # drop the previous stack before building the next
        served = Served(shape, config)
        setups.append(served.setup_s)
    artifacts["inputs"] = trace_digest(make_trace(shape, config, size, seed, 0))
    print(f"inputs: {artifacts['inputs']} (round 0 of seed {seed})")
    if trace:
        run_traced(served, make_trace(shape, config, size, seed, 0), seed, seconds,
                   inject_fault, outcome, artifacts)
    else:
        run_timed(served, shape, config, size, seed, seconds, setups,
                  inject_fault, outcome)
    if workload == CODESIGN_HOST:
        artifacts["codesign_recorder"] = codesign_replay.run(
            seed, size, trace, inject_fault, outcome)


def run_timed(served: Served, shape: ServeShape, config, size: str, seed: int,
              seconds: float, setups: list[float], inject_fault: bool,
              outcome: Outcome) -> None:
    """End-to-end numbers: fresh rounds until the time budget is spent."""
    rounds: list[Round] = []
    steps: list[float] = []
    start = time.perf_counter()
    while measuring(start, seconds, len(rounds), len(steps)):
        rounds.append(serve_round(served, make_trace(shape, config, size, seed, len(rounds))))
        steps.extend(rounds[-1].step_ms)
    peak = peak_rss_mib()
    check_rounds(served, rounds, seed, outcome, inject_fault)
    # Medians over rounds, so a few slow seconds on a shared machine
    # move a run's figures less; p90 pools every step of the run.
    outcome.put("tokens_per_s", median([generated([r]) / r.wall_s for r in rounds]))
    outcome.put("step_ms_p50", median([median(r.step_ms) for r in rounds]))
    outcome.put("step_ms_p90", percentile(steps, 90))
    outcome.put("request_s_p50", median([
        median([x.queue_wait_s + x.decode_s for x in r.results]) for r in rounds]))
    outcome.put("setup_s", median(setups))
    outcome.put("peak_rss_mib", peak)
    print(f"{len(rounds)} rounds, {sum(len(r.trace) for r in rounds)} requests, "
          f"{generated(rounds)} tokens, {len(steps)} busy steps in "
          f"{sum(r.wall_s for r in rounds):.2f} s")


def run_traced(served: Served, trace0: list[Request], seed: int, seconds: float,
               inject_fault: bool, outcome: Outcome, artifacts: dict) -> None:
    """Per-layer numbers from round 0 with spans on, beside untraced replays."""
    untraced: list[Round] = []
    traced_walls: list[float] = []
    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        untraced.append(serve_round(served, trace0))
        rnd, recorder, prefix_peak, kv_bytes = traced_round(served, trace0)
        traced_walls.append(recorder.spans[0].duration)
        if first is None:
            first = (rnd, recorder, prefix_peak, kv_bytes)
        check_repeat(untraced[0], rnd, outcome)
        check_repeat(untraced[0], untraced[-1], outcome)
    rnd, recorder, prefix_peak, kv_bytes = first
    wall, ledger = layer_metrics(outcome, recorder, rnd, served, prefix_peak, kv_bytes)
    own = recorder.self_times()
    covered = sum(own[1:])
    share = covered / wall
    print(f"self times cover {share:.2%} of the traced replay wall time")
    if not 0.95 <= share <= 1.0 + 1e-9:
        outcome.fail(f"layer self times cover {share:.2%} of wall time")
    untraced_wall = median([r.wall_s for r in untraced])
    outcome.put("trace.overhead", median(traced_walls) / untraced_wall)
    reference = [serve_round(served, trace0, backend="reference").wall_s
                 for _ in range(REFERENCE_REPEATS)]
    outcome.put("engine.efficiency_vs_reference",
                median(reference) / untraced_wall)
    check_rounds(served, untraced[:1], seed, outcome, inject_fault)
    artifacts["recorder"] = recorder
    artifacts["ledger"] = ledger
