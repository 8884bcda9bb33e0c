"""Multi-process data-parallel serving: router, GEMM histograms, procutil.

Covers the `repro.serve.shard` layer and its supports:

* :mod:`repro.core.procutil` — the shared start-method pick and worker
  spawn used by the harness executor and the router;
* the plan-histogram snapshot, merge and difference — the serializable
  GEMM ledger workers ship back to the router;
* :class:`Router` — least-outstanding-tokens dispatch, fleet-merged
  reports, and bit-identical results vs single-process serving;
* concurrent checkpoint readers — N processes loading the same
  directory simultaneously see bit-identical models.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.procutil import (
    bootstrap_pythonpath,
    package_root,
    pool_context,
    preferred_start_method,
    spawn_worker,
)
from repro.engine import (
    diff_plan_histograms,
    merge_plan_histograms,
    plan_dims,
    plan_gemm,
    plan_histograms,
)
from repro.errors import ConfigError
from repro.llm.transformer import TransformerConfig, init_weights
from repro.model import parse_policy, quantize_model
from repro.model.checkpoint import load_model, save_model
from repro.model.session import Telemetry
from repro.quant.groups import GroupSpec
from repro.quant.rtn import quantize_rtn
from repro.serve import (
    BatchedSession,
    Replica,
    Request,
    Router,
    Scheduler,
    ServeConfig,
)

FOUR_SLOTS = ServeConfig(max_batch=4)


@pytest.fixture(scope="module")
def setup():
    config = TransformerConfig(
        vocab=64, d_model=32, n_heads=2, n_layers=2, d_ffn=64, max_seq=64
    )
    weights = init_weights(config, seed=1)
    qmodel = quantize_model(
        weights, parse_policy("*=int4@g[8,4]"), config=config
    )
    return config, weights, qmodel


@pytest.fixture(scope="module")
def checkpoint(setup, tmp_path_factory):
    _, _, qmodel = setup
    path = tmp_path_factory.mktemp("ckpt") / "model"
    save_model(path, qmodel)
    return path


def make_matrix(k=32, n=24, group=None, bits=4, seed=0):
    rng = np.random.default_rng(seed)
    group = group if group is not None else GroupSpec(8, 4)
    return quantize_rtn(rng.standard_normal((k, n)), bits, group)


def _echo_worker(conn, offset):
    """Module-level so spawn-mode children can import it."""
    while True:
        value = conn.recv()
        if value is None:
            break
        conn.send(value + offset)
    conn.close()


class TestProcutil:
    def test_preferred_method_is_available(self):
        import multiprocessing

        method = preferred_start_method()
        assert method in ("fork", "spawn")
        assert method in multiprocessing.get_all_start_methods()

    def test_bootstrap_pythonpath_pins_package_root(self):
        assert str(package_root()) in bootstrap_pythonpath().split(":")

    def test_spawn_worker_round_trip(self):
        proc, conn = spawn_worker(_echo_worker, (10,))
        try:
            conn.send(32)
            assert conn.recv() == 42
        finally:
            conn.send(None)
            proc.join(timeout=5.0)
        assert proc.exitcode == 0

    def test_pool_context_runs_jobs(self):
        with pool_context().Pool(2) as pool:
            assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]


class TestPlanHistograms:
    def test_snapshot_and_merge(self):
        qm = make_matrix(seed=3)
        plan = plan_gemm(qm)
        plan.execute(np.zeros((2, qm.k_dim)), phase="decode")
        plan.execute(np.zeros((2, qm.k_dim)), phase="decode")
        plan.execute(np.zeros((5, qm.k_dim)), phase="prefill")
        snap = plan_histograms({"site": plan})
        assert snap["site"]["rows"] == {2: 2, 5: 1}
        assert snap["site"]["phases"]["decode"] == {2: 2}
        merged = merge_plan_histograms({}, snap)
        merge_plan_histograms(merged, snap)
        assert merged["site"]["rows"] == {2: 4, 5: 2}
        assert merged["site"]["phases"]["prefill"] == {5: 2}

    def test_diff_leaves_the_work_since_a_snapshot(self):
        qm = make_matrix(seed=4)
        plan = plan_gemm(qm)
        plan.execute(np.zeros((3, qm.k_dim)), phase="prefill")
        before = plan_histograms({"site": plan})
        plan.execute(np.zeros((1, qm.k_dim)), phase="decode")
        plan.execute(np.zeros((1, qm.k_dim)))
        diff = diff_plan_histograms(plan_histograms({"site": plan}), before)
        assert diff == {"site": {"rows": {1: 2}, "phases": {"decode": {1: 1}}}}
        unchanged = plan_histograms({"site": plan})
        assert diff_plan_histograms(unchanged, unchanged) == {
            "site": {"rows": {}, "phases": {}}
        }


def trace(config, count=6, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        prompt = rng.integers(0, config.vocab, size=int(rng.integers(4, 12)))
        out.append(
            Request(
                prompt=prompt,
                max_new=int(rng.integers(4, 9)),
                top_k=4 if i % 2 else None,
                seed=50 + i,
                eos_token=9 if i % 3 == 0 else None,
            )
        )
    return out


class TestRouter:
    def test_dispatch_balances_outstanding_tokens(self, checkpoint, setup):
        config, _, _ = setup
        requests = trace(config, count=8)
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            assignment = router.dispatch(requests)
        assert sorted(i for ranks in assignment for i in ranks) == list(range(8))
        # Replaying the greedy rule reproduces the assignment exactly.
        outstanding = [0, 0]
        for index, request in enumerate(requests):
            rank = min((0, 1), key=lambda r: (outstanding[r], r))
            assert index in assignment[rank]
            outstanding[rank] += request.prompt.shape[0] + request.max_new
        assert abs(outstanding[0] - outstanding[1]) < max(outstanding)

    def test_fleet_matches_single_process(self, checkpoint, setup):
        config, _, qmodel = setup
        requests = trace(config, count=6)
        single = Scheduler(
            BatchedSession(qmodel, max_slots=4), max_batch=4
        ).run(list(requests))
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            fleet = router.serve(list(requests))
        assert fleet.stats.completed == len(requests)
        for expect, got in zip(single, fleet.results, strict=False):
            assert expect.request_id == got.request_id
            assert np.array_equal(expect.tokens, got.tokens)
            assert expect.finish_reason == got.finish_reason

    def test_fleet_report_merges_telemetry(self, checkpoint, setup):
        config, _, qmodel = setup
        requests = trace(config, count=6)
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            fleet = router.serve(list(requests))
        assert len(fleet.workers) == 2
        assert sum(len(w.results) for w in fleet.workers) == len(requests)
        reference = BatchedSession(qmodel, max_slots=4)
        Scheduler(reference, max_batch=4).run(list(requests))
        merged = Telemetry(fleet.merged_plan_rows(), fleet.plan_dims)
        expected = reference.telemetry
        assert set(merged.stats) == set(expected.stats)
        # Identical token work fleet-wide: per-site row totals match the
        # single-process run exactly, as do the fixed per-site dims.
        for name, stat in expected.stats.items():
            assert merged.stats[name].rows == stat.rows, name
        assert fleet.plan_dims == plan_dims(reference.decoder.plans)
        wait = fleet.queue_wait()
        assert set(wait) == {"p50", "p95"}
        assert fleet.stats.aggregate_tokens_per_s > 0
        assert 0 < fleet.stats.mean_occupancy <= 1

    def test_serve_counts_each_call_once(self, checkpoint, setup):
        # Plans live for the worker's lifetime; each serve() must report
        # only its own executions, equal to one process serving that
        # trace alone.
        config, _, _ = setup
        first_trace = trace(config, count=4, seed=7)
        second_trace = trace(config, count=4, seed=8)
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            router.serve(list(first_trace))
            second = router.serve(list(second_trace))
        # A separately loaded model: its plans start from empty histograms.
        alone = BatchedSession(load_model(checkpoint), max_slots=4)
        Scheduler(alone, max_batch=4).run(list(second_trace))
        fleet = Telemetry(second.merged_plan_rows(), second.plan_dims)
        expected = alone.telemetry.stats
        assert set(fleet.stats) == set(expected)
        for name, stat in expected.items():
            assert fleet.stats[name].rows == stat.rows, name

    def test_prefix_cache_counts_each_call_once(self, checkpoint, setup):
        # The radix cache outlives a serve() call; each report must carry
        # only that call's lookups, one per request.
        config, _, _ = setup
        first_trace = trace(config, count=4, seed=7)
        second_trace = trace(config, count=5, seed=8)
        cached = ServeConfig(max_batch=4, prefix_cache_bytes=1 << 24)
        with Router(checkpoint, workers=2, config=cached) as router:
            first = router.serve(list(first_trace))
            second = router.serve(list(second_trace))
        assert first.prefix_cache.lookups == len(first_trace)
        assert second.prefix_cache.lookups == len(second_trace)
        assert second.prefix_cache.max_bytes == 2 << 24
        assert sum(w.prefix_cache.lookups for w in second.workers) == len(
            second_trace
        )

    def test_serve_twice_reuses_the_fleet(self, checkpoint, setup):
        config, _, _ = setup
        requests = trace(config, count=4)
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            first = router.serve(list(requests))
            second = router.serve(list(requests))
        for a, b in zip(first.results, second.results, strict=False):
            assert np.array_equal(a.tokens, b.tokens)

    def test_fleet_records_rejections(self, checkpoint, setup):
        # A request too long for the context window is rejected under its
        # global trace index, and the fleet serves the rest, exactly as
        # one in-process replica does.
        config, _, qmodel = setup
        requests = trace(config, count=5)
        requests[1] = dataclasses.replace(
            requests[1], prompt=np.zeros(config.max_seq - 4, dtype=np.int64)
        )
        solo = Replica(qmodel, FOUR_SLOTS).serve(list(requests))
        with Router(checkpoint, workers=2, config=FOUR_SLOTS) as router:
            fleet = router.serve(list(requests))
        assert [index for index, _ in fleet.rejected] == [1]
        assert "exceeds the model context window" in fleet.rejected[0][1]
        assert fleet.rejected == solo.rejected
        assert sum(len(w.rejected) for w in fleet.workers) == 1
        assert [r.request_id for r in fleet.results] == [0, 2, 3, 4]
        for expect, got in zip(solo.results, fleet.results, strict=True):
            assert expect.request_id == got.request_id
            assert np.array_equal(expect.tokens, got.tokens)

    def test_bad_worker_count_rejected(self, checkpoint):
        with pytest.raises(ConfigError):
            Router(checkpoint, workers=0)

    def test_closed_router_rejects_serve(self, checkpoint, setup):
        config, _, _ = setup
        router = Router(checkpoint, workers=2, config=FOUR_SLOTS)
        router.close()
        with pytest.raises(RuntimeError):
            router.serve(trace(config, count=2))


class TestReplica:
    def test_config_rejects_bad_drafts(self):
        with pytest.raises(ConfigError, match="spec_k >= 1"):
            ServeConfig(draft="bigram", spec_k=0)
        with pytest.raises(ConfigError, match="draft must be"):
            ServeConfig(draft="trigram")

    def test_serve_reports_its_own_run(self, setup):
        # A warm replica's second call reports exactly the work a fresh
        # replica does for that trace: set-up and earlier calls never count.
        config, _, qmodel = setup
        serve = ServeConfig(max_batch=4, prefix_cache_bytes=1 << 24, draft="bigram")
        warm = Replica(qmodel, serve)
        warm.serve(trace(config, count=4, seed=7))
        second = warm.serve(trace(config, count=4, seed=8))
        fresh = Replica(qmodel, serve).serve(trace(config, count=4, seed=8))
        assert second.assigned == (0, 1, 2, 3)
        assert second.prefix_cache.lookups == 4
        assert second.stats.completed == fresh.stats.completed == 4
        for a, b in zip(second.results, fresh.results, strict=True):
            assert np.array_equal(a.tokens, b.tokens)
        assert fresh.stats.verify_steps > 0

    def test_serve_after_a_failed_serve(self, setup, monkeypatch):
        # A serve() that raises mid-run frees the replica's slots, so the
        # next call serves every request in full.
        config, _, qmodel = setup
        replica = Replica(qmodel, ServeConfig(max_batch=2))
        prefill_step = BatchedSession.prefill_step
        failures = []

        def fails_once(self, slots, chunks):
            if not failures:
                failures.append(list(slots))
                raise RuntimeError("injected prefill failure")
            return prefill_step(self, slots, chunks)

        monkeypatch.setattr(BatchedSession, "prefill_step", fails_once)
        requests = trace(config, count=4, seed=9)
        with pytest.raises(RuntimeError, match="injected"):
            replica.serve(requests)
        assert replica.session.free_slots == 2
        report = replica.serve(requests)
        fresh = Replica(qmodel, ServeConfig(max_batch=2)).serve(requests)
        assert report.stats.completed == len(requests)
        for a, b in zip(report.results, fresh.results, strict=True):
            assert np.array_equal(a.tokens, b.tokens)


def _concurrent_reader(conn, barrier, path):
    """Load the checkpoint in lock-step with sibling readers."""
    from repro.model.checkpoint import load_model

    try:
        barrier.wait(timeout=30)
        model = load_model(path)
        digest = hashlib.sha256()
        for name in sorted(model.matrices()):
            qm = model.matrices()[name]
            digest.update(qm.codes.tobytes())
            digest.update(qm.scales.tobytes())
            digest.update(qm.zeros.tobytes())
        conn.send(("ok", digest.hexdigest()))
    except Exception as exc:
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


class TestConcurrentCheckpointReaders:
    def test_simultaneous_loads_are_bit_identical(self, checkpoint, setup):
        """N processes load the same directory at the same instant.

        The barrier releases every reader at once, so manifest parsing
        and npz reads genuinely overlap; all digests must equal the
        parent's own.
        """
        _, _, qmodel = setup
        readers = 4
        barrier = pool_context().Barrier(readers)
        workers = [
            spawn_worker(_concurrent_reader, (barrier, str(checkpoint)))
            for _ in range(readers)
        ]
        digests = []
        for proc, conn in workers:
            kind, payload = conn.recv()
            assert kind == "ok", payload
            digests.append(payload)
            proc.join(timeout=10.0)
        expect = hashlib.sha256()
        for name in sorted(qmodel.matrices()):
            qm = qmodel.matrices()[name]
            expect.update(qm.codes.tobytes())
            expect.update(qm.scales.tobytes())
            expect.update(qm.zeros.tobytes())
        assert digests == [expect.hexdigest()] * readers
