"""Tests for the co-design loop: capture, replay, artifacts, CLI.

The determinism claims docs/codesign.md makes are the contract under
test: a capture JSON round-trips exactly, the same capture replays to
equal costs (and byte-identical CSV) every time, serial and parallel
harness sweeps render the same bytes, and the ``--check`` staleness
gate actually fires on a stale artifact.
"""

import json

import pytest

from repro.cli import main
from repro.codesign import (
    ArchPoint,
    SiteCapture,
    WorkloadCapture,
    capture_from_histograms,
    load_capture,
    render_codesign_csv,
    render_codesign_section,
    replay_capture,
    splice_section,
)
from repro.codesign.capture import WALL_CLOCK_FIELDS, record_drift
from repro.codesign.report import SECTION_BEGIN, SECTION_END
from repro.core.experiments import get_experiment
from repro.errors import ConfigError

SERVE_ARGS = [
    "--requests", "4", "--max-batch", "4", "--seed", "0",
    "--vocab", "64", "--d-model", "32", "--n-heads", "2",
    "--n-layers", "2", "--d-ffn", "64", "--max-seq", "96",
    "--prompt-len", "4,20", "--max-new", "2,6",
    "--shared-prefix", "12", "--shared-fraction", "0.75",
]


@pytest.fixture(scope="module")
def capture_dir(tmp_path_factory):
    """Two serve-sim --codesign records over the same small trace."""
    root = tmp_path_factory.mktemp("captures")
    assert main(
        ["serve-sim", *SERVE_ARGS, "--codesign", "fifo",
         "--json", str(root / "fifo.json")]
    ) == 0
    assert main(
        ["serve-sim", *SERVE_ARGS, "--prefix-cache-mb", "16",
         "--prefill-chunk", "8", "--codesign", "prefix-cache",
         "--json", str(root / "prefix-cache.json")]
    ) == 0
    return root


def _toy_capture() -> WorkloadCapture:
    return WorkloadCapture(
        policy="toy",
        served_tokens=20,
        prompt_tokens=26,
        requests=2,
        sites=(
            SiteCapture(
                name="layer0.wq", n=32, k=32, weight_bits=4,
                rows=((1, 20), (13, 2)),
                phases=(
                    ("decode", ((1, 20),)),
                    ("prefill", ((13, 2),)),
                ),
            ),
            SiteCapture(
                name="lm_head", n=64, k=32, weight_bits=16,
                rows=((1, 20), (13, 2)),
                phases=(("decode", ((1, 20),)),),
            ),
        ),
    )


class TestCapture:
    def test_json_round_trip_exact(self):
        cap = _toy_capture()
        again = WorkloadCapture.from_dict(json.loads(json.dumps(cap.to_dict())))
        assert again == cap

    def test_phase_count_exceeding_total_rejected(self):
        with pytest.raises(ConfigError, match="exceeds the total"):
            SiteCapture(
                name="s", n=8, k=8, weight_bits=4,
                rows=((1, 3),),
                phases=(("decode", ((1, 4),)),),
            )

    def test_untagged_rows_is_the_remainder(self):
        site = SiteCapture(
            name="s", n=8, k=8, weight_bits=4,
            rows=((1, 5), (4, 2)),
            phases=(("decode", ((1, 3),)),),
        )
        assert site.untagged_rows() == ((1, 2), (4, 2))
        assert site.calls == 7
        assert site.total_rows == 13
        assert site.macs == 13 * 8 * 8

    def test_fully_tagged_site_has_no_untagged(self):
        cap = _toy_capture()
        assert cap.sites[0].untagged_rows() == ()
        # lm_head's prefill executions are untagged in the toy capture.
        assert "untagged" in cap.phase_names()

    def test_served_tokens_required(self):
        with pytest.raises(ConfigError, match="served no tokens"):
            WorkloadCapture(
                policy="p", served_tokens=0, prompt_tokens=0, requests=0,
                sites=(),
            )

    def test_duplicate_sites_rejected(self):
        site = _toy_capture().sites[0]
        with pytest.raises(ConfigError, match="duplicate site"):
            WorkloadCapture(
                policy="p", served_tokens=1, prompt_tokens=0, requests=0,
                sites=(site, site),
            )

    def test_capture_from_histograms(self):
        hists = {
            "a": {"rows": {1: 4, 3: 1}, "phases": {"decode": {1: 4}}},
            "empty": {"rows": {}, "phases": {}},
        }
        cap = capture_from_histograms(
            hists,
            {"a": {"n": 16, "k": 8, "bits": 4, "storage_bits": 704}},
            policy="fleet",
            served_tokens=4,
        )
        assert [s.name for s in cap.sites] == ["a"]
        assert cap.sites[0].rows == ((1, 4), (3, 1))
        assert cap.sites[0].weight_bits == 4

    def test_capture_from_histograms_missing_dims(self):
        with pytest.raises(ConfigError, match="no \\(n, k, bits\\)"):
            capture_from_histograms(
                {"a": {"rows": {1: 1}, "phases": {}}}, {},
                policy="fleet", served_tokens=1,
            )


class TestReplay:
    def test_phase_totals_reconcile(self):
        cost = replay_capture(_toy_capture())
        total = cost.total
        assert total.cycles == sum(p.cycles for p in cost.phases)
        assert total.macs == sum(p.macs for p in cost.phases)
        assert total.gemm_calls == sum(p.gemm_calls for p in cost.phases)
        assert cost.phase("decode").gemm_calls == 40
        assert cost.cycles_per_token == total.cycles / 20
        assert cost.pj_per_token > cost.on_chip_pj_per_token > 0

    def test_replay_is_deterministic(self):
        cap = _toy_capture()
        assert replay_capture(cap) == replay_capture(cap)

    def test_unknown_phase_raises(self):
        with pytest.raises(KeyError, match="available"):
            replay_capture(_toy_capture()).phase("verify")

    def test_empty_capture_rejected(self):
        cap = WorkloadCapture(
            policy="p", served_tokens=1, prompt_tokens=0, requests=0, sites=()
        )
        with pytest.raises(ConfigError, match="no executions"):
            replay_capture(cap)

    def test_more_sms_fewer_cycles_same_energy(self):
        cap = _toy_capture()
        one = replay_capture(cap, ArchPoint(num_sms=1))
        two = replay_capture(cap, ArchPoint(num_sms=2))
        assert two.total.cycles < one.total.cycles
        assert two.total.energy.total == pytest.approx(one.total.energy.total)

    def test_arch_point_validation(self):
        with pytest.raises(ConfigError, match="num_sms"):
            ArchPoint(num_sms=0)
        with pytest.raises(ConfigError, match="dram_beats"):
            ArchPoint(dram_beats=0.0)

    def test_flow_selection_by_precision(self):
        from repro.simt.flows import FlowKind

        point = ArchPoint(num_sms=2, adder_tree_dup=4)
        for bits in (2, 4):
            arch = point.architecture(bits)
            assert arch.flow.kind is FlowKind.PACQ
            assert arch.flow.weight_bits == bits
            assert arch.sim.machine.num_sms == 2
            assert arch.sim.core.adder_tree_dup == 4
        fp16 = point.architecture(16)
        assert fp16.flow.kind is FlowKind.STANDARD_DEQUANT
        assert fp16.sim.machine.num_sms == 2

    def test_one_octet_trace_per_architecture(self, monkeypatch):
        """The octet trace is shape-independent: the committed captures
        replayed across machine and tensor-core points trace it once, and
        only a different octet architecture traces it again."""
        import dataclasses
        import pathlib

        from repro.core.arch import pacq
        from repro.simt import sm
        from repro.simt.memoryhier import GemmShape
        from repro.simt.octet import OctetArch

        sm._octet_trace.cache_clear()
        traced = []
        simulate_octet = sm.simulate_octet

        def counting(*args):
            traced.append(args)
            return simulate_octet(*args)

        monkeypatch.setattr(sm, "simulate_octet", counting)
        captures = sorted(
            (pathlib.Path(__file__).resolve().parents[1] / "docs/data/captures")
            .glob("*.json")
        )
        assert len(captures) == 3
        points = [
            ArchPoint(),
            ArchPoint(num_sms=4),
            ArchPoint(num_sms=2, adder_tree_dup=1),
            ArchPoint(num_sms=8, dram_beats=12.0, dp_width=2),
        ]
        for path in captures:
            capture = load_capture(path)
            for point in points:
                replay_capture(capture, point)
        assert len(traced) == 1

        arch = pacq(4)
        sim = dataclasses.replace(arch.sim, octet=OctetArch(a_buffer_beats=32))
        shape = GemmShape(32, 64, 64)
        warm = sm.simulate_gemm(arch.flow, shape, sim)
        assert len(traced) == 2
        sm._octet_trace.cache_clear()
        assert sm.simulate_gemm(arch.flow, shape, sim) == warm
        assert len(traced) == 3

        trace = sm._octet_trace(arch.flow, sim.mma, sim.octet)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.a_reads = 0

    def test_batch_entry_points_match_single_shot(self):
        from repro.core.arch import pacq
        from repro.core.metrics import evaluate, evaluate_many
        from repro.core.roofline import analyze, analyze_many
        from repro.simt.memoryhier import GemmShape

        arch = pacq(4)
        shapes = [
            GemmShape(16, 32, 32), GemmShape(32, 32, 32), GemmShape(16, 32, 32)
        ]
        assert evaluate_many(arch, shapes) == [
            evaluate(arch, s) for s in shapes
        ]
        assert analyze_many(arch, shapes) == [analyze(arch, s) for s in shapes]


class TestArtifacts:
    def test_csv_is_deterministic(self):
        from repro.core.experiments import ExperimentResult
        from repro.core.report import RunRecord

        cost = replay_capture(_toy_capture())
        from repro.codesign import cost_rows

        def record():
            result = ExperimentResult("codesign", "t", tuple(cost_rows(cost)))
            return RunRecord(
                experiment="codesign", params={"num_sms": 1}, result=result
            )

        assert render_codesign_csv([record()]) == render_codesign_csv([record()])
        section = render_codesign_section([record()])
        assert section.startswith(SECTION_BEGIN)
        assert section.rstrip().endswith(SECTION_END)
        assert "| toy |" in section

    def test_splice_replaces_marked_block(self):
        doc = f"intro\n\n{SECTION_BEGIN}\nold\n{SECTION_END}\n\ntail\n"
        out = splice_section(doc, f"{SECTION_BEGIN}\nnew\n{SECTION_END}")
        assert "old" not in out and "new" in out
        assert out.startswith("intro") and out.rstrip().endswith("tail")

    def test_splice_requires_markers(self):
        with pytest.raises(ConfigError, match="markers"):
            splice_section("no markers here", "section")


class TestLoadCapture:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_capture(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_capture(bad)

    def test_serve_sim_record_without_capture_block(self, tmp_path):
        rec = tmp_path / "old.json"
        rec.write_text(json.dumps({"schema": "serve_sim/v3"}))
        with pytest.raises(ConfigError, match="--codesign"):
            load_capture(rec)

    def test_bare_capture_and_v5_record(self, tmp_path, capture_dir):
        cap = load_capture(capture_dir / "fifo.json")
        assert cap.policy == "fifo"
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(cap.to_dict()))
        assert load_capture(bare) == cap
        # Records written before the v6 schema keep replaying.
        v5 = tmp_path / "v5.json"
        v5.write_text(json.dumps(
            {"schema": "serve_sim/v5", "stats": {}, "codesign": cap.to_dict()}
        ))
        assert load_capture(v5) == cap


class TestServeSimCodesign:
    def test_v6_schema_and_block(self, capture_dir):
        record = json.loads((capture_dir / "fifo.json").read_text())
        assert record["schema"] == "serve_sim/v6"
        block = record["codesign"]
        assert block["schema"] == "codesign_capture/v1"
        assert block["policy"] == "fifo"
        assert block["served_tokens"] >= 1
        assert block["sites"]
        phases = {
            phase
            for site in block["sites"].values()
            for phase in site["phases"]
        }
        assert "decode" in phases and "prefill" in phases

    def test_codesign_requires_json(self, capsys):
        assert main(["serve-sim", *SERVE_ARGS, "--codesign", "fifo"]) == 1
        assert "--json" in capsys.readouterr().err

    def test_capture_is_reproducible(self, tmp_path, capture_dir):
        again = tmp_path / "again.json"
        assert main(
            ["serve-sim", *SERVE_ARGS, "--codesign", "fifo",
             "--json", str(again)]
        ) == 0
        first = json.loads((capture_dir / "fifo.json").read_text())
        second = json.loads(again.read_text())
        assert second["codesign"] == first["codesign"]

    def test_policies_capture_different_shape_mixes(self, capture_dir):
        fifo = load_capture(capture_dir / "fifo.json")
        cached = load_capture(capture_dir / "prefix-cache.json")
        assert fifo.served_tokens == cached.served_tokens
        assert {s.name: s.rows for s in fifo.sites} != {
            s.name: s.rows for s in cached.sites
        }


class TestCaptureLedger:
    """Captures read the one GEMM ledger: served traffic, any topology."""

    @staticmethod
    def serve(tmp_path, name, *extra):
        path = tmp_path / f"{name}.json"
        assert main(
            ["serve-sim", *SERVE_ARGS, *extra, "--codesign", name,
             "--json", str(path)]
        ) == 0
        return json.loads(path.read_text())

    @staticmethod
    def phase_rows(site, *phases):
        return sum(
            int(m) * count
            for phase in phases
            for m, count in site["phases"].get(phase, {}).items()
        )

    @staticmethod
    def phase_calls(site, *phases):
        return sum(
            count
            for phase in phases
            for count in site["phases"].get(phase, {}).values()
        )

    def test_fleet_capture_matches_single_process(self, tmp_path):
        policy = ("--policy", "rtn4@g[8,4]")
        solo = self.serve(tmp_path, "solo", *policy, "--workers", "1")
        fleet = self.serve(tmp_path, "fleet", *policy, "--workers", "2")
        solo_sites = solo["codesign"]["sites"]
        fleet_sites = fleet["codesign"]["sites"]
        assert set(solo_sites) == set(fleet_sites)
        for name, site in solo_sites.items():
            other = fleet_sites[name]
            assert site["weight_bits"] == 4, name
            for key in ("n", "k", "weight_bits"):
                assert other[key] == site[key], (name, key)
            assert sum(int(m) * c for m, c in other["rows"].items()) == sum(
                int(m) * c for m, c in site["rows"].items()
            ), name

    @pytest.mark.parametrize(
        ("extra", "counters"),
        [
            ((), {}),
            (
                ("--prefix-cache-mb", "16", "--prefill-chunk", "8"),
                {"prefill_tokens": 21, "cached_prefix_tokens": 36},
            ),
            (
                ("--draft", "bigram", "--spec-k", "4"),
                {"verify_steps": 2, "drafted_tokens": 12, "accepted_draft_tokens": 12},
            ),
            (("--workers", "2"), {}),
            (("--workers", "2", "--prefix-cache-mb", "16", "--prefill-chunk", "8"), {}),
        ],
        ids=[
            "fifo",
            "prefix-cache-chunked",
            "bigram-draft",
            "fleet",
            "fleet-prefix-cache-chunked",
        ],
    )
    def test_rows_conserve_served_tokens(self, tmp_path, extra, counters):
        record = self.serve(tmp_path, "policy", *extra)
        stats = record["stats"]
        sites = record["codesign"]["sites"]
        assert sites
        for name, site in sites.items():
            assert self.phase_rows(site, "prefill") == stats["prefill_tokens"], name
            assert self.phase_rows(site, "decode", "verify") == (
                stats["decode_tokens"]
            ), name
            # Every execution is phase-tagged: nothing else was counted.
            assert self.phase_rows(site, "prefill", "decode", "verify") == sum(
                int(m) * c for m, c in site["rows"].items()
            ), name
            # One GEMM per site per pass: a batch that falls apart into
            # per-sequence GEMMs keeps the rows but multiplies the calls.
            assert self.phase_calls(site, "prefill") == stats["prefill_steps"], name
            assert self.phase_calls(site, "verify") == stats["verify_steps"], name
            assert self.phase_calls(site, "decode", "verify") == (
                stats["decode_steps"]
            ), name
        # The fixed trace pins what the prefix cache skips and what the
        # draft gets accepted.
        assert {key: stats[key] for key in counters} == counters


class TestServeSimRecord:
    """One serializer: every worker count writes the same record shape."""

    def test_one_record_shape_for_any_worker_count(self, tmp_path):
        records = {}
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            assert main(
                ["serve-sim", *SERVE_ARGS, "--prefix-cache-mb", "16",
                 "--workers", workers, "--json", str(path)]
            ) == 0
            records[workers] = json.loads(path.read_text())
        solo, fleet = records["1"], records["2"]
        assert set(solo) == set(fleet)
        for block in ("stats", "prefix_cache"):
            assert set(solo[block]) == set(fleet[block]), block
        for block in ("results", "workers"):
            keys = {frozenset(row) for row in solo[block] + fleet[block]}
            assert len(keys) == 1, block
        assert [r["new_tokens"] for r in solo["results"]] == [
            r["new_tokens"] for r in fleet["results"]
        ]
        for key in ("completed", "total_new_tokens"):
            assert solo["stats"][key] == fleet["stats"][key], key
        prompt = [
            r["stats"]["prefill_tokens"] + r["stats"]["cached_prefix_tokens"]
            for r in (solo, fleet)
        ]
        assert prompt[0] == prompt[1] == sum(
            r["prompt_length"] for r in solo["results"]
        )


class TestGoldenStreams:
    """``record_drift``: the comparison behind ``regen_codesign.sh --check``."""

    def test_rerun_matches_except_wall_clock(self, capture_dir, tmp_path):
        path = tmp_path / "fifo.json"
        assert main(
            ["serve-sim", *SERVE_ARGS, "--codesign", "fifo", "--json", str(path)]
        ) == 0
        golden = json.loads((capture_dir / "fifo.json").read_text())
        assert record_drift(golden, json.loads(path.read_text())) == []

    def test_token_and_counter_changes_drift(self, capture_dir):
        golden = json.loads((capture_dir / "fifo.json").read_text())
        fresh = json.loads(json.dumps(golden))
        fresh["results"][1]["new_tokens"][0] += 1
        fresh["stats"]["gemm_calls"] += 1
        drift = record_drift(golden, fresh)
        assert [line.split(":")[0] for line in drift] == [
            ".results[1].new_tokens[0]", ".stats.gemm_calls",
        ]

    def test_wall_clock_fields_are_ignored_everywhere(self, capture_dir):
        golden = json.loads((capture_dir / "fifo.json").read_text())
        fresh = json.loads(json.dumps(golden))
        for block in (fresh["stats"], *fresh["results"], *fresh["workers"]):
            for key in WALL_CLOCK_FIELDS & set(block):
                block[key] = -1.0
        assert fresh != golden
        assert record_drift(golden, fresh) == []

    def test_missing_field_and_length_drift(self, capture_dir):
        golden = json.loads((capture_dir / "fifo.json").read_text())
        fresh = json.loads(json.dumps(golden))
        del fresh["stats"]["steps"]
        fresh["results"].pop()
        assert record_drift(golden, fresh) == [
            f".results: length {len(golden['results'])} != "
            f"{len(fresh['results'])}",
            ".stats.steps: present in only one record",
        ]


class TestCodesignCli:
    def _scaffold(self, tmp_path):
        out = tmp_path / "codesign.md"
        out.write_text(f"# scaffold\n\n{SECTION_BEGIN}\n{SECTION_END}\n")
        return out

    def _run(self, capture_dir, tmp_path, *extra):
        out = tmp_path / "codesign.md"
        if not out.exists():
            self._scaffold(tmp_path)
        return main(
            ["codesign",
             str(capture_dir / "fifo.json"),
             str(capture_dir / "prefix-cache.json"),
             "--grid", "num_sms=1,2",
             "--csv", str(tmp_path / "codesign.csv"),
             "--out", str(out), "--no-cache", *extra]
        )

    def test_end_to_end_and_determinism(self, capture_dir, tmp_path, capsys):
        assert self._run(capture_dir, tmp_path) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        csv_text = (tmp_path / "codesign.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0].startswith("capture,policy,num_sms")
        # 2 captures x 2 arch points, every (policy, metric) priced.
        assert "fifo,fifo,1," in csv_text and "fifo,fifo,2," in csv_text
        assert "prefix-cache,prefix-cache,1," in csv_text
        doc = (tmp_path / "codesign.md").read_text()
        assert "Per-token cost" in doc and doc.startswith("# scaffold")

        # Serial rerun and a parallel rerun render the same bytes.
        assert self._run(capture_dir, tmp_path) == 0
        assert (tmp_path / "codesign.csv").read_text() == csv_text
        assert self._run(capture_dir, tmp_path, "--jobs", "2") == 0
        assert (tmp_path / "codesign.csv").read_text() == csv_text

    def test_check_gate(self, capture_dir, tmp_path, capsys):
        assert self._run(capture_dir, tmp_path) == 0
        capsys.readouterr()
        assert self._run(capture_dir, tmp_path, "--check") == 0
        assert "current" in capsys.readouterr().out

        csv_path = tmp_path / "codesign.csv"
        csv_path.write_text(csv_path.read_text() + "tampered\n")
        assert self._run(capture_dir, tmp_path, "--check") == 1
        captured = capsys.readouterr()
        assert "STALE" in captured.err
        # The artifact was rewritten, so a second check passes.
        assert self._run(capture_dir, tmp_path, "--check") == 0

    def test_reserved_axes_rejected(self, capture_dir, tmp_path, capsys):
        assert self._run(capture_dir, tmp_path, "--grid", "capture=x") == 1
        assert "capture" in capsys.readouterr().err

    def test_out_scaffold_required(self, capture_dir, tmp_path, capsys):
        assert main(
            ["codesign", str(capture_dir / "fifo.json"),
             "--csv", str(tmp_path / "c.csv"),
             "--out", str(tmp_path / "missing.md"), "--no-cache"]
        ) == 1
        assert "splices" in capsys.readouterr().err

    def test_bad_capture_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({"schema": "serve_sim/v3"}))
        assert main(
            ["codesign", str(bad), "--csv", str(tmp_path / "c.csv"),
             "--out", str(self._scaffold(tmp_path)), "--no-cache"]
        ) == 1
        assert "--codesign" in capsys.readouterr().err


class TestRegisteredExperiment:
    def test_synthetic_self_check(self):
        result = get_experiment("codesign").run(
            policies=("fifo",), requests=3, max_new=6
        )
        labels = {row.label for row in result.rows}
        assert "fifo/total/cycles_per_token" in labels
        assert "fifo/workload/served_tokens" in labels
        for row in result.rows:
            if row.label.startswith("fifo/identity/"):
                assert row.measured == 1.0

    def test_capture_mode(self, capture_dir):
        result = get_experiment("codesign").run(
            capture=str(capture_dir / "fifo.json"), num_sms=2
        )
        labels = {row.label for row in result.rows}
        assert "fifo/total/cycles_per_token" in labels
        assert not any("identity" in label for label in labels)

    def test_unknown_synthetic_policy(self):
        with pytest.raises(ConfigError, match="unknown synthetic policy"):
            get_experiment("codesign").run(policies=("round-robin",))
