"""Tests for the CLI and the report renderer."""

import json

import pytest

from repro.cli import main
from repro.core.report import render_table


class TestRenderTable:
    def test_contains_title_and_headers(self):
        text = render_table("t", ["a", "b"], [[1, 2.5]])
        assert text.splitlines()[0] == "t"
        assert "a" in text and "b" in text

    def test_float_formatting(self):
        text = render_table("t", ["x"], [[0.123456]])
        assert "0.123" in text

    def test_scientific_for_extremes(self):
        text = render_table("t", ["x"], [[123456.0]])
        assert "e+" in text

    def test_zero_rendered_plainly(self):
        assert "0" in render_table("t", ["x"], [[0.0]])

    def test_column_alignment(self):
        text = render_table("t", ["name", "v"], [["a", 1], ["longer", 2]])
        lines = text.splitlines()
        assert lines[-1].startswith("longer")

    def test_empty_rows_ok(self):
        text = render_table("t", ["a"], [])
        assert "t" in text


class TestCli:
    @pytest.mark.parametrize("name", ["fig7a", "fig7b", "fig9", "fig12b", "table1"])
    def test_runs_fast_experiments(self, name, capsys):
        assert main(["run", name]) == 0
        out = capsys.readouterr().out
        assert name.split("_")[0] in out or name in out

    def test_run_table1_prints_table_one(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("table1: configuration of PacQ and baselines")
        assert "Parallel FP-INT-16 DP-4" in out
        assert "4 parallel FP-INT-16 MUL, 8 FP16 adders" in out
        assert main(["run", "table1", "--backend", "batched"]) == 1
        assert "table1 takes no parameters" in capsys.readouterr().err
        assert main(["run", "table1", "--format", "json"]) == 1
        assert "prints text only" in capsys.readouterr().err

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fig7a_prints_paper_column(self, capsys):
        main(["run", "fig7a"])
        out = capsys.readouterr().out
        assert "paper" in out
        assert "0.368" in out

    def test_backends_listing(self, capsys):
        # No listing command: an invalid --backend names every backend.
        with pytest.raises(SystemExit):
            main(["run", "table2", "--backend", "fast"])
        err = capsys.readouterr().err
        for name in ("reference", "batched", "bitexact-scalar"):
            assert repr(name) in err

    def test_backend_flag_accepted(self, capsys):
        argv = ["run", "table2", "--backend", "reference", "--set", "vocab=64",
                "--set", "d_model=256", "--set", "corpus_len=64",
                "--set", "spec=g128", "--format", "json"]
        assert main(argv) == 0
        [record] = json.loads(capsys.readouterr().out)
        assert record["params"]["backend"] == "reference"

    def test_backend_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--backend", "warp-drive"])


class TestModelCli:
    ARGS = [
        "--vocab", "64", "--d-model", "32", "--n-heads", "2",
        "--n-layers", "2", "--d-ffn", "64",
    ]

    def test_quantize_generate_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["quantize", "--out", ckpt,
             "--policy", "layer*.w_gate=int2@g[8,4];*=int4@g[16,4]"]
            + self.ARGS
        ) == 0
        out = capsys.readouterr().out
        assert "rtn2@g[8,4]" in out and "wrote checkpoint" in out
        assert (tmp_path / "ckpt" / "manifest.json").is_file()

        assert main(
            ["generate", "--model", ckpt, "--prompt", "0,1,2",
             "--max-new", "4", "--telemetry"]
        ) == 0
        out = capsys.readouterr().out
        assert "generated (greedy" in out
        assert "layer0.wq" in out  # telemetry table

    def test_generate_seeded_sampling_reproducible(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        main(["quantize", "--out", ckpt] + self.ARGS)
        capsys.readouterr()
        argv = ["generate", "--model", ckpt, "--prompt", "3",
                "--max-new", "5", "--top-k", "4", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        line = [ln for ln in first.splitlines() if ln.startswith("generated")]
        assert line and line == [
            ln for ln in second.splitlines() if ln.startswith("generated")
        ]

    def test_generate_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["generate", "--model", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_quantize_bad_policy_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["quantize", "--out", str(tmp_path / "x"), "--policy", "zzz9"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_table2_policy_axis(self, capsys):
        assert main(
            ["run", "table2", "--set", "vocab=64", "--set", "d_model=64",
             "--set", "corpus_len=128", "--set", "policy=rtn2@g[16,4]"]
        ) == 0
        out = capsys.readouterr().out
        assert "rtn2@g[16,4]" in out and "fp16" in out


class TestRenderBars:
    def test_bars_scale_to_max(self):
        from repro.core.report import render_bars

        text = render_bars("t", ["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[2].count("#") == 5
        assert lines[3].count("#") == 10

    def test_rejects_mismatched_lengths(self):
        from repro.core.report import render_bars

        with pytest.raises(ValueError):
            render_bars("t", ["a"], [1.0, 2.0])

    def test_rejects_negative_values(self):
        from repro.core.report import render_bars

        with pytest.raises(ValueError):
            render_bars("t", ["a"], [-1.0])

    def test_all_zero_values(self):
        from repro.core.report import render_bars

        text = render_bars("t", ["a"], [0.0])
        assert "#" not in text
