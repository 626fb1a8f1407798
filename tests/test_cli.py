"""Unit tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_gear_set, main
from repro.core.gears import ContinuousGearSet, DiscreteGearSet


class TestBuildGearSet:
    def test_uniform(self):
        gs = build_gear_set("uniform:6")
        assert isinstance(gs, DiscreteGearSet)
        assert len(gs) == 6

    def test_exponential(self):
        gs = build_gear_set("exponential:5")
        assert len(gs) == 5

    def test_unlimited_and_limited(self):
        assert isinstance(build_gear_set("unlimited"), ContinuousGearSet)
        assert build_gear_set("limited").fmin == pytest.approx(0.8)

    def test_overclocked(self):
        gs = build_gear_set("limited+oc10")
        assert gs.fmax == pytest.approx(2.53)

    def test_avg_discrete(self):
        gs = build_gear_set("avg-discrete")
        assert gs.fmax == pytest.approx(2.6)

    def test_case_insensitive(self):
        assert len(build_gear_set("UNIFORM:4")) == 4

    def test_bad_spec_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            build_gear_set("turbo:9000")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table3" in out

    def test_run_table_gears(self, capsys):
        assert main(["run", "table_gears"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out or "uniform-6" in out

    def test_run_with_subset_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "t3.csv"
        code = main(
            ["run", "table3", "--apps", "CG-32,IS-32", "--iterations", "2",
             "--csv", str(csv_path)]
        )
        assert code == 0
        text = csv_path.read_text()
        assert "CG-32" in text and "IS-32" in text
        assert "BT-MZ-32" not in text

    def test_run_fig3_with_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "fig3.svg"
        code = main(
            ["run", "fig3", "--apps", "CG-32,IS-32", "--iterations", "2",
             "--svg", str(svg_path)]
        )
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    def test_balance(self, capsys):
        code = main(["balance", "IS-16", "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IS-16" in out and "normalized_energy" in out

    def test_balance_avg_with_gears(self, capsys):
        code = main(
            ["balance", "CG-16", "--algorithm", "avg",
             "--gears", "avg-discrete", "--iterations", "2"]
        )
        assert code == 0
        assert "AVG" in capsys.readouterr().out

    def test_trace_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "record", "CG-8", "-o", str(out_path), "--iterations", "2"]
        )
        assert code == 0
        from repro.traces.jsonio import read_trace

        trace = read_trace(out_path)
        assert trace.nproc == 8

    def test_timeline(self, capsys):
        code = main(["timeline", "BT-MZ-16", "--iterations", "2", "--width", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#" in out and "r0" in out

    def test_compare(self, capsys):
        code = main(["compare", "PEPC-16", "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAX (paper, static)" in out
        assert "per-phase MAX" in out
        assert "Jitter" in out

    def test_platform_dump_and_reuse(self, capsys, tmp_path):
        path = tmp_path / "plat.json"
        assert main(["platform", "-o", str(path)]) == 0
        assert main(
            ["run", "table3", "--apps", "CG-16", "--iterations", "2",
             "--platform", str(path)]
        ) == 0
        assert "CG-16" in capsys.readouterr().out

    def test_reproduce_all(self, capsys, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["reproduce-all", "--out", str(out), "--iterations", "2",
             "--apps", "CG-16,IS-16", "--experiments", "table_gears,fig3"]
        )
        assert code == 0
        assert (out / "REPORT.md").exists()
        assert (out / "manifest.json").exists()

    def test_reproduce_all_parallel_with_cache(self, capsys, tmp_path):
        import json

        out = tmp_path / "res"
        argv = ["reproduce-all", "--out", str(out), "--iterations", "2",
                "--apps", "CG-16,IS-16", "--experiments", "table_gears,fig3",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["jobs"] == 2
        assert manifest["errors"] == 0
        assert manifest["cache"]["enabled"] is True
        assert manifest["cache"]["misses"] > 0

    def test_reproduce_all_no_cache(self, capsys, tmp_path):
        import json

        out = tmp_path / "res"
        assert main(
            ["reproduce-all", "--out", str(out), "--iterations", "2",
             "--apps", "CG-16", "--experiments", "table_gears", "--no-cache"]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cache"] == {
            "enabled": False, "dir": None, "hits": 0, "misses": 0,
            "corrupt": 0, "peer_hits": 0, "peer_misses": 0,
            "peer_corrupt": 0,
        }

    def test_info_on_written_trace(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["trace", "record", "MG-8", "-o", str(path), "--iterations", "2"])
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "structurally valid" in out
        assert "load balance" in out

    def test_run_markdown_output(self, capsys):
        assert main(["run", "table_gears", "--md"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("| set |")

    def test_unknown_experiment_errors(self):
        with pytest.raises(ValueError):
            main(["run", "fig42"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestSaveAssignment:
    def test_balance_writes_assignment_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "assignment.json"
        code = main(
            ["balance", "BT-MZ-16", "--iterations", "2",
             "--save-assignment", str(path)]
        )
        assert code == 0
        from repro.core.algorithms import FrequencyAssignment

        data = json.loads(path.read_text())
        assignment = FrequencyAssignment.from_dict(data)
        assert assignment.nproc == 16
        assert assignment.algorithm == "MAX"
