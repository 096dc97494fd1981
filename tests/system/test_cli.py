"""Command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "oltp"
        assert args.model == "TSO"
        assert args.protocol == "directory"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_choices(self):
        args = build_parser().parse_args(
            ["inject", "--fault", "lsq-wrong-value", "--at", "100"]
        )
        assert args.fault == "lsq-wrong-value"
        assert args.at == 100


class TestCommands:
    def test_run_clean(self, capsys):
        rc = main(
            ["run", "--workload", "jbb", "--nodes", "2", "--ops", "50"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations: 0" in out

    def test_run_unprotected(self, capsys):
        rc = main(
            ["run", "--unprotected", "--workload", "jbb", "--nodes", "2", "--ops", "40"]
        )
        assert rc == 0

    def test_inject_detects(self, capsys):
        rc = main(
            [
                "inject",
                "--fault",
                "lsq-wrong-value",
                "--at",
                "2000",
                "--nodes",
                "2",
                "--ops",
                "120",
            ]
        )
        out = capsys.readouterr().out
        assert "DETECTED" in out or "not detected" in out


class TestObservedRun:
    ARGS = ["run", "--workload", "oltp", "--nodes", "4", "--ops", "60"]

    def test_obs_prints_host_seconds(self, capsys, monkeypatch):
        # ``--obs`` sets REPRO_OBS itself; registering it here restores it.
        monkeypatch.setenv("REPRO_OBS", "0")
        assert main(self.ARGS + ["--obs"]) == 0
        lines = capsys.readouterr().out.splitlines()
        host = [line for line in lines if line.startswith("run:")]
        assert len(host) == 1
        assert re.fullmatch(r"run:\s+\d+\.\d{4} s host", host[0])

    def test_plain_run_prints_no_host_seconds(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert main(self.ARGS) == 0
        assert "s host" not in capsys.readouterr().out

    def test_obs_dir_writes_artifacts(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS", "0")
        out_dir = tmp_path / "obs"
        assert main(self.ARGS + ["--obs", "--obs-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "manifest.json",
            "metrics.prom",
            "snapshot.json",
        ]
        snapshot = json.loads((out_dir / "snapshot.json").read_text())
        assert sorted(snapshot) == ["counters", "gauges", "histograms", "layers"]
        assert sorted(snapshot["layers"]) == [
            "caches",
            "dvmc",
            "networks",
            "scheduler",
            "wakeups",
        ]
        prom = (out_dir / "metrics.prom").read_text()
        assert "repro_run_events_processed_total" in prom

    def test_traced_run_passes_the_oracle(self, capsys, monkeypatch, tmp_path):
        trace = tmp_path / "t.jsonl"
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.setenv("REPRO_OBS_TRACE", str(trace))
        assert main(self.ARGS + ["--model", "TSO"]) == 0
        monkeypatch.delenv("REPRO_OBS_TRACE")
        capsys.readouterr()
        assert main(["oracle", str(trace), "--model", "TSO"]) == 0
        assert capsys.readouterr().out.startswith("ADMISSIBLE under TSO")
