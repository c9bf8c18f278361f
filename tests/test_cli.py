"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.obs.tracer import validate_chrome_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_scale(self):
        args = build_parser().parse_args(["run", "table2", "--scale", "paper"])
        assert args.experiment == "table2" and args.scale == "paper"

    def test_run_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--scale", "huge"])

    def test_compare_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "postgres"])

    def test_profile_parses_with_defaults(self):
        args = build_parser().parse_args(["profile", "memcached"])
        assert args.command == "profile"
        assert args.requests == 80 and args.abtb == 256 and args.top == 10
        assert args.trace_out is None and args.sample_every == 2000

    def test_profile_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "postgres"])

    def test_obs_flags_accepted_everywhere(self):
        for sub in (["run", "hwcost"], ["compare", "memcached"],
                    ["chaos"], ["campaign"], ["profile", "apache"]):
            args = build_parser().parse_args(
                sub + ["--trace-out", "t.json", "--metrics-out", "m.prom"]
            )
            assert args.trace_out == "t.json"
            assert args.metrics_out == "m.prom"
        # Only the commands that run a sampler take --sample-every.
        for sub in (["compare", "memcached"], ["chaos"], ["campaign"],
                    ["profile", "apache"]):
            args = build_parser().parse_args(sub + ["--sample-every", "500"])
            assert args.sample_every == 500
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "hwcost", "--sample-every", "500"])

    def test_sample_every_rejects_non_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "memcached", "--sample-every", "lots"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("table2", "fig5", "memsave", "ablation"):
            assert eid in out

    def test_run_hwcost(self, capsys):
        assert main(["run", "hwcost"]) == 0
        out = capsys.readouterr().out
        assert "ABTB storage" in out
        assert "[PASS]" in out

    def test_compare_memcached(self, capsys):
        assert main(["compare", "memcached", "--requests", "30"]) == 0
        out = capsys.readouterr().out
        assert "skip rate" in out and "speedup" in out

    def test_run_all_parses(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table2" in payload
        assert {"paper_ref", "description"} <= set(payload["table2"])

    def test_profile_memcached(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "memcached", "--requests", "40", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Hot trampolines (top 5 call sites)" in out
        assert "attributed to named call sites" in out
        # Default trace path derives from the workload name.
        trace = tmp_path / "memcached.profile.trace.json"
        assert trace.exists()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []

    def test_compare_writes_observability_outputs(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main([
            "compare", "memcached", "--requests", "20",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--sample-every", "4000",
        ]) == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        names = {json.loads(line)["name"] for line in metrics.read_text().splitlines()}
        assert any(n.startswith("enhanced.") and n.endswith("_pki") for n in names)

    def test_obs_exports_create_their_directories(self, capsys, tmp_path):
        out = tmp_path / "new"
        assert main([
            "profile", "memcached", "--requests", "10",
            "--metrics-out", str(out / "m" / "metrics.jsonl"),
            "--trace-out", str(out / "t" / "trace.json"),
            "--profile-out", str(out / "p" / "profile.json"),
        ]) == 0
        assert json.loads((out / "p" / "profile.json").read_text())["sites"]
        trace = json.loads((out / "t" / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert (out / "m" / "metrics.jsonl").read_text()
        assert sorted(p.name for p in out.rglob("*") if p.is_file()) == [
            "metrics.jsonl", "profile.json", "trace.json",
        ]

    def test_negative_sample_interval_is_an_error(self, capsys):
        assert main(["compare", "memcached", "--sample-every", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sample_every" in err

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["run", "nonesuch"]) == 1
        assert "unknown experiment" in capsys.readouterr().err
