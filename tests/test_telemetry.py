"""Tests for the telemetry plane.

Covers the bucket-mean downsampler, the event count ``retire`` returns,
the Prometheus exposition format via a small parser (every family
announced with # HELP/# TYPE, help text escaped), and the dashboard
rendered from exported artifacts.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import retire
from repro.obs.dashboard import (
    downsample,
    load_snapshot_from_dir,
    render_dashboard,
    write_dashboard,
)
from repro.obs.metrics import MetricsRegistry, PerfCounterSampler
from repro.obs.profiler import TrampolineProfiler
from repro.obs.tracer import Tracer
from repro.resilience import IncidentRecorder
from repro.uarch import CPU
from repro.workloads import Workload, memcached


class TestDownsample:
    def test_under_budget_passes_through(self):
        pts = [(float(i), float(i * i)) for i in range(10)]
        assert downsample(pts, 10) == pts

    def test_keeps_exact_endpoints_and_budget(self):
        pts = [(float(i), 1.0) for i in range(1000)]
        out = downsample(pts, 50)
        assert len(out) <= 50
        assert out[0] == pts[0] and out[-1] == pts[-1]

    def test_bucket_mean(self):
        pts = [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        out = downsample(pts, 3)
        assert out[0] == pts[0] and out[-1] == pts[-1]
        assert out[1] == (1.5, 15.0)  # mean of the two interior points

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            downsample([(0.0, 0.0)] * 5, 1)


# ------------------------------------------------------- retired events


class TestProgressTracker:
    def test_retire_reports_progress_at_sync_points(self):
        # ``retire`` returns the events it retired, whether the backend
        # runs without a sync hook or a sampler cuts the stream at its
        # sync points.
        chunks = list(Workload(memcached.config()).trace_chunks(40))
        assert retire(CPU(), chunks) == sum(len(c) for c in chunks)
        cpu = CPU()
        sampler = PerfCounterSampler(cpu, MetricsRegistry(), every=5000)
        assert retire(cpu, chunks, sampler=sampler) == sum(len(c) for c in chunks)
        assert sampler.samples_taken > 1


# ------------------------------------------------- prometheus exposition


def _parse_prometheus(text: str) -> dict:
    """A tiny exposition-format parser: family → {help, type, samples}."""
    families: dict[str, dict] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, directive, name, rest = line.split(" ", 3)
            family = families.setdefault(name, {"samples": []})
            assert directive.lower() not in family, f"duplicate # {directive} {name}"
            family[directive.lower()] = rest
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        name, value = line.rsplit(" ", 1)
        assert name in families, f"sample before # HELP/# TYPE: {line!r}"
        family = families[name]
        assert "help" in family and "type" in family, f"family {name} unannounced"
        family["samples"].append((name, float(value)))
    return families


class TestPrometheusExposition:
    def test_every_family_announced(self):
        registry = MetricsRegistry()
        registry.counter("requests.total", help="total requests").inc(5)
        registry.series("warmup.curve").append(0.0, 1.0)
        registry.series("empty.curve")
        families = _parse_prometheus(registry.to_prometheus())
        for family in families.values():
            assert family["samples"], "family with no samples"
        by_type = {name: f["type"] for name, f in families.items()}
        assert by_type == {
            "requests_total": "counter", "warmup_curve": "gauge", "empty_curve": "gauge",
        }
        assert families["requests_total"]["help"] == "total requests"
        assert families["warmup_curve"]["help"] == "repro metric warmup_curve"
        assert families["empty_curve"]["samples"] == [("empty_curve", 0.0)]

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nback\\slash").inc()
        text = registry.to_prometheus()
        assert "# HELP c line one\\nback\\\\slash" in text

# -------------------------------------------------------------- dashboards


class TestDashboard:
    def test_script_close_tag_escaped(self, tmp_path):
        recorder = IncidentRecorder()
        recorder.record(
            "worker_death", "sneaky </script><script>alert(1)</script>", key="apache:64"
        )
        recorder.write_jsonl(tmp_path / "incidents.jsonl")
        snap = load_snapshot_from_dir(tmp_path)
        assert "</script>" in snap["incidents"][0]["message"]
        html = render_dashboard(snap)
        assert "</script><script>alert(1)" not in html

    def _write_artifacts(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("campaign.pairs_completed").inc(4)
        curve = registry.series("apache.abtb_hits_pki")
        for i in range(300):
            curve.append(float(i * 100), 20.0 + i / 10.0)
        (tmp_path / "metrics.jsonl").write_text(registry.to_jsonl())
        recorder = IncidentRecorder()
        recorder.record("worker_hang", "went silent", severity="warning")
        recorder.write_jsonl(tmp_path / "incidents.jsonl")
        profiler = TrampolineProfiler({0x1000: "apache:memcpy"})
        profiler.on_trampoline(0x1000, 0x2000, 0x3000, False, 12, True, False, False)
        profiler.write_json(tmp_path / "profile.json")

    def test_offline_snapshot_and_render(self, tmp_path):
        self._write_artifacts(tmp_path)
        snap = load_snapshot_from_dir(tmp_path)
        assert snap["mode"] == "offline"
        assert snap["counters"]["campaign.pairs_completed"] == 4
        assert len(snap["series"]["apache.abtb_hits_pki"]["points"]) <= 150
        assert snap["series"]["apache.abtb_hits_pki"]["appended"] == 300
        assert snap["incident_counts"] == {"worker_hang": 1}
        assert snap["incidents"][0]["message"] == "went silent"
        assert snap["profile"]["sites"][0]["symbol"] == "apache:memcpy"
        html = render_dashboard(snap)
        assert "apache:memcpy" in html and "__SNAPSHOT__" not in html
        assert "Events seen" not in html

    def test_snapshot_reads_no_chrome_trace(self, tmp_path):
        """A ``trace.json`` beside the exports is not the dashboard's: no
        snapshot key carries a count of its events."""
        self._write_artifacts(tmp_path)
        tracer = Tracer()
        tracer.instant("x")
        tracer.write(str(tmp_path / "trace.json"))
        snap = load_snapshot_from_dir(tmp_path)
        assert "trace_events" not in snap
        assert snap["profile"]["sites"][0]["symbol"] == "apache:memcpy"

    def test_offline_tolerates_empty_dir(self, tmp_path):
        snap = load_snapshot_from_dir(tmp_path)
        assert snap["series"] == {} and snap["incidents"] == []
        assert "<html" in render_dashboard(snap)

    def test_offline_skips_corrupt_lines(self, tmp_path):
        (tmp_path / "metrics.jsonl").write_text(
            'not json\n{"name": "c", "kind": "counter", "value": 2}\n'
        )
        (tmp_path / "profile.json").write_text("{broken")
        snap = load_snapshot_from_dir(tmp_path)
        assert snap["counters"] == {"c": 2.0}
        assert snap["profile"] is None

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot_from_dir(tmp_path / "nope")

    def test_write_dashboard_creates_parents(self, tmp_path):
        out = write_dashboard(
            load_snapshot_from_dir(tmp_path), tmp_path / "deep" / "dash.html"
        )
        assert out.is_file()

    def test_cli_dash_offline(self, tmp_path, capsys):
        self._write_artifacts(tmp_path)
        out = tmp_path / "dashboard.html"
        code = cli_main(["dash", "--from", str(tmp_path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "dash: wrote" in printed and "1 incident(s)" in printed
        assert "event" not in printed
        assert "apache:memcpy" in out.read_text()

    def test_cli_dash_missing_dir(self, tmp_path, capsys):
        code = cli_main(["dash", "--from", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err
