"""Tests for the telemetry plane.

Covers the correlated event bus (sequence numbers, ring drops, blocking
waits, metrics mirroring, JSONL round-trip), the bucket-mean
downsampler, incident→bus mirroring, the progress callback of ``retire``
and ``run_pair``, the Prometheus exposition format via a small parser
(every family announced with # HELP/# TYPE, histograms with le buckets,
+Inf, _sum/_count), the dashboard rendered from exported artifacts, and
the campaign-level events emitted by ``run_campaign``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import retire, run_campaign, run_pair, run_workload
from repro.experiments.scale import SMOKE
from repro.obs.dashboard import (
    load_snapshot_from_dir,
    render_dashboard,
    write_dashboard,
)
from repro.obs.events import Event, EventBus, downsample, load_event_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import TrampolineProfiler
from repro.resilience import IncidentRecorder
from repro.uarch import CPU
from repro.uarch.machine import CheckpointStore
from repro.workloads import Workload, memcached


class Clock:
    """Deterministic monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------- event bus


class TestEventBus:
    def test_seq_monotonic_and_correlated(self):
        bus = EventBus(clock=Clock())
        first = bus.emit("lease", "shard a leased", campaign_id="c1",
                         shard_key="a", worker_id="w1", attempt=2)
        second = bus.emit("complete", "shard a done")
        assert (first.seq, second.seq) == (1, 2)
        assert bus.last_seq == 2
        assert first.campaign_id == "c1" and first.shard_key == "a"
        assert first.data == {"attempt": 2}

    def test_ring_drops_oldest_and_counts(self):
        bus = EventBus(capacity=3)
        for i in range(5):
            bus.emit("k", f"event {i}")
        assert bus.dropped == 2
        assert [e.seq for e in bus.snapshot()] == [3, 4, 5]
        # An aged-out cursor resumes from the oldest retained event.
        assert [e.seq for e in bus.since(0)] == [3, 4, 5]

    def test_since_cursor_and_limit(self):
        bus = EventBus()
        for i in range(4):
            bus.emit("k", f"event {i}")
        assert [e.seq for e in bus.since(2)] == [3, 4]
        assert [e.seq for e in bus.since(0, limit=2)] == [1, 2]
        assert bus.since(99) == []

    def test_wait_for_timeout_and_wakeup(self):
        bus = EventBus()
        assert bus.wait_for(0, timeout=0.01) is False
        waiter_saw = []

        def wait():
            waiter_saw.append(bus.wait_for(0, timeout=5.0))

        t = threading.Thread(target=wait)
        t.start()
        bus.emit("k", "news")
        t.join(timeout=5.0)
        assert waiter_saw == [True]

    def test_metrics_mirroring(self):
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        bus.emit("lease", "one")
        bus.emit("lease", "two")
        bus.emit("complete", "three")
        assert registry.counter("events.total").value == 3
        assert registry.counter("events.lease").value == 2
        assert registry.counter("events.complete").value == 1

    def test_emit_never_raises_on_unsafe_data(self):
        bus = EventBus()
        event = bus.emit("k", "m", payload=object(), none_dropped=None,
                         nested={"x": (1, 2)})
        assert "none_dropped" not in event.data
        assert isinstance(event.data["payload"], str)
        assert event.data["nested"] == {"x": [1, 2]}
        json.dumps(event.as_dict())  # must be serialisable

    def test_bad_severity_downgraded_not_raised(self):
        bus = EventBus()
        assert bus.emit("k", "m", severity="catastrophic").severity == "info"

    def test_jsonl_round_trip(self, tmp_path):
        bus = EventBus(clock=Clock())
        bus.emit("a", "one", campaign_id="c1")
        bus.emit("b", "two", severity="warning", extra=7)
        path = bus.write_jsonl(tmp_path / "events.jsonl")
        loaded = load_event_log(path)
        assert [e.as_dict() for e in loaded] == bus.as_dicts()

    def test_load_rejects_bad_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version": 1, "seq": -3, "kind": "k"}\n')
        with pytest.raises(ValueError, match="seq"):
            load_event_log(path)
        with pytest.raises(ValueError):
            Event.from_dict({"seq": 1})


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


# ------------------------------------------------------ incident mirroring


class TestIncidentBusMirroring:
    def test_incident_lands_on_bus_with_correlation(self):
        bus = EventBus()
        recorder = IncidentRecorder(bus=bus)
        recorder.record(
            "worker_hang", "worker went silent", severity="warning",
            campaign_id="c1", key="apache:64", worker_id="w1",
        )
        events = bus.snapshot()
        assert len(events) == 1
        event = events[0]
        assert event.kind == "incident"
        assert event.severity == "warning"
        assert event.campaign_id == "c1"
        assert event.shard_key == "apache:64"
        assert event.worker_id == "w1"
        assert event.data["incident_kind"] == "worker_hang"

    def test_recorder_without_bus_still_works(self):
        recorder = IncidentRecorder()
        recorder.record("k", "no bus attached")
        assert len(recorder) == 1


# ------------------------------------------------------- progress callback


class TestProgressTracker:
    def test_tracker_accumulates_per_shard(self, tmp_path):
        # Progress counts retired events, per shard: both sides of a pair
        # report, and a side whose warm machine is restored from the
        # machine cache reports only the measured window it retires.
        windows = (SMOKE.warmup("memcached"), SMOKE.measured("memcached"))
        cold = []
        run_workload(memcached.config(), None, *windows, progress=cold.append)
        machines = CheckpointStore(tmp_path)
        tracker = {}
        for abtb in (16, 64):  # the base machine is shared, not the enhanced
            tracker[abtb] = []
            run_pair(
                "memcached", SMOKE, abtb_entries=abtb,
                machine_cache=machines, progress=tracker[abtb].append,
            )
        warm = []
        run_workload(
            memcached.config(), None, *windows, machine_cache=machines, progress=warm.append
        )
        assert 0 < sum(warm) < sum(cold)
        assert sum(tracker[16]) == 2 * sum(cold)
        assert sum(tracker[64]) == sum(warm) + sum(cold)

    def test_retire_reports_progress_at_sync_points(self):
        chunks = list(Workload(memcached.config()).trace_chunks(40))
        seen = []
        retired = retire(CPU(), chunks, progress=seen.append)
        assert retired == sum(len(c) for c in chunks) == sum(seen)
        assert len(seen) > 1
        assert all(0 < n <= 4096 + 1 for n in seen)


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
        metric, value = line.rsplit(" ", 1)
        name = metric.split("{", 1)[0]
        family_name = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family_name = name[: -len(suffix)]
                break
        assert family_name in families, f"sample before # HELP/# TYPE: {line!r}"
        family = families[family_name]
        assert "help" in family and "type" in family, f"family {family_name} unannounced"
        float(value)  # must parse
        family["samples"].append((metric, float(value)))
    return families


class TestPrometheusExposition:
    def test_every_family_announced(self):
        registry = MetricsRegistry()
        registry.counter("requests.total", help="total requests").inc(5)
        registry.gauge("queue.depth").set(3)
        registry.histogram("latency.ms", buckets=(1.0, 5.0)).observe(2.5)
        registry.series("warmup.curve").append(0.0, 1.0)
        families = _parse_prometheus(registry.to_prometheus())
        for family in families.values():
            assert family["samples"], "family with no samples"
        by_type = {name: f["type"] for name, f in families.items()}
        assert by_type["requests_total"] == "counter"
        assert by_type["queue_depth"] == "gauge"
        assert by_type["latency_ms"] == "histogram"

    def test_histogram_buckets_complete(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency.ms", buckets=(1.0, 5.0))
        for value in (0.5, 2.0, 3.0, 99.0):
            hist.observe(value)
        families = _parse_prometheus(registry.to_prometheus())
        samples = dict(families["latency_ms"]["samples"])
        assert samples['latency_ms_bucket{le="1.0"}'] == 1
        assert samples['latency_ms_bucket{le="5.0"}'] == 3
        assert samples['latency_ms_bucket{le="+Inf"}'] == 4
        assert samples["latency_ms_count"] == 4
        assert samples["latency_ms_sum"] == pytest.approx(104.5)
        # Cumulative buckets are non-decreasing.
        buckets = [v for k, v in families["latency_ms"]["samples"] if "_bucket" in k]
        assert buckets == sorted(buckets)

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nback\\slash").inc()
        text = registry.to_prometheus()
        assert "# HELP c line one\\nback\\\\slash" in text

# -------------------------------------------------------------- dashboards


class TestDashboard:
    def test_script_close_tag_escaped(self, tmp_path):
        bus = EventBus(clock=Clock())
        bus.emit("k", "sneaky </script><script>alert(1)</script>")
        bus.write_jsonl(tmp_path / "events.jsonl")
        snap = load_snapshot_from_dir(tmp_path)
        assert "</script>" in snap["events"][0]["message"]
        html = render_dashboard(snap)
        assert "</script><script>alert(1)" not in html

    def _write_artifacts(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("campaign.pairs_completed").inc(4)
        curve = registry.series("apache.abtb_hits_pki")
        for i in range(300):
            curve.append(float(i * 100), 20.0 + i / 10.0)
        (tmp_path / "metrics.jsonl").write_text(registry.to_jsonl())
        bus = EventBus(clock=Clock())
        bus.emit("pair_completed", "apache:64 done", campaign_id="c0001",
                 shard_key="apache:64")
        bus.write_jsonl(tmp_path / "events.jsonl")
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
        assert snap["events"][0]["kind"] == "pair_completed"
        assert snap["profile"]["sites"][0]["symbol"] == "apache:memcpy"
        html = render_dashboard(snap)
        assert "apache:memcpy" in html and "__SNAPSHOT__" not in html

    def test_offline_tolerates_empty_dir(self, tmp_path):
        snap = load_snapshot_from_dir(tmp_path)
        assert snap["series"] == {} and snap["events"] == []
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
        assert "dash: wrote" in capsys.readouterr().out
        assert "apache:memcpy" in out.read_text()

    def test_cli_dash_missing_dir(self, tmp_path, capsys):
        code = cli_main(["dash", "--from", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err


# ------------------------------------------------- campaign-level events


class TestRunCampaignEvents:
    def test_serial_campaign_narrates_itself(self, tmp_path):
        bus = EventBus()
        result = run_campaign(
            ["apache"], SMOKE, abtb_sizes=(16,), bus=bus, campaign_id="c0001",
        )
        assert result.completed and result.ok
        kinds = [e.kind for e in bus.snapshot()]
        assert kinds[0] == "campaign_started"
        assert "pair_completed" in kinds
        assert kinds[-1] == "campaign_complete"
        done = [e for e in bus.snapshot() if e.kind == "pair_completed"]
        assert done[0].campaign_id == "c0001"
        assert done[0].shard_key
        assert "speedup" in done[0].data

    def test_no_bus_no_events_no_error(self, tmp_path):
        result = run_campaign(["apache"], SMOKE, abtb_sizes=(16,))
        assert result.completed
