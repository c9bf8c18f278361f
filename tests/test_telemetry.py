"""Tests for the live telemetry plane (PR 7).

Covers the correlated event bus (sequence numbers, ring drops, blocking
waits, metrics mirroring, JSONL round-trip), the bucket-mean
downsampler, incident→bus mirroring, the heartbeat progress schema and
its end-to-end path (worker tracker → renew body → manager banking →
lease rows), the Prometheus exposition format via a small parser (every
family announced with # HELP/# TYPE, histograms with le buckets, +Inf,
_sum/_count), the new HTTP surface (content types, payload shapes,
404/405), SSE framing and Last-Event-ID resume on ``/events``, the
``/timeseries`` window endpoint, the live and offline dashboards, and
the campaign-level events emitted by ``run_campaign``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.errors import SchemaError
from repro.experiments.runner import retire, run_campaign
from repro.experiments.scale import SMOKE
from repro.obs.dashboard import (
    load_snapshot_from_dir,
    render_dashboard,
    snapshot_from_manager,
    write_dashboard,
)
from repro.obs.events import Event, EventBus, downsample, load_event_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import TrampolineProfiler
from repro.resilience import IncidentRecorder, LeasePolicy
from repro.service import CampaignManager, CampaignSpec
from repro.service.api import ManagerServer
from repro.service.schemas import RenewRequest, ShardProgress
from repro.service.worker import ManagerClient, WorkerAgent, _ProgressTracker
from repro.uarch import CPU
from repro.workloads import Workload, memcached


class Clock:
    """Deterministic monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


FAST = LeasePolicy(
    shard_deadline_s=10.0,
    max_shard_failures=3,
    backoff_base_s=1.0,
    backoff_factor=2.0,
)


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


# ------------------------------------------------------- progress schemas


class TestShardProgress:
    def test_round_trip(self):
        progress = ShardProgress.from_dict({"events_done": 4096, "workload": "apache"})
        assert progress.events_done == 4096
        assert progress.as_dict() == {"events_done": 4096, "workload": "apache"}

    def test_defaults(self):
        assert ShardProgress.from_dict({}).events_done == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"events_done": -1},
            {"events_done": True},
            {"events_done": "12"},
            {"workload": 3},
            {"unknown_field": 1},
            "not a dict",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            ShardProgress.from_dict(bad)

    def test_renew_request_carries_optional_progress(self):
        bare = RenewRequest.from_dict({"worker_id": "w1"})
        assert bare.progress is None
        rich = RenewRequest.from_dict(
            {"worker_id": "w1", "progress": {"events_done": 7}}
        )
        assert rich.progress.events_done == 7
        with pytest.raises(SchemaError):
            RenewRequest.from_dict({"worker_id": "w1", "progress": {"seq": 1}})


class TestProgressTracker:
    def test_tracker_accumulates_per_shard(self):
        tracker = _ProgressTracker()
        tracker.begin("apache")
        tracker.add(100)
        tracker.add(28)
        assert tracker.snapshot() == {"events_done": 128, "workload": "apache"}
        tracker.begin("memcached")
        assert tracker.snapshot()["events_done"] == 0

    def test_retire_reports_progress_at_sync_points(self):
        chunks = list(Workload(memcached.config()).trace_chunks(40))
        seen = []
        retired = retire(CPU(), chunks, progress=seen.append)
        assert retired == sum(len(c) for c in chunks) == sum(seen)
        assert len(seen) > 1
        assert all(0 < n <= 4096 + 1 for n in seen)


# -------------------------------------------------- manager progress bank


class TestManagerTelemetry:
    def _manager(self, tmp_path):
        clock = Clock()
        manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=clock)
        return manager, clock

    def test_lifecycle_events_emitted(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec.from_dict({"workloads": ["apache"], "abtb_sizes": [16]})
        cid = manager.submit(spec)
        worker_id = manager.register_worker("t")["worker_id"]
        manager.lease(worker_id)
        kinds = [e.kind for e in manager.bus.snapshot()]
        assert kinds == ["campaign_submitted", "worker_registered", "shard_leased"]
        leased = manager.bus.snapshot()[-1]
        assert leased.campaign_id == cid and leased.worker_id == worker_id

    def test_renew_banks_progress_into_lease_rows(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        spec = CampaignSpec.from_dict({"workloads": ["apache"], "abtb_sizes": [16]})
        manager.submit(spec)
        worker_id = manager.register_worker("t")["worker_id"]
        grant = manager.lease(worker_id)
        clock.advance(2.0)
        renewed = manager.renew(
            grant["lease_id"], worker_id,
            progress={"events_done": 512, "workload": "apache"},
        )
        assert renewed is not None
        clock.advance(1.0)
        rows = manager.leases()
        assert len(rows) == 1
        row = rows[0]
        assert row["worker_id"] == worker_id
        assert row["progress"]["events_done"] == 512
        assert row["progress"]["age_s"] == pytest.approx(1.0)
        # ...and into the worker roster for the dashboard.
        workers = manager.telemetry()["workers"]
        assert workers[0]["last_progress"]["events_done"] == 512
        assert workers[0]["last_progress"]["key"] == row["key"]
        # ...and onto the bus.
        assert manager.bus.snapshot()[-1].kind == "shard_progress"

    def test_telemetry_shape(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec.from_dict({"workloads": ["apache"], "abtb_sizes": [16]})
        manager.submit(spec)
        snap = manager.telemetry()
        assert set(snap) == {
            "campaigns", "leases", "workers", "incident_counts",
            "incidents", "last_seq",
        }
        assert snap["last_seq"] == manager.bus.last_seq
        assert snap["campaigns"][0]["state"] == "running"

    def test_queue_series_mirrored(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec.from_dict({"workloads": ["apache"], "abtb_sizes": [16]})
        manager.submit(spec)
        names = manager.metrics.names()
        assert "service.queue.pending" in names
        assert "service.queue.leased" in names
        series = manager.metrics.series("service.queue.pending")
        assert series.points()[-1][1] == 1.0


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

    def test_live_metrics_endpoint_parses(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        status, text = client.get_text("/metrics")
        assert status == 200
        families = _parse_prometheus(text)
        assert any(name.startswith("service_") for name in families)
        assert "events_total" in families


# ----------------------------------------------------------- http surface


@pytest.fixture()
def server(tmp_path):
    manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
    srv = ManagerServer(manager, port=0, sse_keepalive_s=0.1)
    srv.start()
    yield srv
    srv.stop(graceful=True)


def _raw_get(server, path, headers=None):
    """GET returning (status, headers, body-bytes) without json parsing."""
    import urllib.request

    req = urllib.request.Request(server.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestEndpoints:
    def test_content_types(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        for path, expected in [
            ("/metrics", "text/plain; version=0.0.4"),
            ("/metrics?format=jsonl", "application/x-ndjson"),
            ("/incidents", "application/x-ndjson"),
            ("/events/log", "application/x-ndjson"),
            ("/timeseries", "application/json"),
            ("/dash", "text/html; charset=utf-8"),
            ("/dash/data", "application/json"),
        ]:
            _, headers, _ = _raw_get(server, path)
            assert headers["Content-Type"] == expected, path

    def test_unknown_resources_404(self, server):
        client = ManagerClient(server.url)
        assert client.get("/nonsense")[0] == 404
        assert client.get("/campaigns/c9999")[0] == 404
        assert client.get("/timeseries?name=no.such.series")[0] == 404

    def test_wrong_method_405(self, server):
        client = ManagerClient(server.url)
        status, body = client.get("/leases")  # POST-only resource
        assert status == 405 and body["allow"] == "POST"
        status, body = client.post("/metrics", {})  # GET-only resource
        assert status == 405 and body["allow"] == "GET"

    def test_metrics_jsonl_lines_parse(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        _, _, body = _raw_get(server, "/metrics?format=jsonl")
        lines = body.decode().strip().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert "name" in record and "kind" in record

    def test_events_log_and_since(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        _, _, body = _raw_get(server, "/events/log")
        records = [json.loads(line) for line in body.decode().strip().splitlines()]
        assert records and records[0]["kind"] == "campaign_submitted"
        first_seq = records[0]["seq"]
        _, _, body = _raw_get(server, f"/events/log?since={first_seq}")
        rest = [json.loads(line) for line in body.decode().strip().splitlines()]
        assert all(r["seq"] > first_seq for r in rest)

    def test_timeseries_window(self, server):
        manager = server.manager
        series = manager.metrics.series("test.curve")
        for i in range(500):
            series.append(float(i), float(i % 7))
        status, body = ManagerClient(server.url).get("/timeseries")
        assert status == 200 and "test.curve" in body["series"]
        status, body = ManagerClient(server.url).get(
            "/timeseries?name=test.curve&max_points=20"
        )
        assert status == 200
        assert body["downsampled"] is True
        assert len(body["points"]) <= 20
        assert body["total_points"] == 500
        status, body = ManagerClient(server.url).get(
            "/timeseries?name=test.curve&since=400"
        )
        assert body["total_points"] == 100
        assert all(p[0] >= 400 for p in body["points"])
        status, _ = ManagerClient(server.url).get(
            "/timeseries?name=test.curve&max_points=1"
        )
        assert status == 400

    def test_timeseries_rejects_non_series_metric(self, server):
        server.manager.metrics.counter("just.a.counter").inc()
        status, body = ManagerClient(server.url).get(
            "/timeseries?name=just.a.counter"
        )
        assert status == 404 and "not a series" in body["error"]


class TestSSE:
    def _frames(self, raw: str) -> list[dict]:
        frames = []
        for block in raw.split("\n\n"):
            if not block.startswith("id: "):
                continue
            id_line, data_line = block.split("\n", 1)
            assert data_line.startswith("data: ")
            payload = json.loads(data_line[len("data: "):])
            assert payload["seq"] == int(id_line[len("id: "):])
            frames.append(payload)
        return frames

    def test_framing_and_limit(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        for i in range(4):
            server.manager.bus.emit("test", f"event {i}")
        status, headers, body = _raw_get(server, "/events?limit=3")
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        assert headers["Cache-Control"] == "no-cache"
        frames = self._frames(body.decode())
        assert len(frames) == 3
        assert [f["seq"] for f in frames] == [1, 2, 3]

    def test_last_event_id_resume(self, server):
        for i in range(5):
            server.manager.bus.emit("test", f"event {i}")
        _, _, body = _raw_get(server, "/events?limit=2")
        first = self._frames(body.decode())
        cursor = first[-1]["seq"]
        _, _, body = _raw_get(
            server, "/events?limit=2", headers={"Last-Event-ID": str(cursor)}
        )
        resumed = self._frames(body.decode())
        assert [f["seq"] for f in resumed] == [cursor + 1, cursor + 2]

    def test_since_param_overrides_header(self, server):
        for i in range(5):
            server.manager.bus.emit("test", f"event {i}")
        _, _, body = _raw_get(
            server, "/events?limit=1&since=4", headers={"Last-Event-ID": "1"}
        )
        assert [f["seq"] for f in self._frames(body.decode())] == [5]

    def test_keepalive_comment_then_data(self, server):
        # Nothing on the bus: the stream must emit a keep-alive comment
        # (keepalive is 0.1s on this fixture), then the frame once news
        # arrives.
        def emit_later():
            import time as _time

            _time.sleep(0.35)
            server.manager.bus.emit("late", "breaking news")

        t = threading.Thread(target=emit_later)
        t.start()
        _, _, body = _raw_get(server, "/events?limit=1")
        t.join()
        raw = body.decode()
        assert ": keep-alive\n\n" in raw
        frames = self._frames(raw)
        assert len(frames) == 1 and frames[0]["kind"] == "late"


# -------------------------------------------------------------- dashboards


class TestDashboard:
    def test_live_page_embeds_snapshot(self, server):
        client = ManagerClient(server.url)
        _, body = client.post(
            "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]}
        )
        cid = body["campaign_id"]
        _, _, page = _raw_get(server, "/dash")
        html = page.decode()
        assert "__SNAPSHOT__" not in html
        assert cid in html
        assert '"mode": "live"' in html
        assert "<script>" in html and "EventSource" in html

    def test_dash_data_is_the_snapshot(self, server):
        client = ManagerClient(server.url)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        status, snap = client.get("/dash/data")
        assert status == 200
        assert snap["mode"] == "live"
        assert snap["schema_version"] == 1
        assert snap["campaigns"][0]["state"] == "running"
        assert "service.queue.pending" in snap["series"]
        assert snap["events"][0]["kind"] == "campaign_submitted"

    def test_snapshot_from_manager_downsamples(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        series = manager.metrics.series("big.curve")
        for i in range(2000):
            series.append(float(i), 1.0)
        snap = snapshot_from_manager(manager)
        assert len(snap["series"]["big.curve"]["points"]) <= 150
        assert snap["series"]["big.curve"]["appended"] == 2000

    def test_script_close_tag_escaped(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        manager.bus.emit("k", "sneaky </script><script>alert(1)</script>")
        html = render_dashboard(snapshot_from_manager(manager))
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


# --------------------------------------------- worker heartbeat progress


class TestWorkerProgressEndToEnd:
    def test_worker_reports_progress_through_renew(self, tmp_path):
        """A real worker run banks progress on the manager before the
        shard completes, and the roster remembers it after the lease is
        gone."""
        # A short lease TTL makes the heartbeat renew every TTL/3 —
        # several renews land while even a smoke shard is running.
        policy = LeasePolicy(
            shard_deadline_s=1.0, max_shard_failures=3,
            backoff_base_s=0.1, backoff_factor=2.0,
        )
        manager = CampaignManager(tmp_path / "svc", policy=policy)
        server = ManagerServer(manager, port=0)
        server.start()
        try:
            client = ManagerClient(server.url)
            client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
            agent = WorkerAgent(
                ManagerClient(server.url), name="t",
                poll_interval_s=0.02, max_idle_s=0.5,
            )
            stats = agent.run()
            assert stats["shards_done"] == 1
            workers = manager.telemetry()["workers"]
            progress = workers[0]["last_progress"]
            assert progress is not None
            assert progress["events_done"] > 0
            assert progress["workload"] == "apache"
        finally:
            server.stop(graceful=True)
