"""Tests for the observability layer: tracer, metrics, sampler, profiler.

Covers the three pillars of :mod:`repro.obs` plus their wiring into the
simulator — including the acceptance-level properties: the ``profile``
path attributes ≥90% of trampoline instructions to named call sites, and
a compare run's ``abtb_hits_pki`` series shows the ABTB warm-up
transient (monotone rise, then a stable plateau).
"""

from __future__ import annotations

import json

import pytest

from repro import quick_comparison
from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.obs import Observability, emit_request_spans
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    PerfCounterSampler,
    TimeSeries,
    sampled,
    warmup_shape,
)
from repro.obs.profiler import TrampolineProfiler
from repro.obs.tracer import HOST_PID, SIM_PID, Tracer, validate_chrome_trace
from repro.uarch import CPU, PerfCounters
from repro.uarch.cpu import ChainedHooks, CPUHooks
from repro.workloads import ALL_WORKLOADS, Workload


def fake_clock():
    """A deterministic microsecond clock for tracer tests."""
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += 10.0
        return state["t"]

    return clock


class TestTracer:
    def test_instant_defaults_to_host_clock(self):
        tracer = Tracer(clock=fake_clock())
        tracer.instant("resolve foo", category="linker", symbol="foo")
        (ev,) = tracer.events
        assert ev["ph"] == "i"
        assert ev["pid"] == HOST_PID
        assert ev["args"]["symbol"] == "foo"

    def test_instant_with_explicit_ts_lands_on_sim_track(self):
        tracer = Tracer(clock=fake_clock())
        tracer.instant("fault:got_rewrite", ts=12345.0)
        assert tracer.events[0]["pid"] == SIM_PID
        assert tracer.events[0]["ts"] == 12345.0

    def test_span_measures_duration(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("experiment table4", category="experiment"):
            pass
        (ev,) = tracer.events
        assert ev["ph"] == "X"
        assert ev["dur"] == pytest.approx(10.0)
        assert ev["pid"] == HOST_PID

    def test_span_records_even_on_exception(self):
        tracer = Tracer(clock=fake_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer.events) == 1 and tracer.events[0]["name"] == "doomed"

    def test_complete_is_simulated_clock(self):
        tracer = Tracer(clock=fake_clock())
        tracer.complete("request:GET", ts=1000.0, dur=250.0, request_id=7)
        (ev,) = tracer.events
        assert ev["pid"] == SIM_PID and ev["dur"] == 250.0

    def test_to_chrome_validates_and_round_trips(self, tmp_path):
        tracer = Tracer(clock=fake_clock())
        tracer.thread_name(3, "memcached")
        tracer.instant("a")
        with tracer.span("b"):
            tracer.counter("pki", 1.5, ts=10.0)
        payload = tracer.to_chrome()
        assert validate_chrome_trace(payload) == []
        path = tmp_path / "out.trace.json"
        tracer.write(str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["top level is not an object"]
        assert validate_chrome_trace({}) == ["'traceEvents' missing or not a list"]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 1},
                    {"name": "y", "ph": "X", "ts": 0, "pid": 1, "tid": 1},
                    {"ph": "i", "ts": "soon", "pid": 1, "tid": 1},
                ]
            }
        )
        assert any("unknown phase" in p for p in problems)
        assert any("without 'dur'" in p for p in problems)
        assert any("missing 'name'" in p for p in problems)
        assert any("non-numeric ts" in p for p in problems)


class TestMetricsPrimitives:
    def test_counter_monotone(self):
        c = Counter("faults")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_series_ring_buffer_drops_old_points(self):
        s = TimeSeries("pki", capacity=3)
        for i in range(5):
            s.append(float(i), float(i * 10))
        assert len(s) == 3
        assert s.appended == 5
        assert s.timestamps() == [2.0, 3.0, 4.0]
        assert s.values() == [20.0, 30.0, 40.0]


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.series("x")
        reg.series("y")
        with pytest.raises(ValueError, match="already registered as series"):
            reg.counter("y")

    def test_jsonl_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.series("b").append(1.0, 0.5)
        records = [json.loads(line) for line in reg.to_jsonl().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["a"] == {"name": "a", "kind": "counter", "value": 2.0}
        assert by_name["b"]["points"] == [[1.0, 0.5]]
        assert by_name["b"]["appended"] == 1

    def test_prometheus_export_shape(self):
        reg = MetricsRegistry()
        reg.counter("chaos.faults.total", help="faults landed").inc(3)
        reg.series("warmup").append(1.0, 2.5)
        text = reg.to_prometheus()
        assert "# HELP chaos_faults_total faults landed" in text
        assert "# TYPE chaos_faults_total counter" in text
        assert "chaos_faults_total 3.0" in text
        # Series export their latest value as a point-in-time gauge.
        assert "warmup 2.5" in text

    def test_merge_state_sums_counters_and_extends_series(self):
        worker = MetricsRegistry()
        worker.counter("pairs", help="pairs done").inc(2)
        series = worker.series("curve", capacity=2)
        for i in range(3):
            series.append(float(i), float(i))
        parent = MetricsRegistry()
        parent.counter("pairs").inc()
        parent.merge_state(worker.state_dict())
        assert parent.counter("pairs").value == 3.0
        merged = parent.series("curve")
        assert merged.points() == [(1.0, 1.0), (2.0, 2.0)]
        assert merged.appended == 3
        with pytest.raises(ValueError, match="unknown kind"):
            parent.merge_state({"h": {"kind": "histogram"}})

    def test_write_selects_format_by_extension(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        prom, jsonl = tmp_path / "m.prom", tmp_path / "m.jsonl"
        reg.write(str(prom))
        reg.write(str(jsonl))
        assert "# TYPE n counter" in prom.read_text()
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "n"


class TestSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="positive"):
            PerfCounterSampler(CPU(), MetricsRegistry(), every=0)

    def test_sampling_produces_series_and_final_point(self):
        wl = Workload(ALL_WORKLOADS["memcached"].config())
        cpu = CPU()
        reg = MetricsRegistry()
        sampler = PerfCounterSampler(cpu, reg, every=2000, prefix="run.")
        cpu.run(sampled(wl.trace(10), sampler))
        assert sampler.samples_taken >= 2
        series = reg.series("run.l1i_misses_pki")
        assert len(series) == sampler.samples_taken
        # Timestamps are instruction counts: strictly increasing.
        ts = series.timestamps()
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        # Windowed and cumulative variants both exist, plus CPI.
        assert "run.l1i_misses_pki_window" in reg.names()
        assert "run.cpi" in reg.names()

    def test_sampler_feeds_tracer_counter_track(self):
        wl = Workload(ALL_WORKLOADS["memcached"].config())
        cpu = CPU()
        reg = MetricsRegistry()
        tracer = Tracer(clock=fake_clock())
        sampler = PerfCounterSampler(cpu, reg, every=5000, tracer=tracer)
        cpu.run(sampled(wl.trace(5), sampler))
        tracks = [ev for ev in tracer.events if ev["ph"] == "C"]
        assert tracks and all(ev["pid"] == SIM_PID for ev in tracks)


class TestWarmupShape:
    def test_accepts_rise_then_plateau(self):
        values = [0.2, 0.5, 0.9, 1.2, 1.3, 1.31, 1.29, 1.30, 1.31, 1.30]
        assert warmup_shape(values)

    def test_rejects_flat_series(self):
        assert not warmup_shape([1.0] * 10)

    def test_rejects_unstable_tail(self):
        assert not warmup_shape([0.2, 0.6, 1.0, 1.4, 0.9, 1.6, 0.8, 1.7])

    def test_rejects_big_dip(self):
        assert not warmup_shape([0.2, 1.0, 0.4, 1.2, 1.3, 1.3, 1.3, 1.3])

    def test_rejects_too_short(self):
        assert not warmup_shape([0.1, 1.0, 1.0])


class TestProfiler:
    def _feed(self, profiler):
        # Two sites: one hot (executes + skips), one hit once.
        for _ in range(3):
            profiler.on_trampoline(0x400010, 0x601000, 0x700000, False, 2, True, False, True)
        for _ in range(5):
            profiler.on_trampoline(0x400010, 0x601000, 0x700000, True, 0, False, True, False)
        profiler.on_trampoline(0x400020, 0x601010, 0x700100, False, 2, True, False, False)

    def test_accumulation_and_rates(self):
        profiler = TrampolineProfiler({0x400010: "app:memcpy"})
        self._feed(profiler)
        hot = profiler.sites[0x400010]
        assert hot.calls == 8 and hot.skipped == 5 and hot.instructions == 6
        assert hot.skip_rate == pytest.approx(5 / 8)
        assert hot.abtb_hit_rate == pytest.approx(5 / 8)
        assert hot.mispredictions == 3

    def test_attribution_counts_only_named_sites(self):
        profiler = TrampolineProfiler({0x400010: "app:memcpy"})
        self._feed(profiler)
        assert profiler.total_instructions() == 8
        assert profiler.attributed_instructions() == 6
        assert profiler.attribution_fraction() == pytest.approx(6 / 8)

    def test_table_orders_hot_sites_first(self):
        profiler = TrampolineProfiler({0x400010: "app:memcpy"})
        self._feed(profiler)
        table = profiler.table(top=2)
        assert table.column("symbol")[0] == "app:memcpy"
        rendered = table.render()
        assert "app:memcpy" in rendered and "skip%" in rendered

    def test_real_run_attributes_at_least_90_percent(self):
        """Acceptance: the profile path attributes ≥90% of the CPU's
        trampoline_instructions counter to named call sites."""
        obs = Observability(profile=True)
        wl = Workload(ALL_WORKLOADS["memcached"].config())
        obs.attach_workload(wl)
        mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=256))
        cpu = CPU(mechanism=mech, hooks=obs.hooks())
        cpu.run(wl.trace(80))
        counters = cpu.finalize()
        assert counters.trampoline_instructions > 0
        assert obs.profiler.attribution_fraction(counters) >= 0.90


class TestObservabilitySession:
    def test_from_flags_returns_none_when_all_off(self):
        class Args:
            trace_out = None
            metrics_out = None
            sample_every = 0

        assert Observability.from_flags(Args()) is None

    def test_disabled_session_is_a_null_sink(self):
        obs = Observability()
        assert obs.hooks() is None
        events = iter([])
        # No sampling configured: the stream comes back unwrapped.
        assert obs.instrument(events, CPU(), "x") is events
        assert obs.export() == []

    def test_hooks_chain_profiler_with_extras(self):
        obs = Observability(profile=True)
        extra = CPUHooks()
        chained = obs.hooks(extra)
        assert isinstance(chained, ChainedHooks)
        assert obs.hooks() is obs.profiler
        assert obs.hooks(None) is obs.profiler

    def test_compare_series_shows_abtb_warmup_transient(self, tmp_path):
        """Acceptance: the enhanced run's cumulative abtb_hits_pki rises
        monotonically (modulo early sampling noise) then plateaus."""
        obs = Observability(
            metrics_out=str(tmp_path / "m.jsonl"), sample_every=8000
        )
        quick_comparison("memcached", n_requests=80, obs=obs)
        values = obs.metrics.series("enhanced.abtb_hits_pki").values()
        assert len(values) >= 10
        # Cold ABTB: low initial hit rate, >2x rise to a stable plateau.
        assert values[-1] / values[0] > 2.0
        assert warmup_shape(values, dip_tol=0.3)
        # The base CPU has no ABTB: its series must stay at zero.
        base = obs.metrics.series("base.abtb_hits_pki").values()
        assert all(v == 0.0 for v in base)

    def test_export_writes_trace_and_metrics(self, tmp_path):
        trace, metrics = tmp_path / "t.json", tmp_path / "m.jsonl"
        obs = Observability(
            trace_out=str(trace), metrics_out=str(metrics), sample_every=4000
        )
        quick_comparison("memcached", n_requests=20, obs=obs)
        written = obs.export()
        assert written == [str(trace), str(metrics)]
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        cats = {ev.get("cat") for ev in payload["traceEvents"]}
        # Linker instants, request spans and counter tracks all landed.
        assert {"linker", "engine", "request", "metric"} <= cats

    def test_request_spans_pair_begin_and_end_marks(self):
        obs = Observability(trace_out="unused.json")
        wl = Workload(ALL_WORKLOADS["memcached"].config())
        cpu = CPU()
        cpu.run(wl.trace(6))
        emitted = emit_request_spans(obs.tracer, cpu, tid=1)
        spans = [ev for ev in obs.tracer.events if ev["ph"] == "X"]
        assert emitted == len(spans) > 0
        assert all(ev["pid"] == SIM_PID and ev["dur"] >= 0 for ev in spans)


class TestCounterHelpers:
    def test_pki_unknown_field_names_valid_fields(self):
        counters = PerfCounters()
        counters.instructions = 1000
        with pytest.raises(ValueError) as excinfo:
            counters.pki("no_such_counter")
        message = str(excinfo.value)
        assert "no_such_counter" in message
        assert "l1i_misses" in message and "abtb_hits" in message

    def test_rate_defaults_to_per_instruction(self):
        counters = PerfCounters()
        counters.instructions = 200
        counters.got_loads = 50
        assert counters.rate("got_loads") == pytest.approx(0.25)

    def test_rate_with_custom_denominator(self):
        counters = PerfCounters()
        counters.cycles = 400
        counters.l1i_misses = 100
        assert counters.rate("l1i_misses", per="cycles") == pytest.approx(0.25)

    def test_rate_zero_denominator_is_zero(self):
        assert PerfCounters().rate("got_loads") == 0.0

    def test_rate_validates_both_fields(self):
        counters = PerfCounters()
        with pytest.raises(ValueError, match="unknown counter field"):
            counters.rate("bogus")
        with pytest.raises(ValueError, match="unknown counter field"):
            counters.rate("got_loads", per="bogus")


class TestBloomQueryAccounting:
    """``bloom.queries`` must count every snoop probe, empty filter or not.

    Regression: ``snoop_store``/``coherence_invalidate`` used to gate the
    probe on ``self.bloom.population and ...``, so every store retired
    while the filter was empty (the common steady state after a flush)
    vanished from the query counter and any probe-rate series built on it
    undercounted.  Hardware snoops every store; the counter must too.
    """

    def test_snoop_store_counts_empty_filter_probe(self):
        mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
        assert mech.bloom.population == 0
        mech.snoop_store(0x601018)
        assert mech.bloom.queries == 1
        assert mech.stats.store_flushes == 0  # probed, not flushed

    def test_coherence_invalidate_counts_empty_filter_probe(self):
        mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
        mech.coherence_invalidate(0x601018)
        assert mech.bloom.queries == 1
        assert mech.stats.coherence_flushes == 0

    def test_queries_accumulate_across_flush(self):
        mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
        mech.learn(0x400100, 0x401020, 0x7F0000_0000, 0x601018)
        mech.snoop_store(0x601018)  # populated probe: hit + flush
        assert mech.stats.store_flushes == 1
        queries_at_flush = mech.bloom.queries
        mech.snoop_store(0x601018)  # filter now empty — still a probe
        mech.snoop_store(0x999999)
        assert mech.bloom.queries == queries_at_flush + 2
