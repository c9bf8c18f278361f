"""Tests for the hardened experiment runner.

Mark pairing that surfaces unmatched begin/end marks, latency guards
against corrupt samples, config validation, and the campaign machinery:
each attempt runs once as a lease, a raising attempt is requeued with
backoff and quarantined once its failure budget is spent, JSON
checkpoint/resume, and graceful degradation.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.runner import (
    RequestSample,
    RunResult,
    _pair_marks,
    pair_key,
    run_campaign,
    run_pair,
    run_workload,
    summarize_pair,
)
from repro.experiments.scale import SMOKE, Scale
from repro.isa.events import block, mark
from repro.resilience import IncidentRecorder, LeasePolicy
from repro.uarch import CPU
from repro.workloads import ALL_WORKLOADS


def _cpu_with_marks(tags):
    cpu = CPU()
    events = []
    for tag in tags:
        events.append(mark(tag))
        events.append(block(0x1000, 10))
    cpu.run(events)
    return cpu


class TestPairMarks:
    def test_well_formed_marks_pair_up(self):
        cpu = _cpu_with_marks([("begin", "get", 1), ("end", "get", 1)])
        samples, unmatched, dropped = _pair_marks(cpu, 0)
        assert len(samples) == 1 and unmatched == 0 and dropped == 0
        assert samples[0].class_name == "get" and samples[0].instructions > 0

    def test_end_without_begin_is_counted(self):
        cpu = _cpu_with_marks([("end", "get", 9)])
        samples, unmatched, _ = _pair_marks(cpu, 0)
        assert samples == [] and unmatched == 1

    def test_begin_without_end_is_counted(self):
        cpu = _cpu_with_marks([("begin", "get", 1), ("begin", "set", 2), ("end", "get", 1)])
        samples, unmatched, _ = _pair_marks(cpu, 0)
        assert len(samples) == 1 and unmatched == 1

    def test_duplicated_begin_is_counted(self):
        cpu = _cpu_with_marks([("begin", "get", 1), ("begin", "get", 1), ("end", "get", 1)])
        _, unmatched, _ = _pair_marks(cpu, 0)
        assert unmatched == 1

    @pytest.mark.parametrize(
        "tags",
        [
            [("end", "get", 9)],
            [("begin", "get", 1)],
            [("begin", "get", 1), ("begin", "get", 1), ("end", "get", 1)],
        ],
        ids=["orphan-end", "orphan-begin", "dup-begin"],
    )
    def test_strict_mode_raises(self, tags):
        cpu = _cpu_with_marks(tags)
        with pytest.raises(ExperimentError):
            _pair_marks(cpu, 0, strict=True)

    def test_run_workload_reports_zero_unmatched_on_healthy_trace(self):
        result = run_workload(
            ALL_WORKLOADS["memcached"].config(seed=3),
            warmup_requests=2,
            measured_requests=5,
            strict_marks=True,
        )
        assert result.unmatched_marks == 0
        assert result.dropped_samples == 0
        assert len(result.requests) == 5


class TestLatencyGuards:
    def _result_with(self, samples):
        return RunResult("x", None, samples, None, None)

    def test_non_finite_and_negative_cycles_excluded(self):
        result = self._result_with(
            [
                RequestSample("get", 1, 100, 2000.0),
                RequestSample("get", 2, 100, float("nan")),
                RequestSample("get", 3, 100, -5.0),
                RequestSample("get", 4, 100, float("inf")),
            ]
        )
        lats = result.latencies_us()
        assert len(lats) == 1
        assert all(math.isfinite(v) and v >= 0 for v in lats)


class TestRunPairValidation:
    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            run_pair("postgres", SMOKE)

    def test_negative_warmup_rejected(self):
        bad = Scale("bad", {"memcached": (-1, 10)})
        with pytest.raises(ConfigError):
            run_pair("memcached", bad)

    def test_empty_window_rejected(self):
        bad = Scale("bad", {"memcached": (5, 0)})
        with pytest.raises(ConfigError):
            run_pair("memcached", bad)


#: A two-attempt failure budget with no backoff wait.
FAST_QUARANTINE = LeasePolicy(max_shard_failures=2, backoff_base_s=0.0)


def _fake_pair(cycles_base=200.0, cycles_enh=100.0):
    mk = lambda cyc: SimpleNamespace(  # noqa: E731
        counters=SimpleNamespace(instructions=1000, cycles=cyc),
        skip_rate=0.9,
        unmatched_marks=0,
    )
    return mk(cycles_base), mk(cycles_enh)


class TestCampaign:
    def test_retry_with_backoff_then_success(self):
        # A raising attempt fails its lease; the queue requeues it with
        # exponential backoff and the third attempt completes the pair.
        calls = {"n": 0}

        def flaky(workload, scale, abtb):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ExperimentError("transient")
            return _fake_pair()

        recorder = IncidentRecorder()
        result = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(64,),
            run_fn=flaky,
            recorder=recorder,
            lease_policy=LeasePolicy(backoff_base_s=0.01),
        )
        key = pair_key("memcached", 64, "smoke")
        assert result.ok
        assert result.attempts[key] == 3
        requeued = [i for i in recorder.incidents if i.kind == "shard_requeued"]
        assert [i.context["backoff_s"] for i in requeued] == [0.01, 0.02]
        assert result.completed[key]["speedup"] == pytest.approx(2.0)

    def test_retries_exhausted_records_failure(self):
        calls = []

        def always_fails(workload, scale, abtb):
            calls.append(abtb)
            raise ExperimentError("still broken")

        result = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(64,),
            run_fn=always_fails,
            lease_policy=FAST_QUARANTINE,
        )
        key = pair_key("memcached", 64, "smoke")
        assert not result.ok and result.degraded
        assert result.quarantined[key]["failures"] == 2
        assert "still broken" in result.quarantined[key]["last_error"]
        assert result.attempts[key] == 2 and len(calls) == 2

    def test_graceful_degradation_partial_report(self):
        def picky(workload, scale, abtb):
            if workload == "apache":
                raise ExperimentError("bad day")
            return _fake_pair()

        result = run_campaign(
            ["memcached", "apache"],
            SMOKE,
            abtb_sizes=(64,),
            run_fn=picky,
            lease_policy=FAST_QUARANTINE,
        )
        assert not result.ok
        assert pair_key("memcached", 64, "smoke") in result.completed
        assert pair_key("apache", 64, "smoke") in result.quarantined
        rendered = result.render()
        assert "1 quarantined" in rendered
        assert "QUARANTINED after 2 failure(s): ExperimentError: bad day" in rendered

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        path = tmp_path / "ckpt.json"
        calls = []

        def counting(workload, scale, abtb):
            calls.append((workload, abtb))
            return _fake_pair()

        first = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(32, 64),
            checkpoint_path=path,
            run_fn=counting,
        )
        assert first.ok and len(calls) == 2
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == "repro.campaign-checkpoint"
        assert envelope["schema_version"] == 2
        assert set(envelope["payload"]["completed"]) == {
            pair_key("memcached", 32, "smoke"),
            pair_key("memcached", 64, "smoke"),
        }

        second = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(32, 64),
            checkpoint_path=path,
            run_fn=counting,
        )
        assert second.resumed == 2
        assert len(calls) == 2  # nothing re-ran
        assert second.completed == first.completed

    def test_checkpoint_written_after_each_pair(self, tmp_path):
        # A failure on the second pair must not lose the first pair's work.
        path = tmp_path / "ckpt.json"

        def second_fails(workload, scale, abtb):
            if abtb == 64:
                raise ExperimentError("died mid-campaign")
            return _fake_pair()

        result = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(32, 64),
            checkpoint_path=path,
            run_fn=second_fails,
            lease_policy=FAST_QUARANTINE,
        )
        assert not result.ok
        saved = json.loads(path.read_text())["payload"]["completed"]
        assert pair_key("memcached", 32, "smoke") in saved
        assert pair_key("memcached", 64, "smoke") not in saved

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            run_campaign(["memcached"], SMOKE, checkpoint_path=path, run_fn=_fake_pair)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "completed": {}}))
        with pytest.raises(ExperimentError):
            run_campaign(["memcached"], SMOKE, checkpoint_path=path, run_fn=_fake_pair)

    def test_summarize_pair_is_json_serialisable(self):
        base, enh = _fake_pair(300.0, 150.0)
        summary = summarize_pair(base, enh)
        json.dumps(summary)
        assert summary["speedup"] == pytest.approx(2.0)

    def test_real_pair_end_to_end(self, tmp_path):
        # Default run_fn drives the actual simulator once.
        result = run_campaign(
            ["memcached"],
            SMOKE,
            abtb_sizes=(64,),
            checkpoint_path=tmp_path / "ckpt.json",
        )
        assert result.ok
        summary = result.completed[pair_key("memcached", 64, "smoke")]
        assert summary["instructions"] > 0
        assert 0.0 <= summary["skip_rate"] <= 1.0
        assert summary["unmatched_marks"] == 0


class TestPrefill:
    def test_prefilled_base_checkpoint_matches_run_workload(self, tmp_path):
        # Start-up ends in a pair head whose jump opens warm-up: the two
        # segments are separate streams, so the head must not pair across
        # the boundary in either checkpoint.
        from repro.experiments.runner import _prefill_caches, warmup_machine_key
        from repro.isa.events import call_direct, jmp_indirect, ret
        from repro.trace.batch import TraceBatch
        from repro.trace.engine import LinkMode
        from repro.trace.store import TraceBundle, TraceStore, trace_key
        from repro.uarch.machine import CheckpointStore

        site, stub, func, got = 0x400100, 0x401020, 0x7F0000_0000, 0x601018
        startup = [block(0x400000, 8), call_direct(site, stub)]
        warmup = [jmp_indirect(stub, func, got), block(func, 10), ret(func + 40, site + 5)]
        measured = [block(0x400000, 8)]
        config = ALL_WORKLOADS["memcached"].config()
        traces = TraceStore(tmp_path / "traces")
        traces.save(
            trace_key(config, LinkMode.DYNAMIC, 1, 1),
            TraceBundle(
                *(TraceBatch.from_events(seg) for seg in (startup, warmup, measured)),
                stats={},
            ),
        )
        prefilled = CheckpointStore(tmp_path / "prefilled")
        _prefill_caches(["memcached"], Scale("tiny", {"memcached": (1, 1)}), prefilled, traces)
        captured = CheckpointStore(tmp_path / "captured")
        run_workload(
            config, warmup_requests=1, measured_requests=1,
            machine_cache=captured, trace_cache=traces,
        )
        key = warmup_machine_key(config, LinkMode.DYNAMIC, CPU().config, None, 1)
        assert prefilled.load(key).to_json() == captured.load(key).to_json()
