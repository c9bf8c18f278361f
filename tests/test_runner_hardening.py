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
import os
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments import runner
from repro.experiments.runner import (
    CampaignPoint,
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
from repro.trace.store import TraceStore
from repro.uarch import CPU
from repro.uarch.cpu import CPUConfig
from repro.uarch.machine import CheckpointStore
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload


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


class TestPrePass:
    def test_pre_run_base_matches_run_workload_and_run_pair(self, tmp_path, monkeypatch):
        # Start-up ends in a pair head whose jump opens warm-up: the two
        # segments are separate streams, so the head must not pair across
        # the boundary in either checkpoint.
        from repro.experiments.runner import warmup_machine_key
        from repro.isa.events import call_direct, jmp_indirect, ret
        from repro.trace.batch import TraceBatch
        from repro.trace.engine import LinkMode
        from repro.trace.store import TraceBundle, trace_key

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
        scale = Scale("tiny", {"memcached": (1, 1)})

        def no_pair(*args, **kwargs):
            raise AssertionError("a point with a pre-run base called run_pair")

        # Two points share the base: the pre-pass runs it, and the points
        # run only their enhanced sides.
        monkeypatch.setattr(runner, "run_pair", no_pair)
        result = run_campaign(
            ["memcached"], scale, abtb_sizes=(16, 64),
            machine_cache_dir=tmp_path / "prerun", trace_cache_dir=tmp_path / "traces",
        )
        monkeypatch.undo()
        assert result.ok and len(result.completed) == 2
        captured = CheckpointStore(tmp_path / "captured")
        run_workload(
            config, warmup_requests=1, measured_requests=1,
            machine_cache=captured, trace_cache=traces,
        )
        key = warmup_machine_key(config, LinkMode.DYNAMIC, CPU().config, None, 1)
        prerun = CheckpointStore(tmp_path / "prerun")
        assert prerun.load(key).to_json() == captured.load(key).to_json()
        for abtb in (16, 64):
            pair = run_pair("memcached", scale, abtb_entries=abtb, trace_cache=traces)
            assert result.completed[pair_key("memcached", abtb, "tiny")] == summarize_pair(*pair)


TINY = Scale("tiny", {"memcached": (1, 2), "apache": (1, 2)})


def _record_sides(monkeypatch, log):
    """Append each run_workload call's workload, side and pid to ``log``;
    forked workers inherit the wrapper."""
    real = runner.run_workload

    def recording(config, mechanism=None, *args, **kwargs):
        with open(log, "a") as fh:
            side = "base" if mechanism is None else "enhanced"
            fh.write(f"{config.name} {side} {os.getpid()}\n")
        return real(config, mechanism, *args, **kwargs)

    monkeypatch.setattr(runner, "run_workload", recording)


def _sides(log) -> list[tuple[str, str, int]]:
    """The (workload, side, pid) calls :func:`_record_sides` logged; clears the log."""
    rows = [line.split() for line in log.read_text().splitlines()]
    log.unlink()
    return sorted((w, side, int(pid)) for w, side, pid in rows)


def _files(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _unlinkable_memcached(monkeypatch) -> None:
    real_init = Workload.__init__

    def init(self, config, *args, **kwargs):
        if config.name == "memcached":
            raise ConfigError("memcached failed to link")
        real_init(self, config, *args, **kwargs)

    # Forked workers inherit the patch.
    monkeypatch.setattr(Workload, "__init__", init)


class TestSharedBases:
    """With a trace cache, a campaign runs each base side that several
    points share once, in the parent, and each of those points only its
    enhanced side; summaries, checkpoint and machine cache stay those of
    per-point run_pair."""

    @staticmethod
    def _campaign(tmp_path, name, run_fn=None, **kwargs):
        return run_campaign(
            checkpoint_path=tmp_path / name / "checkpoint.json",
            machine_cache_dir=tmp_path / name / "machines",
            trace_cache_dir=tmp_path / name / "traces",
            run_fn=run_fn,
            **kwargs,
        )

    def _reference(self, tmp_path, **kwargs):
        """The same campaign through a custom run_fn calling run_pair,
        which takes no pre-pass."""
        caches = dict(
            machine_cache=CheckpointStore(tmp_path / "reference" / "machines"),
            trace_cache=TraceStore(tmp_path / "reference" / "traces"),
        )

        def run_fn(workload, scale, abtb, mechanism=None, cpu=None):
            return run_pair(
                workload, scale, abtb_entries=abtb,
                cpu_config=CPUConfig.from_dict(cpu) if cpu else None, **caches,
            )

        return self._campaign(tmp_path, "reference", run_fn, **kwargs)

    def _assert_matches_reference(self, tmp_path, result, reference):
        assert result.ok and reference.ok
        assert result.completed == reference.completed
        for part in ("checkpoint.json", "machines"):
            assert _files(tmp_path / "run" / part) == _files(tmp_path / "reference" / part)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_shared_base_runs_once_in_the_parent(self, jobs, tmp_path, monkeypatch):
        log = tmp_path / "sides.log"
        _record_sides(monkeypatch, log)
        grid = dict(workloads=["memcached", "apache"], scale=TINY, abtb_sizes=(16, 64))
        result = self._campaign(tmp_path, "run", jobs=jobs, **grid)
        sides = _sides(log)
        parent = os.getpid()
        assert sorted((w, pid) for w, side, pid in sides if side == "base") == [
            ("apache", parent), ("memcached", parent),
        ]
        assert sorted(w for w, side, _pid in sides if side == "enhanced") == [
            "apache", "apache", "memcached", "memcached",
        ]
        # The reference runs both sides of every point in this process.
        reference = self._reference(tmp_path, **grid)
        assert _sides(log) == sorted(
            (w, side, parent)
            for w in ("memcached", "apache")
            for side in ("base", "enhanced")
            for _abtb in (16, 64)
        )
        self._assert_matches_reference(tmp_path, result, reference)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_points_with_their_own_geometry_pre_run_no_base(self, jobs, tmp_path, monkeypatch):
        log = tmp_path / "sides.log"
        _record_sides(monkeypatch, log)
        points = [
            CampaignPoint(f"{w}::btb={n}", w, 64, cpu={"btb_entries": n})
            for w in ("memcached", "apache")
            for n in (512, 1024)
        ]
        result = self._campaign(tmp_path, "run", workloads=[], scale=TINY, points=points, jobs=jobs)
        sides = _sides(log)
        # One base and one enhanced run per point, all inside the leases.
        assert [side for _w, side, _pid in sides].count("base") == 4
        assert [side for _w, side, _pid in sides].count("enhanced") == 4
        reference = self._reference(tmp_path, workloads=[], scale=TINY, points=points)
        self._assert_matches_reference(tmp_path, result, reference)

    def test_a_base_that_raises_leaves_its_points_to_their_leases(self, tmp_path, monkeypatch):
        _unlinkable_memcached(monkeypatch)
        outcomes = {}
        for jobs in (1, 2):
            result = self._campaign(
                tmp_path, f"jobs{jobs}", workloads=["apache", "memcached"], scale=TINY,
                abtb_sizes=(16, 64), jobs=jobs,
                lease_policy=LeasePolicy(max_shard_failures=2, backoff_base_s=0.0),
            )
            outcomes[jobs] = (
                sorted(result.completed),
                {key: info["last_error"] for key, info in result.quarantined.items()},
            )
        assert outcomes[1] == outcomes[2]
        completed, errors = outcomes[1]
        assert completed == [pair_key("apache", n, "tiny") for n in (16, 64)]
        assert errors == {
            pair_key("memcached", n, "tiny"): "ConfigError: memcached failed to link"
            for n in (16, 64)
        }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_with_an_unlinkable_workload_exits_3(self, jobs, tmp_path, monkeypatch, capsys):
        from repro.cli import main as cli_main

        _unlinkable_memcached(monkeypatch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "u", "workloads": ["apache", "memcached"], "warmup": 1,
             "measured": 2, "abtb_entries": [16, 64]}
        ))
        code = cli_main(
            ["sweep", "run", "--spec", str(spec), "--out", str(tmp_path / "o"), "--jobs", jobs]
        )
        assert code == 3
        assert "2/4 point(s) completed" in capsys.readouterr().out
