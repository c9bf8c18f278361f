"""Tests for the campaign engine's shutdown path.

Shutdown hardening: a KeyboardInterrupt flushes the campaign checkpoint
(sharded runs included) and ``repro campaign`` exits 130; a missing
checkpoint is a silent miss, not an incident; the atomic writers leave
no temporary files behind.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import runner
from repro.experiments.runner import (
    _load_checkpoint,
    _save_checkpoint,
    pair_key,
    run_campaign,
)
from repro.experiments.scale import SMOKE
from repro.resilience import IncidentRecorder


# ------------------------------------------------------- shutdown hardening


class TestShutdownHardening:
    def test_run_campaign_interrupt_flushes_checkpoint(self, tmp_path, monkeypatch):
        """SIGINT in a serial campaign once its first pair has landed: the
        one worker is stopped, the flush keeps that pair, and the shutdown
        is logged."""
        checkpoint = tmp_path / "campaign.json"
        real_save = runner._save_checkpoint
        saves = []

        def save_then_interrupt(path, completed):
            real_save(path, completed)
            saves.append(sorted(completed))
            if len(saves) == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(runner, "_campaign_worker", _synthetic_campaign_worker)
        monkeypatch.setattr(runner, "_save_checkpoint", save_then_interrupt)
        recorder = IncidentRecorder()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                ["apache"], SMOKE, abtb_sizes=(16, 64, 256),
                checkpoint_path=checkpoint, recorder=recorder,
            )
        assert recorder.counts().get("shutdown") == 1
        resumed = _load_checkpoint(checkpoint, recorder)
        assert set(resumed) == {"apache::abtb=16::scale=smoke"}

    def test_sharded_interrupt_keeps_every_landed_pair(self, tmp_path, monkeypatch):
        """SIGINT after a worker's pair landed (and was checkpointed) but
        before the task-order merge: the flush must not erase it, and a
        resume must skip it."""
        checkpoint = tmp_path / "campaign.json"
        held: list[list[str]] = []
        real_save = runner._save_checkpoint

        def save_then_interrupt(path, completed):
            real_save(path, completed)
            held.append(sorted(completed))
            if len(held) == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(runner, "_campaign_worker", _synthetic_campaign_worker)
        monkeypatch.setattr(runner, "_save_checkpoint", save_then_interrupt)
        recorder = IncidentRecorder()
        keys = {pair_key(w, n, "smoke") for w in ("apache", "memcached") for n in (16, 64)}
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                ["apache", "memcached"], SMOKE, abtb_sizes=(16, 64),
                checkpoint_path=checkpoint, jobs=2, recorder=recorder,
            )
        assert len(held[0]) == 1
        flushed = _load_checkpoint(checkpoint, None)
        assert sorted(flushed) == held[0]  # the landed pair survived the flush
        shutdown = [i for i in recorder.incidents if i.kind == "shutdown"]
        assert shutdown[0].context["completed"] == len(flushed)

        monkeypatch.setattr(runner, "_save_checkpoint", real_save)
        resumed = run_campaign(
            ["apache", "memcached"], SMOKE, abtb_sizes=(16, 64),
            checkpoint_path=checkpoint, jobs=2,
        )
        assert resumed.resumed == len(flushed)
        assert set(resumed.attempts) == keys - set(flushed)  # only the rest ran
        assert set(resumed.completed) == keys

    def test_load_checkpoint_missing_is_silent(self, tmp_path):
        recorder = IncidentRecorder()
        assert _load_checkpoint(tmp_path / "absent.json", recorder) == {}
        assert _load_checkpoint(tmp_path / "absent.json", None) == {}
        assert recorder.counts() == {}

    def test_save_then_load_still_roundtrips(self, tmp_path):
        path = tmp_path / "ck.json"
        _save_checkpoint(path, {"k": {"speedup": 1.0}})
        assert _load_checkpoint(path, None) == {"k": {"speedup": 1.0}}

    def test_cli_campaign_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_campaign", boom)
        code = cli_main(
            ["campaign", "--workloads", "apache", "--abtb", "16",
             "--incidents-out", str(tmp_path / "inc.jsonl")]
        )
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_atomic_writers_leave_no_tmp_litter(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        recorder = IncidentRecorder()
        recorder.record("shutdown", "x", severity="info")
        recorder.write_jsonl(tmp_path / "inc.jsonl")
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.write(str(tmp_path / "m.prom"))
        registry.write(str(tmp_path / "m.jsonl"))
        tracer = Tracer()
        tracer.instant("x")
        tracer.write(str(tmp_path / "t.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inc.jsonl", "m.jsonl", "m.prom", "t.json",
        ]
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]


def _synthetic_campaign_worker(task: dict) -> dict:
    """Stands in for ``runner._campaign_worker`` in forked workers: a
    deterministic outcome per key, no simulation."""
    key = task["key"]
    return {
        "attempts": 1,
        "summary": {"speedup": 1.0 + len(key) / 100.0, "instructions": 1000},
    }
