"""Tests for the resilience layer.

Covers the integrity envelope (checksummed, schema-versioned artifacts),
checkpoint-corruption handling in both the machine cache and the campaign
checkpoint, the binary trace codec's corruption taxonomy, the local
lease workers behind ``run_campaign`` (kill/requeue, hang/quarantine),
one failure policy across the serial and sharded engines, the incident
recorder, and the ``incidents`` CLI.  The lease queue's own unit tests
and the shutdown path live in ``tests/test_service.py``.

The acceptance property threaded through the campaign tests: a campaign
that survives a SIGKILLed worker and a corrupted machine checkpoint must
still produce counters identical to an unperturbed serial reference run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import (
    CheckpointCorruptionError,
    ConfigError,
    ExperimentError,
    SupervisorError,
    TraceCorruptionError,
    TraceError,
)
from repro.experiments import runner
from repro.experiments.runner import _load_checkpoint, _save_checkpoint, run_campaign
from repro.experiments.scale import SMOKE, Scale
from repro.isa import events as ev
from repro.resilience import (
    FaultPlan,
    IncidentKind,
    IncidentRecorder,
    LeasePolicy,
    LocalWorkers,
    integrity,
    payload_checksum,
    read_artifact,
    validate_incident_log,
    write_artifact,
)
from repro.resilience.incidents import load_incident_log
from repro.resilience.integrity import write_canonical
from repro.trace.batch import TRACE_HEADER_SIZE, TraceBatch
from repro.trace.store import TraceStore
from repro.uarch import CPU
from repro.uarch.machine import (
    MACHINE_STATE_SCHEMA,
    MACHINE_STATE_VERSION,
    CheckpointStore,
    MachineState,
)

# Fast-converging knobs for local-worker tests: short deadlines (so
# heartbeats every 2/3 s), near-instant backoff.  Wall clock per test
# stays well under the shortest deadline * retry budget.
FAST = LeasePolicy(
    shard_deadline_s=2.0,
    max_shard_failures=3,
    backoff_base_s=0.05,
    backoff_factor=2.0,
)


# ------------------------------------------------------------------ helpers


def _echo_worker(payload):
    """Deterministic shard worker: doubles the payload's value."""
    return {"summary": {"value": payload["value"] * 2}, "incidents": []}


def _raising_worker(payload):
    raise RuntimeError(f"worker bug for {payload['key']}")


def _machine_state() -> MachineState:
    cpu = CPU()
    cpu.run([ev.block(0x1000, 50), ev.call_direct(0x10C8, 0x2000), ev.block(0x2000, 10)])
    return MachineState.capture(cpu, trace_position=3)


def _indented_envelope(payload, schema: str, schema_version: int) -> str:
    """An envelope in the older ``indent=2`` on-disk layout."""
    envelope = {
        "schema": schema,
        "schema_version": schema_version,
        "sha256": payload_checksum(payload),
        "payload": payload,
    }
    return json.dumps(envelope, indent=2, sort_keys=True)


# ------------------------------------------------------ integrity envelope


class TestIntegrityEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = {"b": [1, 2, 3], "a": {"nested": True}}
        write_artifact(path, payload, "repro.test", 1)
        assert read_artifact(path, "repro.test", 1) == payload

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "repro.test", 1)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "not-json"

    def test_bitflip_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"counter": 12345}, "repro.test", 1)
        path.write_text(path.read_text().replace("12345", "12346"))
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "checksum-mismatch"

    def test_wrong_schema_and_version_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "repro.test", 1)
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.other", 1)
        assert exc.value.reason == "wrong-schema"
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 2)
        assert exc.value.reason == "wrong-version"

    def test_not_an_envelope_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"just": "some json"}))
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "bad-envelope"

    def test_written_artifact_is_one_compact_line(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = {"b": [1, 2.5, None], "a": {"quote\"d": "caf\u00e9", "t": (3, 4)}}
        write_artifact(path, payload, "repro.test", 7)
        text = path.read_text()
        assert "\n" not in text
        envelope = {
            "schema": "repro.test",
            "schema_version": 7,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        assert text == json.dumps(envelope, sort_keys=True)

    def test_indented_envelope_still_reads(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = {"b": [1, 2, 3], "a": {"nested": True}}
        path.write_text(_indented_envelope(payload, "repro.test", 1))
        assert read_artifact(path, "repro.test", 1) == payload

    def test_one_line_artifact_reads_without_reencoding(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        payload = {"b": [1, 2.5, None], "a": {"quote\"d": "café"}}
        write_artifact(path, payload, "repro.test", 3)

        def no_reencode(payload):
            raise AssertionError("payload re-encoded on read")

        monkeypatch.setattr(integrity, "payload_checksum", no_reencode)
        assert read_artifact(path, "repro.test", 3) == payload

    def test_hashed_span_that_is_not_json_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_canonical(path, "{not json", "repro.test", 1)
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "not-json"


# ------------------------------------------------- machine checkpoint store


class TestCheckpointStoreCorruption:
    def test_roundtrip_hits(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", _machine_state())
        loaded = store.load("k")
        assert loaded is not None and loaded.trace_position == 3
        assert store.hits == 1 and store.misses == 0

    def test_truncated_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        path.write_text(path.read_text()[:40])
        assert store.load("k") is None
        assert store.misses == 1
        assert recorder.counts() == {"checkpoint_corrupt": 1}
        assert recorder.incidents[0].context["key"] == "k"

    def test_bitflip_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        raw = bytearray(path.read_bytes())
        # Flip a bit in the payload body, past the envelope header.
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert store.load("k") is None
        assert recorder.counts() == {"checkpoint_corrupt": 1}

    def test_wrong_version_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = MACHINE_STATE_VERSION + 40
        path.write_text(json.dumps(envelope))
        assert store.load("k") is None
        assert recorder.counts() == {"checkpoint_corrupt": 1}
        assert "wrong-version" in recorder.incidents[0].context["reason"]

    def test_corrupt_checkpoint_never_restored(self, tmp_path):
        # The poisoned payload must not leak into a CPU even partially.
        store = CheckpointStore(tmp_path, recorder=IncidentRecorder())
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        envelope["payload"]["cpu"] = {"hostile": True}
        path.write_text(json.dumps(envelope))
        assert store.load("k") is None

    def test_envelope_schema_is_machine_state(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == MACHINE_STATE_SCHEMA
        assert envelope["schema_version"] == MACHINE_STATE_VERSION

    def test_indented_machine_state_still_hits(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = _machine_state()
        payload = json.loads(state.to_json())
        store.path("k").write_text(
            _indented_envelope(payload, MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION)
        )
        loaded = store.load("k")
        assert loaded is not None and store.hits == 1 and store.misses == 0
        assert loaded.to_json() == state.to_json()

    def test_diverging_state_never_written(self, tmp_path):
        state = _machine_state()
        sets = state.cpu["components"]["l1i"]["sets"]
        row = next(row for row in sets if len(row) >= 4)
        row[:4] = row[2:4] + row[:2]  # swap two [tag, stamp] entries
        path = tmp_path / "k.machine.json"
        with pytest.raises(ConfigError, match="L1I"):
            state.save(path)
        assert list(tmp_path.iterdir()) == []

    def test_state_that_restores_but_diverges_never_written(self, tmp_path):
        # Restore accepts a numeric string for the LRU clock, but the
        # re-taken snapshot holds an int: only the rebuild-and-compare
        # check catches it.
        state = _machine_state()
        l1i = state.cpu["components"]["l1i"]
        l1i["stamp"] = str(l1i["stamp"])
        MachineState.from_json(state.to_json()).build_cpu()  # restores fine
        path = tmp_path / "k.machine.json"
        with pytest.raises(ConfigError, match=r"diverging components: \['l1i'\]"):
            state.save(path)
        assert list(tmp_path.iterdir()) == []


# -------------------------------------------------- campaign checkpoint


class TestCampaignCheckpointCorruption:
    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        path.write_text(path.read_text().replace('"n"', '"m"'))
        with pytest.raises(ExperimentError):
            _load_checkpoint(path)

    def test_recorder_mode_requeues(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        path.write_text(path.read_text()[:30])
        recorder = IncidentRecorder()
        assert _load_checkpoint(path, recorder=recorder) == {}
        assert recorder.counts() == {"campaign_checkpoint_corrupt": 1}

    def test_clean_checkpoint_loads_either_way(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        assert _load_checkpoint(path) == {"a": {"n": 1}}
        assert _load_checkpoint(path, recorder=IncidentRecorder()) == {"a": {"n": 1}}


# ------------------------------------------------------- binary trace codec


def _sample_batch() -> TraceBatch:
    return TraceBatch.from_events(
        [
            ev.block(0x1000, 5),
            ev.call_indirect(0x1014, 0x2000, 0x3000),
            ev.mark(("begin", "get", 1)),
            ev.cond_branch(0x1020, 0x1040, False),
            ev.mark(None),
            ev.store(0x1030, 0x4000),
        ]
    )


class TestTraceCodec:
    def test_roundtrip_bytes_and_file(self, tmp_path):
        batch = _sample_batch()
        assert list(TraceBatch.from_bytes(batch.to_bytes())) == list(batch)
        path = batch.save(tmp_path / "t.rprt")
        loaded = TraceBatch.load(path)
        assert list(loaded) == list(batch)
        # Tuple tags survive the JSON trip as tuples, not lists.
        assert loaded.tag_of(2) == ("begin", "get", 1)

    def test_truncated_header(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw[:10])
        assert exc.value.offset == 10

    def test_truncated_tail_reports_offset(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw[:-7])
        assert exc.value.offset == len(raw) - 7

    def test_bad_magic_and_version(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError, match="magic"):
            TraceBatch.from_bytes(b"XXXX" + raw[4:])
        with pytest.raises(TraceCorruptionError, match="version"):
            TraceBatch.from_bytes(raw[:4] + (99).to_bytes(2, "little") + raw[6:])

    def test_bitflip_in_array_detected(self):
        raw = bytearray(_sample_batch().to_bytes())
        raw[-3] ^= 0xFF
        with pytest.raises(TraceCorruptionError, match="checksum"):
            TraceBatch.from_bytes(bytes(raw))

    def test_bitflip_in_tags_detected(self):
        raw = bytearray(_sample_batch().to_bytes())
        raw[TRACE_HEADER_SIZE + 1] ^= 0xFF
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(bytes(raw))
        assert exc.value.offset == TRACE_HEADER_SIZE

    def test_unknown_kind_reports_row(self):
        batch = _sample_batch()
        data = batch.data.copy()
        data["kind"][3] = 99
        raw = TraceBatch(data, batch.tags).to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw)
        assert exc.value.row == 3 and "kind 99" in str(exc.value)

    def test_out_of_range_tag_index_reports_row(self):
        batch = _sample_batch()
        data = batch.data.copy()
        data["tag"][0] = 77
        raw = TraceBatch(data, batch.tags).to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw)
        assert exc.value.row == 0

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(TraceCorruptionError, match="unreadable"):
            TraceBatch.load(tmp_path / "missing.rprt")

    def test_unencodable_tag_rejected_at_write(self):
        batch = TraceBatch.from_events([ev.mark(object())])
        with pytest.raises(TraceError, match="serialised"):
            batch.to_bytes()

    def test_negative_kind_rejected_by_event_decoder(self):
        from repro.isa.events import event_from_row

        with pytest.raises(TraceCorruptionError, match="unknown event kind"):
            event_from_row(-1, 0, 1, 4, 0, 0, 1)
        with pytest.raises(TraceCorruptionError, match="unknown event kind"):
            event_from_row(12, 0, 1, 4, 0, 0, 1)


# ------------------------------------------------------------ local workers


def _shards(n: int):
    return [(f"s{i}", {"key": f"s{i}", "value": i}) for i in range(n)]


class TestSupervisor:
    """The local lease loop that supervises ``run_campaign``'s workers."""

    def test_clean_run(self):
        report = LocalWorkers(_echo_worker, _shards(3), jobs=2, policy=FAST).run()
        assert report.ok and not report.quarantined
        assert sorted(report.outcomes) == ["s0", "s1", "s2"]
        assert report.outcomes["s1"]["summary"] == {"value": 2}

    def test_sigkill_requeues_and_completes(self):
        recorder = IncidentRecorder()
        landed = []
        report = LocalWorkers(
            _echo_worker,
            _shards(3),
            jobs=2,
            policy=FAST,
            recorder=recorder,
            fault_plan=FaultPlan(kill_match="s1", kill_attempts=1),
            on_outcome=lambda key, outcome: landed.append(key),
        ).run()
        assert report.ok
        # The killed shard still produced the same outcome as its siblings.
        assert report.outcomes["s1"]["summary"] == {"value": 2}
        assert sorted(landed) == ["s0", "s1", "s2"]
        counts = recorder.counts()
        assert counts["worker_death"] == 1 and counts["shard_requeued"] == 1

    def test_more_workers_than_cores_replace_every_dead_worker(self):
        # "s1" also matches s10 and s11: three first attempts die, each
        # replaced while the other workers keep leasing.
        recorder = IncidentRecorder()
        report = LocalWorkers(
            _echo_worker,
            _shards(12),
            jobs=4,
            policy=FAST,
            recorder=recorder,
            fault_plan=FaultPlan(kill_match="s1", kill_attempts=1),
        ).run()
        assert report.ok
        assert {k: o["summary"]["value"] for k, o in report.outcomes.items()} == {
            f"s{i}": 2 * i for i in range(12)
        }
        assert recorder.counts()["worker_death"] == 3

    def test_hang_quarantines_after_budget(self):
        policy = LeasePolicy(
            shard_deadline_s=0.5, max_shard_failures=2, backoff_base_s=0.05
        )
        recorder = IncidentRecorder()
        report = LocalWorkers(
            _echo_worker,
            _shards(2),
            jobs=2,
            policy=policy,
            recorder=recorder,
            fault_plan=FaultPlan(hang_match="s0", hang_attempts=99),
        ).run()
        # The campaign *completes*, degraded: the healthy shard's result is
        # present, the wedged one is quarantined with its failure history.
        assert not report.ok
        assert "s0" in report.quarantined and "s1" in report.outcomes
        assert report.quarantined["s0"]["failures"] == 2
        counts = recorder.counts()
        assert counts["worker_hang"] == 2 and counts["shard_quarantined"] == 1

    def test_worker_exception_quarantines(self):
        policy = LeasePolicy(
            shard_deadline_s=2.0, max_shard_failures=2, backoff_base_s=0.02
        )
        report = LocalWorkers(_raising_worker, _shards(1), jobs=1, policy=policy).run()
        assert not report.ok and "s0" in report.quarantined
        assert "RuntimeError" in report.quarantined["s0"]["last_error"]

    def test_duplicate_keys_rejected(self):
        from repro.errors import SupervisorError

        with pytest.raises(SupervisorError, match="unique"):
            LocalWorkers(_echo_worker, [("a", 1), ("a", 2)])

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        # A parent killed outright (SIGKILL, OOM) runs no cleanup.  Its
        # idle worker must read EOF and exit; its busy worker must exit
        # once it finds nobody to deliver to.
        script = textwrap.dedent(
            """
            import os, sys, time
            from repro.resilience import LeasePolicy, LocalWorkers

            def work(name):
                with open(os.path.join(sys.argv[1], name + ".pid"), "w") as fh:
                    fh.write(str(os.getpid()))
                if name == "slow":
                    time.sleep(3.0)
                return {"summary": {}}

            LocalWorkers(
                work, [("fast", "fast"), ("slow", "slow")], jobs=2,
                policy=LeasePolicy(shard_deadline_s=60.0),
            ).run()
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        parent = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)
        pid_files = [tmp_path / "fast.pid", tmp_path / "slow.pid"]
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while not all(f.exists() and f.read_text() for f in pid_files):
                assert parent.poll() is None, "parent exited before the kill"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.02)
            pids = [int(f.read_text()) for f in pid_files]
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 15.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)], "orphaned workers live on"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ------------------------------------------------------ resilient campaigns
#
# These drive real simulations at SMOKE scale, so they live behind a
# shared serial reference fixture to pay the baseline cost once.

WORKLOADS = ("apache", "memcached")
ABTB = (64,)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """Unperturbed serial campaign — the ground truth every resilient run
    must reproduce counter-for-counter."""
    return run_campaign(WORKLOADS, SMOKE, abtb_sizes=ABTB, jobs=1)


class TestSupervisedCampaign:
    def test_survives_kill_and_corruption(self, serial_reference, tmp_path):
        """The acceptance scenario: one campaign run survives a SIGKILLed
        worker and a corrupted machine checkpoint — and its counters
        match the serial reference."""
        cache_dir = tmp_path / "machines"
        # Seed the machine cache, then corrupt one checkpoint in place.
        run_campaign(
            ("apache",), SMOKE, abtb_sizes=ABTB, jobs=1, machine_cache_dir=cache_dir
        )
        victims = sorted(cache_dir.glob("*.machine.json"))
        assert victims, "warm-up should have populated the machine cache"
        raw = bytearray(victims[0].read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victims[0].write_bytes(bytes(raw))

        recorder = IncidentRecorder()
        checkpoint = tmp_path / "campaign.json"
        manifest = tmp_path / "manifest.json"
        result = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            machine_cache_dir=cache_dir,
            checkpoint_path=checkpoint,
            manifest_path=manifest,
            recorder=recorder,
            lease_policy=FAST,
            fault_plan=FaultPlan(kill_match="memcached", kill_attempts=1),
        )
        assert result.ok and not result.degraded
        assert result.completed == serial_reference.completed
        counts = recorder.counts()
        assert counts["worker_death"] >= 1
        assert counts["shard_requeued"] >= 1
        assert counts["checkpoint_corrupt"] >= 1
        # Manifest is a valid integrity artifact recording the whole story.
        payload = read_artifact(manifest, "repro.campaign-manifest", 2)
        assert sorted(payload["completed"]) == sorted(result.completed)
        assert payload["degraded"] is False
        assert payload["incident_counts"] == counts

    def test_quarantine_yields_degraded_partial_manifest(self, tmp_path):
        policy = LeasePolicy(
            shard_deadline_s=1.0, max_shard_failures=1, backoff_base_s=0.05
        )
        recorder = IncidentRecorder()
        manifest = tmp_path / "manifest.json"
        result = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            recorder=recorder,
            lease_policy=policy,
            fault_plan=FaultPlan(hang_match="memcached", hang_attempts=99),
            manifest_path=manifest,
        )
        assert result.degraded and not result.ok
        assert any("memcached" in key for key in result.quarantined)
        assert all("apache" in key for key in result.completed)
        assert recorder.counts()["shard_quarantined"] == 1
        payload = read_artifact(manifest, "repro.campaign-manifest", 2)
        assert payload["degraded"] is True
        assert sorted(payload["quarantined"]) == sorted(result.quarantined)
        assert "quarantined" in result.render()

    def test_resume_after_kill_merges_identically(self, serial_reference, tmp_path):
        """SIGKILL mid-campaign, then resume from the incremental
        checkpoint: the merged report matches the serial reference."""
        checkpoint = tmp_path / "campaign.json"
        recorder = IncidentRecorder()
        first = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            recorder=recorder,
            lease_policy=FAST,
            checkpoint_path=checkpoint,
            fault_plan=FaultPlan(kill_match="apache", kill_attempts=1),
        )
        assert first.ok and recorder.counts()["worker_death"] == 1
        # Resume: everything is already checkpointed, nothing re-runs.
        resumed = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            lease_policy=FAST,
            checkpoint_path=checkpoint,
        )
        assert resumed.resumed == len(resumed.completed)
        assert resumed.completed == serial_reference.completed
        assert first.completed == serial_reference.completed


# ------------------------------------------------- one failure policy


def _raising_pair(*args, **kwargs):
    raise ExperimentError("injected pair failure")


class TestOneFailurePolicy:
    """A pair that always raises ends the same way in every campaign
    engine: each attempt runs once, the lease queue requeues it once and
    then quarantines it, and no worker is reported dead."""

    POLICY = LeasePolicy(max_shard_failures=2, backoff_base_s=0.0)

    @pytest.mark.parametrize("engine", ["serial", "jobs2"])
    def test_raising_pair_is_quarantined_after_its_budget(self, engine, monkeypatch):
        recorder = IncidentRecorder()
        if engine == "serial":
            result = run_campaign(
                ["memcached"], SMOKE, abtb_sizes=(64,), run_fn=_raising_pair,
                recorder=recorder, lease_policy=self.POLICY,
            )
        else:
            # Forked workers inherit the patched module global.
            monkeypatch.setattr(runner, "run_pair", _raising_pair)
            result = run_campaign(
                ["memcached"], SMOKE, abtb_sizes=(64,), jobs=2,
                recorder=recorder, lease_policy=self.POLICY,
            )
        key = "memcached::abtb=64::scale=smoke"
        assert result.completed == {} and list(result.quarantined) == [key]
        assert result.quarantined[key]["failures"] == 2
        assert "injected pair failure" in result.quarantined[key]["last_error"]
        assert result.attempts == {key: 2}
        counts = recorder.counts()
        assert counts.get("shard_requeued") == 1
        assert counts.get("shard_quarantined") == 1
        assert "worker_death" not in counts

    def test_failed_worker_attempt_ships_its_incidents(self, tmp_path, monkeypatch):
        """A forked attempt that logs an incident and then raises hands
        the incident to the parent, logged before its lease fails."""

        def damaged_then_raise(self, key, segments=None):
            self.recorder.record(
                IncidentKind.TRACE_CORRUPT, f"entry {key[:12]} is damaged", path=str(self.root)
            )
            raise RuntimeError("trace store gave up")

        # Patched before the fork, so both workers inherit it; the
        # parent's pre-pass pre-runs no base for a single point, finds
        # an empty store and generates without a load.
        monkeypatch.setattr(TraceStore, "load", damaged_then_raise)
        recorder = IncidentRecorder()
        result = run_campaign(
            ["memcached"], Scale("tiny", {"memcached": (1, 2)}), abtb_sizes=(64,),
            jobs=2, trace_cache_dir=tmp_path / "traces",
            recorder=recorder, lease_policy=self.POLICY,
        )
        key = "memcached::abtb=64::scale=tiny"
        assert list(result.quarantined) == [key]
        assert "trace store gave up" in result.quarantined[key]["last_error"]
        assert [i.kind for i in recorder.incidents] == [
            "trace_corrupt", "shard_requeued", "trace_corrupt", "shard_quarantined",
        ]

    @pytest.mark.parametrize("command", ["campaign", "sweep"])
    def test_quarantined_pair_exits_3(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "run_pair", _raising_pair)
        if command == "campaign":
            code = cli_main(
                ["campaign", "--workloads", "memcached", "--abtb", "64",
                 "--max-shard-failures", "1"]
            )
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(
                {"name": "q", "workloads": ["memcached"], "warmup": 1,
                 "measured": 2, "abtb_entries": [64]}
            ))
            code = cli_main(["sweep", "run", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "1 quarantined" in capsys.readouterr().out


# ------------------------------------------------------- incident recorder


class TestIncidentRecorder:
    def test_counts_and_metrics(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(metrics_out=str(tmp_path / "metrics.json"))
        recorder = obs.incident_recorder()
        recorder.record(IncidentKind.WORKER_DEATH, "shard died", key="s1")
        recorder.record(IncidentKind.WORKER_DEATH, "again", key="s1")
        recorder.record(IncidentKind.ORACLE_VIOLATION, "stale target", severity="fatal")
        assert recorder.counts() == {"oracle_violation": 1, "worker_death": 2}
        assert obs.metrics.counter("incidents.total").value == 3
        assert obs.metrics.counter("incidents.worker_death").value == 2

    def test_jsonl_roundtrip_and_validation(self, tmp_path):
        recorder = IncidentRecorder(clock=lambda: 123.0)
        recorder.record(IncidentKind.TRACE_CORRUPT, "bad row", row=7)
        path = recorder.write_jsonl(tmp_path / "incidents.jsonl")
        assert validate_incident_log(path) == []
        loaded = load_incident_log(path)
        assert len(loaded) == 1
        assert loaded[0].kind == "trace_corrupt" and loaded[0].context == {"row": 7}

    def test_validation_flags_bad_lines(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        path.write_text(
            json.dumps({"schema_version": 1, "kind": "worker_death", "severity": "error",
                        "message": "ok", "timestamp": 1.0, "context": {}})
            + "\n{not json\n"
            + json.dumps({"schema_version": 1, "kind": "made_up", "severity": "error",
                          "message": "x", "timestamp": 1.0, "context": {}})
            + "\n"
        )
        problems = validate_incident_log(path)
        assert len(problems) == 2

    def test_extend_dicts_drops_garbage(self):
        recorder = IncidentRecorder()
        donor = IncidentRecorder(clock=lambda: 1.0)
        donor.record(IncidentKind.WORKER_HANG, "from worker")
        absorbed = recorder.extend_dicts(donor.as_dicts() + [{"nope": True}, 42])
        assert absorbed == 1
        assert recorder.counts() == {"worker_hang": 1}


# ------------------------------------------------------------ incidents CLI


class TestIncidentsCli:
    def _write_log(self, tmp_path):
        recorder = IncidentRecorder(clock=lambda: 1.0)
        recorder.record(IncidentKind.WORKER_DEATH, "shard s1 died", key="s1")
        recorder.record(IncidentKind.CHECKPOINT_CORRUPT, "bad checkpoint")
        return recorder.write_jsonl(tmp_path / "incidents.jsonl")

    def test_summary_ok(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path)]) == 0
        out = capsys.readouterr().out
        assert "worker_death" in out and "checkpoint_corrupt" in out

    def test_require_present_and_missing(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path), "--require", "worker_death"]) == 0
        assert cli_main(["incidents", str(path), "--require", "result_conflict"]) == 1

    def test_json_output(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"] == {"checkpoint_corrupt": 1, "worker_death": 1}

    def test_invalid_log_rejected(self, tmp_path, capsys):
        path = tmp_path / "incidents.jsonl"
        path.write_text("{broken\n")
        assert cli_main(["incidents", str(path)]) == 1

    def test_retired_kinds_still_validate(self, tmp_path, capsys):
        """Logs written while the HTTP campaign service existed still read:
        its six kinds validate, though nothing can record them now."""
        retired = [
            "lease_expired", "journal_corrupt", "result_corrupt",
            "result_conflict", "manager_recovered", "result_evicted",
        ]
        path = tmp_path / "incidents.jsonl"
        path.write_text("".join(
            json.dumps({"schema_version": 1, "kind": kind, "severity": "warning",
                        "message": f"old {kind}", "timestamp": 1.0, "context": {}}) + "\n"
            for kind in retired
        ))
        assert validate_incident_log(path) == []
        assert [i.kind for i in load_incident_log(path)] == retired
        assert cli_main(["incidents", str(path), "--require", "lease_expired"]) == 0
        out = capsys.readouterr().out
        assert all(kind in out for kind in retired)
        for kind in retired:
            with pytest.raises(ValueError):
                IncidentKind(kind)
