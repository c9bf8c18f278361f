"""Tests for the campaign service (src/repro/service/).

Covers the lease queue's deadline/backoff/quarantine semantics under a
fake clock, the strict request schemas, the write-ahead journal's
corruption taxonomy (torn tail vs bit flip vs snapshot loss), the
content-addressed result store's idempotence, the manager state machine
(including restart recovery and journal-corruption healing), idempotent
delivery (duplicated registers, fails, submits and every worker-facing
POST), the ``ManagerClient`` retry contract, campaign-aware result-store
gc, the REST API over real HTTP, the worker agent, and the
shutdown-hardening satellites (KeyboardInterrupt flushes checkpoints,
sharded ones included; missing files are silent misses, not incidents).

The acceptance property: a service campaign that loses a worker to
SIGKILL *and* has its manager killed and restarted mid-run must produce
a CampaignResult counter-for-counter identical to a serial fault-free
``run_campaign`` of the same spec.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.cli import build_parser, main as cli_main
from repro.errors import SchemaError, ServiceError, SupervisorError
from repro.experiments import runner
from repro.experiments.runner import (
    _load_checkpoint,
    _save_checkpoint,
    pair_key,
    run_campaign,
)
from repro.experiments.scale import SMOKE
from repro.resilience import IncidentRecorder, LeasePolicy, LeaseQueue, ShardPhase
from repro.resilience.integrity import read_artifact
from repro.service import (
    CampaignManager,
    CampaignSpec,
    CompleteRequest,
    Journal,
    ResultGcPolicy,
    ResultStore,
    collect_garbage,
    referenced_result_keys,
    shard_result_key,
)
from repro.service import store as service_store
from repro.service.api import ManagerServer
from repro.service.schemas import FailRequest, LeaseRequest
from repro.service.store import RESULT_SCHEMA, RESULT_SCHEMA_VERSION
from repro.service.worker import ManagerClient, WorkerAgent, http_exchange
from repro.uarch.machine import MACHINE_STATE_VERSION


class Clock:
    """Deterministic monotonic clock for lease tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


#: Fast-converging lease knobs: TTL 10s on the fake clock, tiny backoff.
FAST = LeasePolicy(
    shard_deadline_s=10.0,
    max_shard_failures=3,
    backoff_base_s=1.0,
    backoff_factor=2.0,
)


def _outcome(key: str) -> dict:
    """Synthetic worker outcome, deterministic per key."""
    return {
        "attempts": 1,
        "summary": {"speedup": 1.0 + len(key) / 100.0, "instructions": 1000},
    }


SPEC = CampaignSpec(workloads=("apache",), abtb_sizes=(16,))


def _complete(manager, cid: str, key: str, worker: str = "w001"):
    return manager.complete(
        CompleteRequest(
            campaign_id=cid,
            key=key,
            worker_id=worker,
            outcome={"summary": {"probe": key}, "attempts": 1},
        )
    )


# --------------------------------------------------------------- lease queue


class TestLeaseQueue:
    def _queue(self):
        clock = Clock()
        return LeaseQueue(FAST, clock=clock), clock

    def test_fifo_acquire_and_complete(self):
        q, _ = self._queue()
        q.add("a", {"n": 1})
        q.add("b", {"n": 2})
        lease, payload = q.acquire("w1")
        assert (lease.key, payload) == ("a", {"n": 1})
        assert lease.attempt == 1
        assert q.phase("a") is ShardPhase.LEASED
        assert q.complete("a") == "completed"
        assert q.phase("a") is ShardPhase.COMPLETED
        assert q.acquire("w1")[0].key == "b"
        assert q.counts() == {"pending": 0, "leased": 1, "completed": 1, "quarantined": 0}

    def test_duplicate_add_rejected(self):
        q, _ = self._queue()
        q.add("a", {})
        with pytest.raises(SupervisorError):
            q.add("a", {})

    def test_renew_extends_deadline(self):
        q, clock = self._queue()
        q.add("a", {})
        lease, _ = q.acquire("w1")
        clock.advance(8.0)
        renewed = q.renew(lease.lease_id, "w1")
        assert renewed is not None and renewed.expires_at == pytest.approx(18.0)
        clock.advance(8.0)  # t=16 < 18: still alive thanks to the renewal
        assert q.expire() == []
        clock.advance(3.0)  # t=19 > 18: now it expires
        events = q.expire()
        assert [e.key for e in events] == ["a"]
        assert not events[0].quarantined

    def test_unrenewed_lease_expires_and_requeues_with_backoff(self):
        q, clock = self._queue()
        q.add("a", {})
        q.acquire("w1")
        clock.advance(10.1)
        events = q.expire()
        assert len(events) == 1 and events[0].failures == 1
        assert q.phase("a") is ShardPhase.PENDING
        # Still backing off: not leasable yet.
        assert q.acquire("w2") is None
        clock.advance(events[0].backoff_s + 0.01)
        lease, _ = q.acquire("w2")
        assert lease.key == "a" and lease.attempt == 2

    def test_quarantine_after_failure_budget(self):
        q, clock = self._queue()
        q.add("a", {})
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            assert q.acquire("w1") is not None
            clock.advance(FAST.shard_deadline_s + 0.1)
            events = q.expire()
        assert events[-1].quarantined
        assert q.phase("a") is ShardPhase.QUARANTINED
        assert q.acquire("w1") is None

    def test_completion_is_idempotent_and_heals_quarantine(self):
        q, _ = self._queue()
        q.add("a", {})
        q.acquire("w1")
        assert q.complete("a") == "completed"
        assert q.complete("a") == "deduped"
        q.add("b", {})
        q.quarantine("b", "gave up")
        assert q.complete("b") == "healed"
        assert q.phase("b") is ShardPhase.COMPLETED
        assert q.complete("nope") == "unknown"

    def test_completion_accepted_from_pending(self):
        # Manager restart: lease forgotten, shard pending again — the old
        # worker's late delivery must still land.
        q, _ = self._queue()
        q.add("a", {})
        assert q.complete("a") == "completed"

    def test_renew_wrong_worker_or_expired_is_refused(self):
        q, clock = self._queue()
        q.add("a", {})
        lease, _ = q.acquire("w1")
        assert q.renew(lease.lease_id, "w2") is None
        clock.advance(10.1)
        assert q.renew(lease.lease_id, "w1") is None  # expired: no resurrection
        assert q.renew("L999", "w1") is None

    def test_worker_reported_failure_and_discard(self):
        q, clock = self._queue()
        q.add("a", {})
        q.acquire("w1")
        quarantined, backoff = q.fail("a", "boom")
        assert not quarantined and backoff > 0
        assert q.failures("a") == 1 and q.last_error("a") == "boom"
        q.discard("a")
        assert q.phase("a") is None


# ------------------------------------------------------------------ schemas


class TestSchemas:
    def test_spec_roundtrip_and_defaults(self):
        spec = CampaignSpec.from_dict({"workloads": ["apache"]})
        assert spec.abtb_sizes == (256,) and spec.scale == "smoke"
        assert CampaignSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"workloads": []},
            {"workloads": ["nope"]},
            {"workloads": ["apache", "apache"]},
            {"workloads": ["apache"], "abtb_sizes": [0]},
            {"workloads": ["apache"], "abtb_sizes": [True]},
            {"workloads": ["apache"], "abtb_sizes": [64, 64]},
            {"workloads": ["apache"], "scale": "huge"},
            {"workloads": ["apache"], "backend": "gpu"},
            {"workloads": ["apache"], "timeout_s": -1},
            {"workloads": ["apache"], "max_retries": -1},
            {"workloads": ["apache"], "surprise": 1},
            {"workloads": "apache"},
        ],
    )
    def test_spec_rejects_bad_bodies(self, body):
        with pytest.raises(SchemaError):
            CampaignSpec.from_dict(body)

    def test_complete_request_needs_summary_or_failure(self):
        # A completion carries a summary; a failed attempt is a
        # FailRequest, the one failure path.
        for outcome in ({}, {"failed": "model exploded", "summary": None}):
            with pytest.raises(SchemaError):
                CompleteRequest.from_dict(
                    {"campaign_id": "c", "key": "k", "worker_id": "w", "outcome": outcome}
                )
        failed = FailRequest.from_dict(
            {"campaign_id": "c", "key": "k", "worker_id": "w", "error": "model exploded"}
        )
        assert failed.error == "model exploded"
        ok = CompleteRequest.from_dict(
            {
                "campaign_id": "c", "key": "k", "worker_id": "w",
                "outcome": {"summary": {"speedup": 1.0}},
            }
        )
        assert ok.outcome["summary"]["speedup"] == 1.0

    def test_lease_and_fail_requests_validate(self):
        with pytest.raises(SchemaError):
            LeaseRequest.from_dict({"worker_id": ""})
        with pytest.raises(SchemaError):
            FailRequest.from_dict({"campaign_id": "c", "key": "k", "worker_id": "w"})


# ------------------------------------------------------------------ journal


class TestJournal:
    def test_append_load_roundtrip(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.append("complete", {"key": "a"})
        j.close()
        state = Journal(tmp_path / "j").load()
        assert [r["type"] for r in state.records] == ["submit", "complete"]
        assert state.problems == [] and state.last_seq == 2

    def test_torn_tail_is_dropped_as_expected_crash(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.close()
        with open(j.wal_path, "a") as fh:
            fh.write('{"seq": 2, "type": "compl')  # crash mid-append
        state = Journal(tmp_path / "j").load()
        assert len(state.records) == 1
        assert any("torn tail" in p for p in state.problems)

    def test_bitflip_is_detected_and_skipped(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.append("complete", {"key": "a"})
        j.append("complete", {"key": "b"})
        j.close()
        lines = j.wal_path.read_text().splitlines()
        lines[1] = lines[1].replace('"key": "a"', '"key": "z"')  # corrupt record 2
        j.wal_path.write_text("\n".join(lines) + "\n")
        state = Journal(tmp_path / "j").load()
        assert [r["seq"] for r in state.records] == [1, 3]
        assert any("checksum mismatch" in p for p in state.problems)

    def test_snapshot_truncates_and_replay_skips_covered(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.write_snapshot({"campaigns": {"c1": {}}})
        j.append("complete", {"key": "a"})
        j.close()
        state = Journal(tmp_path / "j").load()
        assert state.snapshot == {"campaigns": {"c1": {}}}
        assert [r["type"] for r in state.records] == ["complete"]
        assert state.last_seq == 2

    def test_corrupt_snapshot_is_reported_not_fatal(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.write_snapshot({"x": 1})
        j.close()
        text = j.snapshot_path.read_text()
        j.snapshot_path.write_text("garbage" + text)
        state = Journal(tmp_path / "j").load()
        assert state.snapshot is None
        assert any("snapshot" in p for p in state.problems)


# -------------------------------------------------------------- result store


class TestResultStore:
    def test_put_get_and_dedupe(self, tmp_path):
        store = ResultStore(tmp_path)
        key = shard_result_key("apache", 64, "smoke")
        _, deduped = store.put(key, {"speedup": 1.5}, {"workload": "apache"})
        assert not deduped
        _, deduped = store.put(key, {"speedup": 1.5}, {"workload": "apache"})
        assert deduped and store.dedups == 1
        assert store.get(key)["summary"] == {"speedup": 1.5}

    def test_conflicting_second_write_keeps_first_and_records(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        key = shard_result_key("apache", 64, "smoke")
        store.put(key, {"speedup": 1.5}, {})
        store.put(key, {"speedup": 9.9}, {})
        assert store.get(key)["summary"]["speedup"] == 1.5
        assert recorder.counts().get("result_conflict") == 1

    def test_corrupt_result_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        key = shard_result_key("apache", 64, "smoke")
        path, _ = store.put(key, {"speedup": 1.5}, {})
        path.write_text(path.read_text().replace("1.5", "2.5"))
        assert store.get(key) is None
        assert recorder.counts().get("result_corrupt") == 1

    def test_missing_result_is_silent_miss(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        assert store.get("nope") is None
        assert recorder.counts() == {}

    def test_results_share_envelope_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        key = shard_result_key("apache", 64, "smoke")
        path, _ = store.put(key, {"speedup": 1.0}, {})
        payload = read_artifact(path, RESULT_SCHEMA, RESULT_SCHEMA_VERSION)
        assert payload["key"] == key


# ------------------------------------------------------------------ manager


def _drain(manager: CampaignManager, worker_id: str = "w") -> None:
    """Complete every leasable shard with synthetic outcomes."""
    manager.register_worker(worker_id)
    while True:
        grant = manager.lease(worker_id)
        if grant is None:
            break
        manager.complete(
            CompleteRequest(
                campaign_id=grant["campaign_id"],
                key=grant["key"],
                worker_id=worker_id,
                outcome=_outcome(grant["key"]),
            )
        )


class TestManager:
    def _manager(self, tmp_path, **kw):
        clock = Clock()
        kw.setdefault("policy", FAST)
        kw.setdefault("clock", clock)
        return CampaignManager(tmp_path / "svc", **kw), clock

    def test_lifecycle(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64)))
        assert manager.status(cid)["state"] == "running"
        assert manager.result(cid) is None
        _drain(manager)
        status = manager.status(cid)
        assert status["state"] == "complete"
        assert status["shards"] == {
            "total": 2, "pending": 0, "leased": 0, "completed": 2, "quarantined": 0,
        }
        result = manager.result(cid)
        assert set(result.completed) == {
            "apache::abtb=16::scale=smoke", "apache::abtb=64::scale=smoke",
        }
        assert result.ok and result.attempts == {k: 1 for k in result.completed}

    def test_double_completion_is_idempotent(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        grant = manager.lease("w1")
        request = CompleteRequest(
            campaign_id=cid, key=grant["key"], worker_id="w1",
            outcome=_outcome(grant["key"]),
        )
        assert manager.complete(request)["status"] == "completed"
        assert manager.complete(request)["status"] == "deduped"
        # Exactly one stored result file for the config hash.
        assert len(manager.store.keys()) == 1
        assert manager.result(cid).ok

    def test_result_from_an_older_counter_model_is_recomputed(self, tmp_path, monkeypatch):
        # A counter change bumps the machine-state version; a result
        # stored under the old version must not complete a resubmission.
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec(workloads=("apache",), abtb_sizes=(16,))
        with monkeypatch.context() as patch:
            patch.setattr(service_store, "MACHINE_STATE_VERSION", MACHINE_STATE_VERSION - 1)
            stale = manager.submit(spec)
            _drain(manager)
        assert manager.status(stale)["state"] == "complete"
        cid = manager.submit(spec)
        assert manager.status(cid)["shards"]["pending"] == 1
        _drain(manager)
        assert manager.status(cid)["state"] == "complete"
        assert len(manager.store.keys()) == 2
        assert "result_conflict" not in manager.recorder.counts()

    def test_expiry_requeues_then_quarantines_degraded(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            assert manager.lease("w1") is not None
            clock.advance(FAST.shard_deadline_s + 0.1)
            manager.tick()
        counts = manager.recorder.counts()
        assert counts["lease_expired"] == 3
        assert counts["shard_quarantined"] == 1
        assert counts["shard_requeued"] == 2
        status = manager.status(cid)
        assert status["state"] == "degraded"
        result = manager.result(cid)
        assert result.degraded and set(result.quarantined) == {
            "apache::abtb=16::scale=smoke"
        }

    def test_late_completion_heals_quarantine(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        grant = None
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            grant = manager.lease("w1") or grant
            clock.advance(FAST.shard_deadline_s + 0.1)
            manager.tick()
        assert manager.status(cid)["state"] == "degraded"
        response = manager.complete(
            CompleteRequest(
                campaign_id=cid, key=grant["key"], worker_id="w1",
                outcome=_outcome(grant["key"]),
            )
        )
        assert response["status"] in ("completed", "healed")
        assert manager.status(cid)["state"] == "complete"
        assert manager.result(cid).ok

    def test_worker_reported_failures_quarantine(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            grant = manager.lease("w1")
            response = manager.fail(
                cid, grant["key"], "model exploded", "w1", attempt=grant["attempt"]
            )
        assert response["status"] == "quarantined"
        assert manager.result(cid).quarantined
        counts = manager.recorder.counts()
        assert counts["shard_requeued"] == FAST.max_shard_failures - 1
        assert counts["shard_quarantined"] == 1

    def test_cross_campaign_dedupe(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64))
        cid1 = manager.submit(spec)
        _drain(manager)
        cid2 = manager.submit(spec)
        # Second campaign completes instantly from the store: no leases.
        assert manager.status(cid2)["state"] == "complete"
        assert manager.lease("w9") is None
        assert manager.result(cid2).completed == manager.result(cid1).completed

    def test_cancel(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        assert manager.cancel(cid)
        assert not manager.cancel(cid)
        assert manager.status(cid)["state"] == "cancelled"
        assert manager.lease("w1") is None

    def test_restart_recovers_identical_result(self, tmp_path):
        spec = CampaignSpec(workloads=("apache", "mysql"), abtb_sizes=(16, 64))

        # Control: one manager, no interruption.
        control, _ = self._manager(tmp_path / "control")
        control_cid = control.submit(spec)
        _drain(control)
        expected = control.result(control_cid)

        # Crash drill: half the work, then the manager is abandoned
        # without shutdown (= SIGKILL; the WAL alone must carry it).
        crashed, _ = self._manager(tmp_path / "crash", snapshot_every=3)
        cid = crashed.submit(spec)
        crashed.register_worker("w1")
        for _ in range(2):
            grant = crashed.lease("w1")
            crashed.complete(
                CompleteRequest(
                    campaign_id=cid, key=grant["key"], worker_id="w1",
                    outcome=_outcome(grant["key"]),
                )
            )
        held = crashed.lease("w1")  # in-flight lease dies with the manager
        assert held is not None

        recovered = CampaignManager(
            tmp_path / "crash" / "svc", policy=FAST, clock=Clock()
        )
        assert recovered.recorder.counts().get("manager_recovered") == 1
        assert recovered.status(cid)["state"] == "running"
        # The in-flight lease was soft state: the shard is pending again.
        assert recovered.status(cid)["shards"]["pending"] == 2
        _drain(recovered, "w2")
        result = recovered.result(cid)
        assert result.completed == expected.completed
        assert result.attempts == expected.attempts
        assert result.quarantined == expected.quarantined == {}

    def test_restart_heals_bitflipped_wal_from_store(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64)))
        _drain(manager)
        expected = manager.result(cid)
        wal = manager.journal.wal_path
        # Flip a byte inside a journaled completion record.
        lines = wal.read_text().splitlines()
        target = next(
            i for i, text in enumerate(lines) if '"type": "complete"' in text
        )
        lines[target] = lines[target].replace('"attempts": 1', '"attempts": 7')
        wal.write_text("\n".join(lines) + "\n")

        recovered = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        counts = recovered.recorder.counts()
        assert counts.get("journal_corrupt", 0) >= 1
        # The dropped completion was reconciled back from the result store.
        assert recovered.status(cid)["state"] == "complete"
        assert recovered.result(cid).completed == expected.completed

    def test_result_lost_after_completion_is_recomputed(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64)))
        _drain(manager)
        expected = manager.result(cid)
        assert expected is not None
        lost = next(iter(manager.campaigns[cid].shards.values()))
        manager.store.path(lost.result_key).unlink()
        # The gap is not published: the shard goes back in line.
        assert manager.result(cid) is None
        assert manager.status(cid)["state"] == "running"
        grant = manager.lease("w")
        assert grant["key"] == lost.key
        manager.complete(
            CompleteRequest(
                campaign_id=cid, key=lost.key, worker_id="w",
                outcome=_outcome(lost.key),
            )
        )
        assert manager.status(cid)["state"] == "complete"
        assert manager.result(cid).completed == expected.completed

    def test_data_dir_journaled_with_retry_fields_recovers(self, tmp_path):
        # Managers that retried inside the worker journaled every spec
        # with timeout_s and max_retries.  Recovery drops the two fields,
        # from a snapshot and from a WAL record alike, and both campaigns
        # then run to completion.
        old_spec = {
            "workloads": ["apache"], "abtb_sizes": [16], "scale": "smoke",
            "seed": None, "timeout_s": None, "max_retries": 2,
        }
        journal = Journal(tmp_path / "svc" / "journal")
        journal.open_for_append(0)
        journal.append("submit", {"campaign_id": "c0001", "spec": old_spec})
        journal.write_snapshot(
            {
                "next_campaign": 2,
                "next_worker": 1,
                "campaigns": {
                    "c0001": {"spec": old_spec, "cancelled": False, "shards": {}},
                },
            }
        )
        journal.append(
            "submit", {"campaign_id": "c0002", "spec": {**old_spec, "abtb_sizes": [64]}}
        )
        journal.close()
        manager, _ = self._manager(tmp_path)
        assert manager.recorder.counts().get("manager_recovered") == 1
        assert manager.status("c0002")["spec"] == {
            "workloads": ["apache"], "abtb_sizes": [64], "scale": "smoke", "seed": None,
        }
        _drain(manager)
        for cid in ("c0001", "c0002"):
            assert manager.status(cid)["state"] == "complete"
            assert manager.result(cid).ok
        manager.shutdown()
        with pytest.raises(SchemaError):
            CampaignSpec.from_dict(old_spec)  # submit still rejects them

    def test_graceful_shutdown_snapshots_and_refuses_further_work(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        manager.shutdown()
        assert manager.recorder.counts().get("shutdown") == 1
        with pytest.raises(ServiceError):
            manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(64,)))
        # Restart from the snapshot alone (WAL was truncated into it).
        recovered = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        assert recovered.status("c0001")["state"] == "running"


# ------------------------------------------- registration + fail dedupe


class TestIdempotentDelivery:
    def test_reregistration_keeps_the_worker_id(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        first = manager.register_worker("a")
        again = manager.register_worker("a", worker_id=first["worker_id"])
        assert again["worker_id"] == first["worker_id"]
        assert len(manager.workers) == 1

    def test_foreign_worker_id_is_adopted_not_collided(self, tmp_path):
        # A brought id the manager never granted is adopted; one shaped
        # like the manager's own (wNNN) steps its counter past it, so a
        # fresh grant never collides with it.
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        grant = manager.register_worker("survivor", worker_id="w007-old")
        assert grant["worker_id"] == "w007-old"
        fresh = manager.register_worker("newcomer")
        assert fresh["worker_id"] != "w007-old"
        assert len(manager.workers) == 2

    def test_duplicate_fail_burns_one_unit_of_quarantine_budget(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        first = manager.fail(cid, key, "boom", "w001", attempt=1)
        second = manager.fail(cid, key, "boom", "w001", attempt=1)
        assert first["status"] != "deduped"
        assert second["status"] == "deduped"
        assert manager.campaigns[cid].shards[key].failures == 1


# ------------------------------------------------------------ client


def _transport_script(script: list):
    """A transport that pops canned behaviours: an exception instance to
    raise, or a ``(status, bytes)`` tuple to return."""

    calls: list[str] = []

    def transport(url, method, data, timeout_s):  # noqa: ARG001
        calls.append(url)
        action = script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action

    transport.calls = calls
    return transport


class TestManagerClient:
    #: Never dialled: every request goes through the scripted transport.
    URL = "http://127.0.0.1:9"

    def _client(self, transport) -> ManagerClient:
        return ManagerClient(
            self.URL, retries=3, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=transport,
        )

    def test_injected_502_is_retried_in_place(self):
        transport = _transport_script(
            [(502, b'{"error": "injected"}'), (200, b'{"ok": true}')]
        )
        assert self._client(transport).get("/x") == (200, {"ok": True})
        assert transport.calls == [f"{self.URL}/x"] * 2

    def test_503_is_not_retried(self):
        # 503 is the graceful-shutdown answer; retrying it would hide
        # the drain signal from workers.
        transport = _transport_script([(503, b'{"error": "stopping"}')])
        status, _ = self._client(transport).post("/leases", {"worker_id": "w"})
        assert status == 503

    def test_truncated_body_is_a_transport_failure_not_an_answer(self):
        transport = _transport_script(
            [(200, b'{"worker_id": "w00'), (200, b'{"worker_id": "w001"}')]
        )
        assert self._client(transport).post("/workers/register", {}) == (
            200, {"worker_id": "w001"},
        )

    def test_exhausted_retries_raise_service_error(self):
        transport = _transport_script([ConnectionError("down")] * 4)
        with pytest.raises(ServiceError):
            self._client(transport).get("/x")

    def test_get_text_goes_through_the_transport_and_retries(self):
        # submit --incidents-out fetches /incidents with get_text while
        # the manager may be restarting: a refused connection is retried
        # like any get/post, not escaped as a URLError.
        transport = _transport_script(
            [ConnectionError("restarting"), (200, b'{"kind": "shutdown"}\n')]
        )
        status, text = self._client(transport).get_text("/incidents")
        assert (status, text) == (200, '{"kind": "shutdown"}\n')
        assert transport.calls == [f"{self.URL}/incidents"] * 2


# ----------------------------------- duplicate-delivery property (HTTP)


def _duplicating_transport(duplicate: bool):
    """The real HTTP transport, delivering every POST twice when
    ``duplicate``: at-least-once delivery, where the caller sees the
    second answer, as after a lost acknowledgement and a retry."""

    def transport(url, method, data, timeout_s):
        if duplicate and method == "POST":
            http_exchange(url, method, data, timeout_s)
        return http_exchange(url, method, data, timeout_s)

    return transport


def _scripted_state(tmp_path, name: str, duplicate: bool) -> dict:
    """Run the same worker-facing POST script against a live server,
    optionally with every POST duplicated, and return the observable
    state."""
    recorder = IncidentRecorder()
    manager = CampaignManager(tmp_path / name, policy=FAST, recorder=recorder)
    server = ManagerServer(manager, port=0)
    server.start()
    try:
        client = ManagerClient(
            server.url, retries=4, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=_duplicating_transport(duplicate),
        )
        # Submit through a clean control client: submit is control-plane
        # and deliberately not id-keyed (its duplicate semantics are the
        # store-dedupe test below).  Every *worker-facing* POST goes
        # through the duplicating transport.
        control = ManagerClient(server.url, retries=0)
        status, body = control.post(
            "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16, 64]}
        )
        assert status == 201
        cid = body["campaign_id"]
        # Registration carries an explicit worker_id, as the worker
        # agent's does: that is what makes a duplicated register
        # re-register instead of minting a ghost.
        status, _ = client.post(
            "/workers/register", {"name": "dup", "worker_id": "w9"}
        )
        assert status == 200
        status, grant = client.post("/leases", {"worker_id": "w9"})
        assert status == 200 and grant["lease"]
        lease = grant["lease"]
        status, _ = client.post(
            f"/leases/{lease['lease_id']}/renew",
            {"worker_id": "w9", "progress": {"events_done": 5}},
        )
        assert status == 200
        status, done = client.post(
            "/shards/complete",
            {
                "campaign_id": lease["campaign_id"],
                "key": lease["key"],
                "worker_id": "w9",
                "outcome": {"summary": {"probe": 1}, "attempts": 1},
            },
        )
        assert status == 200
        status, second = client.post("/leases", {"worker_id": "w9"})
        assert status == 200 and second["lease"]
        status, failed = client.post(
            "/shards/fail",
            {
                "campaign_id": second["lease"]["campaign_id"],
                "key": second["lease"]["key"],
                "worker_id": "w9",
                "error": "scripted failure",
                "attempt": int(second["lease"]["attempt"]),
            },
        )
        assert status == 200
        return {
            "campaign": {
                k: v
                for k, v in manager.status(cid).items()
                if k in ("state", "shards")
            },
            "failures": {
                key: meta.failures
                for key, meta in manager.campaigns[cid].shards.items()
            },
            "workers": sorted(manager.workers),
            "store_keys": sorted(manager.store.keys()),
            "incident_kinds": [i.kind for i in recorder.incidents],
        }
    finally:
        server.stop(graceful=True)


class TestDuplicateDeliveryProperty:
    def test_every_worker_post_replayed_twice_is_a_noop(self, tmp_path):
        plain = _scripted_state(tmp_path, "plain", duplicate=False)
        doubled = _scripted_state(tmp_path, "doubled", duplicate=True)
        assert doubled == plain

    def test_worker_agent_register_delivered_twice_adds_one_worker(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        server = ManagerServer(manager, port=0)
        server.start()
        try:
            agent = WorkerAgent(
                ManagerClient(
                    server.url, retries=0, transport=_duplicating_transport(True)
                ),
                name="dup",
            )
            agent._register()
            assert sorted(manager.workers) == [agent.worker_id]
        finally:
            server.stop(graceful=True)

    def test_duplicated_submit_converges_via_the_result_store(self, tmp_path):
        # Submit is control-plane and not id-keyed, so a duplicated
        # submit makes a second campaign — but once results exist, the
        # duplicate completes instantly from the store: same counters,
        # zero re-execution.
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        _complete(manager, cid, key)
        dup = manager.submit(SPEC)
        assert manager.status(dup)["state"] == "complete"
        assert manager.result(dup).completed == manager.result(cid).completed


# ------------------------------------------------------------------ gc


class TestResultGc:
    def _populated(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        _complete(manager, cid, key)
        # Two orphans: results no live campaign references.
        manager.store.put(
            shard_result_key("nginx", 64, "smoke"),
            {"orphan": 1}, {},
        )
        manager.store.put(
            shard_result_key("redis", 64, "smoke"),
            {"orphan": 2}, {},
        )
        manager.shutdown()
        return tmp_path / "svc", manager.campaigns[cid].shards[key].result_key

    def test_policy_refuses_to_guess(self):
        with pytest.raises(ServiceError):
            ResultGcPolicy()

    def test_live_campaign_results_are_never_evicted(self, tmp_path):
        data_dir, live_key = self._populated(tmp_path)
        assert live_key in referenced_result_keys(data_dir)
        recorder = IncidentRecorder()
        report = collect_garbage(
            data_dir, ResultGcPolicy(max_age_s=0.0), recorder=recorder
        )
        assert report.examined == 3
        assert report.protected == 1
        assert len(report.evicted) == 2
        assert live_key not in report.evicted
        assert [i.kind for i in recorder.incidents] == [
            "result_evicted", "result_evicted",
        ]
        # The store now holds exactly the protected entry.
        remaining = collect_garbage(data_dir, ResultGcPolicy(max_age_s=0.0))
        assert remaining.examined == 1 and not remaining.evicted

    def test_count_retention_keeps_newest_unprotected(self, tmp_path):
        data_dir, _ = self._populated(tmp_path)
        report = collect_garbage(data_dir, ResultGcPolicy(max_count=1))
        assert len(report.evicted) == 1  # oldest orphan only

    def test_dry_run_deletes_nothing(self, tmp_path):
        data_dir, _ = self._populated(tmp_path)
        report = collect_garbage(
            data_dir, ResultGcPolicy(max_age_s=0.0, dry_run=True)
        )
        assert len(report.evicted) == 2 and report.dry_run
        # Nothing actually went away.
        again = collect_garbage(
            data_dir, ResultGcPolicy(max_age_s=0.0, dry_run=True)
        )
        assert again.examined == 3

    def test_cancelled_campaigns_protect_nothing(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        _complete(manager, cid, key)
        manager.cancel(cid)
        manager.shutdown()
        assert referenced_result_keys(tmp_path / "svc") == set()

    def test_gc_cli(self, tmp_path, capsys):
        data_dir, _ = self._populated(tmp_path)
        rc = cli_main(
            [
                "service", "gc",
                "--data-dir", str(data_dir),
                "--max-age-s", "0",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted_count"] == 2 and payload["protected"] == 1


# ------------------------------------------------------------ sweeper


class TestSweeperHardening:
    def test_sweep_survives_transient_tick_failures(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        server = ManagerServer(manager, port=0, idle_retry_s=0.01)
        original_tick = manager.tick
        blew_up = threading.Event()
        ticked_after = threading.Event()

        def flaky_tick():
            if not blew_up.is_set():
                blew_up.set()
                raise RuntimeError("transient sweep hiccup")
            ticked_after.set()
            return original_tick()

        manager.tick = flaky_tick
        server.start()
        try:
            assert ticked_after.wait(5.0), "sweeper died on a transient error"
        finally:
            manager.tick = original_tick
            server.stop(graceful=True)


# ---------------------------------------------------------------- rest api


@pytest.fixture()
def server(tmp_path):
    manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
    srv = ManagerServer(manager, port=0)
    srv.start()
    yield srv
    srv.stop(graceful=True)


class TestApi:
    def test_http_lifecycle(self, server):
        client = ManagerClient(server.url, retries=2)
        status, body = client.post(
            "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]}
        )
        assert status == 201
        cid = body["campaign_id"]

        status, registration = client.post("/workers/register", {"name": "t"})
        worker_id = registration["worker_id"]
        assert status == 200 and registration["lease_ttl_s"] == FAST.shard_deadline_s

        status, body = client.post("/leases", {"worker_id": worker_id})
        grant = body["lease"]
        assert status == 200 and grant["campaign_id"] == cid

        status, body = client.post(
            f"/leases/{grant['lease_id']}/renew", {"worker_id": worker_id}
        )
        assert status == 200 and body["renewed"]

        status, body = client.get(f"/campaigns/{cid}/result")
        assert status == 409  # still running

        status, body = client.post(
            "/shards/complete",
            {
                "campaign_id": cid, "key": grant["key"], "worker_id": worker_id,
                "outcome": _outcome(grant["key"]),
            },
        )
        assert (status, body["status"]) == (200, "completed")

        status, body = client.get(f"/campaigns/{cid}/result")
        assert status == 200 and grant["key"] in body["completed"]
        status, body = client.get("/campaigns")
        assert status == 200 and len(body["campaigns"]) == 1

    def test_renew_of_unknown_lease_is_gone(self, server):
        client = ManagerClient(server.url, retries=2)
        status, body = client.post("/leases/L999/renew", {"worker_id": "w"})
        assert status == 410 and body == {"renewed": False}

    def test_validation_and_routing_errors(self, server):
        client = ManagerClient(server.url, retries=2)
        assert client.post("/campaigns", {"workloads": ["nope"]})[0] == 400
        assert client.post("/campaigns", {"workloads": ["apache"], "x": 1})[0] == 400
        assert client.get("/campaigns/c9999")[0] == 404
        assert client.post("/no/such/route", {})[0] == 404
        assert client.post("/campaigns/c9999/cancel", {})[1] == {"cancelled": False}

    def test_metrics_incidents_healthz(self, server):
        client = ManagerClient(server.url, retries=2)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        status, text = client.get_text("/metrics")
        assert status == 200 and "service_campaigns_submitted 1.0" in text
        status, body = client.get("/healthz")
        assert status == 200 and body["ok"] and body["campaigns"] == 1
        server.manager.recorder.record("shutdown", "drill", severity="info")
        status, text = client.get_text("/incidents")
        assert status == 200
        records = [json.loads(line) for line in text.splitlines()]
        assert any(r["kind"] == "shutdown" for r in records)


# ------------------------------------------------------- shutdown hardening


class TestShutdownHardening:
    def test_run_campaign_interrupt_flushes_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "campaign.json"
        recorder = IncidentRecorder()
        calls = []

        def run_fn(workload, scale, abtb):
            calls.append(abtb)
            if len(calls) == 2:
                raise KeyboardInterrupt
            from repro.experiments.runner import run_pair

            return run_pair(workload, scale, abtb)

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                ["apache"], SMOKE, abtb_sizes=(16, 64, 256),
                checkpoint_path=checkpoint, run_fn=run_fn, recorder=recorder,
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

    def test_cli_parser_has_service_commands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--data-dir", "d", "--port", "0", "--lease-ttl", "5"]
        )
        assert args.func.__name__ == "_cmd_serve"
        args = parser.parse_args(["worker", "--manager", "http://x", "--max-idle", "3"])
        assert args.func.__name__ == "_cmd_worker"
        args = parser.parse_args(
            ["submit", "--workloads", "apache", "--abtb", "16", "--no-wait"]
        )
        assert args.func.__name__ == "_cmd_submit" and not args.wait

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
    return _outcome(task["key"])


# ------------------------------------------------------------- worker + e2e


def _worker_proc(url: str, cache_dir: str, kill_after: int) -> None:
    """Subprocess entry point (module-level for spawn picklability)."""
    from repro.service.worker import ManagerClient, WorkerAgent, WorkerChaos

    chaos = WorkerChaos(kill_after_leases=kill_after) if kill_after else None
    agent = WorkerAgent(
        ManagerClient(url, retries=120, retry_delay_s=0.25),
        name="kill" if kill_after else "steady",
        poll_interval_s=0.1,
        max_idle_s=5.0,
        machine_cache_dir=cache_dir,
        chaos=chaos,
    )
    agent.run()


class TestWorkerAndRecoveryE2E:
    def test_worker_agent_executes_real_shard(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = run_campaign(["apache"], SMOKE, abtb_sizes=(16,), machine_cache_dir=cache)
        manager = CampaignManager(tmp_path / "svc", policy=LeasePolicy())
        server = ManagerServer(manager, port=0)
        server.start()
        try:
            client = ManagerClient(server.url, retries=3)
            _, body = client.post(
                "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]}
            )
            agent = WorkerAgent(
                ManagerClient(server.url, retries=3),
                max_idle_s=1.0, poll_interval_s=0.05, machine_cache_dir=cache,
            )
            stats = agent.run()
            assert stats["shards_done"] == 1
            result = manager.result(body["campaign_id"])
            assert result.completed == serial.completed
        finally:
            server.stop(graceful=True)

    def test_acceptance_worker_sigkill_and_manager_restart(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end: one worker is
        SIGKILL'd mid-campaign AND the manager is killed (non-graceful
        stop, journal not closed) and restarted on the same port; the
        final CampaignResult must match a serial fault-free run
        counter-for-counter."""
        cache = str(tmp_path / "cache")
        spec = {"workloads": ["apache"], "abtb_sizes": [16, 64, 256]}
        serial = run_campaign(
            ["apache"], SMOKE, abtb_sizes=(16, 64, 256), machine_cache_dir=cache
        )

        policy = LeasePolicy(shard_deadline_s=3.0, max_shard_failures=5)
        data_dir = tmp_path / "svc"
        manager1 = CampaignManager(data_dir, policy=policy)
        server1 = ManagerServer(manager1, port=0)
        server1.start()
        port = server1.port

        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_worker_proc, args=(server1.url, cache, 1)),
            ctx.Process(target=_worker_proc, args=(server1.url, cache, 0)),
        ]
        for w in workers:
            w.start()
        try:
            client = ManagerClient(server1.url, retries=3)
            _, body = client.post("/campaigns", spec)
            cid = body["campaign_id"]

            # Wait for the SIGKILL'd worker's lease to expire (proves the
            # expiry path ran), then kill the manager non-gracefully.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if manager1.recorder.counts().get("lease_expired"):
                    break
                time.sleep(0.1)
            assert manager1.recorder.counts().get("lease_expired"), (
                "worker SIGKILL never surfaced as a lease expiry"
            )
            server1.stop(graceful=False)  # journal left open = crash

            manager2 = CampaignManager(data_dir, policy=policy)
            assert manager2.recorder.counts().get("manager_recovered") == 1
            server2 = ManagerServer(manager2, port=port)
            server2.start()
            try:
                deadline = time.monotonic() + 90.0
                while time.monotonic() < deadline:
                    status = manager2.status(cid)
                    if status["state"] in ("complete", "degraded"):
                        break
                    time.sleep(0.2)
                assert manager2.status(cid)["state"] == "complete"
                result = manager2.result(cid)
                assert result.completed == serial.completed
                assert result.quarantined == serial.quarantined == {}
                # attempts is the lease attempt that completed each pair:
                # one more than its expired leases, across both managers
                # (the journal carries failure counts over the restart).
                # The killed worker's pair completed on its second lease.
                expired = [
                    i.context["key"]
                    for m in (manager1, manager2)
                    for i in m.recorder.incidents
                    if i.kind == "lease_expired"
                ]
                assert result.attempts == {
                    key: 1 + expired.count(key) for key in serial.attempts
                }
                assert result.attempts[expired[0]] == 2
            finally:
                server2.stop(graceful=True)
        finally:
            for w in workers:
                w.join(timeout=30.0)
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=5.0)
