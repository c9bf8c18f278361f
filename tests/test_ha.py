"""Tests for the HA campaign service (PR: manager failover + chaos).

Covers the fencing-epoch machinery (persistence, both rejection
directions, the HTTP 409 contract), journal replication
(``records_since`` / ``append_replica`` / mirrored snapshots), the
lease-reclaim path that carries in-flight shards across a failover, the
reclaim grace window, idempotent worker registration and fail dedupe,
the failover-aware ``ManagerClient`` (endpoint rotation, 502 retry,
truncated-body retry), the deterministic network fault injector
(probabilities, partitions, duplication), the duplicate-delivery
idempotence property (every worker-facing POST replayed twice must
leave state identical to single delivery), the ``StandbyManager``
sync/promote lifecycle, campaign-aware result-store gc, and the
``repro drill`` acceptance property: a campaign that loses its leader
mid-run — under injected network faults, a vanished worker and a
partition window — finishes counter-for-counter identical to a serial
fault-free run, with zero shard re-executed.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.chaos.net import (
    FaultyTransport,
    InjectedNetworkError,
    NetFaultInjector,
    NetFaultPolicy,
)
from repro.cli import build_parser, main as cli_main
from repro.errors import FencedWriteError, ServiceError
from repro.resilience import IncidentRecorder, SupervisorPolicy
from repro.service import (
    CampaignManager,
    CampaignSpec,
    CompleteRequest,
    DrillSpec,
    Journal,
    LeaseQueue,
    ManagerClient,
    ResultGcPolicy,
    StandbyManager,
    collect_garbage,
    load_epoch,
    referenced_result_keys,
    run_drill,
    shard_result_key,
    store_epoch,
)
from repro.service.api import ManagerServer
from repro.service.drill import REQUIRED_INCIDENTS


class Clock:
    """Deterministic monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


FAST = SupervisorPolicy(shard_deadline_s=5.0, max_shard_failures=3)
SPEC = CampaignSpec(workloads=("apache",), abtb_sizes=(16,))


def _summary(key: str = "x") -> dict:
    return {"probe": key}


def _complete(manager, cid: str, key: str, worker: str = "w001", epoch: int = 0):
    return manager.complete(
        CompleteRequest(
            campaign_id=cid,
            key=key,
            worker_id=worker,
            outcome={"summary": _summary(key), "attempts": 1},
            epoch=epoch,
        )
    )


# --------------------------------------------------------------- epochs


class TestFencingEpoch:
    def test_epoch_persists_and_survives_corruption(self, tmp_path):
        path = tmp_path / "epoch.json"
        assert load_epoch(path) == 1  # missing file: default, never invented high
        store_epoch(path, 7)
        assert load_epoch(path) == 7
        path.write_text("{not json")
        assert load_epoch(path) == 1  # corruption degrades, never escalates

    def test_manager_loads_and_stores_epoch(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        assert manager.epoch == 1
        store_epoch(tmp_path / "svc2" / "epoch.json", 4)
        manager2 = CampaignManager(tmp_path / "svc2", policy=FAST)
        assert manager2.epoch == 4

    def test_stale_epoch_write_is_fenced_not_merged(self, tmp_path):
        recorder = IncidentRecorder()
        manager = CampaignManager(tmp_path / "svc", policy=FAST, recorder=recorder)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        with pytest.raises(FencedWriteError):
            _complete(manager, cid, key, epoch=99)
        # Nothing was merged: the shard is still pending.
        assert manager.campaigns[cid].shards[key].state == "pending"
        kinds = [i.kind for i in recorder.incidents]
        assert "fenced_write" in kinds

    def test_epoch_zero_is_accepted_for_pre_ha_workers(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        assert _complete(manager, cid, key, epoch=0)["status"] == "completed"

    def test_fenced_write_answers_409_over_http(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        server = ManagerServer(manager, port=0)
        server.start()
        try:
            client = ManagerClient(server.url, retries=0)
            status, body = client.post(
                "/shards/complete",
                {
                    "campaign_id": "c0001",
                    "key": "k",
                    "worker_id": "w",
                    "outcome": {"failed": "probe"},
                    "epoch": 99,
                },
            )
            assert status == 409
            assert body["fenced"] is True
            assert body["epoch"] == manager.epoch
            assert body["request_epoch"] == 99
        finally:
            server.stop(graceful=True)

    def test_lease_renew_and_fail_are_fenced_too(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        manager.submit(SPEC)
        with pytest.raises(FencedWriteError):
            manager.lease("w001", epoch=5)
        with pytest.raises(FencedWriteError):
            manager.renew("L1", "w001", epoch=5)
        with pytest.raises(FencedWriteError):
            manager.fail("c0001", "k", "boom", "w001", epoch=5)


# --------------------------------------------------------- replication


class TestJournalReplication:
    def test_records_since_and_replica_append_mirror_exactly(self, tmp_path):
        leader = Journal(tmp_path / "leader")
        leader.open_for_append(leader.load().last_seq)
        for n in range(3):
            leader.append("submit", {"n": n})

        follower = Journal(tmp_path / "follower")
        follower.open_for_append(follower.load().last_seq)
        applied = sum(
            follower.append_replica(r) for r in leader.records_since(0)
        )
        assert applied == 3
        assert follower.seq == leader.seq
        # At-least-once: re-applying the same tail is a clean no-op.
        assert not any(
            follower.append_replica(r) for r in leader.records_since(0)
        )
        # The mirror replays to the same records.
        follower.close()
        reread = Journal(tmp_path / "follower").load()
        assert [r["data"] for r in reread.records] == [{"n": 0}, {"n": 1}, {"n": 2}]

    def test_snapshot_mirror_carries_the_leader_seq(self, tmp_path):
        follower = Journal(tmp_path / "f")
        follower.open_for_append(follower.load().last_seq)
        follower.write_snapshot({"campaigns": {}}, seq=42)
        assert follower.seq == 42
        assert follower.snapshot_seq == 42
        follower.append("submit", {"after": True})
        assert follower.seq == 43

    def test_replication_state_endpoint_serves_tail_and_snapshot(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        state = manager.replication_state(0)
        assert state["epoch"] == 1
        assert state["seq"] == manager.journal.seq
        assert [r["type"] for r in state["records"]] == ["submit"]
        # A follower older than the last compaction gets a full snapshot.
        manager._snapshot()
        state = manager.replication_state(0)
        assert "snapshot" in state and state["records"] == []
        assert cid in state["snapshot"]["state"]["campaigns"]


# ------------------------------------------------------ reclaim + grace


class TestLeaseReclaim:
    def test_reclaim_reestablishes_a_forgotten_lease(self, tmp_path):
        # A promoted/restarted manager forgot all leases (soft state);
        # the in-flight worker's heartbeat re-establishes its own.
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        renewed = manager.renew(
            "L777", "w001", epoch=0, reclaim=(cid, key)
        )
        assert renewed is not None and renewed["reclaimed"] is True
        assert renewed["lease_id"] == "L777"  # requested id honored
        # And the shard completes under the reclaimed lease.
        assert _complete(manager, cid, key)["status"] == "completed"

    def test_reclaim_refuses_terminal_and_foreign_shards(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        _complete(manager, cid, key)
        assert manager.renew("L1", "w001", reclaim=(cid, key)) is None
        assert manager.renew("L1", "w001", reclaim=(cid, "nope")) is None
        assert manager.renew("L1", "w001", reclaim=("c9", key)) is None

    def test_queue_reclaim_is_exclusive(self):
        clock = Clock()
        queue = LeaseQueue(policy=FAST, clock=clock)
        queue.add("s1", {})
        lease, _ = queue.acquire("w1")
        # Another worker cannot steal a live lease via reclaim.
        assert queue.reclaim("s1", "w2", "L9") is None
        # The holder reclaiming its own live lease just renews it.
        again = queue.reclaim("s1", "w1", lease.lease_id)
        assert again is not None and again.lease_id == lease.lease_id

    def test_grace_window_blocks_grants_but_not_reclaims(self, tmp_path):
        clock = Clock()
        manager = CampaignManager(
            tmp_path / "svc", policy=FAST, clock=clock, reclaim_grace_s=10.0
        )
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        manager.register_worker("idle")
        assert manager.lease("w001") is None  # grants held back
        renewed = manager.renew("L1", "w002", reclaim=(cid, key))
        assert renewed is not None and renewed["reclaimed"] is True
        clock.t = 11.0
        # Window over; the shard is leased (to its reclaimer) so a fresh
        # grant still finds nothing — complete it and check liveness.
        assert _complete(manager, cid, key, worker="w002")["status"] == "completed"


# ------------------------------------------- registration + fail dedupe


class TestIdempotentDelivery:
    def test_reregistration_keeps_the_worker_id(self, tmp_path):
        manager = CampaignManager(tmp_path / "svc", policy=FAST)
        first = manager.register_worker("a")
        again = manager.register_worker("a", worker_id=first["worker_id"])
        assert again["worker_id"] == first["worker_id"]
        assert len(manager.workers) == 1
        assert again["epoch"] == manager.epoch

    def test_foreign_worker_id_is_adopted_not_collided(self, tmp_path):
        # A worker failing over brings the id the old leader granted it;
        # the new manager adopts it and steps its counter past it.
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


# ------------------------------------------------------- client failover


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


class TestManagerClientFailover:
    def test_connection_failure_rotates_to_the_next_endpoint(self):
        transport = _transport_script(
            [ConnectionError("down"), (200, b'{"ok": true}')]
        )
        client = ManagerClient(
            ["http://a", "http://b"],
            retries=3,
            retry_delay_s=0.0,
            sleep_fn=lambda s: None,
            transport=transport,
        )
        status, body = client.get("/healthz")
        assert (status, body) == (200, {"ok": True})
        assert client.base_url == "http://b"
        assert client.failovers == 1
        assert [u.split("/healthz")[0] for u in transport.calls] == [
            "http://a", "http://b",
        ]

    def test_injected_502_is_retried_in_place(self):
        transport = _transport_script(
            [(502, b'{"error": "injected"}'), (200, b'{"ok": true}')]
        )
        client = ManagerClient(
            "http://a", retries=3, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=transport,
        )
        assert client.get("/x") == (200, {"ok": True})
        assert client.failovers == 0  # same endpoint, just retried

    def test_503_is_not_retried(self):
        # 503 is the graceful-shutdown answer; retrying it would hide
        # the drain signal from workers.
        transport = _transport_script([(503, b'{"error": "stopping"}')])
        client = ManagerClient(
            "http://a", retries=3, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=transport,
        )
        status, _ = client.post("/leases", {"worker_id": "w"})
        assert status == 503

    def test_truncated_body_is_a_transport_failure_not_an_answer(self):
        transport = _transport_script(
            [(200, b'{"worker_id": "w00'), (200, b'{"worker_id": "w001"}')]
        )
        client = ManagerClient(
            "http://a", retries=3, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=transport,
        )
        assert client.post("/workers/register", {}) == (
            200, {"worker_id": "w001"},
        )

    def test_exhausted_retries_raise_service_error(self):
        transport = _transport_script([ConnectionError("down")] * 4)
        client = ManagerClient(
            ["http://a", "http://b"], retries=3, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=transport,
        )
        with pytest.raises(ServiceError):
            client.get("/x")


# --------------------------------------------------------- net injector


class TestNetFaultInjector:
    def test_same_seed_same_faults(self):
        outcomes = []
        for _ in range(2):
            injector = NetFaultInjector(policy=NetFaultPolicy(seed=42, drop=0.5))
            run = []
            for _ in range(32):
                try:
                    injector.exchange(
                        lambda *a: (200, b"{}"), "http://x", "GET", None, 1.0
                    )
                    run.append("ok")
                except InjectedNetworkError:
                    run.append("drop")
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert "drop" in outcomes[0] and "ok" in outcomes[0]

    def test_request_partition_never_reaches_the_far_side(self):
        injector = NetFaultInjector()
        injector.partition("http://x", direction="request")
        hits = []
        with pytest.raises(InjectedNetworkError):
            injector.exchange(
                lambda *a: hits.append(1) or (200, b"{}"),
                "http://x/leases", "POST", b"{}", 1.0,
            )
        assert hits == []
        injector.heal("http://x")
        status, _ = injector.exchange(
            lambda *a: (200, b"{}"), "http://x/leases", "POST", b"{}", 1.0
        )
        assert status == 200

    def test_response_partition_applies_the_write_but_cuts_the_answer(self):
        injector = NetFaultInjector()
        injector.partition("http://x", direction="response")
        hits = []
        with pytest.raises(InjectedNetworkError):
            injector.exchange(
                lambda *a: hits.append(1) or (200, b"{}"),
                "http://x/shards/complete", "POST", b"{}", 1.0,
            )
        assert hits == [1]  # the nasty half: applied, unacknowledged

    def test_duplicate_delivers_posts_twice_gets_second_response(self):
        injector = NetFaultInjector(policy=NetFaultPolicy(duplicate=1.0))
        answers = [(200, b'{"n": 1}'), (200, b'{"n": 2}')]
        status, raw = injector.exchange(
            lambda *a: answers.pop(0), "http://x", "POST", b"{}", 1.0
        )
        assert (status, raw) == (200, b'{"n": 2}')
        # GETs are never duplicated (they are reads).
        answers = [(200, b'{"n": 1}')]
        injector.exchange(lambda *a: answers.pop(0), "http://x", "GET", None, 1.0)
        assert answers == []

    def test_faults_are_recorded_as_incidents(self):
        recorder = IncidentRecorder()
        injector = NetFaultInjector(
            policy=NetFaultPolicy(mangle=1.0), recorder=recorder
        )
        status, _ = injector.exchange(
            lambda *a: (200, b"{}"), "http://x", "GET", None, 1.0
        )
        assert status == 502
        assert [i.kind for i in recorder.incidents] == ["net_fault"]
        assert injector.counts == {"mangle": 1}


# ----------------------------------- duplicate-delivery property (HTTP)


def _scripted_state(tmp_path, name: str, duplicate: bool) -> dict:
    """Run the same worker-facing POST script against a live server,
    optionally with every POST duplicated, and return the observable
    state."""
    recorder = IncidentRecorder()
    manager = CampaignManager(tmp_path / name, policy=FAST, recorder=recorder)
    server = ManagerServer(manager, port=0)
    server.start()
    try:
        injector = NetFaultInjector(
            policy=NetFaultPolicy(duplicate=1.0 if duplicate else 0.0)
        )
        client = ManagerClient(
            server.url, retries=4, retry_delay_s=0.0,
            sleep_fn=lambda s: None, transport=FaultyTransport(injector),
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
        # Registration carries an explicit worker_id: that is what makes
        # a duplicated register re-register instead of minting a ghost.
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


# ------------------------------------------------------------- standby


class TestStandbyManager:
    def _leader(self, tmp_path):
        recorder = IncidentRecorder()
        manager = CampaignManager(tmp_path / "leader", policy=FAST, recorder=recorder)
        server = ManagerServer(manager, port=0)
        server.start()
        return manager, server

    def test_sync_mirrors_journal_and_results(self, tmp_path):
        manager, server = self._leader(tmp_path)
        try:
            cid = manager.submit(SPEC)
            key = next(iter(manager.campaigns[cid].shards))
            manager.register_worker("w")
            _complete(manager, cid, key)
            standby = StandbyManager(
                tmp_path / "standby", leader_url=server.url, policy=FAST
            )
            standby.sync_once()
            assert standby.applied_seq == manager.journal.seq
            assert standby.store.keys() == manager.store.keys()
            assert standby.leader_epoch == manager.epoch
        finally:
            server.stop(graceful=True)

    def test_promotion_bumps_epoch_and_recovers_every_completion(self, tmp_path):
        manager, server = self._leader(tmp_path)
        recorder = IncidentRecorder()
        cid = manager.submit(SPEC)
        key = next(iter(manager.campaigns[cid].shards))
        _complete(manager, cid, key)
        standby = StandbyManager(
            tmp_path / "standby",
            leader_url=server.url,
            policy=FAST,
            recorder=recorder,
            poll_interval_s=0.01,
            misses_to_promote=2,
            reclaim_grace_s=0.0,
        )
        standby.sync_once()
        server.stop(graceful=False)  # leader dies, journal left open
        promoted = standby.run()  # misses accumulate, then promotes
        assert promoted is not None
        assert promoted.epoch == manager.epoch + 1
        assert promoted.status(cid)["state"] == "complete"
        assert promoted.result(cid).completed
        kinds = [i.kind for i in recorder.incidents]
        assert "leader_lost" in kinds and "promoted" in kinds
        # The fence works in both directions afterwards.
        with pytest.raises(FencedWriteError):
            _complete(manager, cid, key, epoch=promoted.epoch)
        with pytest.raises(FencedWriteError):
            _complete(promoted, cid, key, epoch=manager.epoch)

    def test_stopped_standby_returns_none_without_promoting(self, tmp_path):
        manager, server = self._leader(tmp_path)
        try:
            standby = StandbyManager(
                tmp_path / "standby",
                leader_url=server.url,
                poll_interval_s=0.01,
                misses_to_promote=1000,
            )
            thread = threading.Thread(target=standby.run, daemon=True)
            thread.start()
            time.sleep(0.1)
            standby.stop()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert standby.manager is None
            assert standby.sync_rounds > 0
        finally:
            server.stop(graceful=True)


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


# --------------------------------------------------------------- drill


class TestDrill:
    def test_drill_parser(self):
        parser = build_parser()
        args = parser.parse_args(
            ["drill", "--root", "/tmp/d", "--seed", "7", "--abtb", "16", "64"]
        )
        assert args.seed == 7 and args.abtb == [16, 64]
        args = parser.parse_args(
            ["serve", "--data-dir", "/tmp/s", "--follow", "http://leader:1"]
        )
        assert args.follow == "http://leader:1"
        args = parser.parse_args(
            ["worker", "--manager", "http://a:1", "http://b:2"]
        )
        assert args.manager == ["http://a:1", "http://b:2"]

    def test_acceptance_leader_kill_promotion_and_faults(self, tmp_path):
        """The PR's acceptance property: fixed-seed drill — vanished
        worker + leader kill + promotion + partition window under
        network faults — finishes counter-identical to serial with zero
        re-execution and a fully accounted incident log."""
        spec = DrillSpec(
            abtb_sizes=(16, 64),
            workers=2,
            shard_deadline_s=4.0,
            partition_window_s=0.3,
            seed=1337,
        )
        report = run_drill(spec, tmp_path / "drill")
        assert report.error == ""
        assert report.counters_match, (report.serial, report.service)
        assert report.zero_reexecution, report.worker_stats
        assert report.probes_fenced
        assert report.missing_kinds == []
        assert report.log_problems == []
        assert report.state == "complete"
        assert report.exit_code == 0
        assert report.failovers == 1
        for kind in REQUIRED_INCIDENTS:
            assert report.incident_counts.get(kind, 0) > 0, kind
