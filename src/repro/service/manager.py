"""The campaign manager: queue + journal + result store, composed.

One :class:`CampaignManager` owns all service state.  Its contract:

* **write-ahead** — every acknowledged transition is journaled before
  in-memory state changes, so a SIGKILL'd manager recovers in-flight
  campaigns on restart (:meth:`CampaignManager.recover` replays snapshot
  + WAL) and final :class:`~repro.experiments.runner.CampaignResult`s
  are identical to an uninterrupted run;
* **idempotent completion** — results are banked in the content-addressed
  :class:`~repro.service.store.ResultStore` keyed by config hash; late,
  duplicate or post-restart deliveries dedupe instead of double-counting;
* **self-healing** — corrupt journal lines are dropped (incident:
  ``journal_corrupt``) and the lost completions are *reconciled back*
  from the result store; anything unreconcilable is simply requeued,
  which is always safe because shard execution is deterministic;
* **leases are soft state** — never journaled; a restart forgets them
  and the affected shards are pending again (worst case: a duplicate
  execution that dedupes).

Thread safety: every public method takes the manager lock; the REST
layer (:mod:`repro.service.api`) serves from multiple threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.experiments.runner import CampaignResult, pair_key
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.resilience.incidents import IncidentKind, IncidentRecorder
from repro.resilience.leases import LeasePolicy, LeaseQueue, ShardPhase
from repro.service.journal import Journal
from repro.service.schemas import CampaignSpec, CompleteRequest
from repro.service.store import ResultStore, shard_result_key


@dataclass
class _ShardMeta:
    """Manager-side bookkeeping for one shard of one campaign."""

    key: str  # pair key (workload::abtb=N::scale=S)
    workload: str
    abtb: int
    result_key: str
    payload: dict
    state: str = "pending"  # pending | completed | quarantined
    failures: int = 0
    attempts: int = 0
    last_error: str = ""


@dataclass
class _Campaign:
    campaign_id: str
    spec: CampaignSpec
    shards: dict[str, _ShardMeta] = field(default_factory=dict)
    cancelled: bool = False

    @property
    def done(self) -> bool:
        if self.cancelled:
            return True
        return all(s.state in ("completed", "quarantined") for s in self.shards.values())

    @property
    def degraded(self) -> bool:
        return any(s.state == "quarantined" for s in self.shards.values())

    def state_name(self) -> str:
        if self.cancelled:
            return "cancelled"
        if not self.done:
            return "running"
        return "degraded" if self.degraded else "complete"


def _shard_payload(spec: CampaignSpec, workload: str, abtb: int) -> dict:
    """The recipe a worker needs to execute one shard."""
    return {"workload": workload, "abtb": abtb, "scale": spec.scale, "seed": spec.seed}


#: Spec fields an older manager journaled for its in-worker retry; the
#: lease queue is the only retry now, so recovery drops them.
_RETIRED_SPEC_FIELDS = ("timeout_s", "max_retries")


def _journaled_spec(data: dict) -> CampaignSpec:
    """A spec read back from the journal or a snapshot, written by this
    manager or an older one (``POST /campaigns`` still rejects the
    retired fields)."""
    return CampaignSpec.from_dict(
        {k: v for k, v in data.items() if k not in _RETIRED_SPEC_FIELDS}
    )


class CampaignManager:
    """See module doc.

    Args:
        data_dir: root for the journal, snapshot and result store.
        policy: lease TTL / quarantine budget / backoff, shared with the
            local workers behind ``run_campaign(jobs > 1)``.
        recorder: incident recorder (one is created when omitted).
        metrics: metrics registry for ``/metrics`` (created when omitted).
        bus: event bus for ``/events`` (created when omitted; incidents
            recorded through ``recorder`` are mirrored onto it).
        clock: monotonic time source for leases (injectable for tests).
        snapshot_every: journal appends between automatic snapshots.
    """

    def __init__(
        self,
        data_dir: str | Path,
        policy: LeasePolicy | None = None,
        recorder: IncidentRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        bus: EventBus | None = None,
        clock=time.monotonic,
        snapshot_every: int = 50,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.policy = policy or LeasePolicy()
        self.recorder = recorder if recorder is not None else IncidentRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus if bus is not None else EventBus(metrics=self.metrics)
        if self.recorder.bus is None:
            self.recorder.bus = self.bus
        self.clock = clock
        self.snapshot_every = max(1, snapshot_every)
        self._lock = threading.RLock()
        self._progress: dict[tuple[str, str], dict] = {}  # (cid, key) -> progress
        #: (campaign_id, key, worker_id, attempt) of every banked failure
        #: report, so an at-least-once duplicate fail delivery burns one
        #: unit of quarantine budget, not two.
        self._fail_seen: set[tuple[str, str, str, int]] = set()
        self.store = ResultStore(self.data_dir / "results", recorder=self.recorder)
        self.journal = Journal(self.data_dir / "journal")
        self.queue = LeaseQueue(self.policy, clock=clock)
        self.campaigns: dict[str, _Campaign] = {}
        self.workers: dict[str, dict] = {}
        self._lease_index: dict[str, tuple[str, str]] = {}  # lease_id -> (cid, key)
        self._next_campaign = 1
        self._next_worker = 1
        self._appends_since_snapshot = 0
        self._closed = False
        self.recover()

    # ------------------------------------------------------------ recovery

    def recover(self) -> None:
        """Rebuild state from snapshot + WAL, then reconcile with the
        result store (heals journal corruption: a completed shard whose
        journal record was lost is re-completed from its stored result,
        and anything else is requeued — never lost, never double-counted).
        """
        with self._lock:
            loaded = self.journal.load()
            for problem in loaded.problems:
                self.recorder.record(
                    IncidentKind.JOURNAL_CORRUPT,
                    f"journal recovery dropped a record: {problem}",
                    severity="warning" if "torn tail" in problem else "error",
                    problem=problem,
                )
            if loaded.snapshot is not None:
                self._restore_snapshot(loaded.snapshot)
            replayed = 0
            for record in loaded.records:
                self._replay(record["type"], record["data"])
                replayed += 1
            self.journal.open_for_append(loaded.last_seq)

            # Requeue every non-terminal shard, seeding its failure budget.
            in_flight = 0
            for campaign in self.campaigns.values():
                if campaign.cancelled:
                    continue
                for meta in campaign.shards.values():
                    if meta.state != "pending":
                        continue
                    # Reconcile: if the result already exists (journal
                    # record lost, or a worker finished during downtime),
                    # bank it instead of recomputing.
                    stored = self.store.get(meta.result_key)
                    if stored is not None:
                        self._mark_completed(
                            campaign, meta,
                            attempts=int(stored.get("meta", {}).get("attempts", 1)),
                            journal=True, deduped=True, worker_id="<recovery>",
                        )
                        continue
                    self.queue.add(
                        self._qkey(campaign.campaign_id, meta.key),
                        meta.payload,
                        failures=meta.failures,
                    )
                    in_flight += 1
            if replayed or loaded.snapshot is not None:
                self.recorder.record(
                    IncidentKind.MANAGER_RECOVERED,
                    f"manager recovered {len(self.campaigns)} campaign(s) "
                    f"({in_flight} shard(s) requeued, {replayed} journal "
                    f"record(s) replayed)",
                    severity="info",
                    campaigns=len(self.campaigns),
                    requeued=in_flight,
                    replayed=replayed,
                )
                self.metrics.counter("service.journal_replays").inc()
                # Compact immediately: drops corrupt lines for good.
                self._snapshot()
            self._refresh_gauges()

    def _restore_snapshot(self, state: dict) -> None:
        self._next_campaign = int(state.get("next_campaign", 1))
        self._next_worker = int(state.get("next_worker", 1))
        for cid, cdata in state.get("campaigns", {}).items():
            spec = _journaled_spec(cdata["spec"])
            campaign = self._build_campaign(cid, spec)
            campaign.cancelled = bool(cdata.get("cancelled", False))
            for key, sdata in cdata.get("shards", {}).items():
                meta = campaign.shards.get(key)
                if meta is None:
                    continue
                meta.state = sdata.get("state", "pending")
                meta.failures = int(sdata.get("failures", 0))
                meta.attempts = int(sdata.get("attempts", 0))
                meta.last_error = sdata.get("last_error", "")
            self.campaigns[cid] = campaign

    def _replay(self, record_type: str, data: dict) -> None:
        """Apply one journal record to in-memory state (no re-journaling)."""
        if record_type == "submit":
            spec = _journaled_spec(data["spec"])
            cid = data["campaign_id"]
            self.campaigns[cid] = self._build_campaign(cid, spec)
            n = int(cid[1:]) if cid[1:].isdigit() else 0
            self._next_campaign = max(self._next_campaign, n + 1)
        elif record_type == "cancel":
            campaign = self.campaigns.get(data["campaign_id"])
            if campaign is not None:
                campaign.cancelled = True
        elif record_type == "complete":
            campaign = self.campaigns.get(data["campaign_id"])
            meta = campaign.shards.get(data["key"]) if campaign is not None else None
            if meta is not None:
                meta.state = "completed"
                meta.attempts = int(data.get("attempts", 1))
                meta.last_error = ""
        elif record_type == "fail":
            campaign = self.campaigns.get(data["campaign_id"])
            meta = campaign.shards.get(data["key"]) if campaign is not None else None
            if meta is not None and meta.state == "pending":
                meta.failures += 1
                meta.last_error = data.get("error", "")
        elif record_type == "quarantine":
            campaign = self.campaigns.get(data["campaign_id"])
            meta = campaign.shards.get(data["key"]) if campaign is not None else None
            if meta is not None and meta.state != "completed":
                meta.state = "quarantined"
                meta.failures = int(data.get("failures", meta.failures))
                meta.last_error = data.get("last_error", meta.last_error)
        # Unknown record types are ignored: a newer manager's journal
        # must not crash an older one during e.g. a rolling restart.

    # ----------------------------------------------------------- campaigns

    def submit(self, spec: CampaignSpec) -> str:
        """Journal and enqueue one campaign; returns its id.

        Shards whose config hash already has a stored result complete
        instantly (cross-campaign dedupe) — resubmitting a finished
        campaign is free.
        """
        with self._lock:
            self._check_open()
            cid = f"c{self._next_campaign:04d}"
            self._next_campaign += 1
            self.journal.append("submit", {"campaign_id": cid, "spec": spec.as_dict()})
            self._count_append()
            campaign = self._build_campaign(cid, spec)
            self.campaigns[cid] = campaign
            for meta in campaign.shards.values():
                stored = self.store.get(meta.result_key)
                if stored is not None:
                    self._mark_completed(
                        campaign, meta,
                        attempts=int(stored.get("meta", {}).get("attempts", 1)),
                        journal=True, deduped=True, worker_id="<store>",
                    )
                else:
                    self.queue.add(self._qkey(cid, meta.key), meta.payload)
            self.metrics.counter("service.campaigns_submitted").inc()
            self.bus.emit(
                "campaign_submitted",
                f"campaign {cid} submitted ({len(campaign.shards)} shard(s), "
                f"scale={spec.scale})",
                campaign_id=cid,
                shards=len(campaign.shards),
            )
            self._refresh_gauges()
            return cid

    def cancel(self, campaign_id: str) -> bool:
        with self._lock:
            self._check_open()
            campaign = self.campaigns.get(campaign_id)
            if campaign is None or campaign.cancelled:
                return False
            self.journal.append("cancel", {"campaign_id": campaign_id})
            self._count_append()
            campaign.cancelled = True
            for meta in campaign.shards.values():
                self.queue.discard(self._qkey(campaign_id, meta.key))
            self.metrics.counter("service.campaigns_cancelled").inc()
            self.bus.emit(
                "campaign_cancelled",
                f"campaign {campaign_id} cancelled",
                severity="warning",
                campaign_id=campaign_id,
            )
            self._refresh_gauges()
            return True

    def list_campaigns(self) -> list[dict]:
        with self._lock:
            return [self._status_dict(c) for c in self.campaigns.values()]

    def status(self, campaign_id: str) -> dict | None:
        with self._lock:
            campaign = self.campaigns.get(campaign_id)
            return self._status_dict(campaign) if campaign is not None else None

    def result(self, campaign_id: str) -> CampaignResult | None:
        """The final CampaignResult, or None while the campaign runs.

        Built purely from journaled state + the result store, so it is
        identical whether the campaign ran uninterrupted or through any
        number of crashes and restarts.
        """
        with self._lock:
            campaign = self.campaigns.get(campaign_id)
            if campaign is None or not campaign.done or campaign.cancelled:
                return None
            result = CampaignResult()
            for meta in campaign.shards.values():
                if meta.state == "completed":
                    stored = self.store.get(meta.result_key)
                    if stored is None:
                        # The stored result rotted after completion:
                        # demote and recompute rather than publish a gap.
                        qkey = self._qkey(campaign_id, meta.key)
                        meta.state = "pending"
                        self.queue.discard(qkey)
                        self.queue.add(qkey, meta.payload, failures=meta.failures)
                        return None
                    result.completed[meta.key] = stored["summary"]
                    result.attempts[meta.key] = meta.attempts or 1
                elif meta.state == "quarantined":
                    result.quarantined[meta.key] = {
                        "failures": meta.failures,
                        "last_error": meta.last_error,
                    }
                    result.attempts[meta.key] = meta.failures
            return result

    # ------------------------------------------------------------- workers

    def register_worker(self, name: str = "", worker_id: str = "") -> dict:
        """Register a worker (idempotent when it brings a ``worker_id``).

        The worker agent chooses its own id, so a register it re-sends
        (or that the network duplicates) re-registers it instead of
        minting a ghost entry.  Unknown brought ids are *adopted*
        (registration is soft state, never journaled); a caller that
        brings none gets a fresh ``wNNN`` id.
        """
        with self._lock:
            self._check_open()
            if worker_id and worker_id in self.workers:
                self.metrics.counter("service.workers_reregistered").inc()
                return self._register_grant(worker_id)
            if worker_id:
                # Keep the id counter ahead of any adopted id so a fresh
                # registration can never collide with it.
                num = worker_id[1:].split("-", 1)[0]
                if worker_id.startswith("w") and num.isdigit():
                    self._next_worker = max(self._next_worker, int(num) + 1)
            else:
                worker_id = f"w{self._next_worker:03d}" + (f"-{name}" if name else "")
                self._next_worker += 1
            self.workers[worker_id] = {
                "name": name,
                "shards_completed": 0,
                "registered_at": self.clock(),
            }
            self.metrics.counter("service.workers_registered").inc()
            self.bus.emit(
                "worker_registered",
                f"worker {worker_id} registered",
                worker_id=worker_id,
            )
            return self._register_grant(worker_id)

    def _register_grant(self, worker_id: str) -> dict:
        return {
            "worker_id": worker_id,
            "lease_ttl_s": self.policy.shard_deadline_s,
            "renew_every_s": self.policy.heartbeat_interval_s,
        }

    def lease(self, worker_id: str) -> dict | None:
        """Sweep expiries, then lease the next ready shard (None: no work)."""
        with self._lock:
            self._check_open()
            self.tick()
            acquired = self.queue.acquire(worker_id)
            if acquired is None:
                return None
            lease, payload = acquired
            cid, key = self._split_qkey(lease.key)
            self._lease_index[lease.lease_id] = (cid, key)
            self.metrics.counter("service.leases_granted").inc()
            self.bus.emit(
                "shard_leased",
                f"shard {key} leased to {worker_id} "
                f"(attempt {lease.attempt}, lease {lease.lease_id})",
                campaign_id=cid,
                shard_key=key,
                worker_id=worker_id,
                lease_id=lease.lease_id,
                attempt=lease.attempt,
            )
            return {
                "lease_id": lease.lease_id,
                "campaign_id": cid,
                "key": key,
                "attempt": lease.attempt,
                "payload": payload,
                "ttl_s": self.policy.shard_deadline_s,
                "renew_every_s": self.policy.heartbeat_interval_s,
            }

    def renew(
        self, lease_id: str, worker_id: str, progress: dict | None = None
    ) -> dict | None:
        """Extend a lease; optionally banks the heartbeat's shard progress
        (events retired, current workload) so lease rows
        and the dashboard show live progress instead of just lease age.
        None when the lease is gone (expired, or forgotten by a restart):
        the worker keeps computing and still delivers.
        """
        with self._lock:
            self._check_open()
            if self.queue.renew(lease_id, worker_id) is None:
                return None
            self.metrics.counter("service.leases_renewed").inc()
            if progress:
                self._bank_progress(lease_id, worker_id, progress)
            return {"lease_id": lease_id, "ttl_s": self.policy.shard_deadline_s}

    def _bank_progress(self, lease_id: str, worker_id: str, progress: dict) -> None:
        entry = self._lease_index.get(lease_id)
        if entry is None:
            return
        cid, key = entry
        record = {
            "events_done": int(progress.get("events_done", 0)),
            "workload": str(progress.get("workload", "")),
            "updated_at": self.clock(),
        }
        self._progress[(cid, key)] = record
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker["last_progress"] = {**record, "campaign_id": cid, "key": key}
        self.bus.emit(
            "shard_progress",
            f"shard {key}: {record['events_done']} event(s) retired",
            campaign_id=cid,
            shard_key=key,
            worker_id=worker_id,
            events_done=record["events_done"],
            workload=record["workload"],
        )
        self.metrics.series("service.progress.events_done").append(
            self.clock(), float(record["events_done"])
        )

    def complete(self, request: CompleteRequest) -> dict:
        """Bank one shard outcome (idempotent; see CompleteRequest doc)."""
        with self._lock:
            self._check_open()
            campaign = self.campaigns.get(request.campaign_id)
            if campaign is None:
                return {"status": "unknown-campaign"}
            meta = campaign.shards.get(request.key)
            if meta is None:
                return {"status": "unknown-shard"}
            outcome = request.outcome
            self.recorder.extend_dicts(outcome.get("incidents"))
            if campaign.cancelled:
                return {"status": "ignored-cancelled"}
            _, deduped = self.store.put(
                meta.result_key,
                outcome["summary"],
                recipe=meta.payload,
            )
            if meta.state == "completed":
                self.metrics.counter("service.shards_deduped").inc()
                return {"status": "deduped"}
            status = self._mark_completed(
                campaign, meta,
                attempts=int(outcome.get("attempts", 1)),
                journal=True, deduped=deduped, worker_id=request.worker_id,
            )
            worker = self.workers.get(request.worker_id)
            if worker is not None:
                worker["shards_completed"] += 1
            return {"status": status, "deduped": deduped}

    def fail(
        self,
        campaign_id: str,
        key: str,
        error: str,
        worker_id: str,
        attempt: int = 0,
    ) -> dict:
        """Bank one failed attempt: requeue with backoff, or quarantine
        once the failure budget is spent (deduped per attempt)."""
        with self._lock:
            self._check_open()
            campaign = self.campaigns.get(campaign_id)
            meta = campaign.shards.get(key) if campaign is not None else None
            if campaign is None or meta is None:
                return {"status": "unknown-shard"}
            if campaign.cancelled or meta.state != "pending":
                return {"status": "ignored"}
            if attempt:
                token = (campaign_id, key, worker_id, attempt)
                if token in self._fail_seen:
                    self.metrics.counter("service.fails_deduped").inc()
                    return {"status": "deduped"}
                self._fail_seen.add(token)
            return self._record_failure(campaign, meta, error, worker_id)

    # ---------------------------------------------------------------- tick

    def tick(self) -> int:
        """Sweep expired leases; returns how many expired."""
        with self._lock:
            events = self.queue.expire()
            for event in events:
                cid, key = self._split_qkey(event.key)
                self._lease_index.pop(event.lease_id, None)
                campaign = self.campaigns.get(cid)
                meta = campaign.shards.get(key) if campaign is not None else None
                self.metrics.counter("service.leases_expired").inc()
                self.recorder.record(
                    IncidentKind.LEASE_EXPIRED,
                    event.last_error,
                    severity="warning",
                    key=key,
                    campaign_id=cid,
                    worker_id=event.worker_id,
                    failures=event.failures,
                )
                if campaign is None or meta is None:
                    continue
                self.journal.append(
                    "fail",
                    {
                        "campaign_id": cid, "key": key,
                        "error": event.last_error, "worker_id": event.worker_id,
                    },
                )
                self._count_append()
                meta.failures = event.failures
                meta.last_error = event.last_error
                if event.quarantined:
                    self._quarantine(campaign, meta)
                else:
                    self._requeued(campaign, meta, event.backoff_s, event.worker_id)
            if events:
                self._refresh_gauges()
            return len(events)

    # ------------------------------------------------------------ shutdown

    def shutdown(self) -> None:
        """Graceful stop: snapshot, close the journal, record the incident."""
        with self._lock:
            if self._closed:
                return
            running = sum(
                1 for c in self.campaigns.values() if not c.done
            )
            self._snapshot()
            self.journal.close()
            self._closed = True
            self.recorder.record(
                IncidentKind.SHUTDOWN,
                f"manager shut down gracefully with {running} campaign(s) "
                f"in flight; journal snapshot flushed",
                severity="info",
                in_flight=running,
            )

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("manager is shut down")

    @staticmethod
    def _qkey(campaign_id: str, key: str) -> str:
        return f"{campaign_id}/{key}"

    @staticmethod
    def _split_qkey(qkey: str) -> tuple[str, str]:
        cid, _, key = qkey.partition("/")
        return cid, key

    def _build_campaign(self, cid: str, spec: CampaignSpec) -> _Campaign:
        campaign = _Campaign(campaign_id=cid, spec=spec)
        for workload in spec.workloads:
            for abtb in spec.abtb_sizes:
                key = pair_key(workload, abtb, spec.scale)
                campaign.shards[key] = _ShardMeta(
                    key=key,
                    workload=workload,
                    abtb=abtb,
                    result_key=shard_result_key(workload, abtb, spec.scale, spec.seed),
                    payload=_shard_payload(spec, workload, abtb),
                )
        return campaign

    def _mark_completed(
        self,
        campaign: _Campaign,
        meta: _ShardMeta,
        attempts: int,
        journal: bool,
        deduped: bool,
        worker_id: str,
    ) -> str:
        if journal:
            self.journal.append(
                "complete",
                {
                    "campaign_id": campaign.campaign_id,
                    "key": meta.key,
                    "attempts": attempts,
                    "deduped": deduped,
                    "worker_id": worker_id,
                },
            )
            self._count_append()
        queue_status = self.queue.complete(self._qkey(campaign.campaign_id, meta.key))
        meta.state = "completed"
        meta.attempts = attempts
        meta.last_error = ""
        self._progress.pop((campaign.campaign_id, meta.key), None)
        self.metrics.counter("service.shards_completed").inc()
        if deduped:
            self.metrics.counter("service.shards_deduped").inc()
        done_count = sum(
            1 for m in campaign.shards.values() if m.state == "completed"
        )
        self.metrics.series(
            f"service.campaign.{campaign.campaign_id}.completed"
        ).append(self.clock(), float(done_count))
        self.bus.emit(
            "shard_completed",
            f"shard {meta.key} completed by {worker_id} "
            f"(attempt {attempts}{', deduped' if deduped else ''})",
            campaign_id=campaign.campaign_id,
            shard_key=meta.key,
            worker_id=worker_id,
            attempts=attempts,
            deduped=deduped,
        )
        if campaign.done:
            self.metrics.counter("service.campaigns_completed").inc()
            self._emit_campaign_done(campaign)
        self._refresh_gauges()
        return "healed" if queue_status == "healed" else "completed"

    def _emit_campaign_done(self, campaign: _Campaign) -> None:
        state = campaign.state_name()
        self.bus.emit(
            "campaign_complete",
            f"campaign {campaign.campaign_id} finished: {state} "
            f"({len(campaign.shards)} shard(s))",
            severity="warning" if state == "degraded" else "info",
            campaign_id=campaign.campaign_id,
            state=state,
        )

    def _record_failure(
        self, campaign: _Campaign, meta: _ShardMeta, error: str, worker_id: str
    ) -> dict:
        self.journal.append(
            "fail",
            {
                "campaign_id": campaign.campaign_id, "key": meta.key,
                "error": error, "worker_id": worker_id,
            },
        )
        self._count_append()
        quarantined, backoff = self.queue.fail(
            self._qkey(campaign.campaign_id, meta.key), error
        )
        meta.failures += 1
        meta.last_error = error
        self.metrics.counter("service.shards_failed").inc()
        if quarantined:
            self._quarantine(campaign, meta)
            return {"status": "quarantined"}
        self._requeued(campaign, meta, backoff, worker_id)
        self._refresh_gauges()
        return {"status": "requeued", "backoff_s": backoff}

    def _requeued(
        self, campaign: _Campaign, meta: _ShardMeta, backoff: float, worker_id: str
    ) -> None:
        self.recorder.record(
            IncidentKind.SHARD_REQUEUED,
            f"shard {meta.key} requeued (failure {meta.failures}/"
            f"{self.policy.max_shard_failures}, backoff {backoff:.2f}s): "
            f"{meta.last_error}",
            severity="warning",
            key=meta.key,
            campaign_id=campaign.campaign_id,
            failures=meta.failures,
            backoff_s=backoff,
            worker_id=worker_id,
        )

    def _quarantine(self, campaign: _Campaign, meta: _ShardMeta) -> None:
        self.journal.append(
            "quarantine",
            {
                "campaign_id": campaign.campaign_id,
                "key": meta.key,
                "failures": meta.failures,
                "last_error": meta.last_error,
            },
        )
        self._count_append()
        self.queue.quarantine(
            self._qkey(campaign.campaign_id, meta.key), meta.last_error
        )
        meta.state = "quarantined"
        self._progress.pop((campaign.campaign_id, meta.key), None)
        self.metrics.counter("service.shards_quarantined").inc()
        self.recorder.record(
            IncidentKind.SHARD_QUARANTINED,
            f"shard {meta.key} quarantined after {meta.failures} failed "
            f"attempt(s), the last: {meta.last_error}; campaign "
            f"{campaign.campaign_id} will complete degraded",
            key=meta.key,
            campaign_id=campaign.campaign_id,
            failures=meta.failures,
        )
        if campaign.done:
            self._emit_campaign_done(campaign)
        self._refresh_gauges()

    def _status_dict(self, campaign: _Campaign) -> dict:
        counts = {"pending": 0, "leased": 0, "completed": 0, "quarantined": 0}
        for meta in campaign.shards.values():
            if meta.state in ("completed", "quarantined"):
                counts[meta.state] += 1
            else:
                phase = self.queue.phase(self._qkey(campaign.campaign_id, meta.key))
                counts["leased" if phase is ShardPhase.LEASED else "pending"] += 1
        return {
            "campaign_id": campaign.campaign_id,
            "state": campaign.state_name(),
            "spec": campaign.spec.as_dict(),
            "shards": {"total": len(campaign.shards), **counts},
        }

    def _count_append(self) -> None:
        self._appends_since_snapshot += 1
        if self._appends_since_snapshot >= self.snapshot_every:
            self._snapshot()

    def _snapshot(self) -> None:
        self.journal.write_snapshot(
            {
                "next_campaign": self._next_campaign,
                "next_worker": self._next_worker,
                "campaigns": {
                    cid: {
                        "spec": c.spec.as_dict(),
                        "cancelled": c.cancelled,
                        "shards": {
                            key: {
                                "state": m.state,
                                "failures": m.failures,
                                "attempts": m.attempts,
                                "last_error": m.last_error,
                            }
                            for key, m in c.shards.items()
                        },
                    }
                    for cid, c in self.campaigns.items()
                },
            }
        )
        self._appends_since_snapshot = 0

    def _refresh_gauges(self) -> None:
        active = sum(1 for c in self.campaigns.values() if not c.done)
        self.metrics.gauge("service.campaigns_active").set(float(active))
        counts = self.queue.counts()
        self.metrics.gauge("service.shards_pending").set(float(counts["pending"]))
        self.metrics.gauge("service.shards_leased").set(float(counts["leased"]))
        # Mirror the queue depths as time series so /timeseries (and the
        # dashboard's live charts) can show the campaign converging, not
        # just its current value.
        t = self.clock()
        self.metrics.series("service.queue.pending").append(t, float(counts["pending"]))
        self.metrics.series("service.queue.leased").append(t, float(counts["leased"]))
        self.metrics.series("service.active_campaigns").append(t, float(active))

    # ---------------------------------------------------------- telemetry

    def leases(self) -> list[dict]:
        """Live lease rows (soft state) with any banked progress."""
        with self._lock:
            now = self.clock()
            rows = []
            for lease in self.queue.live_leases():
                cid, key = self._split_qkey(lease.key)
                row = {
                    "lease_id": lease.lease_id,
                    "campaign_id": cid,
                    "key": key,
                    "worker_id": lease.worker_id,
                    "attempt": lease.attempt,
                    "expires_in_s": round(lease.expires_at - now, 3),
                }
                progress = self._progress.get((cid, key))
                if progress is not None:
                    row["progress"] = {
                        **progress,
                        "age_s": round(now - progress["updated_at"], 3),
                    }
                rows.append(row)
            return rows

    def telemetry(self) -> dict:
        """One consistent snapshot for the dashboard (``/dash/data``)."""
        with self._lock:
            return {
                "campaigns": [self._status_dict(c) for c in self.campaigns.values()],
                "leases": self.leases(),
                "workers": [
                    {
                        "worker_id": wid,
                        "name": info.get("name", ""),
                        "shards_completed": info.get("shards_completed", 0),
                        "last_progress": info.get("last_progress"),
                    }
                    for wid, info in self.workers.items()
                ],
                "incident_counts": self.recorder.counts(),
                "incidents": self.recorder.as_dicts()[-50:],
                "last_seq": self.bus.last_seq,
            }
