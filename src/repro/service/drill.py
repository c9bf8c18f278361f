"""Fleet-level chaos drill: kill the leader mid-campaign and prove
nothing was lost.

``repro drill`` runs one scripted high-availability exercise over a
*live* campaign, entirely in-process (threads, real HTTP on loopback):

1. a **leader** manager serves a campaign to a small worker fleet whose
   transports all route through one deterministic
   :class:`~repro.chaos.net.NetFaultInjector` (drops, delays, duplicated
   POSTs, truncated responses, injected 502s — all decided by seed);
2. one worker **vanishes** (the in-process SIGKILL analog) holding a
   lease, so the expiry path runs under fire too;
3. after the first shard completions the leader is **killed**
   non-gracefully; the tailing :class:`~repro.service.standby.
   StandbyManager` detects the loss, **promotes** itself at a bumped
   fencing epoch, and starts serving on the standby endpoint the
   workers already hold as their failover target;
4. a **partition window** then cuts worker→new-leader traffic briefly,
   exercising the retry/rotate path against the promoted manager;
5. after the campaign completes, two **fencing probes** assert both
   rejection directions: a stale-epoch write to the new leader, and a
   new-epoch write to the *revived* old leader, must both answer
   HTTP 409 ``fenced`` — never a merge.

The drill then holds the run to the acceptance bar:

* the promoted manager's :class:`~repro.experiments.runner.
  CampaignResult` must be **counter-for-counter identical** to a serial,
  fault-free ``run_campaign`` of the same spec;
* **zero re-execution**: the fleet's delivered-shard total equals the
  shard count — failover re-leased only what dead workers held;
* the merged incident log (leader + standby/promoted + injector)
  validates, and contains ``leader_lost``, ``promoted``,
  ``fenced_write`` and ``net_fault``.

Exit semantics match ``repro submit``: 0 complete, 3 degraded (still
counter-identical to serial), 1 failed drill.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.net import FaultyTransport, NetFaultInjector, NetFaultPolicy
from repro.errors import ServiceError
from repro.experiments.runner import CampaignResult, run_campaign
from repro.experiments.scale import PAPER, SMOKE
from repro.resilience.incidents import (
    IncidentRecorder,
    load_incident_log,
    validate_incident_log,
)
from repro.resilience.supervisor import SupervisorPolicy
from repro.service.api import ManagerServer
from repro.service.manager import CampaignManager
from repro.service.standby import StandbyManager
from repro.service.worker import (
    ManagerClient,
    WorkerAgent,
    WorkerChaos,
    WorkerVanished,
)

_SCALES = {"smoke": SMOKE, "paper": PAPER}

#: Incident kinds the drill's merged log must contain to pass.
REQUIRED_INCIDENTS = ("leader_lost", "promoted", "fenced_write", "net_fault")


def _default_net_policy(seed: int) -> NetFaultPolicy:
    """The stock drill fault mix: hostile enough to matter, mild enough
    that heartbeats survive and no lease expires spuriously."""
    return NetFaultPolicy(
        seed=seed,
        drop=0.05,
        delay=0.08,
        delay_s=0.01,
        duplicate=0.06,
        truncate=0.04,
        mangle=0.04,
    )


@dataclass(frozen=True)
class DrillSpec:
    """One scripted drill (defaults are the CI smoke configuration)."""

    workloads: tuple[str, ...] = ("apache",)
    abtb_sizes: tuple[int, ...] = (16, 64, 256)
    scale: str = "smoke"
    seed: int = 1337
    workers: int = 3
    #: Worker 0 vanishes (in-process SIGKILL) on this lease grant (0 = off).
    vanish_worker_lease: int = 1
    #: Kill the leader once this many shards have completed.
    kill_leader_after_completions: int = 1
    #: Cut worker→new-leader traffic for this long after promotion (0 = off).
    partition_window_s: float = 0.4
    #: Probabilistic fault mix; None = :func:`_default_net_policy` (seeded).
    net: NetFaultPolicy | None = None
    shard_deadline_s: float = 6.0
    max_shard_failures: int = 5
    misses_to_promote: int = 4
    standby_poll_s: float = 0.1
    deadline_s: float = 180.0

    def campaign_body(self) -> dict:
        # No "seed": the serial reference (run_campaign) has no seed
        # knob either, and the two must hash to the same result keys.
        # spec.seed drives the *fault injector*, not the workloads.
        return {
            "workloads": list(self.workloads),
            "abtb_sizes": list(self.abtb_sizes),
            "scale": self.scale,
        }

    @property
    def shard_count(self) -> int:
        return len(self.workloads) * len(self.abtb_sizes)


@dataclass
class DrillReport:
    """Everything the drill asserted, plus the evidence trail."""

    campaign_id: str = ""
    state: str = ""
    shard_count: int = 0
    executed: int = 0
    counters_match: bool = False
    zero_reexecution: bool = False
    probes_fenced: bool = False
    serial: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    worker_stats: list = field(default_factory=list)
    fault_counts: dict = field(default_factory=dict)
    incident_counts: dict = field(default_factory=dict)
    missing_kinds: list = field(default_factory=list)
    log_problems: list = field(default_factory=list)
    incidents_path: str = ""
    timeline: list = field(default_factory=list)
    failovers: int = 0
    duration_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and self.state in ("complete", "degraded")
            and self.counters_match
            and self.zero_reexecution
            and self.probes_fenced
            and not self.missing_kinds
            and not self.log_problems
        )

    @property
    def exit_code(self) -> int:
        if not self.ok:
            return 1
        return 3 if self.state == "degraded" else 0

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "campaign_id": self.campaign_id,
            "state": self.state,
            "shard_count": self.shard_count,
            "executed": self.executed,
            "counters_match": self.counters_match,
            "zero_reexecution": self.zero_reexecution,
            "probes_fenced": self.probes_fenced,
            "serial": self.serial,
            "service": self.service,
            "worker_stats": list(self.worker_stats),
            "fault_counts": dict(self.fault_counts),
            "incident_counts": dict(self.incident_counts),
            "missing_kinds": list(self.missing_kinds),
            "log_problems": list(self.log_problems),
            "incidents_path": self.incidents_path,
            "timeline": list(self.timeline),
            "failovers": self.failovers,
            "duration_s": round(self.duration_s, 3),
            "error": self.error,
        }

    def render(self) -> str:
        lines = [
            f"drill: {'PASS' if self.ok else 'FAIL'} "
            f"(campaign {self.campaign_id or '?'} {self.state or 'unknown'}, "
            f"{self.duration_s:.1f}s)",
            f"  counters vs serial : {'identical' if self.counters_match else 'DIVERGED'}",
            f"  shard executions   : {self.executed}/{self.shard_count}"
            + ("" if self.zero_reexecution else "  (RE-EXECUTION)"),
            f"  fencing probes     : "
            + ("both rejected (409)" if self.probes_fenced else "NOT FENCED"),
            f"  injected faults    : "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
                or "none"
            ),
            f"  incident log       : {self.incidents_path or '-'}"
            + (
                f"  (missing: {', '.join(self.missing_kinds)})"
                if self.missing_kinds
                else ""
            )
            + (f"  ({len(self.log_problems)} schema problem(s))" if self.log_problems else ""),
        ]
        if self.error:
            lines.append(f"  error              : {self.error}")
        return "\n".join(lines)


def _reserve_port() -> int:
    """Pick a loopback port for the standby *before* promotion, so the
    worker fleet can hold ``[leader, standby]`` from the start.
    ``allow_reuse_address`` on ManagerServer makes the rebind safe."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _result_counters(result: CampaignResult) -> dict:
    return {
        "completed": len(result.completed),
        "failed": len(result.failed),
        "quarantined": len(result.quarantined),
        "attempts": sum(result.attempts.values()),
    }


def run_drill(
    spec: DrillSpec,
    root_dir: str | Path,
    log=lambda message: None,
) -> DrillReport:
    """Run one chaos drill under ``root_dir`` (see module doc).

    Never raises for a *failed* drill — failures land in the report with
    ``exit_code == 1``; only setup errors (bad spec, unusable root)
    raise.  ``log`` receives human-oriented progress lines.
    """
    if spec.scale not in _SCALES:
        raise ServiceError(f"drill scale {spec.scale!r} not in {sorted(_SCALES)}")
    root = Path(root_dir)
    root.mkdir(parents=True, exist_ok=True)
    cache_dir = root / "machine-cache"
    report = DrillReport(shard_count=spec.shard_count)
    t0 = time.monotonic()

    def mark(event: str, **detail) -> None:
        entry = {"t": round(time.monotonic() - t0, 3), "event": event, **detail}
        report.timeline.append(entry)
        log(f"[{entry['t']:7.3f}s] {event}"
            + (f" {detail}" if detail else ""))

    # ---- serial reference (fault-free ground truth; shares the machine
    # cache with the fleet, exactly like the service acceptance test).
    mark("serial_reference_start")
    serial = run_campaign(
        list(spec.workloads),
        _SCALES[spec.scale],
        abtb_sizes=tuple(spec.abtb_sizes),
        machine_cache_dir=cache_dir,
    )
    report.serial = _result_counters(serial)
    mark("serial_reference_done", **report.serial)

    # ---- topology: leader + pre-reserved standby endpoint + injector.
    policy = SupervisorPolicy(
        shard_deadline_s=spec.shard_deadline_s,
        max_shard_failures=spec.max_shard_failures,
    )
    leader_recorder = IncidentRecorder()
    ha_recorder = IncidentRecorder()  # standby + promoted manager
    net_recorder = IncidentRecorder()
    injector = NetFaultInjector(
        policy=spec.net or _default_net_policy(spec.seed),
        recorder=net_recorder,
    )
    transport = FaultyTransport(injector)

    leader_manager = CampaignManager(
        root / "leader", policy=policy, recorder=leader_recorder
    )
    leader_server = ManagerServer(leader_manager, port=0)
    leader_server.start()
    leader_url = leader_server.url
    leader_port = leader_server.port
    standby_port = _reserve_port()
    standby_url = f"http://127.0.0.1:{standby_port}"
    endpoints = [leader_url, standby_url]
    mark("leader_up", url=leader_url, standby_url=standby_url)

    standby = StandbyManager(
        root / "standby",
        leader_url=leader_url,
        policy=policy,
        recorder=ha_recorder,
        poll_interval_s=spec.standby_poll_s,
        misses_to_promote=spec.misses_to_promote,
    )
    promoted_box: list[CampaignManager | None] = [None]
    standby_thread = threading.Thread(
        target=lambda: promoted_box.__setitem__(0, standby.run()),
        name="drill-standby",
        daemon=True,
    )
    standby_thread.start()

    # ---- the fleet: every client holds [leader, standby] and routes
    # through the shared injector; worker 0 is doomed to vanish.
    agents: list[WorkerAgent] = []
    threads: list[threading.Thread] = []
    stats: list[dict | None] = [None] * spec.workers
    for index in range(spec.workers):
        client = ManagerClient(
            endpoints,
            retries=120,
            retry_delay_s=0.05,
            timeout_s=5.0,
            transport=transport,
        )
        chaos = None
        if spec.vanish_worker_lease and index == 0:
            chaos = WorkerChaos(vanish_after_leases=spec.vanish_worker_lease)
        agent = WorkerAgent(
            client,
            name=f"drill-w{index}",
            poll_interval_s=0.05,
            machine_cache_dir=str(cache_dir),
            chaos=chaos,
        )
        agents.append(agent)

        def _run(agent=agent, index=index) -> None:
            try:
                stats[index] = agent.run()
            except WorkerVanished:
                mark("worker_vanished", worker=agent.worker_id or index)
                stats[index] = {
                    "worker_id": agent.worker_id,
                    "shards_done": agent.shards_done,
                    "shards_failed": agent.shards_failed,
                    "vanished": True,
                }
            except ServiceError as exc:
                stats[index] = {
                    "worker_id": agent.worker_id,
                    "shards_done": agent.shards_done,
                    "shards_failed": agent.shards_failed,
                    "error": str(exc),
                }

        threads.append(
            threading.Thread(target=_run, name=f"drill-w{index}", daemon=True)
        )

    def _shutdown() -> None:
        for agent in agents:
            agent.stop_event.set()
        standby.stop()
        injector.heal()
        for thread in threads:
            thread.join(timeout=10.0)
        standby_thread.join(timeout=10.0)

    old_leader_server: ManagerServer | None = None
    new_server: ManagerServer | None = None
    try:
        for thread in threads:
            thread.start()

        # ---- submit on the control plane (clean transport: the drill
        # script itself is not the system under test).
        control = ManagerClient(endpoints, retries=60, retry_delay_s=0.05)
        status, body = control.post("/campaigns", spec.campaign_body())
        if status not in (200, 201):
            raise ServiceError(f"drill submit answered {status}: {body}")
        cid = body["campaign_id"]
        report.campaign_id = cid
        mark("campaign_submitted", campaign_id=cid)

        def _wait(predicate, what: str, interval: float = 0.05) -> None:
            deadline = t0 + spec.deadline_s
            while not predicate():
                if time.monotonic() > deadline:
                    raise ServiceError(f"drill deadline expired waiting for {what}")
                time.sleep(interval)

        # ---- phase 1: let the campaign draw first blood, then kill the
        # leader with no warning (journal left open = crash).  The kill
        # is staged like a real failover, not a convenient one: first a
        # worker→leader partition (the fleet's in-flight deliveries now
        # retry until they reach the *new* leader — the bankable-late-
        # completion path), then a wait for the standby to drain the
        # leader's journal tail.  Without the partition+drain, any
        # completion landing in the last replication interval would be
        # silently lost and its shard re-executed, which is exactly what
        # the zero-re-execution bar forbids.
        def _leader_progressed() -> bool:
            status_dict = leader_manager.status(cid)
            if status_dict is None:
                return False
            return (
                status_dict["shards"]["completed"]
                >= spec.kill_leader_after_completions
            )

        _wait(_leader_progressed, "first shard completion(s) on the leader")
        injector.partition(leader_url, direction="request")
        mark("leader_isolated_from_fleet", url=leader_url)

        def _replicated() -> bool:
            # Exchanges already past the partition check can still land
            # and journal, so require catch-up against the *live* seq.
            return standby.applied_seq >= leader_manager.journal.seq

        _wait(_replicated, "standby replication catch-up")
        leader_server.stop(graceful=False)
        mark(
            "leader_killed",
            completions=leader_manager.status(cid)["shards"]["completed"],
            seq=leader_manager.journal.seq,
        )

        # ---- phase 2: the standby notices, promotes, and the drill
        # serves the promoted manager on the endpoint workers hold.
        _wait(
            standby.promoted_event.is_set,
            "standby promotion",
        )
        promoted = promoted_box[0]
        if promoted is None:  # pragma: no cover - promoted_event guards this
            raise ServiceError("standby stopped without promoting")
        report.failovers = 1
        new_server = ManagerServer(promoted, port=standby_port)
        new_server.start()
        # The old endpoint now answers with real connection-refused;
        # keeping the injected partition up would only double-count.
        injector.heal(leader_url)
        mark("standby_promoted", epoch=promoted.epoch, url=new_server.url)

        # ---- phase 3: one partition window against the new leader.
        if spec.partition_window_s > 0:
            injector.partition(standby_url, direction="request")
            mark("partition_start", url=standby_url, direction="request")
            time.sleep(spec.partition_window_s)
            injector.heal(standby_url)
            mark("partition_healed", url=standby_url)

        # ---- phase 4: run to completion on the promoted manager.
        def _campaign_done() -> bool:
            status_dict = promoted.status(cid)
            return status_dict is not None and status_dict["state"] in (
                "complete",
                "degraded",
            )

        _wait(_campaign_done, "campaign completion after failover")
        report.state = promoted.status(cid)["state"]
        mark("campaign_done", state=report.state)

        # ---- drain the fleet before counting anything.
        for agent in agents:
            agent.stop_event.set()
        for thread in threads:
            thread.join(timeout=15.0)
        report.worker_stats = [s for s in stats if s is not None]
        report.executed = sum(s.get("shards_done", 0) for s in report.worker_stats)
        report.zero_reexecution = report.executed == spec.shard_count

        # ---- fencing probes, both directions (after completion so the
        # probe cannot perturb the run it is judging).
        probe = ManagerClient(new_server.url, retries=0, timeout_s=5.0)
        probe_body = {
            "campaign_id": cid,
            "key": "drill-fencing-probe",
            "worker_id": "drill-probe",
            "outcome": {"failed": "fencing probe (must be rejected)"},
        }
        status_stale, body_stale = probe.post(
            "/shards/complete", {**probe_body, "epoch": max(1, promoted.epoch - 1)}
        )
        stale_fenced = status_stale == 409 and body_stale.get("fenced") is True
        mark("probe_stale_epoch_to_new_leader", status=status_stale)

        # Revive the dead leader on its old port; a write stamped with
        # the *new* epoch must bounce off its stale journal too.
        old_leader_server = ManagerServer(leader_manager, port=leader_port)
        old_leader_server.start()
        revived = ManagerClient(old_leader_server.url, retries=0, timeout_s=5.0)
        status_new, body_new = revived.post(
            "/shards/complete", {**probe_body, "epoch": promoted.epoch}
        )
        revived_fenced = status_new == 409 and body_new.get("fenced") is True
        mark("probe_new_epoch_to_revived_leader", status=status_new)
        report.probes_fenced = stale_fenced and revived_fenced

        # ---- the acceptance bar: counter-for-counter vs serial.
        result = promoted.result(cid)
        if result is None:
            raise ServiceError("campaign finished but result() returned None")
        report.service = _result_counters(result)
        report.counters_match = (
            result.completed == serial.completed
            and result.failed == serial.failed
            and result.quarantined == serial.quarantined
            and result.attempts == serial.attempts
        )
        mark("counters_compared", match=report.counters_match)
    except ServiceError as exc:
        report.error = str(exc)
        mark("drill_error", error=report.error)
    finally:
        _shutdown()
        if new_server is not None:
            new_server.stop(graceful=True)
        if old_leader_server is not None:
            old_leader_server.stop(graceful=False)
        else:
            leader_server.stop(graceful=False)

    # ---- merge every incident stream into one validated log.
    merged = IncidentRecorder()
    for recorder in (leader_recorder, ha_recorder, net_recorder):
        merged.extend_dicts(recorder.as_dicts())
    incidents_path = root / "incidents.jsonl"
    merged.write_jsonl(incidents_path)
    report.incidents_path = str(incidents_path)
    report.fault_counts = dict(injector.counts)
    report.log_problems = validate_incident_log(incidents_path)
    if not report.log_problems:
        counts: dict[str, int] = {}
        for incident in load_incident_log(incidents_path):
            counts[incident.kind] = counts.get(incident.kind, 0) + 1
        report.incident_counts = counts
        report.missing_kinds = [
            kind for kind in REQUIRED_INCIDENTS if kind not in counts
        ]
    else:
        report.missing_kinds = list(REQUIRED_INCIDENTS)
    report.duration_s = time.monotonic() - t0
    mark("drill_finished", ok=report.ok, exit_code=report.exit_code)
    return report
