"""Self-healing campaign supervisor: heartbeats, requeue, quarantine, salvage.

The sharded campaign path used to hand its tasks to a bare
``ProcessPoolExecutor`` — a worker that died took its shard's results
with it, and a worker that hung stalled the whole campaign.  The
supervisor replaces the pool with explicitly managed worker processes:

* each shard runs in its own process which emits a **heartbeat** on a
  shared queue every ``heartbeat_interval_s``;
* a worker silent past ``shard_deadline_s`` is declared **hung**, killed
  (SIGKILL) and its shard requeued;
* a worker that **dies** (killed, OOM, segfault) is detected by process
  reaping; before requeueing, the supervisor tries to **salvage** the
  shard's outcome from the integrity-checked spill file the worker writes
  just before reporting — completed work survives the messenger's death;
* every requeue backs off exponentially; a shard failing
  ``max_shard_failures`` times is **quarantined** and the campaign
  completes *degraded* with a partial-result manifest instead of
  crashing;
* every one of those transitions is recorded on the
  :class:`~repro.resilience.incidents.IncidentRecorder`.

The supervisor is deliberately generic: it knows nothing about pairs or
workloads, only ``(key, payload)`` shards and a picklable ``worker_fn``;
``repro.experiments.runner.run_campaign`` supplies both.  A
:class:`FaultPlan` lets tests and the chaos CI job inject worker kills
and hangs deterministically *inside* the worker, so the supervisor's
recovery machinery is exercised through exactly the code paths a real
fault would take.
"""

from __future__ import annotations

import enum
import os
import re
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import multiprocessing

from repro.errors import CheckpointCorruptionError, SupervisorError
from repro.resilience.incidents import IncidentKind
from repro.resilience.integrity import read_artifact, write_artifact

#: Schema stamped on worker spill files (see :mod:`repro.resilience.integrity`).
SPILL_SCHEMA = "repro.shard-spill"
SPILL_SCHEMA_VERSION = 1

#: Outcome keys preserved in a spill file (the JSON-safe subset; worker
#: metrics/tracer state is process-local and not salvageable).
SPILL_OUTCOME_KEYS = ("key", "attempts", "retries", "failed", "summary", "incidents")


class ShardState(enum.Enum):
    """Lifecycle of one supervised shard."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    SALVAGED = "salvaged"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs (defaults sized for real campaigns; tests shrink
    the deadline to keep hang detection fast)."""

    #: A worker silent for this long is declared hung and killed.
    shard_deadline_s: float = 120.0
    #: Interval between worker heartbeats.
    heartbeat_interval_s: float = 0.25
    #: Process-level failures (death or hang) before a shard is
    #: quarantined.  Worker-internal retries are separate (RetryPolicy).
    max_shard_failures: int = 3
    #: Exponential requeue backoff: base * factor ** (failures - 1).
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    #: Supervisor monitor loop poll interval.
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise SupervisorError(
                f"shard_deadline_s must be positive, got {self.shard_deadline_s}"
            )
        if self.heartbeat_interval_s <= 0:
            raise SupervisorError(
                f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}"
            )
        if self.max_shard_failures < 1:
            raise SupervisorError(
                f"max_shard_failures must be >= 1, got {self.max_shard_failures}"
            )

    def backoff(self, failures: int) -> float:
        return self.backoff_base_s * self.backoff_factor ** max(0, failures - 1)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for supervised workers.

    Matching is by substring on the shard key.  ``*_attempts`` bounds how
    many attempts the fault fires on (1 = only the first), so a killed
    shard succeeds on requeue and the test can assert full recovery.
    """

    #: SIGKILL the worker for matching shards.
    kill_match: str = ""
    kill_attempts: int = 1
    #: Kill *after* the spill file is written (exercises salvage) instead
    #: of before any work (exercises requeue).
    kill_after_spill: bool = False
    #: Suppress heartbeats and stall for matching shards (exercises hang
    #: detection).
    hang_match: str = ""
    hang_attempts: int = 1

    def should_kill(self, key: str, attempt: int) -> bool:
        return bool(self.kill_match) and self.kill_match in key and attempt <= self.kill_attempts

    def should_hang(self, key: str, attempt: int) -> bool:
        return bool(self.hang_match) and self.hang_match in key and attempt <= self.hang_attempts


# --------------------------------------------------------------- worker side


def _heartbeat_loop(queue, key: str, interval: float, stop: threading.Event) -> None:
    seq = 0
    while not stop.wait(interval):
        seq += 1
        try:
            queue.put(("hb", key, seq))
        except Exception:
            return


def _worker_main(worker_fn, key, payload, attempt, queue, spill_path, hb_interval, fault_plan):
    """Entry point of one supervised worker process (must be importable)."""
    fault_plan = fault_plan or FaultPlan()
    if fault_plan.should_hang(key, attempt):
        # Simulated wedge: never heartbeat, never finish.  The parent's
        # deadline machinery is the only way out.
        time.sleep(3600)
        return
    if fault_plan.should_kill(key, attempt) and not fault_plan.kill_after_spill:
        os.kill(os.getpid(), signal.SIGKILL)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(queue, key, hb_interval, stop), daemon=True
    )
    beat.start()
    try:
        try:
            outcome = worker_fn(payload)
        except BaseException as exc:  # worker_fn handles retries; this is a bug escape
            queue.put(("error", key, f"{type(exc).__name__}: {exc}"))
            return
        if spill_path is not None:
            spill = {
                "key": key,
                "attempt": attempt,
                "outcome": {k: outcome.get(k) for k in SPILL_OUTCOME_KEYS if k in outcome},
            }
            write_artifact(spill_path, spill, SPILL_SCHEMA, SPILL_SCHEMA_VERSION)
        if fault_plan.should_kill(key, attempt) and fault_plan.kill_after_spill:
            os.kill(os.getpid(), signal.SIGKILL)
        queue.put(("done", key, outcome))
    finally:
        stop.set()


# --------------------------------------------------------------- parent side


@dataclass
class _Shard:
    key: str
    payload: object
    state: ShardState = ShardState.PENDING
    failures: int = 0
    ready_at: float = 0.0
    last_error: str = ""
    outcome: dict | None = None


@dataclass
class _Handle:
    shard: _Shard
    process: multiprocessing.Process
    attempt: int
    last_heartbeat: float
    spill_path: Path
    done: bool = False


@dataclass
class SupervisorReport:
    """What the supervised campaign produced.

    ``outcomes`` holds one outcome dict per completed-or-salvaged shard;
    ``quarantined`` maps shard key to failure details for shards that
    exhausted their budget.  ``ok`` means nothing was quarantined.
    """

    outcomes: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined


def _spill_name(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", key) + ".spill.json"


class CampaignSupervisor:
    """Runs ``(key, payload)`` shards under supervision (see module doc).

    Args:
        worker_fn: picklable callable, ``payload -> outcome dict``.
        shards: ordered ``(key, payload)`` pairs; keys must be unique.
        jobs: maximum concurrently running worker processes.
        policy: deadlines / retry budget / backoff.
        recorder: optional incident recorder.
        fault_plan: optional deterministic fault injection.
        spill_dir: directory for worker spill files (temp dir by default).
        on_complete: called as ``on_complete(key, outcome)`` the moment a
            shard completes or is salvaged — the runner checkpoints here.
    """

    def __init__(
        self,
        worker_fn,
        shards,
        jobs: int = 2,
        policy: SupervisorPolicy | None = None,
        recorder=None,
        fault_plan: FaultPlan | None = None,
        spill_dir: str | Path | None = None,
        on_complete=None,
    ) -> None:
        self.worker_fn = worker_fn
        self.shards = [_Shard(key=k, payload=p) for k, p in shards]
        keys = [s.key for s in self.shards]
        if len(set(keys)) != len(keys):
            raise SupervisorError("shard keys must be unique")
        if jobs < 1:
            raise SupervisorError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy or SupervisorPolicy()
        self.recorder = recorder
        self.fault_plan = fault_plan
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.on_complete = on_complete
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # ------------------------------------------------------------ lifecycle

    def run(self) -> SupervisorReport:
        if self.spill_dir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-spill-")
            self.spill_dir = Path(self._tmp.name)
        self.spill_dir.mkdir(parents=True, exist_ok=True)

        queue = self._ctx.Queue()
        pending: deque[_Shard] = deque(self.shards)
        running: dict[str, _Handle] = {}
        report = SupervisorReport()

        try:
            while pending or running:
                now = time.monotonic()
                self._launch_ready(pending, running, queue, now)
                self._drain_queue(queue, running, pending, report)
                self._check_deadlines(running, pending, report)
                self._reap_dead(running, pending, report)
                if pending and not running:
                    # Everything eligible is in backoff; sleep until the
                    # soonest shard becomes ready.
                    wake = min(s.ready_at for s in pending)
                    delay = max(0.0, wake - time.monotonic())
                    time.sleep(min(delay, self.policy.poll_interval_s * 4) or 0.001)
        finally:
            for handle in running.values():
                self._kill(handle)
            queue.close()
            queue.join_thread()

        for shard in self.shards:
            report.states[shard.key] = shard.state
        return report

    # ------------------------------------------------------------ internals

    def _launch_ready(self, pending, running, queue, now) -> None:
        rotated = 0
        while pending and len(running) < self.jobs and rotated < len(pending):
            shard = pending[0]
            if shard.ready_at > now:
                pending.rotate(-1)
                rotated += 1
                continue
            pending.popleft()
            rotated = 0
            attempt = shard.failures + 1
            spill_path = self.spill_dir / _spill_name(shard.key)
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    self.worker_fn,
                    shard.key,
                    shard.payload,
                    attempt,
                    queue,
                    str(spill_path),
                    self.policy.heartbeat_interval_s,
                    self.fault_plan,
                ),
                daemon=True,
            )
            process.start()
            shard.state = ShardState.RUNNING
            running[shard.key] = _Handle(
                shard=shard,
                process=process,
                attempt=attempt,
                last_heartbeat=time.monotonic(),
                spill_path=spill_path,
            )

    def _drain_queue(self, queue, running, pending, report) -> None:
        deadline = time.monotonic() + self.policy.poll_interval_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                message = queue.get(timeout=max(0.0, remaining))
            except Exception:  # Empty (and spurious queue teardown races)
                return
            tag, key = message[0], message[1]
            handle = running.get(key)
            if handle is None:
                continue
            if tag == "hb":
                handle.last_heartbeat = time.monotonic()
            elif tag == "done":
                handle.last_heartbeat = time.monotonic()
                handle.done = True
                self._complete(handle, message[2], running, report, salvaged=False)
            elif tag == "error":
                handle.last_heartbeat = time.monotonic()
                handle.done = True
                handle.shard.last_error = str(message[2])
                handle.process.join(timeout=5.0)
                del running[key]
                self._fail(
                    handle.shard,
                    pending,
                    report,
                    IncidentKind.WORKER_DEATH,
                    f"worker for shard {key} raised: {message[2]}",
                )
            if remaining <= 0:
                return

    def _check_deadlines(self, running, pending, report) -> None:
        now = time.monotonic()
        for key in list(running):
            handle = running[key]
            if handle.done:
                continue
            silent = now - handle.last_heartbeat
            if silent <= self.policy.shard_deadline_s:
                continue
            self._kill(handle)
            del running[key]
            if not self._try_salvage(handle, running, report):
                self._fail(
                    handle.shard,
                    pending,
                    report,
                    IncidentKind.WORKER_HANG,
                    f"worker for shard {key} silent for {silent:.1f}s "
                    f"(deadline {self.policy.shard_deadline_s:.1f}s); killed",
                    pid=handle.process.pid,
                )

    def _reap_dead(self, running, pending, report) -> None:
        for key in list(running):
            handle = running[key]
            if handle.done or handle.process.is_alive():
                continue
            handle.process.join(timeout=5.0)
            del running[key]
            if self._try_salvage(handle, running, report):
                continue
            self._fail(
                handle.shard,
                pending,
                report,
                IncidentKind.WORKER_DEATH,
                f"worker for shard {key} died with exit code "
                f"{handle.process.exitcode} before delivering its outcome",
                pid=handle.process.pid,
                exitcode=handle.process.exitcode,
            )

    def _try_salvage(self, handle, running, report) -> bool:
        """Recover a dead worker's outcome from its spill file, if intact."""
        try:
            spill = read_artifact(handle.spill_path, SPILL_SCHEMA, SPILL_SCHEMA_VERSION)
        except CheckpointCorruptionError:
            return False
        if spill.get("key") != handle.shard.key:
            return False
        outcome = dict(spill.get("outcome") or {})
        if outcome.get("summary") is None or outcome.get("failed"):
            return False
        outcome.setdefault("key", handle.shard.key)
        outcome["salvaged"] = True
        if self.recorder is not None:
            self.recorder.record(
                IncidentKind.SHARD_SALVAGED,
                f"worker for shard {handle.shard.key} died after finishing; "
                f"outcome salvaged from its spill checkpoint",
                severity="warning",
                key=handle.shard.key,
                attempt=handle.attempt,
            )
        self._complete(handle, outcome, running, report, salvaged=True)
        return True

    def _complete(self, handle, outcome, running, report, salvaged: bool) -> None:
        shard = handle.shard
        shard.state = ShardState.SALVAGED if salvaged else ShardState.COMPLETED
        shard.outcome = outcome
        report.outcomes[shard.key] = outcome
        if not salvaged:
            handle.process.join(timeout=5.0)
            running.pop(shard.key, None)
        try:
            handle.spill_path.unlink()
        except OSError:
            pass
        if self.on_complete is not None:
            self.on_complete(shard.key, outcome)

    def _fail(self, shard, pending, report, kind, message, **context) -> None:
        shard.failures += 1
        shard.last_error = message
        if self.recorder is not None:
            self.recorder.record(
                kind,
                message,
                key=shard.key,
                attempt=shard.failures,
                **context,
            )
        if shard.failures >= self.policy.max_shard_failures:
            shard.state = ShardState.QUARANTINED
            report.quarantined[shard.key] = {
                "failures": shard.failures,
                "last_error": shard.last_error,
            }
            if self.recorder is not None:
                self.recorder.record(
                    IncidentKind.SHARD_QUARANTINED,
                    f"shard {shard.key} quarantined after {shard.failures} "
                    f"process-level failures; campaign will complete degraded",
                    key=shard.key,
                    failures=shard.failures,
                )
            return
        backoff = self.policy.backoff(shard.failures)
        shard.state = ShardState.PENDING
        shard.ready_at = time.monotonic() + backoff
        pending.append(shard)
        if self.recorder is not None:
            self.recorder.record(
                IncidentKind.SHARD_REQUEUED,
                f"shard {shard.key} requeued (failure {shard.failures}/"
                f"{self.policy.max_shard_failures}, backoff {backoff:.2f}s)",
                severity="warning",
                key=shard.key,
                failures=shard.failures,
                backoff_s=backoff,
            )

    def _kill(self, handle) -> None:
        process = handle.process
        if process.is_alive():
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except OSError:
                    pass
        process.join(timeout=5.0)
