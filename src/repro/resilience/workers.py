"""Local lease workers: the engine behind ``run_campaign``.

A local campaign takes its shards as leases from a
:class:`~repro.resilience.leases.LeaseQueue` — the same queue, with the
same deadline, backoff and quarantine policy, that the HTTP campaign
service schedules with.  :meth:`LocalWorkers.run_in_process` takes the
leases one at a time in this process.  :meth:`LocalWorkers.run` forks
``jobs`` long-lived worker processes once; each owns one pipe to the
parent:

* the parent sends ``(key, payload, attempt)`` for each lease it grants,
  and ``None`` when the campaign is over;
* while a shard runs, a worker thread sends a heartbeat every
  ``shard_deadline_s / 3`` and the parent renews the lease;
* the worker sends the outcome (or the error a raising ``worker_fn``
  escaped with) and waits for its next lease.

Failures are the queue's business, and one rule covers every failed
attempt in both modes: the shard goes back in line with backoff
(``shard_requeued``) or, once its failure budget is spent, into
quarantine (``shard_quarantined``).  A ``worker_fn`` that **raises**
fails its lease.  A worker that **dies** (killed, OOM, segfault) closes
its pipe: its lease fails (``worker_death``) and a fresh worker takes
the dead one's place.  A worker whose lease **expires** is hung: it is
killed with SIGKILL (``worker_hang``) and replaced the same way.  A
shard that finished in a worker that then died simply runs again;
shards are deterministic, so the counters are the same.  Every
transition is recorded on the optional
:class:`~repro.resilience.incidents.IncidentRecorder`.

A :class:`FaultPlan` injects worker kills and hangs deterministically
*inside* the worker, so tests and the resilience CI job exercise exactly
the code paths a real fault would take.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro.errors import SupervisorError
from repro.resilience.incidents import IncidentKind
from repro.resilience.leases import Lease, LeasePolicy, LeaseQueue


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for local workers.

    Matching is by substring on the shard key.  ``*_attempts`` bounds how
    many attempts the fault fires on (1 = only the first), so a killed
    shard succeeds on requeue and the test can assert full recovery.
    """

    #: SIGKILL the worker before it runs a matching shard.
    kill_match: str = ""
    kill_attempts: int = 1
    #: Stall without heartbeats on matching shards (exercises expiry).
    hang_match: str = ""
    hang_attempts: int = 1

    def should_kill(self, key: str, attempt: int) -> bool:
        return bool(self.kill_match) and self.kill_match in key and attempt <= self.kill_attempts

    def should_hang(self, key: str, attempt: int) -> bool:
        return bool(self.hang_match) and self.hang_match in key and attempt <= self.hang_attempts


@dataclass
class LeaseReport:
    """What the local workers produced: per completed shard, its outcome
    and the lease attempt that completed it; per quarantined shard, its
    failure count and last error."""

    outcomes: dict = field(default_factory=dict)
    attempts: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined


# --------------------------------------------------------------- worker side


def _heartbeat(send, key: str, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            send(("hb", key))
        except OSError:
            return


def _worker_main(conn, worker_fn, interval: float, fault_plan, inherited) -> None:
    """Entry point of one worker process: run leased shards until told
    to stop (or until the parent's end of the pipe closes)."""
    # The parent owns shutdown: Ctrl-C in the terminal reaches the whole
    # process group, and CLI handlers that turn SIGTERM into
    # KeyboardInterrupt are inherited across fork.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for other in inherited:  # the parent's pipe ends, inherited by fork
        other.close()
    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            conn.send(message)

    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        key, payload, attempt = task
        if fault_plan.should_hang(key, attempt):
            time.sleep(3600)  # no heartbeats: only the lease deadline ends this
            return
        if fault_plan.should_kill(key, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat, args=(send, key, interval, stop), daemon=True
        )
        beat.start()
        try:
            message = ("done", key, worker_fn(payload))
        except Exception as exc:
            message = ("error", key, f"{type(exc).__name__}: {exc}")
        finally:
            stop.set()
            beat.join()
        try:
            send(message)
        except OSError:  # the parent is gone: nobody to deliver to
            return


# --------------------------------------------------------------- parent side


@dataclass
class _Worker:
    worker_id: str
    process: multiprocessing.Process
    conn: object
    lease: Lease | None = None


class LocalWorkers:
    """Runs ``(key, payload)`` shards as leases, in this process or on
    ``jobs`` local worker processes (see module doc).

    Args:
        worker_fn: ``payload -> outcome dict``, called in the worker (or
            here, by :meth:`run_in_process`).
        shards: ordered ``(key, payload)`` pairs; keys must be unique.
        jobs: worker processes kept alive while shards remain.
        policy: lease deadline / failure budget / backoff.
        recorder: optional incident recorder.
        fault_plan: optional deterministic fault injection.
        on_outcome: called as ``on_outcome(key, outcome)`` the moment a
            shard completes — the runner checkpoints here.
    """

    def __init__(
        self,
        worker_fn,
        shards,
        jobs: int = 2,
        policy: LeasePolicy | None = None,
        recorder=None,
        fault_plan: FaultPlan | None = None,
        on_outcome=None,
    ) -> None:
        self.shards = list(shards)
        keys = [key for key, _payload in self.shards]
        if len(set(keys)) != len(keys):
            raise SupervisorError("shard keys must be unique")
        if jobs < 1:
            raise SupervisorError(f"jobs must be >= 1, got {jobs}")
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.queue = LeaseQueue(policy)
        self.policy = self.queue.policy
        self.recorder = recorder
        self.fault_plan = fault_plan or FaultPlan()
        self.on_outcome = on_outcome
        for key, payload in self.shards:
            self.queue.add(key, payload)
        self.report = LeaseReport()
        self._workers: list[_Worker] = []
        self._spawned = 0
        # Fork, as the process pool before this loop did: workers start
        # with the parent's loaded modules and warm caches, worker_fn
        # needs no pickling, and a wrapper installed on it (perfbench's
        # worker tracing) reaches the workers.  The loop itself starts
        # no thread in the parent.
        self._ctx = multiprocessing.get_context("fork")

    def run(self) -> LeaseReport:
        """Take every shard's leases on forked worker processes."""
        try:
            for _ in range(min(self.jobs, len(self.shards))):
                self._spawn()
            while self.queue.has_work():
                self._hand_out()
                by_conn = {worker.conn: worker for worker in self._workers}
                for conn in wait(list(by_conn), self._timeout()):
                    self._receive(by_conn[conn])
                self._sweep()
        finally:
            self._stop_all()
        return self.report

    def run_in_process(self) -> LeaseReport:
        """Take every shard's leases one at a time in this process.

        Each attempt calls ``worker_fn`` once and completes or fails its
        lease; while every pending shard backs off, sleep until the first
        is ready.  No lease expires here: nothing bounds a ``worker_fn``
        that hangs, and no fault plan applies.
        """
        while self.queue.has_work():
            acquired = self.queue.acquire("local")
            if acquired is None:
                time.sleep(max(0.0, self.queue.next_ready_at() - self.queue.clock()))
                continue
            lease, payload = acquired
            try:
                outcome = self.worker_fn(payload)
            except Exception as exc:
                self._fail(lease.key, f"{type(exc).__name__}: {exc}")
            else:
                self._complete(lease, outcome)
        return self.report

    # ------------------------------------------------------------ workers

    def _spawn(self) -> None:
        self._spawned += 1
        parent_end, child_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_end,
                self.worker_fn,
                self.policy.heartbeat_interval_s,
                self.fault_plan,
                # Our end too: a child holding a copy of it would never
                # see EOF, and would outlive a parent killed outright.
                [w.conn for w in self._workers] + [parent_end],
            ),
            daemon=True,
        )
        process.start()
        child_end.close()  # a dead worker must read as EOF on our end
        self._workers.append(_Worker(f"w{self._spawned}", process, parent_end))

    def _retire(self, worker: _Worker, kill: bool) -> None:
        """Drop a dead (or, with ``kill``, hung) worker and replace it
        while shards remain.  Its lease must already be settled."""
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        worker.conn.close()
        self._workers.remove(worker)
        if self.queue.has_work():
            self._spawn()

    def _stop_all(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            if worker.lease is not None:
                worker.process.kill()  # interrupted mid-shard
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        self._workers = []

    # -------------------------------------------------------------- leases

    def _hand_out(self) -> None:
        for worker in list(self._workers):
            if worker.lease is not None:
                continue
            acquired = self.queue.acquire(worker.worker_id)
            if acquired is None:
                return
            lease, payload = acquired
            worker.lease = lease
            try:
                worker.conn.send((lease.key, payload, lease.attempt))
            except OSError:
                self._lost(worker)

    def _timeout(self) -> float | None:
        """Seconds until the next lease can expire or, with a worker
        idle, the next backed-off shard becomes ready."""
        wakeups = [self.queue.next_expiry()]
        if any(worker.lease is None for worker in self._workers):
            wakeups.append(self.queue.next_ready_at())
        wakeups = [t for t in wakeups if t is not None]
        if not wakeups:
            return None
        return max(0.0, min(wakeups) - self.queue.clock())

    def _receive(self, worker: _Worker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        tag, key = message[0], message[1]
        lease = worker.lease
        if lease is None or lease.key != key:
            return
        if tag == "hb":
            self.queue.renew(lease.lease_id, worker.worker_id)
            return
        worker.lease = None
        if tag == "done":
            self._complete(lease, message[2])
        else:
            self._fail(key, message[2])

    def _lost(self, worker: _Worker) -> None:
        """The worker's pipe closed: it died, holding its lease or not."""
        worker.process.join(timeout=5.0)
        if worker.lease is not None:
            lease = worker.lease
            worker.lease = None
            message = (
                f"worker for shard {lease.key} died with exit code "
                f"{worker.process.exitcode} before delivering its outcome"
            )
            self._record(
                IncidentKind.WORKER_DEATH,
                message,
                key=lease.key,
                attempt=lease.attempt,
                pid=worker.process.pid,
                exitcode=worker.process.exitcode,
            )
            self._fail(lease.key, message)
        self._retire(worker, kill=False)

    def _sweep(self) -> None:
        """Expire silent leases: kill each holder, requeue or quarantine."""
        for event in self.queue.expire():
            for worker in self._workers:
                if worker.lease is not None and worker.lease.lease_id == event.lease_id:
                    worker.lease = None
                    self._retire(worker, kill=True)
                    break
            self._record(
                IncidentKind.WORKER_HANG,
                f"worker for shard {event.key} silent for "
                f"{self.policy.shard_deadline_s:.1f}s (lease deadline); killed",
                key=event.key,
                attempt=event.failures,
            )
            self._settle(event.key, event.failures, event.quarantined, event.backoff_s)

    def _complete(self, lease: Lease, outcome) -> None:
        self.queue.complete(lease.key)
        self.report.outcomes[lease.key] = outcome
        self.report.attempts[lease.key] = lease.attempt
        if self.on_outcome is not None:
            self.on_outcome(lease.key, outcome)

    def _fail(self, key: str, error: str) -> None:
        quarantined, backoff = self.queue.fail(key, error)
        self._settle(key, self.queue.failures(key), quarantined, backoff)

    def _settle(self, key: str, failures: int, quarantined: bool, backoff: float) -> None:
        """Record where a failed shard went: back in line, or quarantine."""
        error = self.queue.last_error(key)
        if quarantined:
            self.report.quarantined[key] = {"failures": failures, "last_error": error}
            self._record(
                IncidentKind.SHARD_QUARANTINED,
                f"shard {key} quarantined after {failures} failed attempt(s), "
                f"the last: {error}; campaign will complete degraded",
                key=key,
                failures=failures,
            )
            return
        self._record(
            IncidentKind.SHARD_REQUEUED,
            f"shard {key} requeued (failure {failures}/"
            f"{self.policy.max_shard_failures}, backoff {backoff:.2f}s): {error}",
            severity="warning",
            key=key,
            failures=failures,
            backoff_s=backoff,
        )

    def _record(self, kind: IncidentKind, message: str, **context) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, message, **context)
