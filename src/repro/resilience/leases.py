"""Lease-based shard queue: the one scheduler behind every campaign engine.

Workers never own shards — they hold *leases* with deadlines:

* :meth:`LeaseQueue.acquire` hands the oldest ready pending shard to a
  worker as a :class:`Lease` expiring ``shard_deadline_s`` from now.
  The deadline is set once and never moves, so it bounds the attempt's
  wall time;
* a lease still held at its deadline — the attempt hung, blocked or
  is merely too slow, the queue can't tell and doesn't need to — is
  swept by :meth:`LeaseQueue.expire`: the shard goes back to pending
  with exponential backoff, and after ``max_shard_failures`` failed
  attempts it is **quarantined** (the campaign then completes
  *degraded* rather than never);
* :meth:`LeaseQueue.complete` and :meth:`LeaseQueue.fail` settle a
  shard's lease with the worker's outcome.

The local lease loop behind ``run_campaign`` and ``run_sweep``
(:mod:`repro.resilience.workers`) drives the queue.
The knobs live in :class:`LeasePolicy`.  The queue is in-memory state
that lives as long as one campaign run.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from repro.errors import SupervisorError


@dataclass(frozen=True)
class LeasePolicy:
    """Attempt deadline, quarantine budget and requeue backoff (defaults
    sized for real campaigns; tests shrink the deadline to keep hang
    detection fast)."""

    #: Wall time one attempt may take from its lease being granted; a
    #: lease still held then expires, and the local loop SIGKILLs its
    #: worker.
    shard_deadline_s: float = 120.0
    #: Failed attempts (a raise, a dead worker, an expired lease) before
    #: a shard is quarantined.  Each attempt runs once: this budget is
    #: the only retry in every campaign engine.
    max_shard_failures: int = 3
    #: Exponential requeue backoff: base * factor ** (failures - 1).
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise SupervisorError(
                f"shard_deadline_s must be positive, got {self.shard_deadline_s}"
            )
        if self.max_shard_failures < 1:
            raise SupervisorError(
                f"max_shard_failures must be >= 1, got {self.max_shard_failures}"
            )

    def backoff(self, failures: int) -> float:
        return self.backoff_base_s * self.backoff_factor ** max(0, failures - 1)


class ShardPhase(enum.Enum):
    """Lifecycle of one shard in the queue."""

    PENDING = "pending"
    LEASED = "leased"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one shard."""

    lease_id: str
    key: str
    worker_id: str
    attempt: int
    expires_at: float


@dataclass
class _Shard:
    key: str
    payload: dict
    phase: ShardPhase = ShardPhase.PENDING
    failures: int = 0
    ready_at: float = 0.0
    last_error: str = ""
    lease: Lease | None = None


@dataclass
class ExpiredLease:
    """One sweep event from :meth:`LeaseQueue.expire` (for incidents)."""

    key: str
    lease_id: str
    failures: int
    quarantined: bool
    backoff_s: float = 0.0


class LeaseQueue:
    """FIFO shard queue with deadline leases (see module doc).

    Args:
        policy: attempt deadline / quarantine budget / backoff knobs.
        clock: monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self, policy: LeasePolicy | None = None, clock=time.monotonic
    ) -> None:
        self.policy = policy or LeasePolicy()
        self.clock = clock
        self._shards: dict[str, _Shard] = {}  # insertion order == FIFO order
        self._leases: dict[str, Lease] = {}
        self._lease_seq = 0

    # ------------------------------------------------------------- shards

    def add(self, key: str, payload: dict) -> None:
        """Enqueue one pending shard."""
        if key in self._shards:
            raise SupervisorError(f"shard {key!r} is already queued")
        self._shards[key] = _Shard(key=key, payload=payload)

    def phase(self, key: str) -> ShardPhase | None:
        shard = self._shards.get(key)
        return shard.phase if shard is not None else None

    def failures(self, key: str) -> int:
        shard = self._shards.get(key)
        return shard.failures if shard is not None else 0

    # ------------------------------------------------------------- leases

    def acquire(self, worker_id: str) -> tuple[Lease, dict] | None:
        """Lease the oldest ready pending shard to ``worker_id``.

        Returns ``(lease, payload)`` or None when nothing is ready (all
        shards terminal, leased, or still backing off).  The caller
        acquires only for a worker that holds no lease.
        """
        now = self.clock()
        for shard in self._shards.values():
            if shard.phase is not ShardPhase.PENDING or shard.ready_at > now:
                continue
            self._lease_seq += 1
            lease = Lease(
                lease_id=f"L{self._lease_seq}",
                key=shard.key,
                worker_id=worker_id,
                attempt=shard.failures + 1,
                expires_at=now + self.policy.shard_deadline_s,
            )
            shard.phase = ShardPhase.LEASED
            shard.lease = lease
            self._leases[lease.lease_id] = lease
            return lease, shard.payload
        return None

    def expire(self) -> list[ExpiredLease]:
        """Sweep expired leases: requeue with backoff or quarantine.

        Returns one event per expired lease so the caller can record an
        incident and kill the worker.
        """
        now = self.clock()
        events: list[ExpiredLease] = []
        for lease_id in [
            lid for lid, lease in self._leases.items() if lease.expires_at <= now
        ]:
            lease = self._leases.pop(lease_id)
            shard = self._shards[lease.key]
            error = (
                f"lease {lease_id} for shard {lease.key} held by "
                f"{lease.worker_id} expired: the attempt was still running "
                f"{self.policy.shard_deadline_s:.1f}s after it was granted"
            )
            quarantined, backoff = self._fail(shard, error)
            events.append(
                ExpiredLease(
                    key=shard.key,
                    lease_id=lease_id,
                    failures=shard.failures,
                    quarantined=quarantined,
                    backoff_s=backoff,
                )
            )
        return events

    def next_expiry(self) -> float | None:
        """Earliest deadline among live leases (None when none)."""
        times = [lease.expires_at for lease in self._leases.values()]
        return min(times) if times else None

    # ---------------------------------------------------------- outcomes

    def complete(self, key: str) -> None:
        """Mark a shard completed from any phase: a second completion
        changes nothing, and a quarantined shard heals."""
        shard = self._shards[key]
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
            shard.lease = None
        shard.phase = ShardPhase.COMPLETED
        shard.last_error = ""

    def fail(self, key: str, error: str) -> tuple[bool, float]:
        """Worker-reported failure of a pending or leased shard; returns
        ``(quarantined, backoff_s)``."""
        shard = self._shards[key]
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
        return self._fail(shard, error)

    def last_error(self, key: str) -> str:
        shard = self._shards.get(key)
        return shard.last_error if shard is not None else ""

    def has_work(self) -> bool:
        """True while any shard is pending or leased."""
        return any(
            s.phase in (ShardPhase.PENDING, ShardPhase.LEASED)
            for s in self._shards.values()
        )

    def next_ready_at(self) -> float | None:
        """Earliest ``ready_at`` among pending shards (None when none)."""
        times = [
            s.ready_at
            for s in self._shards.values()
            if s.phase is ShardPhase.PENDING
        ]
        return min(times) if times else None

    # ---------------------------------------------------------- internals

    def _fail(self, shard: _Shard, error: str) -> tuple[bool, float]:
        shard.failures += 1
        shard.last_error = error
        shard.lease = None
        if shard.failures >= self.policy.max_shard_failures:
            shard.phase = ShardPhase.QUARANTINED
            return True, 0.0
        backoff = self.policy.backoff(shard.failures)
        shard.phase = ShardPhase.PENDING
        shard.ready_at = self.clock() + backoff
        return False, backoff
