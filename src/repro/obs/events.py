"""Correlated structured event bus: the campaign's live narration.

An :class:`Event` is one timestamped, correlated fact about a running
campaign — a campaign started, an incident struck, a pair of
simulations finished.  Every event carries the correlation triple
``(campaign_id, shard_key, worker_id)`` (any subset may be empty) so a
dashboard or a reader of the exported log can slice it by campaign, by
shard, or by worker without parsing free-text messages.

The :class:`EventBus` is a bounded ring buffer (old events fall off the
front, like :class:`~repro.obs.metrics.TimeSeries`) with a monotonically
increasing sequence number.  The sequence number is the resume cursor:
a consumer replays what it missed via :meth:`EventBus.since`.
Consumers that want to block until news arrives use
:meth:`EventBus.wait_for` (condition-variable backed, no polling).

Mirroring follows the :class:`~repro.resilience.incidents.
IncidentRecorder` pattern: when a metrics registry or tracer is
attached, every emit also bumps ``events.total`` / ``events.<kind>``
counters and lands as a tracer instant — the bus is an *additional*
view over the same happenings, never a replacement.

The bus is deliberately optional everywhere it is threaded: the
disabled-observability fast path constructs no bus and pays nothing
(enforced by ``benchmarks/bench_obs.py``'s <5% overhead gate).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

#: Schema version stamped on every serialised event.
EVENT_SCHEMA_VERSION = 1

#: Allowed severities, mildest first (same vocabulary as incidents).
EVENT_SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Event:
    """One correlated happening on the bus.

    ``seq`` is assigned by the bus at emit time (unique, monotonically
    increasing, never reused); ``timestamp`` is host wall-clock time —
    events are diagnostics, never part of a determinism-checked result.
    """

    seq: int
    kind: str
    message: str
    severity: str = "info"
    campaign_id: str = ""
    shard_key: str = ""
    worker_id: str = ""
    data: dict = field(default_factory=dict)
    timestamp: float = 0.0

    def as_dict(self) -> dict:
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "campaign_id": self.campaign_id,
            "shard_key": self.shard_key,
            "worker_id": self.worker_id,
            "data": self.data,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        problems = _event_problems(data)
        if problems:
            raise ValueError(f"invalid event record: {'; '.join(problems)}")
        return cls(
            seq=int(data["seq"]),
            kind=data["kind"],
            message=data["message"],
            severity=data["severity"],
            campaign_id=str(data.get("campaign_id", "")),
            shard_key=str(data.get("shard_key", "")),
            worker_id=str(data.get("worker_id", "")),
            data=dict(data.get("data", {})),
            timestamp=float(data.get("timestamp", 0.0)),
        )


def _event_problems(data: object) -> list[str]:
    """Schema problems of one deserialised event record."""
    if not isinstance(data, dict):
        return [f"not an object: {type(data).__name__}"]
    problems = []
    if data.get("schema_version") != EVENT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data.get('schema_version')!r} "
            f"(expected {EVENT_SCHEMA_VERSION})"
        )
    if not isinstance(data.get("seq"), int) or data.get("seq") < 1:
        problems.append(f"seq {data.get('seq')!r} is not a positive integer")
    if not isinstance(data.get("kind"), str) or not data.get("kind"):
        problems.append("kind missing or empty")
    if data.get("severity") not in EVENT_SEVERITIES:
        problems.append(
            f"severity {data.get('severity')!r} not in {EVENT_SEVERITIES}"
        )
    if not isinstance(data.get("message"), str) or not data.get("message"):
        problems.append("message missing or empty")
    if "data" in data and not isinstance(data["data"], dict):
        problems.append("data is not an object")
    return problems


class EventBus:
    """Bounded, thread-safe ring buffer of correlated events.

    Args:
        capacity: ring size; the oldest events fall off when exceeded.
            ``dropped`` counts them, and :meth:`since` reports the gap so
            a resuming consumer knows its cursor aged out.
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to mirror
            emit counts into (or None).
        tracer: a :class:`~repro.obs.tracer.Tracer` for instant events
            (or None).
        clock: timestamp source (overridable for deterministic tests).
    """

    def __init__(
        self,
        capacity: int = 2048,
        metrics=None,
        tracer=None,
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"event bus capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self.tracer = tracer
        self._clock = clock
        self._events: deque[Event] = deque(maxlen=capacity)
        self._cond = threading.Condition()
        self._seq = 0
        #: Events that fell off the ring (emitted - retained).
        self.dropped = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when none yet)."""
        with self._cond:
            return self._seq

    def emit(
        self,
        kind: str,
        message: str,
        severity: str = "info",
        campaign_id: str = "",
        shard_key: str = "",
        worker_id: str = "",
        **data,
    ) -> Event:
        """Append one event; returns it with its assigned ``seq``.

        Like incident recording, emitting never raises into the caller's
        path over bad ``data`` values: non-JSON-safe extras are
        stringified rather than exploding mid-recovery.
        """
        if severity not in EVENT_SEVERITIES:
            severity = "info"
        payload = {k: _json_safe(v) for k, v in data.items() if v is not None}
        with self._cond:
            self._seq += 1
            event = Event(
                seq=self._seq,
                kind=str(kind),
                message=str(message),
                severity=severity,
                campaign_id=str(campaign_id or ""),
                shard_key=str(shard_key or ""),
                worker_id=str(worker_id or ""),
                data=payload,
                timestamp=float(self._clock()),
            )
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            self._cond.notify_all()
        if self.metrics is not None:
            self.metrics.counter("events.total").inc()
            self.metrics.counter(f"events.{event.kind}").inc()
        if self.tracer is not None:
            self.tracer.instant(
                f"event:{event.kind}",
                category="event",
                severity=event.severity,
                message=event.message,
            )
        return event

    def since(self, seq: int = 0, limit: int | None = None) -> list[Event]:
        """Events with ``seq`` strictly greater than the cursor, oldest
        first.  A cursor that aged out of the ring simply yields from the
        oldest retained event — resumption is best-effort, and the
        ``dropped`` counter tells the operator a gap existed."""
        with self._cond:
            out = [e for e in self._events if e.seq > seq]
        if limit is not None:
            out = out[:limit]
        return out

    def wait_for(self, seq: int, timeout: float | None = None) -> bool:
        """Block until an event newer than ``seq`` exists (or timeout).

        Returns True when news arrived, False on timeout.
        """
        with self._cond:
            return self._cond.wait_for(lambda: self._seq > seq, timeout=timeout)

    def snapshot(self) -> list[Event]:
        """Every retained event, oldest first."""
        with self._cond:
            return list(self._events)

    def as_dicts(self) -> list[dict]:
        return [e.as_dict() for e in self.snapshot()]

    # ------------------------------------------------------------- export

    def write_jsonl(self, path: str | Path) -> Path:
        """Write retained events as JSON lines (one event per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = "".join(
            json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in self.snapshot()
        )
        path.write_text(text)
        return path


def _json_safe(value):
    """Coerce one event-data value to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def load_event_log(path: str | Path) -> list[Event]:
    """Parse a JSONL event log, raising ``ValueError`` on any bad line."""
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        try:
            events.append(Event.from_dict(data))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return events


def downsample(
    points: list[tuple[float, float]], max_points: int
) -> list[tuple[float, float]]:
    """Bucket-mean downsample of a (t, value) series to ``max_points``.

    Keeps the exact first and last points (so warm-up start and the
    current value are never averaged away) and replaces each interior
    bucket with its mean point.  Series at or under the budget pass
    through untouched.
    """
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")
    n = len(points)
    if n <= max_points:
        return list(points)
    interior = points[1:-1]
    buckets = max_points - 2
    out = [points[0]]
    if buckets > 0:
        step = len(interior) / buckets
        for b in range(buckets):
            chunk = interior[int(b * step): int((b + 1) * step)]
            if not chunk:
                continue
            t = sum(p[0] for p in chunk) / len(chunk)
            v = sum(p[1] for p in chunk) / len(chunk)
            out.append((t, v))
    out.append(points[-1])
    return out
