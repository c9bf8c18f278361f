"""Unified incident log: one vocabulary for every campaign anomaly.

An :class:`Incident` is the structured record of something that went
wrong (or was healed) while campaign infrastructure was running: a
corrupted checkpoint, a dead worker, an expired lease.  Incidents are
*diagnostics, not results* — they never change simulated numbers, only
how the harness reacts — so the recorder is deliberately permissive:
recording can never raise into the code path that is busy recovering.

The :class:`IncidentRecorder` is wired into the observability layer when
one is active: each record bumps ``incidents.total`` and a per-kind
``incidents.<kind>`` counter on the metrics registry and lands as an
instant event on the tracer, so a Perfetto trace of a degraded campaign
shows exactly when each anomaly struck.

Logs are exported as JSON lines (one incident per line) and validated by
:func:`validate_incident_log` — the ``incidents`` CLI subcommand and the
CI ``resilience-smoke`` job both go through it.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Schema version stamped on every serialised incident.
INCIDENT_SCHEMA_VERSION = 1

#: Allowed severities, mildest first.
SEVERITIES = ("info", "warning", "error")


class IncidentKind(enum.Enum):
    """Taxonomy of campaign anomalies (mirrors the errors.py hierarchy)."""

    #: A machine checkpoint failed integrity validation (truncated,
    #: bit-flipped, wrong schema version); treated as a cache miss and
    #: re-simulated from the trace.
    CHECKPOINT_CORRUPT = "checkpoint_corrupt"
    #: A campaign resume checkpoint failed validation; its entries are
    #: requeued instead of trusted.
    CAMPAIGN_CHECKPOINT_CORRUPT = "campaign_checkpoint_corrupt"
    #: A serialised trace artifact failed to decode.
    TRACE_CORRUPT = "trace_corrupt"
    #: A supervised worker process died without delivering its outcome.
    WORKER_DEATH = "worker_death"
    #: A supervised worker missed its heartbeat deadline and was killed.
    WORKER_HANG = "worker_hang"
    #: A shard was requeued (with backoff) after a worker failure.
    SHARD_REQUEUED = "shard_requeued"
    #: A shard exhausted its failure budget and was quarantined; the
    #: campaign completes degraded, with a partial-result manifest.
    SHARD_QUARANTINED = "shard_quarantined"
    #: A dead worker's completed outcome was salvaged from its spill
    #: checkpoint instead of being re-run.
    SHARD_SALVAGED = "shard_salvaged"
    #: The chaos oracle observed a stale-target violation.
    ORACLE_VIOLATION = "oracle_violation"
    #: A shard lease expired (worker crash, hang or partition); the shard
    #: was requeued with backoff.
    LEASE_EXPIRED = "lease_expired"
    #: A manager journal record (or the snapshot) failed validation on
    #: recovery; the affected state is rebuilt from the result store or
    #: requeued, never trusted.
    JOURNAL_CORRUPT = "journal_corrupt"
    #: A stored shard result failed integrity validation; treated as a
    #: miss and recomputed.
    RESULT_CORRUPT = "result_corrupt"
    #: Two completions of the same config hash disagreed; the first
    #: stored result wins (determinism means this indicates a bug, never
    #: silent corruption of aggregates).
    RESULT_CONFLICT = "result_conflict"
    #: The campaign manager rebuilt in-flight campaigns from its journal
    #: after a restart.
    MANAGER_RECOVERED = "manager_recovered"
    #: A graceful shutdown (SIGTERM/SIGINT) flushed state mid-campaign
    #: instead of dying mid-write.
    SHUTDOWN = "shutdown"
    #: A standby manager lost contact with its leader (health checks
    #: exhausted); promotion follows.
    LEADER_LOST = "leader_lost"
    #: A standby manager promoted itself to leader under a bumped
    #: fencing epoch.
    PROMOTED = "promoted"
    #: A write was rejected because its fencing epoch did not match the
    #: manager's — either a stale worker after a failover, or a revived
    #: stale leader refusing to merge newer-epoch writes.
    FENCED_WRITE = "fenced_write"
    #: The network fault injector perturbed a service request (drop,
    #: delay, duplicate, truncation, 5xx mangle, partition).
    NET_FAULT = "net_fault"
    #: The result-store garbage collector evicted a stored shard result
    #: under the retention policy.
    RESULT_EVICTED = "result_evicted"


_KINDS_BY_VALUE = {k.value: k for k in IncidentKind}


@dataclass(frozen=True)
class Incident:
    """One structured anomaly record.

    ``timestamp`` is host wall-clock time (diagnostics only — incident
    logs are never part of a determinism-checked artifact).  ``context``
    holds JSON-safe details: shard key, file path, stream position, ...
    """

    kind: str
    message: str
    severity: str = "error"
    context: dict = field(default_factory=dict)
    timestamp: float = 0.0

    def as_dict(self) -> dict:
        return {
            "schema_version": INCIDENT_SCHEMA_VERSION,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "context": self.context,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Incident":
        problems = _incident_problems(data)
        if problems:
            raise ValueError(f"invalid incident record: {'; '.join(problems)}")
        return cls(
            kind=data["kind"],
            message=data["message"],
            severity=data["severity"],
            context=dict(data.get("context", {})),
            timestamp=float(data.get("timestamp", 0.0)),
        )


def _incident_problems(data: object) -> list[str]:
    """Schema problems of one deserialised incident record."""
    if not isinstance(data, dict):
        return [f"not an object: {type(data).__name__}"]
    problems = []
    if data.get("schema_version") != INCIDENT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data.get('schema_version')!r} "
            f"(expected {INCIDENT_SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if kind not in _KINDS_BY_VALUE:
        problems.append(f"unknown kind {kind!r}")
    if data.get("severity") not in SEVERITIES:
        problems.append(f"severity {data.get('severity')!r} not in {SEVERITIES}")
    if not isinstance(data.get("message"), str) or not data.get("message"):
        problems.append("message missing or empty")
    if "context" in data and not isinstance(data["context"], dict):
        problems.append("context is not an object")
    return problems


class IncidentRecorder:
    """Collects incidents; optionally mirrors them into obs metrics/tracer.

    Args:
        metrics: a :class:`repro.obs.metrics.MetricsRegistry` (or None).
        tracer: a :class:`repro.obs.tracer.Tracer` (or None).
        bus: a :class:`repro.obs.events.EventBus` (or None) — every
            incident also lands on the bus as an ``incident`` event, so
            anything that records through this recorder (the supervisor,
            the stores, the campaign manager) shows up in
            the live ``/events`` stream without knowing the bus exists.
        clock: timestamp source (overridable for deterministic tests).
    """

    def __init__(self, metrics=None, tracer=None, bus=None, clock=time.time) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.bus = bus
        self._clock = clock
        self.incidents: list[Incident] = []

    def __len__(self) -> int:
        return len(self.incidents)

    def record(
        self,
        kind: IncidentKind | str,
        message: str,
        severity: str = "error",
        **context,
    ) -> Incident:
        """Record one incident (and mirror it into obs, when wired)."""
        kind_value = kind.value if isinstance(kind, IncidentKind) else str(kind)
        if severity not in SEVERITIES:
            severity = "error"
        incident = Incident(
            kind=kind_value,
            message=message,
            severity=severity,
            context={k: v for k, v in context.items() if v is not None},
            timestamp=float(self._clock()),
        )
        self._absorb(incident)
        return incident

    def _absorb(self, incident: Incident) -> None:
        self.incidents.append(incident)
        if self.metrics is not None:
            self.metrics.counter("incidents.total").inc()
            self.metrics.counter(f"incidents.{incident.kind}").inc()
        if self.tracer is not None:
            self.tracer.instant(
                f"incident:{incident.kind}",
                category="incident",
                severity=incident.severity,
                message=incident.message,
                **incident.context,
            )
        if self.bus is not None:
            ctx = incident.context
            self.bus.emit(
                "incident",
                incident.message,
                severity=incident.severity,
                campaign_id=str(ctx.get("campaign_id", "")),
                shard_key=str(ctx.get("key", ctx.get("shard_key", ""))),
                worker_id=str(ctx.get("worker_id", "")),
                incident_kind=incident.kind,
            )

    def extend_dicts(self, records: list[dict] | None) -> int:
        """Merge serialised incidents (from a worker process); returns the
        number absorbed.  Invalid records are dropped — merging a log must
        never crash the merger."""
        absorbed = 0
        for data in records or ():
            try:
                self._absorb(Incident.from_dict(data))
                absorbed += 1
            except (ValueError, TypeError, KeyError):
                continue
        return absorbed

    def counts(self) -> dict[str, int]:
        """Incident count per kind (sorted keys, JSON-safe)."""
        out: dict[str, int] = {}
        for incident in self.incidents:
            out[incident.kind] = out.get(incident.kind, 0) + 1
        return dict(sorted(out.items()))

    def as_dicts(self) -> list[dict]:
        return [i.as_dict() for i in self.incidents]

    # ------------------------------------------------------------- export

    def write_jsonl(self, path: str | Path) -> Path:
        """Atomically write the incident log as JSON lines.

        The temp file comes from ``mkstemp`` (unique per writer), so two
        processes exporting to the same path cannot race on a shared
        ``.tmp`` name — the last rename wins and both files are intact.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = "".join(
            json.dumps(i.as_dict(), sort_keys=True) + "\n" for i in self.incidents
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path


def load_incident_log(path: str | Path) -> list[Incident]:
    """Parse a JSONL incident log, raising ``ValueError`` on any bad line."""
    incidents = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        try:
            incidents.append(Incident.from_dict(data))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return incidents


def validate_incident_log(path: str | Path) -> list[str]:
    """Schema problems of a JSONL incident log ([] when valid)."""
    problems: list[str] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not JSON: {exc}")
            continue
        problems.extend(f"line {lineno}: {p}" for p in _incident_problems(data))
    return problems
