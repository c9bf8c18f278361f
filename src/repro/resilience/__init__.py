"""repro.resilience — self-healing campaign infrastructure.

The paper's mechanism is trustworthy because every speculative skip falls
back to correct baseline behaviour; this package gives the *campaign
infrastructure* the same property.  Three pillars:

* :mod:`repro.resilience.incidents` — a unified incident log: every
  anomaly (corrupt artifact, dead worker, lost lease) becomes a
  structured :class:`~repro.resilience.incidents.Incident` recorded by an
  :class:`~repro.resilience.incidents.IncidentRecorder` that also feeds
  obs metrics counters and tracer instants;
* :mod:`repro.resilience.integrity` — content-checksummed, schema-versioned
  JSON artifacts written atomically; corrupted or truncated files are
  *detected* (and rebuilt by their owners) instead of trusted;
* :mod:`repro.resilience.supervisor` — explicitly supervised campaign
  worker processes: per-shard heartbeats, hang detection, kill-and-requeue
  with exponential backoff, quarantine after repeated failures, and
  salvage of completed work from a dead worker's spill checkpoint.

See ``docs/RESILIENCE.md`` for the state machines and policies.
"""

from repro.resilience.incidents import (
    INCIDENT_SCHEMA_VERSION,
    Incident,
    IncidentKind,
    IncidentRecorder,
    validate_incident_log,
)
from repro.resilience.integrity import (
    INTEGRITY_VERSION,
    payload_checksum,
    read_artifact,
    write_artifact,
)
from repro.resilience.supervisor import (
    CampaignSupervisor,
    FaultPlan,
    ShardState,
    SupervisorPolicy,
    SupervisorReport,
)

__all__ = [
    "CampaignSupervisor",
    "FaultPlan",
    "INCIDENT_SCHEMA_VERSION",
    "INTEGRITY_VERSION",
    "Incident",
    "IncidentKind",
    "IncidentRecorder",
    "ShardState",
    "SupervisorPolicy",
    "SupervisorReport",
    "payload_checksum",
    "read_artifact",
    "validate_incident_log",
    "write_artifact",
]
