"""repro.resilience — self-healing campaign infrastructure.

The paper's mechanism is trustworthy because every speculative skip falls
back to correct baseline behaviour; this package gives the *campaign
infrastructure* the same property.  Four pillars:

* :mod:`repro.resilience.incidents` — a unified incident log: every
  anomaly (corrupt artifact, dead or hung worker) becomes a
  structured :class:`~repro.resilience.incidents.Incident` recorded by an
  :class:`~repro.resilience.incidents.IncidentRecorder` that also feeds
  obs metrics counters and tracer instants;
* :mod:`repro.resilience.integrity` — content-checksummed, schema-versioned
  JSON artifacts written atomically; corrupted or truncated files are
  *detected* (and rebuilt by their owners) instead of trusted;
* :mod:`repro.resilience.leases` — the :class:`LeaseQueue` every campaign
  schedules with: deadline leases renewed by heartbeat, expiry,
  requeue with exponential backoff, quarantine after repeated failures;
* :mod:`repro.resilience.workers` — the engine behind ``run_campaign``:
  serial in-process leases, or long-lived worker processes taking leases
  from a queue in the parent, with dead and hung workers replaced.

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
from repro.resilience.leases import (
    ExpiredLease,
    Lease,
    LeasePolicy,
    LeaseQueue,
    ShardPhase,
)
from repro.resilience.workers import FaultPlan, LeaseReport, LocalWorkers

__all__ = [
    "ExpiredLease",
    "FaultPlan",
    "INCIDENT_SCHEMA_VERSION",
    "INTEGRITY_VERSION",
    "Incident",
    "IncidentKind",
    "IncidentRecorder",
    "Lease",
    "LeasePolicy",
    "LeaseQueue",
    "LeaseReport",
    "LocalWorkers",
    "ShardPhase",
    "payload_checksum",
    "read_artifact",
    "validate_incident_log",
    "write_artifact",
]
