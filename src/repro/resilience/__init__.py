"""repro.resilience — self-healing campaign infrastructure.

The paper's mechanism is trustworthy because every speculative skip falls
back to correct baseline behaviour; this package gives the *campaign
infrastructure* the same property.  Three pillars:

* :mod:`repro.resilience.incidents` — a unified incident log: every
  anomaly (corrupt artifact, dead or hung worker) becomes a
  structured :class:`~repro.resilience.incidents.Incident` recorded by an
  :class:`~repro.resilience.incidents.IncidentRecorder` that also feeds
  obs metrics counters and tracer instants;
* :mod:`repro.resilience.integrity` — content-checksummed, schema-versioned
  JSON artifacts written atomically; corrupted or truncated files are
  *detected* (and rebuilt by their owners) instead of trusted;
* :mod:`repro.resilience.workers` — the engine behind ``run_campaign``:
  long-lived worker processes (one for a serial campaign) run the
  shards one supervisor in the parent hands out, with a deadline that
  bounds each attempt, requeue with exponential backoff, quarantine
  after repeated failures, and dead and hung workers replaced.

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
from repro.resilience.workers import FaultPlan, LeasePolicy, LeaseReport, LocalWorkers

__all__ = [
    "FaultPlan",
    "INCIDENT_SCHEMA_VERSION",
    "INTEGRITY_VERSION",
    "Incident",
    "IncidentKind",
    "IncidentRecorder",
    "LeasePolicy",
    "LeaseReport",
    "LocalWorkers",
    "payload_checksum",
    "read_artifact",
    "validate_incident_log",
    "write_artifact",
]
