"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause without masking
unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class LayoutError(ReproError):
    """Address-space layout failed (overlap, exhaustion, bad region)."""


class LinkError(ReproError):
    """Symbol resolution or relocation failed."""


class PageFaultError(ReproError):
    """Page-level memory model violation (bad permissions, unmapped page)."""


#: Deprecated alias — the hierarchy used to shadow the ``MemoryError``
#: builtin; new code should catch :class:`PageFaultError`.
MemoryError_ = PageFaultError


class TraceError(ReproError):
    """Malformed trace event stream."""


class TraceCorruptionError(TraceError):
    """A serialised trace artifact failed to decode.

    Raised by the binary trace codec (:mod:`repro.trace.batch`) and the
    row decoder (:func:`repro.isa.events.event_from_row`) instead of the
    opaque ``KeyError`` / ``struct.error`` a naive decode would surface.
    ``offset`` is the byte offset of the corruption when it is known
    (-1 otherwise); ``row`` the event index, when the corruption is
    attributable to one row.
    """

    def __init__(self, message: str, offset: int = -1, row: int = -1) -> None:
        super().__init__(message)
        self.offset = offset
        self.row = row


class ExperimentError(ReproError):
    """An experiment was misconfigured or produced inconsistent output."""


class ChaosError(ReproError):
    """The fault-injection harness was misused or hit an internal error."""


class OracleViolation(ChaosError):
    """The correctness oracle observed a committed skip to a stale target.

    With the Bloom filter enabled this must never happen (the paper's
    Section 3.2 safety argument); raising it means the modelled hardware —
    or the model itself — is broken.
    """


# ----------------------------------------------------------- resilience
#
# The self-healing campaign layer (src/repro/resilience/) classifies its
# failures with this sub-taxonomy.  Every class maps onto an incident
# kind recorded by repro.resilience.incidents.IncidentRecorder, so log
# entries and raised exceptions share one vocabulary.


class ResilienceError(ReproError):
    """Base class for failures in the self-healing campaign layer."""


class CheckpointCorruptionError(ResilienceError):
    """An integrity-checked artifact failed validation.

    Covers machine checkpoints, campaign checkpoints, shard spill files
    and manifests: truncation, bit flips (checksum mismatch), wrong
    schema name or schema version.  Callers in the resilience layer treat
    this as "rebuild the artifact" (re-simulate / requeue), never as
    "trust the bytes".
    """

    def __init__(self, message: str, path: object = None, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.path = path
        #: Machine-readable cause: ``missing | unreadable | not-json |
        #: bad-envelope | wrong-schema | wrong-version | checksum-mismatch``.
        self.reason = reason


class SupervisorError(ResilienceError):
    """The campaign supervisor was misused or hit an internal error."""


class WorkerHangError(SupervisorError):
    """A supervised worker missed its heartbeat deadline and was killed."""


class WorkerDeathError(SupervisorError):
    """A supervised worker process died without delivering its outcome."""


# -------------------------------------------------------------- service
#
# The campaign service (src/repro/service/) — lease-based manager/worker
# runtime — classifies its failures below.


class ServiceError(ReproError):
    """Base class for failures in the campaign service layer."""


class SchemaError(ServiceError):
    """A JSON request/response body failed dataclass-schema validation.

    The API layer maps this onto HTTP 400; the message names the field
    and the violated constraint.
    """


class LeaseError(ServiceError):
    """A shard lease operation was invalid (unknown, expired or not
    owned by the requesting worker)."""


class FencedWriteError(ServiceError):
    """A write carried a fencing epoch that does not match the manager's.

    Raised (and mapped onto HTTP 409 with ``"fenced": true``) in both
    directions: a *stale worker* still stamping the pre-failover epoch
    must re-register against the current leader, and a *revived stale
    leader* receiving requests stamped with a newer epoch must refuse to
    merge them — its journal is no longer the truth.
    """

    def __init__(self, message: str, ours: int = 0, theirs: int = 0) -> None:
        super().__init__(message)
        self.ours = ours
        self.theirs = theirs
