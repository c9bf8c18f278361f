"""Dataclass schemas for the campaign service's JSON bodies.

Every request body the REST API accepts is parsed through one of these
schemas before it touches the manager: unknown fields are rejected, types
are checked, and domain constraints (known workloads, positive ABTB
sizes, valid scale names) are enforced — a malformed request can
never put the manager into a state its journal cannot replay.  Failures
raise :class:`~repro.errors.SchemaError`, which the API layer maps onto
HTTP 400 with the message in the response body.

The schemas are deliberately plain dataclasses (no external dependency):
``from_dict`` validates, ``as_dict`` produces the canonical JSON-safe
form that is journaled and therefore must stay stable across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError

#: Scale presets the service accepts (resolved lazily to avoid importing
#: the experiment registry at schema-validation time).
SCALE_NAMES = ("smoke", "paper")


def _require_dict(data: object, what: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, known: set[str], what: str) -> None:
    unknown = set(data) - known
    if unknown:
        raise SchemaError(f"{what}: unknown field(s) {sorted(unknown)}")


def _str_field(data: dict, name: str, what: str, default: str | None = None) -> str:
    value = data.get(name, default)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{what}: {name!r} must be a non-empty string, got {value!r}")
    return value


def _opt_int(data: dict, name: str, what: str) -> int | None:
    value = data.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what}: {name!r} must be an integer or null, got {value!r}")
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """What to sweep: the submit body and the journaled campaign recipe.

    Mirrors the parameters of
    :func:`repro.experiments.runner.run_campaign` that make sense over
    the wire; everything the result depends on is in here, so the
    content-addressed result key can be derived from a spec alone.
    """

    workloads: tuple[str, ...]
    abtb_sizes: tuple[int, ...] = (256,)
    scale: str = "smoke"
    seed: int | None = None

    def __post_init__(self) -> None:
        what = "campaign spec"
        from repro.workloads import ALL_WORKLOADS

        if not self.workloads:
            raise SchemaError(f"{what}: 'workloads' must not be empty")
        for name in self.workloads:
            if name not in ALL_WORKLOADS:
                raise SchemaError(
                    f"{what}: unknown workload {name!r} "
                    f"(choose from {sorted(ALL_WORKLOADS)})"
                )
        if len(set(self.workloads)) != len(self.workloads):
            raise SchemaError(f"{what}: duplicate workload names")
        if not self.abtb_sizes:
            raise SchemaError(f"{what}: 'abtb_sizes' must not be empty")
        for size in self.abtb_sizes:
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise SchemaError(
                    f"{what}: ABTB sizes must be positive integers, got {size!r}"
                )
        if len(set(self.abtb_sizes)) != len(self.abtb_sizes):
            raise SchemaError(f"{what}: duplicate ABTB sizes")
        if self.scale not in SCALE_NAMES:
            raise SchemaError(
                f"{what}: scale {self.scale!r} not in {SCALE_NAMES}"
            )

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        what = "campaign spec"
        data = _require_dict(data, what)
        _reject_unknown(data, {"workloads", "abtb_sizes", "scale", "seed"}, what)
        workloads = data.get("workloads")
        if not isinstance(workloads, (list, tuple)) or not all(
            isinstance(w, str) for w in workloads or ()
        ):
            raise SchemaError(f"{what}: 'workloads' must be a list of strings")
        abtb_sizes = data.get("abtb_sizes", [256])
        if not isinstance(abtb_sizes, (list, tuple)):
            raise SchemaError(f"{what}: 'abtb_sizes' must be a list of integers")
        return cls(
            workloads=tuple(workloads),
            abtb_sizes=tuple(abtb_sizes),
            scale=_str_field(data, "scale", what, "smoke"),
            seed=_opt_int(data, "seed", what),
        )

    def as_dict(self) -> dict:
        """Canonical JSON-safe form (journaled; keep stable)."""
        return {
            "workloads": list(self.workloads),
            "abtb_sizes": list(self.abtb_sizes),
            "scale": self.scale,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RegisterRequest:
    """``POST /workers/register`` body.

    ``worker_id`` makes registration idempotent: the worker agent
    chooses its id, so a register it retries re-registers the same
    worker rather than adding a ghost one.
    """

    name: str = ""
    worker_id: str = ""

    @classmethod
    def from_dict(cls, data: object) -> "RegisterRequest":
        what = "register request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"name", "worker_id"}, what)
        name = data.get("name", "")
        worker_id = data.get("worker_id", "")
        if not isinstance(name, str):
            raise SchemaError(f"{what}: 'name' must be a string")
        if not isinstance(worker_id, str):
            raise SchemaError(f"{what}: 'worker_id' must be a string")
        return cls(name=name, worker_id=worker_id)


@dataclass(frozen=True)
class LeaseRequest:
    """``POST /leases`` (acquire) body."""

    worker_id: str

    @classmethod
    def from_dict(cls, data: object) -> "LeaseRequest":
        what = "lease request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"worker_id"}, what)
        return cls(worker_id=_str_field(data, "worker_id", what))


@dataclass(frozen=True)
class ShardProgress:
    """Optional per-shard progress a heartbeat may carry.

    ``events_done`` is the count of trace events the worker has retired
    so far on its current shard; ``workload`` names what it is running.
    All fields default to "unknown" so old workers that renew without
    progress remain valid.
    """

    events_done: int = 0
    workload: str = ""

    @classmethod
    def from_dict(cls, data: object) -> "ShardProgress":
        what = "shard progress"
        data = _require_dict(data, what)
        _reject_unknown(data, {"events_done", "workload"}, what)
        events_done = data.get("events_done", 0)
        if isinstance(events_done, bool) or not isinstance(events_done, int):
            raise SchemaError(f"{what}: 'events_done' must be an integer")
        if events_done < 0:
            raise SchemaError(f"{what}: 'events_done' must be >= 0, got {events_done}")
        workload = data.get("workload", "")
        if not isinstance(workload, str):
            raise SchemaError(f"{what}: 'workload' must be a string")
        return cls(events_done=events_done, workload=workload)

    def as_dict(self) -> dict:
        return {"events_done": self.events_done, "workload": self.workload}


@dataclass(frozen=True)
class RenewRequest:
    """``POST /leases/<id>/renew`` body (progress is optional)."""

    worker_id: str
    progress: ShardProgress | None = None

    @classmethod
    def from_dict(cls, data: object) -> "RenewRequest":
        what = "renew request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"worker_id", "progress"}, what)
        progress_data = data.get("progress")
        progress = (
            ShardProgress.from_dict(progress_data)
            if progress_data is not None
            else None
        )
        return cls(worker_id=_str_field(data, "worker_id", what), progress=progress)


@dataclass(frozen=True)
class CompleteRequest:
    """``POST /shards/complete`` body.

    Completion is addressed by ``(campaign_id, key)`` rather than by
    lease so that work finished after a lease expired — or across a
    manager restart that forgot all leases — is still bankable; the
    content-addressed result store makes the double-delivery harmless.
    The outcome must carry a ``summary`` object: a failed attempt is
    reported on ``/shards/fail``, the one failure path.
    """

    campaign_id: str
    key: str
    worker_id: str
    outcome: dict

    @classmethod
    def from_dict(cls, data: object) -> "CompleteRequest":
        what = "complete request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"campaign_id", "key", "worker_id", "outcome"}, what)
        outcome = _require_dict(data.get("outcome"), f"{what}: 'outcome'")
        if not isinstance(outcome.get("summary"), dict):
            raise SchemaError(
                f"{what}: outcome must carry a 'summary' object "
                f"(report a failed attempt on /shards/fail)"
            )
        return cls(
            campaign_id=_str_field(data, "campaign_id", what),
            key=_str_field(data, "key", what),
            worker_id=_str_field(data, "worker_id", what),
            outcome=outcome,
        )


@dataclass(frozen=True)
class FailRequest:
    """``POST /shards/fail`` body (a worker-reported failed attempt).

    ``attempt`` (the lease's attempt number, 0 = unstamped) lets the
    manager dedupe a duplicated fail delivery: the same worker reporting
    the same attempt twice burns one unit of quarantine budget, not two.
    """

    campaign_id: str
    key: str
    worker_id: str
    error: str
    attempt: int = 0

    @classmethod
    def from_dict(cls, data: object) -> "FailRequest":
        what = "fail request"
        data = _require_dict(data, what)
        _reject_unknown(
            data, {"campaign_id", "key", "worker_id", "error", "attempt"}, what
        )
        attempt = data.get("attempt", 0)
        if isinstance(attempt, bool) or not isinstance(attempt, int) or attempt < 0:
            raise SchemaError(f"{what}: 'attempt' must be a non-negative integer")
        return cls(
            campaign_id=_str_field(data, "campaign_id", what),
            key=_str_field(data, "key", what),
            worker_id=_str_field(data, "worker_id", what),
            error=_str_field(data, "error", what),
            attempt=attempt,
        )
