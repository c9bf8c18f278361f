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


def _opt_number(data: dict, name: str, what: str) -> float | None:
    value = data.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what}: {name!r} must be a number or null, got {value!r}")
    return float(value)


def _opt_int(data: dict, name: str, what: str) -> int | None:
    value = data.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what}: {name!r} must be an integer or null, got {value!r}")
    return value


def _epoch_field(data: dict, what: str) -> int:
    """The optional fencing ``epoch`` stamp (0 = unstamped, accepted for
    pre-HA workers; the manager only fences stamped requests)."""
    value = data.get("epoch", 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{what}: 'epoch' must be a non-negative integer, got {value!r}")
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
    timeout_s: float | None = None
    max_retries: int = 2

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
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SchemaError(f"{what}: timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise SchemaError(f"{what}: max_retries must be >= 0, got {self.max_retries}")

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        what = "campaign spec"
        data = _require_dict(data, what)
        _reject_unknown(
            data,
            {"workloads", "abtb_sizes", "scale", "seed", "timeout_s", "max_retries"},
            what,
        )
        workloads = data.get("workloads")
        if not isinstance(workloads, (list, tuple)) or not all(
            isinstance(w, str) for w in workloads or ()
        ):
            raise SchemaError(f"{what}: 'workloads' must be a list of strings")
        abtb_sizes = data.get("abtb_sizes", [256])
        if not isinstance(abtb_sizes, (list, tuple)):
            raise SchemaError(f"{what}: 'abtb_sizes' must be a list of integers")
        max_retries = data.get("max_retries", 2)
        if isinstance(max_retries, bool) or not isinstance(max_retries, int):
            raise SchemaError(f"{what}: 'max_retries' must be an integer")
        return cls(
            workloads=tuple(workloads),
            abtb_sizes=tuple(abtb_sizes),
            scale=_str_field(data, "scale", what, "smoke"),
            seed=_opt_int(data, "seed", what),
            timeout_s=_opt_number(data, "timeout_s", what),
            max_retries=max_retries,
        )

    def as_dict(self) -> dict:
        """Canonical JSON-safe form (journaled; keep stable)."""
        return {
            "workloads": list(self.workloads),
            "abtb_sizes": list(self.abtb_sizes),
            "scale": self.scale,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
        }


@dataclass(frozen=True)
class RegisterRequest:
    """``POST /workers/register`` body.

    ``worker_id`` makes re-registration idempotent: a worker failing over
    to a promoted leader (or retrying a duplicated register) asks to keep
    the id it already holds, so its in-flight lease reclaim and its
    completions keep their attribution across the failover.
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
    epoch: int = 0

    @classmethod
    def from_dict(cls, data: object) -> "LeaseRequest":
        what = "lease request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"worker_id", "epoch"}, what)
        return cls(
            worker_id=_str_field(data, "worker_id", what),
            epoch=_epoch_field(data, what),
        )


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
    """``POST /leases/<id>/renew`` body (progress is optional).

    ``reclaim`` carries ``{campaign_id, key}`` of the shard the worker is
    executing.  A manager that does not know the lease (promoted standby,
    restarted leader — leases are soft state) re-establishes it on that
    shard instead of answering 410, which is what lets an in-flight shard
    survive a failover without re-execution.
    """

    worker_id: str
    progress: ShardProgress | None = None
    epoch: int = 0
    reclaim_campaign_id: str = ""
    reclaim_key: str = ""

    @classmethod
    def from_dict(cls, data: object) -> "RenewRequest":
        what = "renew request"
        data = _require_dict(data, what)
        _reject_unknown(data, {"worker_id", "progress", "epoch", "reclaim"}, what)
        progress_data = data.get("progress")
        progress = (
            ShardProgress.from_dict(progress_data)
            if progress_data is not None
            else None
        )
        reclaim = data.get("reclaim")
        reclaim_campaign_id = reclaim_key = ""
        if reclaim is not None:
            reclaim = _require_dict(reclaim, f"{what}: 'reclaim'")
            _reject_unknown(reclaim, {"campaign_id", "key"}, f"{what}: 'reclaim'")
            reclaim_campaign_id = _str_field(reclaim, "campaign_id", f"{what}: 'reclaim'")
            reclaim_key = _str_field(reclaim, "key", f"{what}: 'reclaim'")
        return cls(
            worker_id=_str_field(data, "worker_id", what),
            progress=progress,
            epoch=_epoch_field(data, what),
            reclaim_campaign_id=reclaim_campaign_id,
            reclaim_key=reclaim_key,
        )


@dataclass(frozen=True)
class CompleteRequest:
    """``POST /shards/complete`` body.

    Completion is addressed by ``(campaign_id, key)`` rather than by
    lease so that work finished after a lease expired — or across a
    manager restart that forgot all leases — is still bankable; the
    content-addressed result store makes the double-delivery harmless.
    """

    campaign_id: str
    key: str
    worker_id: str
    outcome: dict
    epoch: int = 0

    @classmethod
    def from_dict(cls, data: object) -> "CompleteRequest":
        what = "complete request"
        data = _require_dict(data, what)
        _reject_unknown(
            data, {"campaign_id", "key", "worker_id", "outcome", "epoch"}, what
        )
        outcome = data.get("outcome")
        outcome = _require_dict(outcome, f"{what}: 'outcome'")
        if "summary" not in outcome and not outcome.get("failed"):
            raise SchemaError(
                f"{what}: outcome must carry either a 'summary' or a 'failed' reason"
            )
        summary = outcome.get("summary")
        if summary is not None and not isinstance(summary, dict):
            raise SchemaError(f"{what}: outcome 'summary' must be an object or null")
        return cls(
            campaign_id=_str_field(data, "campaign_id", what),
            key=_str_field(data, "key", what),
            worker_id=_str_field(data, "worker_id", what),
            outcome=outcome,
            epoch=_epoch_field(data, what),
        )


@dataclass(frozen=True)
class FailRequest:
    """``POST /shards/fail`` body (worker-reported permanent failure).

    ``attempt`` (the lease's attempt number, 0 = unstamped) lets the
    manager dedupe a duplicated fail delivery: the same worker reporting
    the same attempt twice burns one unit of quarantine budget, not two.
    """

    campaign_id: str
    key: str
    worker_id: str
    error: str
    epoch: int = 0
    attempt: int = 0

    @classmethod
    def from_dict(cls, data: object) -> "FailRequest":
        what = "fail request"
        data = _require_dict(data, what)
        _reject_unknown(
            data, {"campaign_id", "key", "worker_id", "error", "epoch", "attempt"}, what
        )
        attempt = data.get("attempt", 0)
        if isinstance(attempt, bool) or not isinstance(attempt, int) or attempt < 0:
            raise SchemaError(f"{what}: 'attempt' must be a non-negative integer")
        return cls(
            campaign_id=_str_field(data, "campaign_id", what),
            key=_str_field(data, "key", what),
            worker_id=_str_field(data, "worker_id", what),
            error=_str_field(data, "error", what),
            epoch=_epoch_field(data, what),
            attempt=attempt,
        )
