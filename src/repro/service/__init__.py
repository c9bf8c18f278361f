"""repro.service — the fault-tolerant campaign service.

Turns :func:`repro.experiments.runner.run_campaign` into a long-running
manager/worker system that survives worker crashes, manager restarts and
corrupt state without losing or double-counting a single shard:

* :mod:`repro.service.schemas` — dataclass request/response schemas with
  strict validation (the JSON contract of the REST API);
* :mod:`repro.service.store` — the durable, content-addressed result
  store keyed by config hash: shard execution is idempotent, so
  at-least-once delivery dedupes instead of corrupting aggregates;
* :mod:`repro.service.journal` — write-ahead JSONL journal plus atomic
  snapshot; a SIGKILL'd manager replays both on restart;
* :mod:`repro.service.manager` — the :class:`CampaignManager` state
  machine composing the shared lease queue
  (:class:`~repro.resilience.leases.LeaseQueue`, the same scheduler
  ``run_campaign(jobs > 1)`` uses) + store + journal, producing final
  :class:`~repro.experiments.runner.CampaignResult`s byte-identical to a
  serial fault-free run;
* :mod:`repro.service.api` — the stdlib ``http.server`` REST front end
  (submit/list/status/cancel, leases, incidents, Prometheus metrics);
* :mod:`repro.service.worker` — the worker agent: registers, pulls
  leases, runs shards through the same ``run_workload`` path as serial
  campaigns and reports back;
* :mod:`repro.service.gc` — campaign-aware result-store retention
  (``repro service gc``): age/count eviction that never touches a
  result referenced by a live campaign.

See ``docs/SERVICE.md`` for the API, the lease lifecycle and the
recovery guarantees.
"""

from repro.service.gc import (
    GcReport,
    ResultGcPolicy,
    collect_garbage,
    referenced_result_keys,
)
from repro.service.journal import JOURNAL_SNAPSHOT_SCHEMA, Journal
from repro.service.manager import CampaignManager
from repro.service.schemas import (
    CampaignSpec,
    CompleteRequest,
    FailRequest,
    LeaseRequest,
    RegisterRequest,
    RenewRequest,
    ShardProgress,
)
from repro.service.store import RESULT_SCHEMA, ResultStore, shard_result_key
from repro.service.worker import (
    ManagerClient,
    WorkerAgent,
    WorkerChaos,
    http_exchange,
)

__all__ = [
    "CampaignManager",
    "CampaignSpec",
    "CompleteRequest",
    "FailRequest",
    "GcReport",
    "JOURNAL_SNAPSHOT_SCHEMA",
    "Journal",
    "LeaseRequest",
    "ManagerClient",
    "RESULT_SCHEMA",
    "RegisterRequest",
    "RenewRequest",
    "ResultGcPolicy",
    "ResultStore",
    "ShardProgress",
    "WorkerAgent",
    "WorkerChaos",
    "collect_garbage",
    "http_exchange",
    "referenced_result_keys",
    "shard_result_key",
]
