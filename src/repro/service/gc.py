"""Result-store garbage collection with campaign-aware retention.

The content-addressed :class:`~repro.service.store.ResultStore` only
ever grows: every completed shard of every campaign (and every serial
run pointed at the same cache) leaves a ``*.result.json`` behind, and
dedupe means old entries keep *saving* work — until the disk fills.
This module is the retention policy: ``repro service gc`` evicts stored
results by age and/or count, with one hard safety rule:

    **a result referenced by a live campaign is never evicted.**

"Live" is decided from the manager's own durable state (journal
snapshot + WAL, read-only — gc never opens the journal for append, so
it is safe to run beside a *stopped* manager or on a copy): every shard
result key of every non-cancelled campaign is protected, whether the
shard is pending (the result is about to be wanted), completed (the
final ``CampaignResult`` is served from it) or quarantined.  Only
orphans — results whose campaigns were cancelled, or that came from
other data directories' campaigns sharing the store — are candidates.

Every eviction is recorded as a ``result_evicted`` incident (severity
info), so a post-gc incident log accounts for exactly which bytes went
away and why.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SchemaError, ServiceError
from repro.resilience.incidents import IncidentKind, IncidentRecorder
from repro.service.journal import Journal
from repro.service.schemas import CampaignSpec
from repro.service.store import ResultStore, shard_result_key


@dataclass(frozen=True)
class ResultGcPolicy:
    """Retention knobs (both optional; both None = nothing to do).

    ``max_age_s`` evicts unprotected entries older than this (by file
    mtime); ``max_count`` keeps at most this many unprotected entries,
    evicting the oldest beyond it.  ``dry_run`` reports without
    deleting.
    """

    max_age_s: float | None = None
    max_count: int | None = None
    dry_run: bool = False

    def __post_init__(self) -> None:
        if self.max_age_s is None and self.max_count is None:
            raise ServiceError(
                "result gc needs max_age_s and/or max_count (refusing to "
                "guess a retention policy)"
            )
        if self.max_age_s is not None and self.max_age_s < 0:
            raise ServiceError(f"max_age_s must be >= 0, got {self.max_age_s}")
        if self.max_count is not None and self.max_count < 0:
            raise ServiceError(f"max_count must be >= 0, got {self.max_count}")


@dataclass
class GcReport:
    """What one gc pass did (or would do, under ``dry_run``)."""

    examined: int = 0
    protected: int = 0
    evicted: list[str] = field(default_factory=list)
    reclaimed_bytes: int = 0
    dry_run: bool = False

    def as_dict(self) -> dict:
        return {
            "examined": self.examined,
            "protected": self.protected,
            "evicted": list(self.evicted),
            "evicted_count": len(self.evicted),
            "reclaimed_bytes": self.reclaimed_bytes,
            "dry_run": self.dry_run,
        }


def referenced_result_keys(data_dir: str | Path) -> set[str]:
    """Result keys referenced by live (non-cancelled) campaigns in the
    manager state at ``data_dir`` — read-only journal replay, tolerant
    of the same corruption the manager's own recovery tolerates."""
    journal = Journal(Path(data_dir) / "journal")
    loaded = journal.load()
    specs: dict[str, dict] = {}
    cancelled: set[str] = set()
    if loaded.snapshot is not None:
        for cid, cdata in loaded.snapshot.get("campaigns", {}).items():
            specs[cid] = cdata.get("spec", {})
            if cdata.get("cancelled"):
                cancelled.add(cid)
    for record in loaded.records:
        if record["type"] == "submit":
            specs[record["data"]["campaign_id"]] = record["data"].get("spec", {})
        elif record["type"] == "cancel":
            cancelled.add(record["data"]["campaign_id"])
    keys: set[str] = set()
    for cid, spec_data in specs.items():
        if cid in cancelled:
            continue
        try:
            spec = CampaignSpec.from_dict(spec_data)
        except SchemaError:
            continue  # unreplayable spec: protects nothing
        for workload in spec.workloads:
            for abtb in spec.abtb_sizes:
                keys.add(shard_result_key(workload, abtb, spec.scale, spec.seed))
    return keys


def collect_garbage(
    data_dir: str | Path,
    policy: ResultGcPolicy,
    recorder: IncidentRecorder | None = None,
    clock=time.time,
) -> GcReport:
    """One gc pass over ``data_dir/results`` (see module doc)."""
    data_dir = Path(data_dir)
    store = ResultStore(data_dir / "results", recorder=recorder)
    protected = referenced_result_keys(data_dir)
    now = clock()

    rows: list[tuple[str, Path, float, int]] = []  # (key, path, mtime, size)
    for key in store.keys():
        path = store.path(key)
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with another writer/gc; nothing to do
        rows.append((key, path, stat.st_mtime, stat.st_size))

    report = GcReport(examined=len(rows), dry_run=policy.dry_run)
    candidates = [r for r in rows if r[0] not in protected]
    report.protected = len(rows) - len(candidates)
    candidates.sort(key=lambda r: r[2])  # oldest first

    evict: dict[str, tuple[str, Path, float, int]] = {}
    if policy.max_age_s is not None:
        for row in candidates:
            if now - row[2] > policy.max_age_s:
                evict[row[0]] = row
    if policy.max_count is not None:
        kept = [r for r in candidates if r[0] not in evict]
        overflow = len(kept) - policy.max_count
        for row in kept[:max(0, overflow)]:
            evict[row[0]] = row

    for key, path, mtime, size in (evict[k] for k in sorted(evict)):
        if not policy.dry_run:
            try:
                path.unlink()
            except OSError:
                continue  # raced; treat as already gone
        report.evicted.append(key)
        report.reclaimed_bytes += size
        if recorder is not None:
            recorder.record(
                IncidentKind.RESULT_EVICTED,
                f"result {key} evicted by gc "
                f"({'dry-run; ' if policy.dry_run else ''}age "
                f"{now - mtime:.0f}s, {size} byte(s))",
                severity="info",
                key=key,
                path=str(path),
                age_s=round(now - mtime, 3),
                bytes=size,
                dry_run=policy.dry_run,
            )
    return report
