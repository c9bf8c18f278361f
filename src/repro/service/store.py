"""Durable, content-addressed shard result store.

Shard execution is deterministic: the summary of one (workload × ABTB ×
scale × seed) pair is a pure function of its recipe and of the counter
model.  The store exploits that by keying every result on the *config
hash* of both (:func:`shard_result_key`), with three consequences:

* **idempotence** — re-running an already-completed shard (at-least-once
  delivery after a lease expiry, a worker retry after a manager restart,
  a resubmitted campaign) dedupes against the stored result instead of
  double-counting;
* **first-write-wins determinism** — a conflicting second write (which
  determinism says should never happen) is recorded as a ``result_conflict`` incident and discarded,
  so aggregates can never silently drift;
* **durability** — results are integrity-enveloped files
  (:mod:`repro.resilience.integrity`): a bit-flipped result is detected
  on read, reported as a ``result_corrupt`` incident and treated as a
  miss, i.e. recomputed rather than trusted.

The store is safe for concurrent writers on one filesystem: writes go
through the atomic tempfile-rename path of ``write_artifact`` and racy
first-fills of the same key produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CheckpointCorruptionError
from repro.resilience.incidents import IncidentKind
from repro.resilience.integrity import read_artifact, write_artifact
from repro.uarch.machine import MACHINE_STATE_VERSION, machine_key

#: Integrity-envelope schema for stored shard results.
RESULT_SCHEMA = "repro.shard-result"
RESULT_SCHEMA_VERSION = 1


def shard_result_key(
    workload: str,
    abtb_entries: int,
    scale: str,
    seed: int | None = None,
) -> str:
    """Config hash identifying one shard's result.

    Covers everything that determines the summary — any difference yields
    a different key, so results can never be shared across recipes that
    could diverge.  That includes the counter model: a change to what the
    counters count or how cycles are priced bumps
    :data:`~repro.uarch.machine.MACHINE_STATE_VERSION`, which is hashed
    in, so a result stored before the change misses and is recomputed.
    Campaign identity is deliberately *excluded*: two campaigns sweeping
    the same point share one result.
    """
    return machine_key(
        kind="shard-result",
        version=MACHINE_STATE_VERSION,
        workload=workload,
        abtb_entries=abtb_entries,
        scale=scale,
        seed=seed,
    )


class ResultStore:
    """A directory of shard results keyed by config hash.

    ``put`` is idempotent (see module doc); ``get`` treats corrupt files
    as misses and records an incident when a recorder is attached.
    """

    def __init__(self, root: str | Path, recorder=None) -> None:
        self.root = Path(root)
        self.recorder = recorder
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dedups = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.result.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or None.

        A missing file is a silent miss; a *corrupt* file is a miss plus
        a ``result_corrupt`` incident — never trusted bytes.
        """
        path = self.path(key)
        try:
            payload = read_artifact(path, RESULT_SCHEMA, RESULT_SCHEMA_VERSION)
        except CheckpointCorruptionError as exc:
            self.misses += 1
            if exc.reason != "missing" and self.recorder is not None:
                self.recorder.record(
                    IncidentKind.RESULT_CORRUPT,
                    f"shard result {path.name} failed integrity validation "
                    f"({exc.reason}); will recompute",
                    key=key,
                    path=str(path),
                    reason=exc.reason,
                )
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, summary: dict, recipe: dict) -> tuple[Path, bool]:
        """Store one shard summary; returns ``(path, deduped)``.

        ``deduped`` is True when an intact result for ``key`` already
        existed — the new bytes are then discarded (first write wins) and
        a disagreement raises a ``result_conflict`` incident.
        """
        path = self.path(key)
        existing = self.get(key)
        if existing is not None:
            self.dedups += 1
            if existing.get("summary") != summary:
                if self.recorder is not None:
                    self.recorder.record(
                        IncidentKind.RESULT_CONFLICT,
                        f"shard result {key} was delivered twice with different "
                        f"summaries; keeping the first (stored) result",
                        key=key,
                        path=str(path),
                    )
            return path, True
        self.writes += 1
        payload = {"key": key, "summary": summary, "recipe": recipe}
        return write_artifact(path, payload, RESULT_SCHEMA, RESULT_SCHEMA_VERSION), False

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[: -len(".result.json")] for p in self.root.glob("*.result.json"))
