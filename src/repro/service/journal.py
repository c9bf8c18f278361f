"""Write-ahead journal + atomic snapshot for the campaign manager.

Every state transition the manager acknowledges — campaign submitted,
shard completed, shard failed, shard quarantined, campaign cancelled —
is appended to ``wal.jsonl`` *before* the in-memory state changes and
the client sees the response.  A SIGKILL'd manager therefore loses
nothing: restart replays the snapshot and the tail of the WAL and every
acknowledged transition is back.

On-disk layout (one directory)::

    snapshot.json   integrity-enveloped full state + the seq it covers
    wal.jsonl       one record per line, each self-checksummed:
                    {"seq": N, "type": ..., "data": {...}, "sha256": ...}

Durability and corruption rules:

* appends are flushed and fsync'd before the caller proceeds;
* each line carries a SHA-256 over its ``{seq, type, data}`` body, so a
  bit flip is *detected* on replay (reported via ``problems``), the
  record is dropped, and replay continues — the manager then heals the
  gap from the content-addressed result store instead of trusting or
  dying on corrupt bytes;
* a torn final line (crash mid-append) is expected, not corruption: the
  record was never acknowledged, dropping it is correct;
* snapshots are atomic (tempfile + rename inside an integrity envelope);
  the WAL is truncated only *after* the snapshot is durable, and replay
  skips WAL records already covered by the snapshot's ``seq``, so a
  crash between the two steps merely replays harmlessly twice.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointCorruptionError, ServiceError
from repro.resilience.integrity import payload_checksum, read_artifact, write_artifact

#: Integrity-envelope schema of the manager snapshot.
JOURNAL_SNAPSHOT_SCHEMA = "repro.service-snapshot"
JOURNAL_SNAPSHOT_VERSION = 1

_RECORD_KEYS = {"seq", "type", "data", "sha256"}


@dataclass
class JournalState:
    """What :meth:`Journal.load` recovered.

    ``snapshot`` is the snapshot payload's ``state`` (or None), ``records``
    the validated WAL records newer than the snapshot, in seq order, and
    ``problems`` human-readable descriptions of every dropped artifact
    (corrupt snapshot, bit-flipped line, torn tail) for incident logging.
    """

    snapshot: dict | None = None
    records: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    last_seq: int = 0


class Journal:
    """The manager's write-ahead log (see module doc)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.root / "wal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self._fh = None
        self._seq = 0

    # ---------------------------------------------------------------- load

    def load(self) -> JournalState:
        """Recover snapshot + WAL tail; see :class:`JournalState`.

        Never raises on corrupt content — every dropped artifact lands in
        ``problems`` instead, because recovery is exactly the moment the
        caller cannot afford to die on bad bytes.
        """
        state = JournalState()
        snapshot_seq = 0
        try:
            payload = read_artifact(
                self.snapshot_path, JOURNAL_SNAPSHOT_SCHEMA, JOURNAL_SNAPSHOT_VERSION
            )
            snapshot_seq = int(payload.get("seq", 0))
            state.snapshot = payload.get("state")
        except CheckpointCorruptionError as exc:
            if exc.reason != "missing":
                state.problems.append(
                    f"snapshot {self.snapshot_path.name} dropped ({exc.reason}): {exc}"
                )
        state.last_seq = snapshot_seq

        try:
            text = self.wal_path.read_text()
        except FileNotFoundError:
            text = ""
        except OSError as exc:
            state.problems.append(f"wal {self.wal_path.name} unreadable: {exc}")
            text = ""
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            record, problem = _parse_record(line)
            if record is None:
                if lineno == len(lines):
                    # Torn tail: the append never finished, so the
                    # transition was never acknowledged — dropping it is
                    # the correct (and expected) crash semantics.
                    state.problems.append(f"wal line {lineno}: torn tail dropped")
                else:
                    state.problems.append(f"wal line {lineno}: {problem}")
                continue
            seq = record["seq"]
            if seq <= snapshot_seq:
                continue  # already covered by the snapshot
            state.records.append(record)
            state.last_seq = max(state.last_seq, seq)
        state.records.sort(key=lambda r: r["seq"])
        return state

    # -------------------------------------------------------------- append

    def open_for_append(self, last_seq: int) -> None:
        """Start appending after recovery decided the current seq."""
        self._seq = last_seq
        self._fh = open(self.wal_path, "a", encoding="utf-8")

    def append(self, record_type: str, data: dict) -> int:
        """Durably append one record; returns its seq.

        The record is on disk (flushed + fsync'd) when this returns —
        callers apply the transition to in-memory state only afterwards,
        which is what makes the log *write-ahead*.
        """
        if self._fh is None:
            raise ServiceError("journal is not open for append (call open_for_append)")
        self._seq += 1
        body = {"seq": self._seq, "type": record_type, "data": data}
        line = json.dumps({**body, "sha256": payload_checksum(body)}, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return self._seq

    @property
    def seq(self) -> int:
        return self._seq

    # ------------------------------------------------------------ snapshot

    def write_snapshot(self, state: dict) -> Path:
        """Atomically snapshot the full state, then truncate the WAL.

        The snapshot records the seq it covers; a crash after the rename
        but before the truncate only causes harmless double-replay.
        """
        path = write_artifact(
            self.snapshot_path,
            {"seq": self._seq, "state": state},
            JOURNAL_SNAPSHOT_SCHEMA,
            JOURNAL_SNAPSHOT_VERSION,
        )
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.wal_path, "w", encoding="utf-8")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return path

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _parse_record(line: str) -> tuple[dict | None, str]:
    """Validate one WAL line; returns ``(record, "")`` or ``(None, why)``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, f"not JSON: {exc}"
    if not isinstance(record, dict) or not _RECORD_KEYS.issubset(record):
        missing = sorted(_RECORD_KEYS - set(record)) if isinstance(record, dict) else []
        return None, f"missing field(s) {missing or 'object structure'}"
    body = {"seq": record["seq"], "type": record["type"], "data": record["data"]}
    if not isinstance(body["seq"], int) or body["seq"] < 1:
        return None, f"bad seq {body['seq']!r}"
    if payload_checksum(body) != record["sha256"]:
        return None, "checksum mismatch (bit flip?)"
    if not isinstance(record["type"], str) or not isinstance(record["data"], dict):
        return None, "bad record body types"
    return body, ""
