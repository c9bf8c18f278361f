"""Columnar (batched) trace representation.

A :class:`TraceBatch` packs a run of :class:`~repro.isa.events.TraceEvent`
objects into one numpy structured array plus a small tag table.  The
batched form is what the vectorized simulation backend
(:mod:`repro.uarch.backend`) consumes: numeric columns can be shifted and
masked for a whole batch at once (cache-line and TLB-page indexing), and
the per-structure passes then read plain Python lists instead of touching one
attribute-heavy event object per step.

The representation is lossless: ``TraceBatch.from_events`` followed by
:meth:`TraceBatch.to_events` reproduces events that compare equal to the
originals (kind, addresses, sizes, outcome and tag).  Tags — ``None`` for
almost every event, strings (``"plt"``, ``"got-store"``) or small tuples
(request marks) otherwise — are deduplicated into a per-batch side table
and referenced by index, keeping the array purely numeric.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TraceCorruptionError, TraceError
from repro.isa.events import TraceEvent, event_from_row
from repro.isa.kinds import MAX_EVENT_KIND
from repro.resilience.integrity import atomic_write

# Single-attribute getters: ``np.fromiter(map(getter, events), ...)`` fills
# a column at C speed, several times faster than building per-event row
# tuples in Python.
_GET_KIND = attrgetter("kind")
_GET_PC = attrgetter("pc")
_GET_N_INSTR = attrgetter("n_instr")
_GET_NBYTES = attrgetter("nbytes")
_GET_TARGET = attrgetter("target")
_GET_MEM_ADDR = attrgetter("mem_addr")
_GET_TAKEN = attrgetter("taken")
_GET_TAG = attrgetter("tag")

#: Structured dtype of one batched event.  Everything is a signed 64-bit
#: (addresses in the synthetic address space stay far below 2**63), so
#: mixed-column arithmetic never hits numpy's unsigned-promotion rules.
#: ``tag`` is an index into the batch's tag table, -1 meaning "no tag".
EVENT_DTYPE = np.dtype(
    [
        ("kind", np.int16),
        ("pc", np.int64),
        ("n_instr", np.int64),
        ("nbytes", np.int64),
        ("target", np.int64),
        ("mem_addr", np.int64),
        ("taken", np.int8),
        ("tag", np.int32),
    ]
)


class TagTable:
    """First-appearance-first tag interning for one batch's tag table.

    Unhashable tags are stored without deduplication.
    """

    __slots__ = ("tags", "_index")

    def __init__(self) -> None:
        self.tags: list = []
        self._index: dict = {}

    def intern(self, tag: object) -> int:
        """Index of ``tag`` in :attr:`tags`, appending it on first sight."""
        try:
            ti = self._index.get(tag)
        except TypeError:  # unhashable tag: store without dedup
            ti = None
        if ti is None:
            ti = len(self.tags)
            self.tags.append(tag)
            try:
                self._index[tag] = ti
            except TypeError:
                pass
        return ti


class TraceBatch:
    """A fixed-size run of trace events in columnar form.

    Attributes:
        data: structured array of :data:`EVENT_DTYPE`, one row per event.
        tags: tag table; ``data["tag"]`` holds indexes into it (-1 = None).
    """

    __slots__ = ("data", "tags")

    def __init__(self, data: np.ndarray, tags: list) -> None:
        if data.dtype != EVENT_DTYPE:
            raise TraceError(f"TraceBatch needs EVENT_DTYPE rows, got {data.dtype}")
        self.data = data
        self.tags = tags

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "TraceBatch":
        """Pack events into columnar form (validates event kinds)."""
        if not isinstance(events, (list, tuple)):
            events = list(events)
        m = len(events)
        data = np.empty(m, dtype=EVENT_DTYPE)
        if not m:
            return cls(data, [])
        data["kind"] = np.fromiter(map(_GET_KIND, events), np.int16, m)
        data["pc"] = np.fromiter(map(_GET_PC, events), np.int64, m)
        data["n_instr"] = np.fromiter(map(_GET_N_INSTR, events), np.int64, m)
        data["nbytes"] = np.fromiter(map(_GET_NBYTES, events), np.int64, m)
        data["target"] = np.fromiter(map(_GET_TARGET, events), np.int64, m)
        data["mem_addr"] = np.fromiter(map(_GET_MEM_ADDR, events), np.int64, m)
        data["taken"] = np.fromiter(map(_GET_TAKEN, events), np.int8, m)
        tag_idx: np.ndarray | None = None
        table = TagTable()
        for i, tag in enumerate(map(_GET_TAG, events)):
            if tag is None:
                continue
            if tag_idx is None:
                tag_idx = np.full(m, -1, np.int32)
            tag_idx[i] = table.intern(tag)
        if tag_idx is None:
            data["tag"] = -1
        else:
            data["tag"] = tag_idx
        kinds = data["kind"]
        lo, hi = int(kinds.min()), int(kinds.max())
        if lo < 0 or hi > MAX_EVENT_KIND:
            raise TraceError(
                f"batch contains event kind outside [0, {MAX_EVENT_KIND}]: "
                f"min={lo}, max={hi}"
            )
        return cls(data, table.tags)

    @classmethod
    def concat(cls, batches: Iterable["TraceBatch"]) -> "TraceBatch":
        """Join batches end to end into one.

        Tags are re-interned first-appearance-first across the whole run,
        so the result is identical (bytes included) to one batch built
        over the concatenated stream.
        """
        batches = list(batches)
        data = np.concatenate([b.data for b in batches] or [np.empty(0, EVENT_DTYPE)])
        table = TagTable()
        start = 0
        for batch in batches:
            end = start + len(batch.data)
            if batch.tags:
                remap = np.array([table.intern(t) for t in batch.tags], np.int32)
                col = data["tag"][start:end]
                tagged = col >= 0
                col[tagged] = remap[col[tagged]]
            start = end
        return cls(data, table.tags)

    def __len__(self) -> int:
        return len(self.data)

    def tag_of(self, i: int) -> object:
        """The decoded tag of row ``i`` (None when untagged)."""
        ti = int(self.data["tag"][i])
        return None if ti < 0 else self.tags[ti]

    def event(self, i: int) -> TraceEvent:
        """Materialise row ``i`` back into a :class:`TraceEvent`."""
        row = self.data[i]
        return event_from_row(
            int(row["kind"]),
            int(row["pc"]),
            int(row["n_instr"]),
            int(row["nbytes"]),
            int(row["target"]),
            int(row["mem_addr"]),
            int(row["taken"]),
            self.tag_of(i),
        )

    def to_events(self) -> list[TraceEvent]:
        """Materialise the whole batch (round-trips `==`-equal events)."""
        return [self.event(i) for i in range(len(self.data))]

    def __iter__(self) -> Iterator[TraceEvent]:
        for i in range(len(self.data)):
            yield self.event(i)

    def slices(self, batch_events: int) -> Iterator["TraceBatch"]:
        """Re-cut into batches of at most ``batch_events`` events.

        Yields zero-copy views: each slice shares this batch's array
        storage and tag table (tag indexes stay valid because the table
        is per-batch, not per-slice).  Empty batches are never yielded.
        """
        if batch_events < 1:
            raise TraceError(f"batch_events must be positive, got {batch_events}")
        n = len(self.data)
        for start in range(0, n, batch_events):
            yield TraceBatch(self.data[start : start + batch_events], self.tags)

    # ------------------------------------------------------- binary codec

    def to_bytes(self) -> bytes:
        """Serialise to the checksummed binary trace format.

        Layout: a 32-byte header (:data:`TRACE_MAGIC`, format version,
        event count, tag-blob length, CRC32 of each section), the
        JSON-encoded tag table, then the raw structured-array bytes.
        Every tag must be JSON-encodable (None, bool, int, float, str,
        and tuples/lists thereof) — exactly the shapes the workloads emit.
        """
        tag_blob = json.dumps([_encode_tag(t) for t in self.tags]).encode()
        array_blob = self.data.tobytes()
        header = struct.pack(
            TRACE_HEADER_FMT,
            TRACE_MAGIC,
            TRACE_FORMAT_VERSION,
            0,
            len(self.data),
            len(tag_blob),
            zlib.crc32(array_blob),
            zlib.crc32(tag_blob),
        )
        return header + tag_blob + array_blob

    @classmethod
    def from_bytes(cls, raw: bytes, source: object = None) -> "TraceBatch":
        """Decode the binary trace format, validating every layer.

        Truncation, a bad magic/version, a checksum mismatch, a malformed
        tag table or an out-of-range event kind all raise
        :class:`~repro.errors.TraceCorruptionError` carrying the byte
        offset of the damage (and the row index, when attributable to one
        event) — never a bare ``struct.error`` or ``KeyError``.
        """
        src = source or "<bytes>"
        if len(raw) < TRACE_HEADER_SIZE:
            raise TraceCorruptionError(
                f"trace {src}: truncated header ({len(raw)} of "
                f"{TRACE_HEADER_SIZE} bytes)",
                offset=len(raw),
            )
        magic, version, _reserved, n_events, tag_len, array_crc, tag_crc = struct.unpack(
            TRACE_HEADER_FMT, raw[:TRACE_HEADER_SIZE]
        )
        if magic != TRACE_MAGIC:
            raise TraceCorruptionError(
                f"trace {src}: bad magic {magic!r} (expected {TRACE_MAGIC!r})",
                offset=0,
            )
        if version != TRACE_FORMAT_VERSION:
            raise TraceCorruptionError(
                f"trace {src}: format version {version} unsupported "
                f"(expected {TRACE_FORMAT_VERSION})",
                offset=4,
            )
        array_off = TRACE_HEADER_SIZE + tag_len
        expected = array_off + n_events * EVENT_DTYPE.itemsize
        if len(raw) != expected:
            raise TraceCorruptionError(
                f"trace {src}: size mismatch — header promises {expected} "
                f"bytes ({n_events} events, {tag_len}-byte tag table), "
                f"got {len(raw)}",
                offset=min(len(raw), expected),
            )
        tag_blob = raw[TRACE_HEADER_SIZE:array_off]
        if zlib.crc32(tag_blob) != tag_crc:
            raise TraceCorruptionError(
                f"trace {src}: tag table checksum mismatch — bytes "
                f"[{TRACE_HEADER_SIZE}, {array_off}) are corrupt",
                offset=TRACE_HEADER_SIZE,
            )
        array_blob = raw[array_off:]
        if zlib.crc32(array_blob) != array_crc:
            raise TraceCorruptionError(
                f"trace {src}: event array checksum mismatch — bytes "
                f"[{array_off}, {len(raw)}) are corrupt",
                offset=array_off,
            )
        try:
            tags = [_decode_tag(t) for t in json.loads(tag_blob.decode())]
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise TraceCorruptionError(
                f"trace {src}: tag table does not decode: {exc}",
                offset=TRACE_HEADER_SIZE,
            ) from exc
        data = np.frombuffer(array_blob, dtype=EVENT_DTYPE).copy()
        kinds = data["kind"]
        bad = np.nonzero((kinds < 0) | (kinds > MAX_EVENT_KIND))[0]
        if bad.size:
            row = int(bad[0])
            raise TraceCorruptionError(
                f"trace {src}: row {row} has unknown event kind "
                f"{int(kinds[row])} (valid: 0..{MAX_EVENT_KIND})",
                offset=array_off + row * EVENT_DTYPE.itemsize,
                row=row,
            )
        tag_idx = data["tag"]
        bad = np.nonzero((tag_idx < -1) | (tag_idx >= len(tags)))[0]
        if bad.size:
            row = int(bad[0])
            raise TraceCorruptionError(
                f"trace {src}: row {row} references tag {int(tag_idx[row])} "
                f"outside the {len(tags)}-entry tag table",
                offset=array_off + row * EVENT_DTYPE.itemsize,
                row=row,
            )
        return cls(data, tags)

    def save(self, path: str | Path) -> Path:
        """Atomically write the batch in the binary trace format."""
        return atomic_write(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "TraceBatch":
        """Read and validate a binary trace file.

        Raises :class:`~repro.errors.TraceCorruptionError` for damaged
        content (``offset=-1`` when the file cannot be read at all).
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise TraceCorruptionError(f"trace {path} unreadable: {exc}") from exc
        return cls.from_bytes(raw, source=path)


#: Binary trace file layout: magic, format version, reserved, event
#: count, tag-blob length, CRC32 of the array bytes, CRC32 of the tag
#: blob.  Little-endian, 32 bytes.
TRACE_MAGIC = b"RPRT"
TRACE_FORMAT_VERSION = 1
TRACE_HEADER_FMT = "<4sHHQQII"
TRACE_HEADER_SIZE = struct.calcsize(TRACE_HEADER_FMT)


def _encode_tag(tag: object) -> object:
    """JSON-safe encoding that survives the tuple/list distinction."""
    if tag is None or isinstance(tag, (bool, int, float, str)):
        return {"v": tag}
    if isinstance(tag, tuple):
        return {"t": [_encode_tag(item) for item in tag]}
    if isinstance(tag, list):
        return {"l": [_encode_tag(item) for item in tag]}
    raise TraceError(f"tag {tag!r} cannot be serialised to the binary trace format")


def _decode_tag(obj: object) -> object:
    if isinstance(obj, dict):
        if "v" in obj:
            return obj["v"]
        if "t" in obj and isinstance(obj["t"], list):
            return tuple(_decode_tag(item) for item in obj["t"])
        if "l" in obj and isinstance(obj["l"], list):
            return [_decode_tag(item) for item in obj["l"]]
    raise ValueError(f"malformed tag encoding: {obj!r}")


def iter_batches(
    events: Iterable[TraceEvent] | Sequence[TraceEvent], batch_events: int = 4096
) -> Iterator[TraceBatch]:
    """Cut an event stream into :class:`TraceBatch` chunks of at most
    ``batch_events`` events (the final batch may be shorter; empty batches
    are never yielded)."""
    if batch_events < 1:
        raise TraceError(f"batch_events must be positive, got {batch_events}")
    it = iter(events)
    while True:
        chunk = list(islice(it, batch_events))
        if not chunk:
            return
        yield TraceBatch.from_events(chunk)
