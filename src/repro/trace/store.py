"""Content-addressed trace interchange store.

A campaign re-simulates the same workload recipe many times — base and
enhanced machines, every ABTB size, every shard — and until now each run
re-*generated* the trace from scratch, because generation was a stateful
Python iterator that could only be replayed, never stored.  The array-
native pipeline changes that: a workload's startup, warm-up and measured
windows are each one :class:`~repro.trace.batch.TraceBatch`, serialised
once through the binary codec and retired zero-copy by the batched
backend on every later run.

The store is content-addressed: the key hashes everything that
determines the generated bytes (the full workload recipe including its
seed, the link mode, the window lengths, and the codec format version).
Two configurations that could ever generate different traces can never
collide; identical configurations across shards, processes and campaigns
share one entry.

An entry is a directory of three ``.trace`` files plus a ``meta.json``
stats sidecar.  The sidecar is written last, atomically, and doubles as
the completeness marker — a crash mid-save leaves no ``meta.json`` and
the entry reads as a miss.  Generation usage statistics (touched
trampoline pairs, per-pair counts, engine emission counters) ride in the
sidecar so a cache hit reports them without building the workload or
generating anything: they are *generation* artifacts, invisible to
simulation.

Writes and cold reads are all-or-nothing: a save writes all three
segments, and a run that simulates start-up and warm-up reads all three.
A warm run — one whose machine checkpoint hit — retires only the
measured window, so it reads and checksums only ``meta.json`` and
``measured.trace``.

Corruption is a miss, never an exception: a bit-flipped, truncated or
missing ``.trace`` file among those read is detected by the codec's
section checksums, recorded as a
:class:`~repro.resilience.incidents.IncidentKind.TRACE_CORRUPT` incident
when a recorder is attached, and regenerated — always safe, because
generation is deterministic.  Detection drops the entry's commit marker,
so the regenerated bundle is written over the damaged one.

A :class:`TraceTape` is the in-memory, single-use counterpart for one
uncached pair: a forked producer links the program and generates the
trace while the enhanced run retires it, and the base run replays the
kept chunks instead of linking and generating again.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import pickle
import signal
import struct
import traceback
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import ConfigError, ExperimentError, TraceCorruptionError
from repro.resilience.integrity import atomic_write
from repro.trace.batch import TRACE_FORMAT_VERSION, TraceBatch

#: Bump when the entry layout or sidecar schema changes; part of the key,
#: so old entries simply stop matching instead of being misread.
TRACE_STORE_VERSION = 1

#: Segment order inside one entry.  ``startup`` is the cold-start
#: resolution storm, ``warmup`` the unmarked steady-state ramp, and
#: ``measured`` the marked measurement window.
SEGMENTS = ("startup", "warmup", "measured")


@dataclass
class TraceBundle:
    """One workload's trace: three segments plus generation stats.

    The three segments are interdependent (the context-switch clock and
    binding state thread through all of them), so they are generated and
    stored all-or-nothing, and a cold read loads all three.  A warm read
    (:meth:`TraceStore.load` with ``segments=("measured",)``) leaves the
    segments it did not read as ``None``.
    """

    startup: TraceBatch | None
    warmup: TraceBatch | None
    measured: TraceBatch
    stats: dict

    def segments(self) -> tuple[TraceBatch | None, TraceBatch | None, TraceBatch]:
        return (self.startup, self.warmup, self.measured)

    @property
    def total_events(self) -> int:
        """Rows in the segments this bundle holds."""
        return sum(len(b.data) for b in self.segments() if b is not None)


def trace_key(config, mode, warmup_requests: int, measured_requests: int) -> str:
    """Content hash for one generated trace.

    Covers the full workload recipe (seed included), link mode, window
    lengths, codec format version and store layout version.  Anything
    that could change a single generated byte is in here.
    """
    material = json.dumps(
        {
            "workload": asdict(config),
            "mode": mode.value,
            "warmup_requests": warmup_requests,
            "measured_requests": measured_requests,
            "trace_format": TRACE_FORMAT_VERSION,
            "store": TRACE_STORE_VERSION,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def collect_stats(workload) -> dict:
    """JSON-serialisable generation statistics for the sidecar.

    Captured after generating warm-up + measured windows (usage stats are
    reset after startup, mirroring the live-generation flow), so a cache
    hit reports exactly what a cold run would have accumulated.  This is
    :attr:`~repro.experiments.runner.RunResult.usage`.
    """
    return {
        "touched_pairs": sorted([c, s] for c, s in workload.touched_pairs),
        "pair_counts": sorted(
            [c, s, n] for (c, s), n in workload.pair_counts.items()
        ),
        "calls_emitted": int(workload.engine.calls_emitted),
        "resolutions_emitted": int(workload.engine.resolutions_emitted),
    }


def stream_segments(workload, warmup_requests: int, measured_requests: int):
    """The three segments as lazy chunk streams, in generation order.

    The sequence is startup, usage-stat reset (Table 3 / Fig 4 cover
    organic execution only), unmarked warm-up, then the marked
    measurement window with request ids continuing after the warm-up's.
    Generation is stateful (the context-switch clock and binding state
    persist across segments), so each stream must be exhausted before
    the next one is started.
    """

    def startup():
        yield from workload.startup_chunks()
        workload.reset_usage_stats()

    return (
        startup(),
        workload.trace_chunks(warmup_requests, include_marks=False),
        workload.trace_chunks(measured_requests, start_id=warmup_requests),
    )


def generate_bundle(workload, warmup_requests: int, measured_requests: int) -> TraceBundle:
    """All three segments of :func:`stream_segments`, each concatenated.

    The segments cannot be produced independently, which is why the
    bundle is all-or-nothing.
    """
    startup, warmup, measured = (
        TraceBatch.concat(stream)
        for stream in stream_segments(workload, warmup_requests, measured_requests)
    )
    return TraceBundle(startup, warmup, measured, collect_stats(workload))


class TraceTape:
    """One generated trace, kept in memory for both runs of an uncached pair.

    :meth:`produce` forks a producer process that links the program and
    generates the trace, sending each chunk down a pipe as a level-1
    ``zlib`` frame of :meth:`TraceBatch.to_bytes`.  Meanwhile the first
    run decodes and retires the chunk before it, and the tape keeps every
    frame.  Once the first run has used up its measured stream, the
    producer's usage statistics are in :attr:`stats` and :meth:`replay`
    streams the same chunks — byte for byte, tags included — through
    :meth:`TraceBatch.from_bytes` for the second run, with no program
    linked and nothing generated.  The frames stay compressed because a
    whole trace is held until the replay starts: raw, a SMOKE MySQL trace
    is 13.7 MB, framed 1.5 MB.  A tape replays once, and drops each frame
    as it decodes it.  A damaged frame raises
    :class:`TraceCorruptionError`; the tape is the only copy, so there is
    nothing to fall back to.

    The first run also leaves its :class:`~repro.uarch.machine.SharedPrefix`
    record in :attr:`shared`, for the second run to adopt.

    The producer is forked with :func:`os.fork`, not :mod:`multiprocessing`:
    campaign lease workers are daemonic processes, which
    :mod:`multiprocessing` does not let have children.  Every message on
    the pipe is a kind byte and a length, then the payload: chunk frames,
    an empty frame after each segment, and last the pickled usage
    statistics or the pickled exception that stopped the producer, which
    :meth:`produce`'s streams re-raise with its own type.  The producer
    touches no stdio and ends in :func:`os._exit`.  A producer that ends
    before the trace does makes the streams raise
    :class:`TraceCorruptionError`.  :meth:`close` kills a producer that
    still runs and reaps it; the run that called :meth:`produce` calls it
    on every path.
    """

    def __init__(self) -> None:
        self.key: str | None = None
        #: Usage statistics (:func:`collect_stats`) of the generated run,
        #: set once the producer has sent them.
        self.stats: dict | None = None
        #: Segment name -> its compressed chunk frames, in stream order.
        self.frames: dict[str, list[bytes]] = {}
        #: The first run's recorded shared prefix, or None.
        self.shared = None
        self._pid: int | None = None
        self._pipe = None
        #: Index into SEGMENTS of the segment the pipe delivers next.
        self._next = 0

    def produce(
        self,
        key: str,
        make_workload,
        warmup_requests: int,
        measured_requests: int,
        segments: tuple[str, ...] = SEGMENTS,
    ):
        """Fork a producer that generates the trace under trace key ``key``
        and return the three chunk streams it fills the tape with.

        The producer calls ``make_workload()`` and generates
        :func:`stream_segments` of it.  Only the segments named in
        ``segments`` are decoded; every frame is kept.  The streams must
        be taken in order; starting one first reads (and keeps) any
        segment before it that was not used up.
        """
        if self.key is not None:
            raise ConfigError("a trace tape is filled once")
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            try:
                # A collection would walk, and so copy, every page of the
                # inherited heap; generation leaves no cyclic garbage.
                gc.disable()
                os.close(read_fd)
                _produce(write_fd, make_workload, warmup_requests, measured_requests)
            finally:
                os._exit(0)
        os.close(write_fd)
        self.key = key
        self.frames = {seg: [] for seg in SEGMENTS}
        self._pid = pid
        self._pipe = open(read_fd, "rb")
        return tuple(self._receive(seg, seg in segments) for seg in SEGMENTS)

    def replay(self, key: str, segments: tuple[str, ...] = SEGMENTS):
        """The recorded chunk streams for a run under trace key ``key``.

        Segments not named in ``segments`` come back empty, as
        :meth:`TraceStore.load` leaves them out: a run that restores a
        warm machine passes ``("measured",)``.
        """
        if self.stats is None:
            raise ConfigError(
                "trace tape cannot replay: its measured stream was not used up"
            )
        if key != self.key:
            raise ConfigError(
                f"trace tape recorded under trace key {self.key[:12]} "
                f"cannot replay under {key[:12]}"
            )
        if not self.frames:
            raise ConfigError("a trace tape replays once")
        frames, self.frames = self.frames, {}
        return tuple(
            _playback(frames[seg]) if seg in segments else ()
            for seg in SEGMENTS
        )

    def close(self) -> None:
        """Stop the producer: reap it, killing it first if it may still run."""
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid is not None:
            pid, self._pid = self._pid, None
            with contextlib.suppress(ChildProcessError):
                if self.stats is None:  # stopped before the end of the trace
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        return
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _receive(self, segment: str, decode: bool):
        """The frames of ``segment`` as they arrive, kept on the tape and
        decoded if ``decode``; the statistics follow the last segment."""
        index = SEGMENTS.index(segment)
        while self._next < index:
            for _ in self._frames(SEGMENTS[self._next]):
                pass
        for i, frame in enumerate(self._frames(segment)):
            if decode:
                yield _decode(frame, i)
        if index == len(SEGMENTS) - 1:
            kind, payload = self._read()
            if kind != _STATS:
                raise TraceCorruptionError(
                    f"trace producer sent a {kind!r} message in place of its statistics"
                )
            self.stats = pickle.loads(payload)
            self.close()  # the producer exits once it has sent them

    def _frames(self, segment: str):
        """Read ``segment``'s frames up to its empty frame, keeping each."""
        kept = self.frames[segment]
        while True:
            kind, frame = self._read()
            if kind != _FRAME:
                raise TraceCorruptionError(
                    f"trace producer sent a {kind!r} message inside segment {segment!r}"
                )
            if not frame:
                break
            kept.append(frame)
            yield frame
        self._next += 1

    def _read(self) -> tuple[bytes, bytes]:
        """The next message from the producer; re-raises its exception."""
        if self._pipe is None:
            raise ConfigError("trace tape has no producer to read from")
        header = self._pipe.read(_HEADER.size)
        payload = b""
        if len(header) == _HEADER.size:
            kind, size = _HEADER.unpack(header)
            payload = self._pipe.read(size)
        if len(header) < _HEADER.size or len(payload) < size:
            raise TraceCorruptionError("trace producer ended before the trace did")
        if kind == _ERROR:
            exc, text = pickle.loads(payload)
            if hasattr(exc, "add_note"):
                exc.add_note(f"raised in the trace producer:\n{text}")
            raise exc
        return kind, payload


#: Producer message kinds: a chunk frame (an empty one ends a segment),
#: the usage statistics, and the exception that stopped the producer.
_FRAME, _STATS, _ERROR = b"f", b"s", b"e"
#: A message header: its kind and its payload's length in bytes.
_HEADER = struct.Struct("<cQ")


def _produce(fd: int, make_workload, warmup_requests: int, measured_requests: int) -> None:
    """The producer's work, in the forked child: link, generate and send
    every chunk, then the usage statistics; on any exception, send it."""
    try:
        workload = make_workload()
        for stream in stream_segments(workload, warmup_requests, measured_requests):
            for chunk in stream:
                _send(fd, _FRAME, zlib.compress(chunk.to_bytes(), 1))
            _send(fd, _FRAME, b"")
        _send(fd, _STATS, pickle.dumps(collect_stats(workload)))
    except BaseException as exc:
        _send(fd, _ERROR, _pickled_error(exc))


def _send(fd: int, kind: bytes, payload: bytes) -> None:
    data = memoryview(_HEADER.pack(kind, len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` and its traceback text, pickled; an exception that does not
    survive pickling is sent as an :class:`ExperimentError` naming it."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        payload = pickle.dumps((exc, text))
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(
            (ExperimentError(f"trace producer failed: {type(exc).__name__}: {exc}"), text)
        )
    return payload


def _decode(frame: bytes, i: int) -> TraceBatch:
    try:
        raw = zlib.decompress(frame)
    except zlib.error as exc:
        raise TraceCorruptionError(f"trace tape frame {i} does not decompress: {exc}") from exc
    return TraceBatch.from_bytes(raw, source=f"<tape frame {i}>")


def _playback(frames: list[bytes]):
    """Decode ``frames`` in order, dropping each one as it is decoded."""
    for i in range(len(frames)):
        frame, frames[i] = frames[i], b""
        yield _decode(frame, i)


def _is_damage(exc: Exception) -> bool:
    """Whether a failed load shows the entry itself is bad.

    The codec reports an unreadable segment as a
    :class:`TraceCorruptionError` raised from the ``OSError``; of read
    errors only a missing file is damage.  Any other (``EMFILE``,
    ``EIO``) may pass, so the entry is left as it is.
    """
    cause = exc.__cause__ if isinstance(exc, TraceCorruptionError) else exc
    return not isinstance(cause, OSError) or isinstance(cause, FileNotFoundError)


def _drop_marker(marker: Path, seen: os.stat_result) -> None:
    """Unlink ``marker`` if it is still the open file ``seen`` describes.

    ``os.replace`` commits a new marker as a new inode, and the caller
    still holds the old one open, so a marker that another loader's
    repair committed since the read never matches and stays.
    """
    try:
        now = marker.stat()
    except OSError:
        return
    if os.path.samestat(now, seen):
        with contextlib.suppress(OSError):
            marker.unlink()


class TraceStore:
    """Directory of content-addressed :class:`TraceBundle` entries.

    Safe for concurrent fill by campaign shards: every write lands via
    ``os.replace`` (the codec's save is already atomic; the sidecar uses
    the same pattern here), so the racy first-fill is benign — last
    writer wins with byte-identical content.  Once an entry's
    ``meta.json`` commit marker exists, :meth:`save` refuses to rewrite
    it: a late second writer replacing segment files under a concurrent
    reader would otherwise let the reader pass :meth:`has` and then load
    a mix of old and new segment files.  Only :meth:`load` removes a
    marker, and only the one it read: when a segment it read is damaged
    or missing, or the marker itself does not parse.  A transient read
    error leaves the marker in place, and so does a marker replaced
    since the read — a concurrent loader's repair committed it over good
    segments.  A repair committed in the instant between that check and
    the unlink is lost, which costs one more regeneration, never a wrong
    result.

    The ``hits``/``misses`` counters tally :meth:`load` outcomes for the
    lifetime of this instance (corruption counts as a miss), so callers
    can report cache effectiveness without instrumenting every call site.
    """

    def __init__(self, root: str | Path, recorder=None) -> None:
        self.root = Path(root)
        self.recorder = recorder
        self.hits = 0
        self.misses = 0

    def entry_dir(self, key: str) -> Path:
        # Two-level fanout keeps directory listings sane at campaign scale.
        return self.root / key[:2] / key

    # ----------------------------------------------------------------- load

    def has(self, key: str) -> bool:
        """Cheap presence probe: the commit marker exists.

        Does not validate the payload — a corrupt entry still reads as
        present here and becomes a miss (and is regenerated) on
        :meth:`load`.  Meant for a campaign pre-pass, not correctness.
        """
        return (self.entry_dir(key) / "meta.json").exists()

    def load(self, key: str, segments: tuple[str, ...] = SEGMENTS) -> TraceBundle | None:
        """The stored bundle, or ``None`` on miss or corruption.

        Only the named ``segments`` (and ``meta.json``) are read and
        checksum-validated; the others come back as ``None``.  A run
        that restores a warm machine passes ``("measured",)``.  On
        corruption the entry's commit marker is dropped, so the caller's
        :meth:`save` of the regenerated bundle repairs it.
        """
        entry = self.entry_dir(key)
        marker = entry / "meta.json"
        try:
            fh = open(marker, "rb")
        except OSError:
            self.misses += 1
            return None  # no completeness marker: miss (possibly mid-save)
        # The marker stays open until the entry is judged, so no marker
        # committed meanwhile can reuse its inode (see _drop_marker).
        with fh:
            try:
                stats = json.loads(fh.read())["stats"]
                batches = {seg: TraceBatch.load(entry / f"{seg}.trace") for seg in segments}
            except (TraceCorruptionError, OSError, ValueError, KeyError) as exc:
                self._record_corrupt(entry, exc)
                if _is_damage(exc):
                    _drop_marker(marker, os.fstat(fh.fileno()))
                self.misses += 1
                return None
        self.hits += 1
        return TraceBundle(*(batches.get(seg) for seg in SEGMENTS), stats)

    def cache_stats(self) -> dict:
        """Lifetime load outcomes: ``{"hits", "misses", "hit_rate"}``."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def _record_corrupt(self, entry: Path, exc: Exception) -> None:
        if self.recorder is None:
            return
        from repro.resilience.incidents import IncidentKind

        self.recorder.record(
            IncidentKind.TRACE_CORRUPT,
            f"trace-store entry {entry.name[:12]} failed to decode and will "
            f"be regenerated: {exc}",
            severity="warning",
            path=str(entry),
        )

    # ----------------------------------------------------------------- save

    def save(self, key: str, bundle: TraceBundle) -> Path:
        """Persist one bundle; the sidecar lands last as the commit mark.

        An already-committed entry (``meta.json`` present) is never
        rewritten: the store is content-addressed, so a second writer
        carries byte-identical segments, and replacing committed files
        would only open windows in which a concurrent reader — who
        passed :meth:`has` — sees a half-swapped entry.  Losing the race
        costs nothing; the first writer's bundle is the same bundle.
        """
        entry = self.entry_dir(key)
        if (entry / "meta.json").exists():
            return entry
        entry.mkdir(parents=True, exist_ok=True)
        # Each segment lands atomically (TraceBatch.save), so readers
        # only ever observe complete files; meta.json goes last as the
        # all-or-nothing commit marker.
        for seg, batch in zip(SEGMENTS, bundle.segments()):
            batch.save(entry / f"{seg}.trace")
        payload = json.dumps(
            {
                "store": TRACE_STORE_VERSION,
                "trace_format": TRACE_FORMAT_VERSION,
                "events": {
                    seg: len(batch.data)
                    for seg, batch in zip(SEGMENTS, bundle.segments())
                },
                "stats": bundle.stats,
            },
            sort_keys=True,
            indent=2,
        )
        atomic_write(entry / "meta.json", payload)
        return entry
