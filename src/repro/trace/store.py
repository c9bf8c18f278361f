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
sidecar so a cache hit can restore them without generating anything:
they are *generation* artifacts, invisible to simulation.

Corruption is a miss, never an exception: a bit-flipped or truncated
``.trace`` file is detected by the codec's section checksums, recorded
as a :class:`~repro.resilience.incidents.IncidentKind.TRACE_CORRUPT`
incident when a recorder is attached, and regenerated — always safe,
because generation is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import TraceCorruptionError
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
    """One workload's complete trace: three segments plus generation stats.

    The three segments are interdependent (the context-switch clock and
    binding state thread through all of them), so they are generated,
    stored and loaded all-or-nothing.
    """

    startup: TraceBatch
    warmup: TraceBatch
    measured: TraceBatch
    stats: dict

    def segments(self) -> tuple[TraceBatch, TraceBatch, TraceBatch]:
        return (self.startup, self.warmup, self.measured)

    @property
    def total_events(self) -> int:
        return sum(len(b.data) for b in self.segments())


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
    hit restores exactly what a cold run would have accumulated.
    """
    return {
        "touched_pairs": sorted([c, s] for c, s in workload.touched_pairs),
        "pair_counts": sorted(
            [c, s, n] for (c, s), n in workload.pair_counts.items()
        ),
        "calls_emitted": int(workload.engine.calls_emitted),
        "resolutions_emitted": int(workload.engine.resolutions_emitted),
    }


def apply_stats(stats: dict, workload) -> None:
    """Restore generation statistics onto a workload that never generated."""
    workload.touched_pairs.clear()
    workload.touched_pairs.update((c, s) for c, s in stats["touched_pairs"])
    workload.pair_counts.clear()
    workload.pair_counts.update({(c, s): n for c, s, n in stats["pair_counts"]})
    workload.engine.calls_emitted = int(stats["calls_emitted"])
    workload.engine.resolutions_emitted = int(stats["resolutions_emitted"])


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


class TraceStore:
    """Directory of content-addressed :class:`TraceBundle` entries.

    Safe for concurrent fill by campaign shards: every write lands via
    ``os.replace`` (the codec's save is already atomic; the sidecar uses
    the same pattern here), so the racy first-fill is benign — last
    writer wins with byte-identical content.  Once an entry's
    ``meta.json`` commit marker exists, :meth:`save` refuses to rewrite
    it: a late second writer replacing segment files under a concurrent
    reader would otherwise let the reader pass :meth:`has` and then load
    a mix of old and new segment files.

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
        :meth:`load`.  Meant for prefill planning, not correctness.
        """
        return (self.entry_dir(key) / "meta.json").exists()

    def load(self, key: str) -> TraceBundle | None:
        """The stored bundle, or ``None`` on miss or corruption."""
        entry = self.entry_dir(key)
        try:
            raw_meta = (entry / "meta.json").read_bytes()
        except OSError:
            self.misses += 1
            return None  # no completeness marker: miss (possibly mid-save)
        try:
            meta = json.loads(raw_meta)
            stats = meta["stats"]
            batches = [TraceBatch.load(entry / f"{seg}.trace") for seg in SEGMENTS]
        except (TraceCorruptionError, OSError, ValueError, KeyError) as exc:
            self._record_corrupt(entry, exc)
            self.misses += 1
            return None
        self.hits += 1
        return TraceBundle(batches[0], batches[1], batches[2], stats)

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
        # Each segment lands via tempfile + os.replace (inside
        # TraceBatch.save), so readers only ever observe complete files;
        # meta.json goes last as the all-or-nothing commit marker.
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
        fd, tmp = tempfile.mkstemp(dir=entry, prefix=".meta-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, entry / "meta.json")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return entry
