"""Structured tracing: spans and instant events, exported as Chrome trace JSON.

A :class:`Tracer` collects three kinds of records:

* **instant events** (``ph: "i"``) — point-in-time markers: a resolver
  run, a GOT write, a chaos fault landing;
* **spans** — durations, either measured live on the host clock
  (:meth:`Tracer.span`) or reconstructed on the *simulated* clock from
  begin/end data (:meth:`Tracer.complete`), e.g. per-request windows
  rebuilt from the CPU's mark stream;
* **counter tracks** (``ph: "C"``) — sampled values over time, which
  Perfetto renders as little line charts (ABTB warm-up curves, PKI
  series).

The export format is the Chrome trace-event JSON object format
(``{"traceEvents": [...]}``), loadable in Perfetto / ``chrome://tracing``.
Host-clock records use microseconds since the tracer was created;
simulation-clock records pass an explicit ``ts`` (cycles).  The two live
on different ``pid`` tracks so their timebases never mix on one row.

Instrumented code guards every emission with ``if tracer is not None``,
so the disabled configuration pays nothing — there is no null-object
dispatch on any hot path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.resilience.integrity import atomic_write

#: ``pid`` of host-clock (wall time) records.
HOST_PID = 1
#: ``pid`` of simulation-clock (cycle time) records.
SIM_PID = 2


class Tracer:
    """Collects trace events; cheap to append to, exported once at the end.

    Args:
        clock: returns the current host timestamp in microseconds.
            Injectable for tests; defaults to ``time.perf_counter_ns``-based
            wall time, zeroed at construction.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.events: list[dict[str, Any]] = []
        if clock is None:
            t0 = time.perf_counter_ns()
            clock = lambda: (time.perf_counter_ns() - t0) / 1000.0  # noqa: E731
        self._clock = clock

    def now(self) -> float:
        """Current host-clock timestamp (microseconds)."""
        return float(self._clock())

    # ---------------------------------------------------------- emission

    def instant(
        self,
        name: str,
        category: str = "event",
        ts: float | None = None,
        tid: int = 1,
        pid: int | None = None,
        **args: Any,
    ) -> None:
        """A point-in-time event.  ``ts=None`` stamps it on the host clock;
        an explicit ``ts`` places it on the simulation-clock track."""
        self.events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "ts": self.now() if ts is None else float(ts),
                "pid": pid if pid is not None else (HOST_PID if ts is None else SIM_PID),
                "tid": tid,
                "args": args,
            }
        )

    @contextmanager
    def span(
        self, name: str, category: str = "span", tid: int = 1, **args: Any
    ) -> Iterator[None]:
        """A host-clock duration around a ``with`` block."""
        start = self.now()
        try:
            yield
        finally:
            self.events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": start,
                    "dur": max(self.now() - start, 0.0),
                    "pid": HOST_PID,
                    "tid": tid,
                    "args": args,
                }
            )

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        category: str = "span",
        tid: int = 1,
        **args: Any,
    ) -> None:
        """A simulation-clock duration reconstructed after the fact
        (e.g. one request window, in cycles)."""
        self.events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": float(ts),
                "dur": float(dur),
                "pid": SIM_PID,
                "tid": tid,
                "args": args,
            }
        )

    def counter(
        self, name: str, value: float, ts: float | None = None, tid: int = 1
    ) -> None:
        """One sample of a counter track (Perfetto draws these as charts)."""
        self.events.append(
            {
                "name": name,
                "cat": "metric",
                "ph": "C",
                "ts": self.now() if ts is None else float(ts),
                "pid": HOST_PID if ts is None else SIM_PID,
                "tid": tid,
                "args": {"value": float(value)},
            }
        )

    def thread_name(self, tid: int, name: str, pid: int = SIM_PID) -> None:
        """Label a track (shown as the row name in Perfetto)."""
        self.events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # ------------------------------------------------------------ export

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object."""
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": HOST_PID,
                "tid": 0,
                "args": {"name": "repro (host clock, us)"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": SIM_PID,
                "tid": 0,
                "args": {"name": "repro (simulated clock, cycles)"},
            },
        ]
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro observability tracer"},
        }

    def write(self, path: str) -> None:
        """Serialise the trace to ``path`` as Chrome trace JSON.

        Atomic (:func:`~repro.resilience.integrity.atomic_write`): a
        crash mid-export leaves the previous trace or none, never a
        truncated JSON that Perfetto rejects.
        """
        atomic_write(path, json.dumps(self.to_chrome()))


#: Phases that require a ``dur`` field.
_DURATION_PHASES = frozenset({"X"})
#: Phases this tracer emits.
_KNOWN_PHASES = frozenset({"i", "X", "C", "M", "B", "E"})


def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema-check a Chrome trace JSON object; returns problem strings.

    An empty list means the payload is loadable by Perfetto: a dict with
    a ``traceEvents`` list whose entries carry ``name``/``ph``/``ts``/
    ``pid``/``tid`` (plus ``dur`` for complete events).
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph is not None and ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph in _DURATION_PHASES and "dur" not in ev:
            problems.append(f"event {i}: complete event without 'dur'")
        ts = ev.get("ts")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
    return problems
