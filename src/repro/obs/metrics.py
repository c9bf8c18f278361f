"""Time-series metrics: counters and ring-buffered series.

The registry turns the model's end-of-run :class:`~repro.uarch.counters.
PerfCounters` totals into *plottable time series*: a
:class:`PerfCounterSampler` snapshots counter deltas every N instructions
into ring-buffered :class:`TimeSeries`, so ABTB warm-up transients, flush
storms and Bloom-filter saturation become curves instead of single
numbers.

Exporters: JSON-lines (one metric object per line, trivially greppable /
pandas-loadable) and Prometheus text exposition format (for anything that
scrapes ``.prom`` files).

Nothing here touches the CPU's hot loop: sampling piggybacks on the event
stream via :func:`sampled`, a generator wrapper that only exists when the
user asked for sampling.  Disabled observability runs the unwrapped
stream — the fast path is the absence of this module.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.isa.events import TraceEvent
from repro.resilience.integrity import atomic_write
from repro.uarch.cpu import CPU

#: Counter fields the sampler tracks — the structures the paper's
#: Table 4 and Figures 5-8 argue about.
DEFAULT_SAMPLED_FIELDS = (
    "l1i_misses",
    "itlb_misses",
    "branch_mispredictions",
    "trampolines_executed",
    "trampolines_skipped",
    "abtb_hits",
    "abtb_misses",
    "abtb_flushes",
    "got_loads",
)


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease (got {amount})")
        self.value += amount


class TimeSeries:
    """A ring-buffered (t, value) series: old points fall off the front."""

    kind = "series"

    def __init__(self, name: str, capacity: int = 4096, help: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"series {name}: capacity must be positive")
        self.name = name
        self.help = help
        self.capacity = capacity
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        #: Total points ever appended (drops = appended - len).
        self.appended = 0

    def append(self, t: float, value: float) -> None:
        self._points.append((float(t), float(value)))
        self.appended += 1

    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    def timestamps(self) -> list[float]:
        return [p[0] for p in self._points]

    def values(self) -> list[float]:
        return [p[1] for p in self._points]

    def __len__(self) -> int:
        return len(self._points)


class MetricsRegistry:
    """Named metrics, get-or-create style.

    ``registry.counter("faults_injected").inc()`` — creating and updating
    are the same call, so instrumentation sites stay one line.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | TimeSeries] = {}

    def _get(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(f"metric {name!r} already registered as {existing.kind}")
            return existing
        created = factory()
        self._metrics[name] = created
        return created

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def series(self, name: str, help: str = "", capacity: int = 4096) -> TimeSeries:
        return self._get(name, TimeSeries, lambda: TimeSeries(name, capacity, help))

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------- worker merging

    def state_dict(self) -> dict:
        """JSON-safe dump of every metric, for cross-process aggregation.

        Campaign workers run with their own registry and ship this dict
        back to the parent, which folds it in with :meth:`merge_state`.
        """
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            record: dict[str, object] = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Counter):
                record["value"] = metric.value
            else:
                record["capacity"] = metric.capacity
                record["points"] = [[t, v] for t, v in metric.points()]
                record["appended"] = metric.appended
            out[name] = record
        return out

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`state_dict` into this registry.

        Counters sum and series extend with the worker's points.  A kind
        mismatch raises ValueError rather than merge nonsense.
        """
        for name in sorted(state):
            record = state[name]
            kind = record["kind"]
            help_text = record.get("help", "")
            if kind == "counter":
                self.counter(name, help_text).value += float(record["value"])
            elif kind == "series":
                series = self.series(name, help_text, capacity=int(record["capacity"]))
                points = record["points"]
                for t, v in points:
                    series.append(t, v)
                # Preserve the worker's drop count (appends beyond capacity).
                series.appended += int(record["appended"]) - len(points)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")

    # ----------------------------------------------------------- exporters

    def to_jsonl(self) -> str:
        """One JSON object per metric per line."""
        lines = []
        for name in self.names():
            metric = self._metrics[name]
            record: dict[str, object] = {"name": name, "kind": metric.kind}
            if isinstance(metric, Counter):
                record["value"] = metric.value
            else:
                record["points"] = [[t, v] for t, v in metric.points()]
                record["appended"] = metric.appended
            lines.append(json.dumps(record))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format.

        Every family gets a ``# HELP`` (the metric's help text, or a
        generated placeholder — the exposition format expects HELP before
        TYPE for each family) and a ``# TYPE``.  Series export their most
        recent value as a gauge (Prometheus scrapes are point-in-time);
        the full history lives in the JSONL export.
        """
        out: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            prom = _prom_name(name)
            if isinstance(metric, Counter):
                kind, value = "counter", metric.value
            else:
                kind, value = "gauge", metric.values()[-1] if len(metric) else 0.0
            text = metric.help or f"repro metric {prom}"
            out.append(f"# HELP {prom} {_prom_escape_help(text)}")
            out.append(f"# TYPE {prom} {kind}")
            out.append(f"{prom} {_prom_value(value)}")
        return "\n".join(out) + ("\n" if out else "")

    def write(self, path: str) -> None:
        """Write the registry to ``path``; ``.prom`` selects Prometheus
        text format, anything else JSON-lines.

        The write is atomic (:func:`~repro.resilience.integrity.
        atomic_write`): a scraper reading the ``.prom`` file mid-export
        sees the old complete file or the new one, never a torn mix.
        """
        atomic_write(path, self.to_prometheus() if path.endswith(".prom") else self.to_jsonl())


def _prom_name(name: str) -> str:
    """Sanitise a metric name for Prometheus (dots/dashes → underscores;
    a leading digit gets an underscore prefix per the name grammar)."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"_{safe}" if safe[:1].isdigit() else safe


def _prom_escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline, per the format spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_value(value: float) -> str:
    return repr(float(value))


class PerfCounterSampler:
    """Snapshots :class:`PerfCounters` deltas every N instructions.

    Each sample appends, per field of :data:`DEFAULT_SAMPLED_FIELDS`,
    two points timestamped by the
    cumulative instruction count:

    * ``<prefix><field>_pki`` — cumulative per-kilo-instruction rate (the
      paper's normalisation; smooth, ideal for warm-up curves);
    * ``<prefix><field>_pki_window`` — the rate *within* the sampling
      window (spiky, ideal for spotting flush storms and fault impact).

    Plus ``<prefix>cpi`` (cumulative cycles per instruction).  When a
    tracer is attached, every sample also lands as a Perfetto counter
    track on the simulated clock.
    """

    def __init__(
        self,
        cpu: CPU,
        registry: MetricsRegistry,
        every: int,
        prefix: str = "",
        tracer=None,
        tracer_tid: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError(f"sample interval must be positive, got {every}")
        self.cpu = cpu
        self.registry = registry
        self.every = every
        self.prefix = prefix
        self.tracer = tracer
        self.tracer_tid = tracer_tid
        self.samples_taken = 0
        self._last = cpu.counters.copy()
        self._next_at = cpu.counters.instructions + every

    def due(self) -> bool:
        return self.cpu.counters.instructions >= self._next_at

    def sample(self) -> None:
        """Record one snapshot unconditionally (also used at end-of-run)."""
        counters = self.cpu.counters
        counters.cycles = self.cpu.cycles  # keep CPI fresh mid-run
        t = float(counters.instructions)
        window = counters.delta(self._last)
        reg = self.registry
        for field in DEFAULT_SAMPLED_FIELDS:
            cumulative = counters.pki(field)
            reg.series(f"{self.prefix}{field}_pki").append(t, cumulative)
            reg.series(f"{self.prefix}{field}_pki_window").append(t, window.pki(field))
            if self.tracer is not None:
                self.tracer.counter(
                    f"{self.prefix}{field}_pki",
                    cumulative,
                    ts=counters.cycles,
                    tid=self.tracer_tid,
                )
        reg.series(f"{self.prefix}cpi").append(t, counters.cpi)
        if self.tracer is not None:
            self.tracer.counter(
                f"{self.prefix}cpi", counters.cpi, ts=counters.cycles, tid=self.tracer_tid
            )
        self.samples_taken += 1
        self._last = counters.copy()
        self._next_at = counters.instructions + self.every


def sampled(
    events: Iterable[TraceEvent], sampler: PerfCounterSampler
) -> Iterator[TraceEvent]:
    """Wrap an event stream so ``sampler`` fires on instruction intervals.

    The check runs as the CPU pulls each next event — i.e. after it has
    retired the previous one — so samples land within one event of the
    exact interval boundary.  A final sample is taken when the stream
    ends, so short runs always produce at least one point.
    """
    for ev in events:
        if sampler.due():
            sampler.sample()
        yield ev
    sampler.sample()


def warmup_shape(
    values: Sequence[float],
    min_rise: float = 1.5,
    tail_frac: float = 0.25,
    tail_tol: float = 0.15,
    dip_tol: float = 0.10,
) -> bool:
    """Does a series look like a warm-up transient — rising, then stable?

    Checks three properties of e.g. a cumulative ``abtb_hits_pki`` curve:

    * the plateau is at least ``min_rise`` times the first sample
      (a transient actually happened);
    * the final ``tail_frac`` of samples stay within ``tail_tol``
      (relative) of their mean (it plateaued);
    * no sample dips more than ``dip_tol`` below the running maximum
      (monotone rise, modulo sampling noise).
    """
    if len(values) < 4:
        return False
    first, last = values[0], values[-1]
    if last <= 0:
        return False
    if first > 0 and last / first < min_rise:
        return False
    if first <= 0 and last <= 0:
        return False
    tail = values[-max(2, int(len(values) * tail_frac)):]
    mean = sum(tail) / len(tail)
    if mean <= 0 or any(abs(v - mean) > tail_tol * mean for v in tail):
        return False
    running_max = values[0]
    for v in values:
        if v < running_max * (1.0 - dip_tol):
            return False
        running_max = max(running_max, v)
    return True
