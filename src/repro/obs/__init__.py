"""repro.obs — the cross-cutting observability layer.

Three pillars, all **off by default** with a null-sink fast path (the
disabled configuration constructs nothing and wraps nothing):

* :mod:`repro.obs.tracer` — structured tracing (spans + instant events)
  exported as Chrome trace-event JSON, loadable in Perfetto;
* :mod:`repro.obs.metrics` — time-series metrics: a registry of
  counters plus ring-buffered series fed by a
  :class:`~repro.obs.metrics.PerfCounterSampler` that snapshots
  :class:`~repro.uarch.counters.PerfCounters` deltas every N
  instructions; JSON-lines and Prometheus-text exporters;
* :mod:`repro.obs.profiler` — per-call-site / per-symbol attribution of
  trampoline cost, rendered as top-N "hot trampoline" tables.

:class:`Observability` is the session object the CLI builds from
``--trace-out`` / ``--metrics-out`` / ``--sample-every`` flags and the
``profile`` subcommand; library users can construct one directly and
pass it to :func:`repro.quick_comparison`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError
from repro.isa.events import TraceEvent
from repro.obs.dashboard import (
    load_snapshot_from_dir,
    render_dashboard,
    write_dashboard,
)
from repro.obs.metrics import (
    DEFAULT_SAMPLED_FIELDS,
    Counter,
    MetricsRegistry,
    PerfCounterSampler,
    TimeSeries,
    sampled,
    warmup_shape,
)
from repro.obs.profiler import SiteStats, TrampolineProfiler
from repro.obs.tracer import Tracer, validate_chrome_trace
from repro.uarch.cpu import CPU, ChainedHooks, CPUHooks


class Observability:
    """One observability session: tracer + metrics + profiler, as enabled.

    Args:
        trace_out: path for the Chrome trace JSON (None disables tracing).
        metrics_out: path for the metrics export — ``.prom`` selects
            Prometheus text format, anything else JSON-lines.
        sample_every: instruction interval for counter sampling
            (0 disables; requires nothing else to be enabled).
        profile: collect per-call-site trampoline attribution.
    """

    def __init__(
        self,
        trace_out: str | None = None,
        metrics_out: str | None = None,
        sample_every: int = 0,
        profile: bool = False,
    ) -> None:
        if sample_every < 0:
            raise ConfigError(f"sample_every must be >= 0, got {sample_every}")
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.sample_every = sample_every
        self.tracer: Tracer | None = Tracer() if trace_out else None
        want_metrics = bool(metrics_out) or sample_every > 0
        self.metrics: MetricsRegistry | None = MetricsRegistry() if want_metrics else None
        self.profiler: TrampolineProfiler | None = TrampolineProfiler() if profile else None
        self.samplers: list[PerfCounterSampler] = []
        self._tids: dict[str, int] = {}

    @classmethod
    def from_flags(cls, args) -> "Observability | None":
        """Build a session from parsed CLI args; None when all-off."""
        trace_out = getattr(args, "trace_out", None)
        metrics_out = getattr(args, "metrics_out", None)
        sample_every = getattr(args, "sample_every", 0) or 0
        profile = bool(getattr(args, "profile", False))
        if not (trace_out or metrics_out or sample_every or profile):
            return None
        return cls(trace_out, metrics_out, sample_every, profile)

    # ------------------------------------------------------------- wiring

    def tid_for(self, label: str) -> int:
        """A stable per-label track id (registered as a Perfetto row name)."""
        tid = self._tids.get(label)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[label] = tid
            if self.tracer is not None:
                self.tracer.thread_name(tid, label)
        return tid

    def attach_workload(self, workload) -> None:
        """Wire the tracer into a built workload's linker and engine, and
        teach the profiler this workload's call-site names."""
        if self.tracer is not None:
            program = workload.program
            if hasattr(program, "attach_tracer"):
                program.attach_tracer(self.tracer)
            workload.engine.tracer = self.tracer
        if self.profiler is not None:
            self.profiler.site_names.update(
                (pc, f"{caller}:{symbol}")
                for pc, caller, symbol in workload.all_call_sites()
            )

    def hooks(self, *extra: CPUHooks | None) -> CPUHooks | None:
        """The hook object to hand a :class:`CPU` (None when nothing to
        observe); chains the profiler with any extra hooks given."""
        candidates = [self.profiler, *extra]
        present = [h for h in candidates if h is not None]
        if not present:
            return None
        if len(present) == 1:
            return present[0]
        return ChainedHooks(*present)

    def sampler(self, cpu: CPU, label: str) -> PerfCounterSampler | None:
        """A registered counter sampler for one stream of ``label`` on
        ``cpu`` (None when sampling is off).  The batched runner fires it
        from the backend's sync points; see
        :func:`repro.experiments.runner.retire`."""
        if self.sample_every <= 0 or self.metrics is None:
            return None
        sampler = PerfCounterSampler(
            cpu,
            self.metrics,
            self.sample_every,
            prefix=f"{label}." if label else "",
            tracer=self.tracer,
            tracer_tid=self.tid_for(label) if label else 1,
        )
        self.samplers.append(sampler)
        return sampler

    def instrument(
        self, events: Iterable[TraceEvent], cpu: CPU, label: str
    ) -> Iterable[TraceEvent]:
        """Wrap an event stream for the reference interpreter with counter
        sampling for ``label``.

        Returns the stream unchanged when sampling is off — the null-sink
        fast path adds no generator frame.
        """
        sampler = self.sampler(cpu, label)
        return events if sampler is None else sampled(events, sampler)

    def incident_recorder(self):
        """An :class:`~repro.resilience.incidents.IncidentRecorder` wired
        into this session's metrics and tracer: every recorded incident
        bumps ``incidents.*`` counters and lands as an instant event on
        the trace timeline."""
        from repro.resilience.incidents import IncidentRecorder

        return IncidentRecorder(metrics=self.metrics, tracer=self.tracer)

    def finish_run(self, cpu: CPU, label: str, marks_from: int = 0) -> None:
        """Reconstruct per-request spans from the CPU's mark stream onto
        the simulated-clock track for ``label``."""
        if self.tracer is None:
            return
        emit_request_spans(self.tracer, cpu, self.tid_for(label), marks_from)

    # ------------------------------------------------------------- export

    def export(self) -> list[str]:
        """Write the configured output files; returns the paths written."""
        written: list[str] = []
        if self.tracer is not None and self.trace_out:
            self.tracer.write(self.trace_out)
            written.append(self.trace_out)
        if self.metrics is not None and self.metrics_out:
            self.metrics.write(self.metrics_out)
            written.append(self.metrics_out)
        return written


def emit_request_spans(
    tracer: Tracer, cpu: CPU, tid: int, marks_from: int = 0
) -> int:
    """Convert begin/end marks into simulated-clock spans; returns count.

    Marks carry ``(phase, class_name, request_id)`` tags (see
    :meth:`repro.workloads.base.Workload.trace`); unmatched marks are
    skipped — tracing is diagnostics, not accounting.
    """
    emitted = 0
    open_marks: dict[object, tuple[str, float]] = {}
    for mark in cpu.marks[marks_from:]:
        tag = mark.tag
        if not (isinstance(tag, tuple) and len(tag) == 3):
            continue
        phase, class_name, request_id = tag
        if phase == "begin":
            open_marks[request_id] = (class_name, mark.cycles)
        elif phase == "end":
            opened = open_marks.pop(request_id, None)
            if opened is None:
                continue
            class_name, start = opened
            tracer.complete(
                f"request:{class_name}",
                start,
                max(mark.cycles - start, 0.0),
                category="request",
                tid=tid,
                request_id=request_id,
            )
            emitted += 1
    return emitted


__all__ = [
    "CPU",
    "ChainedHooks",
    "Counter",
    "DEFAULT_SAMPLED_FIELDS",
    "MetricsRegistry",
    "Observability",
    "PerfCounterSampler",
    "SiteStats",
    "TimeSeries",
    "Tracer",
    "TrampolineProfiler",
    "emit_request_spans",
    "load_snapshot_from_dir",
    "render_dashboard",
    "sampled",
    "validate_chrome_trace",
    "warmup_shape",
    "write_dashboard",
]
