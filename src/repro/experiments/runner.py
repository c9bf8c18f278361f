"""Shared measurement harness.

Mirrors the paper's methodology: start the program (resolving all GOT
entries), warm the server, then measure a steady-state window with
performance counters and per-request timestamps.  Base and enhanced runs
are built from identical configurations, so they consume *identical*
instruction traces — the measured delta is purely the microarchitectural
effect of the mechanism, exactly as in the paper's patched-vs-unpatched
comparison.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import CheckpointCorruptionError, ConfigError, ExperimentError
from repro.resilience.incidents import IncidentKind, IncidentRecorder
from repro.resilience.integrity import read_artifact, write_artifact
from repro.resilience.leases import LeasePolicy
from repro.resilience.workers import AttemptFailed, FaultPlan, LocalWorkers
from repro.trace.batch import TraceBatch
from repro.trace.engine import LinkMode
from repro.trace.store import (
    SEGMENTS,
    TraceStore,
    TraceTape,
    collect_stats,
    generate_bundle,
    stream_segments,
    trace_key,
)
from repro.uarch.backend import BatchedBackend
from repro.uarch.counters import PerfCounters, cycles_of
from repro.uarch.cpu import CPU, CPUConfig
from repro.uarch.machine import (
    MACHINE_STATE_VERSION,
    CheckpointStore,
    MachineState,
    SharedPrefix,
    machine_key,
)
from repro.uarch.timing import TimingModel
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload, WorkloadConfig


@dataclass(frozen=True)
class RequestSample:
    """One request observed in the measurement window."""

    class_name: str
    request_id: int
    instructions: int
    cycles: float


@dataclass
class RunResult:
    """Everything measured in one steady-state window."""

    label: str
    counters: PerfCounters
    requests: list[RequestSample]
    #: Generation usage statistics of the warm-up + measured windows, as
    #: :func:`~repro.trace.store.collect_stats` writes them into the trace
    #: store's sidecar: touched pairs, per-pair counts, calls and
    #: resolutions emitted (Table 3 / Figure 4).
    usage: dict
    cpu: CPU
    mechanism: TrampolineSkipMechanism | None = None
    #: Begin/end marks that had no partner in the window (0 for a healthy
    #: trace; counted, not silently dropped).
    unmatched_marks: int = 0
    #: Request samples discarded for non-finite or negative cycle deltas.
    dropped_samples: int = 0

    def requests_of(self, class_name: str) -> list[RequestSample]:
        """Samples of one request class."""
        return [r for r in self.requests if r.class_name == class_name]

    def class_names(self) -> list[str]:
        """Distinct request classes observed, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.requests:
            seen.setdefault(r.class_name, None)
        return list(seen)

    def latencies_us(
        self,
        class_name: str | None = None,
        timing: TimingModel | None = None,
        noise_sigma: float = 0.0,
        noise_seed: int = 7,
    ) -> list[float]:
        """Per-request response times in microseconds.

        ``noise_sigma`` adds lognormal service-time dispersion (queueing,
        interrupts) keyed by *request id*, so base and enhanced runs get
        identical noise draws (common random numbers) and their latency
        difference stays purely microarchitectural.
        """
        timing = timing if timing is not None else TimingModel()
        samples = self.requests if class_name is None else self.requests_of(class_name)
        out = []
        for r in samples:
            # A sample with a non-finite or negative cycle delta (clock
            # skew, a corrupted mark) would poison every percentile
            # downstream; exclude it rather than propagate it.
            if not math.isfinite(r.cycles) or r.cycles < 0:
                continue
            us = timing.cycles_to_microseconds(r.cycles)
            if noise_sigma > 0:
                rng = np.random.default_rng(np.random.SeedSequence([noise_seed, r.request_id]))
                us *= float(np.exp(rng.normal(0.0, noise_sigma)))
            out.append(us)
        return out

    @property
    def skip_rate(self) -> float:
        """Fraction of trampoline executions avoided in the window."""
        total = self.counters.trampolines_skipped + self.counters.trampolines_executed
        return self.counters.trampolines_skipped / total if total else 0.0


def warmup_machine_key(
    config: WorkloadConfig,
    mode: LinkMode,
    cpu_config: CPUConfig,
    mechanism_config: MechanismConfig | None,
    warmup_requests: int,
) -> str:
    """Checkpoint-store key for one warmed-up machine configuration.

    Covers everything that determines post-warm-up state: the workload
    recipe (seed included), link mode, full CPU geometry, mechanism
    configuration (None for a base machine) and warm-up length.  Machines
    that differ in any of these can never share a checkpoint.
    """
    return machine_key(
        kind="warmup",
        version=MACHINE_STATE_VERSION,
        workload=asdict(config),
        mode=mode.value,
        cpu=cpu_config.as_dict(),
        mechanism=asdict(mechanism_config) if mechanism_config is not None else None,
        warmup_requests=warmup_requests,
    )


def _cut_at_intervals(chunks, every: int, cuts: deque):
    """Slice ``chunks`` just after each row where the cumulative
    ``n_instr`` column crosses a multiple of ``every``; the stream
    position past each such row is appended to ``cuts`` before the slice
    ending there is handed on."""
    total = 0
    position = 0
    for chunk in chunks:
        data = chunk.data
        cum = np.cumsum(data["n_instr"]) + total
        crossings = np.flatnonzero(np.diff(cum // every, prepend=total // every)) + 1
        start = 0
        for end in crossings.tolist():
            cuts.append(position + end)
            yield TraceBatch(data[start:end], chunk.tags)
            start = end
        if start < len(data):
            yield TraceBatch(data[start:], chunk.tags)
        if len(data):
            total = int(cum[-1])
        position += len(data)


def retire(cpu: CPU, chunks, sampler=None, prefix=None) -> int:
    """Retire a stream of :class:`~repro.trace.batch.TraceBatch` chunks
    on ``cpu`` through :meth:`BatchedBackend.run_batches`; returns the
    number of events retired.

    This is how every production run retires events.  ``sampler`` (a
    :class:`~repro.obs.metrics.PerfCounterSampler`) samples at the first
    batch sync point after every ``sampler.every`` trace instructions —
    batches are cut where the cumulative ``n_instr`` column crosses each
    boundary — and once more at the end of the stream.  Without one, the
    backend runs with no sync hook.

    ``prefix`` (a :class:`~repro.uarch.machine.SharedPrefix`) is passed
    to ``run_batches``.  An adopting one leaves the memory side stale at
    the sync points before its recorded row, so a ``sampler``, which
    reads counts at sync points, never runs with one (obs sessions take
    no tape).
    """
    backend = BatchedBackend(cpu)
    if sampler is None:
        backend.run_batches(chunks, prefix=prefix)
        return backend.position
    cuts: deque = deque()
    sampled_at = None

    def on_sync(position: int) -> None:
        nonlocal sampled_at
        if cuts and position >= cuts[0]:
            while cuts and position >= cuts[0]:
                cuts.popleft()
            sampler.sample()
            sampled_at = position

    backend.run_batches(
        _cut_at_intervals(chunks, sampler.every, cuts), sync_hook=on_sync, prefix=prefix
    )
    if sampled_at != backend.position:
        sampler.sample()
    return backend.position


def _legacy_segments(workload: Workload, warmup_requests: int, measured_requests: int):
    """Iterator twins of :func:`~repro.trace.store.stream_segments` (the
    reference oracle's input), with the same ordering contract."""

    def startup():
        yield from workload.startup_trace()
        workload.reset_usage_stats()

    return (
        startup(),
        workload.trace(warmup_requests, include_marks=False),
        workload.trace(measured_requests, start_id=warmup_requests),
    )


def run_workload(
    config: WorkloadConfig,
    mechanism: TrampolineSkipMechanism | None = None,
    warmup_requests: int = 10,
    measured_requests: int = 50,
    cpu_config: CPUConfig | None = None,
    mode: LinkMode = LinkMode.DYNAMIC,
    label: str | None = None,
    strict_marks: bool = False,
    obs=None,
    obs_label: str | None = None,
    machine_cache: CheckpointStore | None = None,
    trace_cache: TraceStore | None = None,
    backend: str = "batched",
    tape: TraceTape | None = None,
) -> RunResult:
    """Run startup + warmup, then measure a steady-state window.

    Generation is array-native and retirement batched (:func:`retire`):
    with no ``trace_cache`` the workload's startup, warm-up and measured
    windows stream straight into the backend chunk by chunk, so the
    generated rows held at once stay bounded by about one batch.

    ``strict_marks=True`` turns unmatched begin/end marks in the window
    into an :class:`ExperimentError`; otherwise they are counted on the
    result (``unmatched_marks``) and the affected requests excluded.

    ``obs`` is an optional :class:`repro.obs.Observability` session: the
    profiler hooks onto the CPU, the counter sampler rides every phase of
    the run (startup included — that is where the ABTB warm-up transient
    lives), and request windows become trace spans.  An obs session
    bypasses both caches, because a cache hit skips the work it observes.

    ``machine_cache`` enables warm-up reuse: startup + warm-up state is
    checkpointed per machine configuration, and a later run with the
    *identical* configuration restores it instead of re-simulating —
    the trace generator is drained to the same position (generation is
    stateful and cannot be skipped), so the measurement window is
    counter-for-counter identical to an uncached run.

    ``trace_cache`` (a :class:`~repro.trace.store.TraceStore`) stores the
    three generated segments through the binary codec; every later run
    with the identical recipe *loads* them instead of generating, and
    links no program: the result's ``usage`` is the stored sidecar.
    Combined with a ``machine_cache`` hit, the run reduces to restoring
    the warm machine and retiring the measured batch, and only that
    segment is read from the store.

    ``tape`` (a :class:`~repro.trace.store.TraceTape`) is how
    :func:`run_pair` links and generates an uncached pair's trace once.
    With a fresh tape this run builds no :class:`Workload`: a forked
    producer links the program and generates the trace, and this run
    retires each chunk as it arrives while the tape keeps every frame,
    start-up and warm-up included even when a ``machine_cache`` hit
    leaves them unretired.  A tape whose first run used up its measured
    stream is replayed instead: this run links no program, generates
    nothing, and reports the producer's ``usage``; replay checks that the
    tape was filled under this run's trace key.  A tape replaces
    generation on the batched path only, so it is refused together with
    ``trace_cache``, ``obs`` or ``backend="reference"``.

    A taped run that simulates start-up and warm-up also shares them:
    the first run records its memory side on the tape as a
    :class:`~repro.uarch.machine.SharedPrefix` (before its first span
    that skips a trampoline or holds a ``MARK``, and at the end of
    warm-up at the latest), and a replaying run on a base machine runs
    only the control pass up to that row and adopts the record there.
    A run that restores a warm machine neither records nor adopts.

    ``backend="reference"`` is the test oracle, not a production path:
    the legacy event iterators retire on the reference interpreter
    (:meth:`CPU.run`).  It honours ``machine_cache`` and the profiler,
    and ignores ``trace_cache`` and counter sampling.
    Equivalence of the two is enforced by :mod:`repro.difftest` and the
    golden-counter tests.
    """
    if backend not in ("batched", "reference"):
        raise ConfigError(f"unknown backend {backend!r}; expected 'batched' or 'reference'")
    if tape is not None and (trace_cache is not None or obs is not None or backend != "batched"):
        raise ConfigError(
            "a trace tape replaces generation on the batched path only: "
            "not with trace_cache, obs or backend='reference'"
        )
    label = label or ("enhanced" if mechanism else "base")
    obs_label = obs_label or label
    if obs is not None:
        machine_cache = trace_cache = None
    # A run with a trace cache links the program only on a miss (below),
    # and a taped run links none here.
    workload = (
        Workload(config, mode)
        if backend == "reference" or (trace_cache is None and tape is None)
        else None
    )
    cpu = CPU(cpu_config, mechanism, hooks=obs.hooks() if obs is not None else None)
    if obs is not None:
        obs.attach_workload(workload)

    cache_key = None
    state = None
    if machine_cache is not None:
        cache_key = warmup_machine_key(
            config, mode, cpu.config,
            mechanism.config if mechanism is not None else None,
            warmup_requests,
        )
        state = machine_cache.load(cache_key)

    usage = None
    prefix = None
    if backend == "reference":
        segments = _legacy_segments(workload, warmup_requests, measured_requests)
    elif trace_cache is not None:
        # Generation usage statistics travel in the store's sidecar, so a
        # hit never builds the workload or touches its generators at all.
        # A warm machine retires only the measured window, so only that
        # segment is read.
        bundle_key = trace_key(config, mode, warmup_requests, measured_requests)
        bundle = trace_cache.load(
            bundle_key, ("measured",) if state is not None else SEGMENTS
        )
        if bundle is None:
            bundle = generate_bundle(Workload(config, mode), warmup_requests, measured_requests)
            trace_cache.save(bundle_key, bundle)
        usage = bundle.stats
        segments = [() if batch is None else (batch,) for batch in bundle.segments()]
    elif tape is not None:
        # A warm machine retires only the measured window; the other
        # segments are not decoded.
        key = trace_key(config, mode, warmup_requests, measured_requests)
        wanted = ("measured",) if state is not None else SEGMENTS
        if tape.key is None:
            segments = tape.produce(
                key, partial(Workload, config, mode), warmup_requests, measured_requests, wanted
            )
            if state is None:
                prefix = tape.shared = SharedPrefix()
        else:
            segments = tape.replay(key, wanted)
            # A base machine never skips, so it probes what the recording
            # machine probed up to the recorded row.
            if state is None and tape.shared is not None and mechanism is None:
                prefix = tape.shared.handed_over()
    else:
        segments = stream_segments(workload, warmup_requests, measured_requests)
    startup, warmup, measured = segments

    def run(stream) -> None:
        if backend == "reference":
            cpu.run(stream)
            return
        sampler = obs.sampler(cpu, obs_label) if obs is not None else None
        retire(cpu, stream, sampler=sampler, prefix=prefix)

    try:
        if state is not None:
            # Warm machine found: advance the generator past startup and
            # warm-up without simulating, and restore the simulated state.
            for _ in chain(startup, warmup):
                pass
            state.restore_into(cpu)
        else:
            run(startup)
            if warmup_requests:
                run(warmup)
            if prefix is not None and not prefix.done:
                # The end of warm-up ends the shared prefix at the latest.
                if prefix.adopting:
                    prefix.adopt(cpu, prefix.offset)
                else:
                    prefix.record(cpu, prefix.offset)
        cpu.finalize()
        if state is None and machine_cache is not None:
            machine_cache.save(
                cache_key,
                MachineState.capture(
                    cpu,
                    meta={
                        "workload": config.name,
                        "mode": mode.value,
                        "label": label,
                        "warmup_requests": warmup_requests,
                    },
                ),
            )
        snapshot = cpu.counters.copy()
        marks_before = len(cpu.marks)
        run(measured)
    finally:
        if tape is not None:
            tape.close()
    cpu.finalize()
    if tape is not None:
        usage = tape.stats
    elif usage is None:
        usage = collect_stats(workload)
    if obs is not None:
        obs.finish_run(cpu, obs_label, marks_from=marks_before)
    window = cpu.counters.delta(snapshot)
    window.cycles = cycles_of(cpu.config, window)
    requests, unmatched, dropped = _pair_marks(cpu, marks_before, strict=strict_marks)
    return RunResult(
        label,
        window,
        requests,
        usage,
        cpu,
        mechanism,
        unmatched_marks=unmatched,
        dropped_samples=dropped,
    )


def _pair_recipe(
    workload_name: str, scale, seed: int | None = None
) -> tuple[WorkloadConfig, int, int]:
    """The workload config and the warm-up and measured window lengths
    that a side of a named workload's pair runs with."""
    try:
        module = ALL_WORKLOADS[workload_name]
    except KeyError:
        raise ConfigError(f"unknown workload {workload_name!r}") from None
    warmup = scale.warmup(workload_name)
    measured = scale.measured(workload_name)
    if warmup < 0:
        raise ConfigError(f"scale yields negative warmup ({warmup}) for {workload_name}")
    if measured < 1:
        raise ConfigError(
            f"scale yields an empty measurement window ({measured}) for {workload_name}"
        )
    config = module.config() if seed is None else module.config(seed=seed)
    return config, warmup, measured


def _run_side(
    label: str,
    workload_name: str,
    scale,
    abtb_entries: int = 256,
    cpu_config: CPUConfig | None = None,
    mechanism_config: MechanismConfig | None = None,
    seed: int | None = None,
    obs=None,
    **run_kwargs,
) -> RunResult:
    """One side of a named workload's pair, ``"base"`` or ``"enhanced"``,
    through :func:`run_workload`; ``run_kwargs`` are its caches,
    ``backend`` and ``tape``.  :func:`run_pair`, a
    campaign's pre-pass and its points all build their sides here."""
    config, warmup, measured = _pair_recipe(workload_name, scale, seed)
    mechanism = None
    if label == "enhanced":
        mechanism = TrampolineSkipMechanism(
            mechanism_config or MechanismConfig(abtb_entries=abtb_entries)
        )
    obs_label = f"{workload_name}/abtb={abtb_entries}/{label}" if obs is not None else None
    return run_workload(
        config, mechanism, warmup, measured, cpu_config,
        label=label, obs=obs, obs_label=obs_label, **run_kwargs,
    )


def _nonempty(base: RunResult) -> RunResult:
    """``base``, unless its measurement window retired nothing."""
    if base.counters.instructions == 0:
        raise ExperimentError("empty measurement window")
    return base


def run_pair(
    workload_name: str,
    scale,
    abtb_entries: int = 256,
    cpu_config: CPUConfig | None = None,
    mechanism_config: MechanismConfig | None = None,
    seed: int | None = None,
    obs=None,
    machine_cache: CheckpointStore | None = None,
    trace_cache: TraceStore | None = None,
    backend: str = "batched",
) -> tuple[RunResult, RunResult]:
    """Base vs enhanced over identical traces of a named workload.

    With a ``machine_cache``, each side's startup + warm-up is simulated
    once per machine configuration and restored thereafter: the base
    machine's checkpoint key has no mechanism field, so every ABTB size
    of one workload and CPU geometry restores one warm base machine.
    ``backend`` is passed through to :func:`run_workload`; warm-machine
    checkpoints are shareable between the production path and the oracle
    because the two are counter-for-counter equivalent.  A campaign goes
    one step further and runs a base side that several of its points
    share only once (see :func:`run_campaign`); those points never call
    this function.

    ``trace_cache`` shares *generated traces* the same way: the trace
    key covers only the workload recipe and window lengths — not the
    mechanism or ABTB size — so base and enhanced (and every ABTB sweep
    point) consume one stored byte-identical bundle.  Even a cold
    campaign generates each workload's trace exactly once.

    Without a ``trace_cache``, a batched pair still links its program
    and generates its trace once, on a
    :class:`~repro.trace.store.TraceTape` (see :func:`run_workload`).
    The enhanced side runs first: a forked producer generates the trace
    while it retires the chunks, and the base side replays the kept
    frames.  The base side also retires the shared start once: before
    the row where the enhanced run first skips a trampoline or meets a
    ``MARK`` (the end of warm-up at the latest), both machines fetch and
    load the same rows, so the base run runs only its control pass there
    and then adopts the enhanced machine's recorded caches, TLBs and
    memory counters.  Each side is still one :func:`run_workload` call.
    An ``obs`` session and ``backend="reference"`` take no tape; their
    sides run base first and each generates its own trace.
    """
    tape = (
        TraceTape()
        if backend == "batched" and obs is None and trace_cache is None
        else None
    )
    results = {}
    for label in ("enhanced", "base") if tape is not None else ("base", "enhanced"):
        results[label] = _run_side(
            label, workload_name, scale, abtb_entries, cpu_config, mechanism_config, seed,
            obs=obs, machine_cache=machine_cache, trace_cache=trace_cache,
            backend=backend, tape=tape,
        )
    return _nonempty(results["base"]), results["enhanced"]


def _pair_marks(
    cpu: CPU, marks_from: int, strict: bool = False
) -> tuple[list[RequestSample], int, int]:
    """Convert begin/end marks into per-request samples.

    Returns ``(samples, unmatched, dropped)``: *unmatched* counts end
    marks with no open begin plus begins never closed — previously these
    vanished silently, biasing tail percentiles toward whatever happened
    to pair up.  ``strict=True`` raises :class:`ExperimentError` on the
    first unmatched mark instead.  *dropped* counts samples excluded for
    non-finite or negative deltas.
    """
    out: list[RequestSample] = []
    open_marks: dict[int, tuple[str, int, float]] = {}
    unmatched = 0
    dropped = 0
    for mark in cpu.marks[marks_from:]:
        tag = mark.tag
        if not (isinstance(tag, tuple) and len(tag) == 3):
            continue
        phase, class_name, request_id = tag
        if phase == "begin":
            if request_id in open_marks:
                if strict:
                    raise ExperimentError(
                        f"duplicated begin mark for request {request_id}"
                    )
                unmatched += 1
            open_marks[request_id] = (class_name, mark.instructions, mark.cycles)
        elif phase == "end":
            if request_id not in open_marks:
                if strict:
                    raise ExperimentError(
                        f"end mark without begin for request {request_id}"
                    )
                unmatched += 1
                continue
            class_name, instr0, cyc0 = open_marks.pop(request_id)
            d_instr = mark.instructions - instr0
            d_cycles = mark.cycles - cyc0
            if d_instr < 0 or not math.isfinite(d_cycles) or d_cycles < 0:
                if strict:
                    raise ExperimentError(
                        f"request {request_id}: non-monotonic counters "
                        f"(d_instr={d_instr}, d_cycles={d_cycles})"
                    )
                dropped += 1
                continue
            out.append(RequestSample(class_name, request_id, d_instr, d_cycles))
    if open_marks:
        if strict:
            raise ExperimentError(
                f"{len(open_marks)} request(s) never ended: "
                f"{sorted(open_marks)[:5]}"
            )
        unmatched += len(open_marks)
    return out, unmatched, dropped


# --------------------------------------------------------------- campaigns
#
# A campaign sweeps (workload × ABTB size) pairs.  Long sweeps die in
# practice for boring reasons — a killed worker, a hung one, a pair that
# raises — so every pair runs as a lease from one
# :class:`~repro.resilience.leases.LeaseQueue`: an attempt runs once, a
# failed attempt goes back in line with backoff, and a pair that spends
# its failure budget is quarantined while the sweep moves on.  A JSON
# checkpoint (written atomically after every completed pair) lets a
# resume skip completed work.

#: Version 2: campaign checkpoints moved inside the integrity envelope
#: (schema header + content checksum; see repro.resilience.integrity).
CHECKPOINT_VERSION = 2
CHECKPOINT_SCHEMA = "repro.campaign-checkpoint"
MANIFEST_SCHEMA = "repro.campaign-manifest"
#: Version 2: no ``failed`` map; a pair that gave up is ``quarantined``.
MANIFEST_VERSION = 2


@dataclass
class CampaignResult:
    """Outcome of a (possibly resumed, possibly degraded) campaign."""

    completed: dict[str, dict] = field(default_factory=dict)
    #: Per executed pair: the lease attempt that completed it, or the
    #: failure count that quarantined it.
    attempts: dict[str, int] = field(default_factory=dict)
    resumed: int = 0  # pairs skipped because the checkpoint had them
    #: Shards the lease queue gave up on (key → failure details); the
    #: campaign still completes, *degraded*, with a partial manifest.
    quarantined: dict[str, dict] = field(default_factory=dict)
    #: Aggregated trace-store load outcomes across the parent and every
    #: worker ({"hits": n, "misses": n}); empty when no trace cache ran.
    cache_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    @property
    def trace_hit_rate(self) -> float:
        """Fraction of trace-store loads that hit (0.0 with no loads)."""
        hits = self.cache_stats.get("hits", 0)
        total = hits + self.cache_stats.get("misses", 0)
        return hits / total if total else 0.0

    @property
    def degraded(self) -> bool:
        """Completed, but missing quarantined shards."""
        return bool(self.quarantined)

    def render(self) -> str:
        lines = [
            f"campaign: {len(self.completed)} pair(s) done "
            f"({self.resumed} from checkpoint), {len(self.quarantined)} quarantined"
        ]
        for key, summary in sorted(self.completed.items()):
            speedup = summary.get("speedup")
            text = f"{speedup:.4f}x" if isinstance(speedup, float) else "?"
            lines.append(f"  {key:<42} speedup {text}")
        for key, info in sorted(self.quarantined.items()):
            lines.append(
                f"  {key:<42} QUARANTINED after {info.get('failures', '?')} "
                f"failure(s): {info.get('last_error', '')}"
            )
        return "\n".join(lines)


def pair_key(workload: str, abtb_entries: int, scale_name: str) -> str:
    """Stable checkpoint key for one (workload, config) pair."""
    return f"{workload}::abtb={abtb_entries}::scale={scale_name}"


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-specified campaign task.

    The classic campaign grid is (workload × ABTB size); a point
    additionally pins a full mechanism configuration and/or CPU geometry,
    which is what the sweep engine (:mod:`repro.sweep`) fans out over.
    ``mechanism`` is a dict of :class:`~repro.core.config.MechanismConfig`
    kwargs and ``cpu`` a (possibly partial) dict understood by
    :meth:`~repro.uarch.cpu.CPUConfig.from_dict` — plain JSON-safe dicts,
    so points pass to worker processes unchanged and keys stay stable in
    checkpoints.
    """

    key: str
    workload: str
    abtb_entries: int = 256
    mechanism: dict | None = None
    cpu: dict | None = None


def _base_summary(base: RunResult) -> dict:
    """What a pair summary reads from its base side: all that a
    campaign's pre-pass keeps of a shared base run."""
    return {
        "instructions": int(base.counters.instructions),
        "base_cycles": float(base.counters.cycles),
        "unmatched_marks": base.unmatched_marks,
    }


def _summary(base: dict, enhanced: RunResult) -> dict:
    """A pair summary from a :func:`_base_summary` and the enhanced side."""
    return {
        "instructions": base["instructions"],
        "base_cycles": base["base_cycles"],
        "enhanced_cycles": float(enhanced.counters.cycles),
        "speedup": (
            float(base["base_cycles"] / enhanced.counters.cycles)
            if enhanced.counters.cycles
            else 1.0
        ),
        "skip_rate": float(enhanced.skip_rate),
        "unmatched_marks": base["unmatched_marks"] + enhanced.unmatched_marks,
    }


def summarize_pair(base: RunResult, enhanced: RunResult) -> dict:
    """JSON-serialisable summary of one base/enhanced pair."""
    return _summary(_base_summary(base), enhanced)


def _load_checkpoint(
    path: Path, recorder: IncidentRecorder | None = None
) -> dict[str, dict]:
    """Resume state from an integrity-checked campaign checkpoint.

    A corrupt, truncated or wrong-version checkpoint is never trusted.
    Without a ``recorder`` it raises :class:`ExperimentError` (the
    historical strict contract: the caller decides whether to delete).
    With one, the corruption is recorded as a
    ``campaign_checkpoint_corrupt`` incident and an empty resume state is
    returned — the affected pairs are simply requeued and re-simulated,
    which is always safe because pair execution is deterministic.
    """
    try:
        payload = read_artifact(path, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION)
        completed = payload.get("completed", {})
        if not isinstance(completed, dict):
            raise CheckpointCorruptionError(
                f"checkpoint {path}: 'completed' is not an object",
                path=path,
                reason="bad-envelope",
            )
    except CheckpointCorruptionError as exc:
        if exc.reason == "missing":
            # First run: nothing to resume.  Read-and-catch instead of an
            # exists() probe — no TOCTOU window against a concurrent
            # writer or cleaner, and no spurious incident.
            return {}
        if recorder is None:
            raise ExperimentError(
                f"checkpoint {path} failed integrity validation "
                f"({exc.reason}): {exc}; delete it to restart"
            ) from exc
        recorder.record(
            IncidentKind.CAMPAIGN_CHECKPOINT_CORRUPT,
            f"campaign checkpoint {path.name} failed integrity validation "
            f"({exc.reason}); completed pairs will be re-run",
            path=str(path),
            reason=exc.reason,
        )
        return {}
    return completed


def _save_checkpoint(path: Path, completed: dict[str, dict]) -> None:
    """Atomic, checksummed write: a crash mid-save never corrupts the
    checkpoint, and any later corruption is detected on load."""
    write_artifact(path, {"completed": completed}, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION)


def _point_configs(mechanism: dict | None = None, cpu: dict | None = None) -> dict:
    """A point's JSON-safe config dicts as :func:`run_pair` takes them."""
    return {
        "cpu_config": CPUConfig.from_dict(cpu) if cpu else None,
        "mechanism_config": MechanismConfig(**mechanism) if mechanism else None,
    }


def _base_group(workload: str, cpu: dict | None) -> tuple[str, str | None]:
    """What a point's base side depends on: its workload and CPU geometry."""
    return workload, json.dumps(cpu, sort_keys=True) if cpu is not None else None


def _prerun_bases(
    tasks, scale, machine_cache: CheckpointStore | None, trace_cache: TraceStore
) -> dict[tuple[str, str | None], dict]:
    """A campaign's pre-pass: run each base side that two or more
    pending points share once, and generate every missing trace, before
    the fan-out.

    A base run's inputs are the workload recipe, link mode, CPU config
    and windows — its warm-up checkpoint key plus the measured requests —
    and no mechanism field, so points of one workload and CPU geometry
    (see :func:`_base_group`) share it exactly.  Each shared base runs
    here once, through :func:`run_workload` with the campaign's caches,
    and only its :func:`_base_summary` goes out with those points'
    tasks, retries included.  A base that one point uses is left to that
    point: pre-running it would only move its work from a worker into
    this process, which runs the pre-pass serially.

    The pre-pass never decides an outcome.  A base that raises or
    retires an empty window, and a trace that fails to generate, are
    skipped: their points run :func:`run_pair` and surface the error
    through their own leases.
    """
    groups: dict[tuple[str, str | None], list[dict | None]] = {}
    for _key, workload, _abtb, _mech, cpu in tasks:
        groups.setdefault(_base_group(workload, cpu), []).append(cpu)
    bases = {}
    for group, cpus in groups.items():
        if len(cpus) < 2:
            continue
        try:
            base = _run_side(
                "base", group[0], scale, **_point_configs(cpu=cpus[0]),
                machine_cache=machine_cache, trace_cache=trace_cache,
            )
            bases[group] = _base_summary(_nonempty(base))
        except Exception:
            pass  # the points run run_pair, and their leases surface the error
    for workload in dict.fromkeys(workload for workload, _cpu in groups):
        try:
            config, warmup, measured = _pair_recipe(workload, scale)
            key = trace_key(config, LinkMode.DYNAMIC, warmup, measured)
            if not trace_cache.has(key):
                bundle = generate_bundle(Workload(config, LinkMode.DYNAMIC), warmup, measured)
                trace_cache.save(key, bundle)
                # The miss the first point's load would have counted.
                trace_cache.misses += 1
        except Exception:
            pass
    return bases


def _obs_spec(obs) -> dict | None:
    """Picklable recipe for rebuilding an equivalent obs session in a
    worker process (live sessions hold tracers/registries and workload
    references that must not cross the fork/spawn boundary).  Only
    metrics and trace events come back from a worker, so the recipe
    builds no trampoline profiler."""
    if obs is None:
        return None
    return {
        "trace": obs.tracer is not None,
        "metrics": obs.metrics is not None,
        "sample_every": obs.sample_every,
    }


def _obs_from_spec(spec: dict | None):
    if spec is None:
        return None
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    obs = Observability(sample_every=spec["sample_every"])
    if spec["trace"]:
        obs.tracer = Tracer()
    if spec["metrics"] and obs.metrics is None:
        obs.metrics = MetricsRegistry()
    return obs


def _campaign_worker(task: dict) -> dict:
    """Worker-process entry point: run one campaign point's pair once.

    Rebuilds the per-worker obs session and caches from picklable specs.
    ``mechanism``/``cpu`` config dicts reach the run only when the point
    sets them (see :class:`CampaignPoint`).  A task that carries its
    pre-run ``base`` summary (see :func:`_prerun_bases`) runs only its
    enhanced side; any other runs :func:`run_pair`, under a ``pair
    <key>`` span when the session traces.  The outcome goes back with
    the worker's metric state, trace events and incident records for the
    parent to merge.  A pair that raises raises here too, as an
    :class:`~repro.resilience.workers.AttemptFailed` carrying the
    attempt's incident records, and the worker loop fails its lease.
    """
    obs = _obs_from_spec(task["obs_spec"])
    recorder = IncidentRecorder(
        metrics=obs.metrics if obs is not None else None,
        tracer=obs.tracer if obs is not None else None,
    )
    cache = (
        CheckpointStore(task["machine_cache_dir"], recorder=recorder)
        if task["machine_cache_dir"] is not None
        else None
    )
    traces = (
        TraceStore(task["trace_cache_dir"], recorder=recorder)
        if task["trace_cache_dir"] is not None
        else None
    )
    args = (task["workload"], task["scale"], task["abtb"])
    configs = _point_configs(task["mechanism"], task["cpu"])
    try:
        if task["base"] is not None:
            enhanced = _run_side(
                "enhanced", *args, **configs, machine_cache=cache, trace_cache=traces
            )
            summary = _summary(task["base"], enhanced)
        else:
            span = (
                obs.tracer.span(f"pair {task['key']}", category="campaign")
                if obs is not None and obs.tracer is not None
                else nullcontext()
            )
            with span:
                base, enhanced = run_pair(
                    *args, **configs, obs=obs, machine_cache=cache, trace_cache=traces
                )
            summary = summarize_pair(base, enhanced)
    except Exception as exc:
        raise AttemptFailed(exc, recorder.as_dicts()) from exc
    outcome = {"summary": summary}
    if traces is not None:
        # Per-task store instance, so these counters sum cleanly in the
        # parent's CampaignResult.cache_stats aggregation.
        outcome["trace_cache"] = {"hits": traces.hits, "misses": traces.misses}
    outcome["incidents"] = recorder.as_dicts()
    outcome["metrics_state"] = (
        obs.metrics.state_dict() if obs is not None and obs.metrics is not None else None
    )
    outcome["tracer_events"] = (
        list(obs.tracer.events) if obs is not None and obs.tracer is not None else None
    )
    return outcome


def run_campaign(
    workloads: Sequence[str],
    scale,
    abtb_sizes: Sequence[int] = (256,),
    checkpoint_path: str | Path | None = None,
    obs=None,
    jobs: int = 1,
    machine_cache_dir: str | Path | None = None,
    trace_cache_dir: str | Path | None = None,
    recorder: IncidentRecorder | None = None,
    lease_policy: LeasePolicy | None = None,
    fault_plan: FaultPlan | None = None,
    manifest_path: str | Path | None = None,
    points: Sequence[CampaignPoint] | None = None,
) -> CampaignResult:
    """Sweep (workload × ABTB size) as leases from one queue, with checkpointing.

    ``points`` replaces the (workload × ABTB size) grid with an explicit
    list of :class:`CampaignPoint` tasks, each carrying its own
    checkpoint key and optional mechanism/CPU config dicts — the
    substrate the sweep engine (:mod:`repro.sweep`) builds on.  All the
    machinery below (leases, checkpointing, sharding, the pre-pass)
    applies to points exactly as it does to grid pairs;
    ``workloads``/``abtb_sizes`` must be empty when points are given.

    Every pair is a shard of one
    :class:`~repro.resilience.leases.LeaseQueue`, and each attempt runs
    once, in one of ``jobs`` long-lived worker processes that take
    leases from the queue in this process (see
    :mod:`repro.resilience.workers`); ``jobs == 1`` is one worker.
    Every pair runs through :func:`_campaign_worker`.  This process
    runs only the pre-pass, writes the campaign checkpoint as outcomes
    land and merges them in task order, so a campaign's summaries and
    checkpoint are byte-identical at any ``jobs``.

    An exception from the pair fails its lease exactly as a dead or hung
    worker does: the queue requeues it with ``lease_policy`` backoff and
    quarantines it after ``lease_policy.max_shard_failures`` failures.
    The campaign then completes *degraded* (see
    :attr:`CampaignResult.degraded`) with a partial report.  A worker
    that dies fails its lease, and a worker whose attempt is still
    running ``lease_policy.shard_deadline_s`` after its lease was
    granted is killed: the deadline bounds each attempt's wall time,
    whether the pair stalled, blocked or looped.
    ``fault_plan`` injects deterministic worker kills/hangs for tests
    and the chaos CI job.

    ``machine_cache_dir`` holds warm-machine checkpoints shared by all
    workers (see :func:`run_workload`); atomic writes make the racy
    first-fill benign.  ``trace_cache_dir`` holds the content-addressed
    trace store: each workload's trace is generated once and every run
    loads the stored batches instead of regenerating them (see
    :func:`run_workload`).

    With a trace cache and no ``obs`` session, a pre-pass runs in this
    process before the leases (see :func:`_prerun_bases`).  It generates
    every missing trace, counting each generation as a trace-store miss,
    and it runs each base side that two or more pending points share
    once: the base side depends only on the workload and CPU geometry,
    never on the mechanism.  Those points then run only their enhanced
    side and build the same summary as :func:`run_pair` gives.  A base
    that only one point uses stays with its point, which runs
    :func:`run_pair`, and so do the points of a base that fails in the
    pre-pass: their leases surface the error.

    With an ``obs`` session, each pair attempt runs under a host-clock
    trace span and the sweep's progress lands in counters
    (``campaign.pairs_completed``, ``campaign.pairs_failed`` for
    quarantined pairs, ``campaign.retries`` for failed attempts before
    the last) plus a per-pair speedup series; deep CPU-level sampling is
    wired through :func:`run_pair`.  Workers sample into their own
    registries/tracers, which are merged into the parent session in
    deterministic pair order.

    ``recorder`` collects every incident — corrupted campaign
    checkpoints are then healed (entries requeued) instead of raising.
    ``manifest_path`` writes an integrity-checked end-of-campaign
    manifest including quarantined pairs and incident counts.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    machine_cache = (
        CheckpointStore(machine_cache_dir, recorder=recorder)
        if machine_cache_dir is not None
        else None
    )
    trace_cache = (
        TraceStore(trace_cache_dir, recorder=recorder)
        if trace_cache_dir is not None
        else None
    )
    # The pre-pass shares base sides only among points that run exactly
    # what run_pair runs: unobserved, from the stores.
    prerun = obs is None and trace_cache is not None
    path = Path(checkpoint_path) if checkpoint_path is not None else None
    completed = _load_checkpoint(path, recorder) if path is not None else {}
    result = CampaignResult(completed=dict(completed))

    scale_name = getattr(scale, "name", str(scale))
    if points is not None:
        if workloads:
            raise ConfigError("pass either workloads or points, not both")
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            raise ConfigError("campaign points have duplicate keys")
        specs = [
            (p.key, p.workload, p.abtb_entries, p.mechanism, p.cpu)
            for p in points
        ]
    else:
        specs = [
            (pair_key(workload, abtb, scale_name), workload, abtb, None, None)
            for workload in workloads
            for abtb in abtb_sizes
        ]
    tasks: list[tuple[str, str, int, dict | None, dict | None]] = []
    for key, workload, abtb, mech_cfg, cpu_cfg in specs:
        if key in completed:
            result.resumed += 1
        else:
            tasks.append((key, workload, abtb, mech_cfg, cpu_cfg))

    def absorb(key: str, outcome: dict, attempts: int) -> None:
        """Fold one completed pair into the result + obs, in task order."""
        result.attempts[key] = attempts
        worker_cache = outcome.get("trace_cache")
        if worker_cache:
            for field_name in ("hits", "misses"):
                result.cache_stats[field_name] = (
                    result.cache_stats.get(field_name, 0)
                    + int(worker_cache.get(field_name, 0))
                )
        if obs is not None:
            if obs.metrics is not None and outcome.get("metrics_state"):
                obs.metrics.merge_state(outcome["metrics_state"])
            if obs.tracer is not None and outcome.get("tracer_events"):
                obs.tracer.events.extend(outcome["tracer_events"])
        if recorder is not None and outcome.get("incidents"):
            recorder.extend_dicts(outcome["incidents"])
        result.completed[key] = outcome["summary"]
        if obs is not None and obs.metrics is not None:
            if attempts > 1:
                obs.metrics.counter("campaign.retries").inc(attempts - 1)
            obs.metrics.counter("campaign.pairs_completed").inc()
            obs.metrics.series("campaign.speedup").append(
                float(len(result.completed)), outcome["summary"]["speedup"]
            )

    def give_up(key: str, info: dict) -> None:
        """Record one quarantined pair, in task order."""
        failures = info["failures"]
        result.quarantined[key] = dict(info)
        result.attempts[key] = failures
        if obs is not None and obs.metrics is not None:
            if failures > 1:
                obs.metrics.counter("campaign.retries").inc(failures - 1)
            obs.metrics.counter("campaign.pairs_failed").inc()

    #: Summaries of every pair that has landed, in arrival order — ahead
    #: of ``result.completed``, which fills in task order.
    landed: dict[str, dict] = {}

    def land(key: str, outcome: dict) -> None:
        """Checkpoint a finished pair the moment it lands (the file's
        sorted keys make the bytes independent of arrival order)."""
        landed[key] = outcome["summary"]
        if path is not None:
            _save_checkpoint(path, {**result.completed, **landed})

    def finish() -> CampaignResult:
        if trace_cache is not None and (trace_cache.hits or trace_cache.misses):
            # Loads done in this process: the pre-pass.
            for field_name, count in (
                ("hits", trace_cache.hits), ("misses", trace_cache.misses),
            ):
                result.cache_stats[field_name] = (
                    result.cache_stats.get(field_name, 0) + count
                )
        if manifest_path is not None:
            _write_manifest(manifest_path, result, recorder)
        return result

    def make_task(
        key: str, workload: str, abtb: int,
        mechanism: dict | None, cpu: dict | None, bases: dict,
    ) -> dict:
        return {
            "key": key, "workload": workload, "abtb": abtb,
            "mechanism": mechanism, "cpu": cpu,
            "scale": scale,
            "base": bases.get(_base_group(workload, cpu)),
            "obs_spec": _obs_spec(obs),
            "machine_cache_dir": (
                str(machine_cache_dir) if machine_cache_dir is not None else None
            ),
            "trace_cache_dir": (
                str(trace_cache_dir) if trace_cache_dir is not None else None
            ),
        }

    def execute() -> CampaignResult:
        bases = _prerun_bases(tasks, scale, machine_cache, trace_cache) if prerun else {}
        workers = LocalWorkers(
            _campaign_worker,
            [
                (key, make_task(key, workload, abtb, mech_cfg, cpu_cfg, bases))
                for key, workload, abtb, mech_cfg, cpu_cfg in tasks
            ],
            jobs=jobs,
            policy=lease_policy,
            recorder=recorder,
            fault_plan=fault_plan,
            on_outcome=land,
        )
        report = workers.run()
        # Merge in task order so attempts/completed/quarantined and the
        # obs streams are deterministic regardless of arrival order.
        for key, *_rest in tasks:
            if key in report.outcomes:
                absorb(key, report.outcomes[key], report.attempts[key])
            elif key in report.quarantined:
                give_up(key, report.quarantined[key])
        return finish()

    try:
        return execute()
    except KeyboardInterrupt:
        # SIGINT/SIGTERM (the CLI converts the latter) mid-campaign:
        # flush every pair that has landed — outcomes are not in
        # result.completed until the merge — through the atomic
        # checkpoint path and say so in the incident log, instead of
        # dying mid-write and leaving the next resume to guess.
        done = {**result.completed, **landed}
        if path is not None:
            _save_checkpoint(path, done)
        if recorder is not None:
            recorder.record(
                IncidentKind.SHUTDOWN,
                f"campaign interrupted with {len(done)} pair(s) "
                f"completed; checkpoint flushed, resume will skip them",
                severity="warning",
                completed=len(done),
                checkpoint=str(path) if path is not None else None,
            )
        raise


def _write_manifest(
    manifest_path: str | Path,
    result: CampaignResult,
    recorder: IncidentRecorder | None,
) -> Path:
    """Integrity-checked end-of-campaign manifest (partial results included)."""
    payload = {
        "completed": result.completed,
        "quarantined": result.quarantined,
        "attempts": result.attempts,
        "resumed": result.resumed,
        "degraded": result.degraded,
        "cache_stats": result.cache_stats,
        "incident_counts": recorder.counts() if recorder is not None else {},
    }
    return write_artifact(manifest_path, payload, MANIFEST_SCHEMA, MANIFEST_VERSION)
