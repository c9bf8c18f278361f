"""Seeded chaos campaigns: perturb live runs, audit every skip.

A campaign is a deterministic sequence of instrumented runs — single-core
and dual-core, across workloads — plus a set of trace-corruption trials.
Its verdict encodes the paper's safety claim:

* ``use_bloom=True``: the run must end with ``unsafe_skips == 0`` and an
  empty oracle violation list, no matter what was injected;
* ``use_bloom=False`` with the software invalidation contract broken
  (``software_invalidate=False``): the §3.4 hazard is *expected* — the
  campaign fails if the oracle does **not** detect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.faults import (
    CORRUPTION_KINDS,
    ChaosContext,
    LossyCoherence,
    SyntheticSlots,
    corrupted_stream,
    default_faults,
)
from repro.chaos.injector import Injector
from repro.chaos.oracle import CorrectnessOracle
from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import ChaosError, TraceError
from repro.trace.validate import validated
from repro.uarch.cpu import CPU
from repro.uarch.multicore import DualCoreSystem
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ChaosRunConfig:
    """One instrumented run."""

    workload: str = "memcached"
    seed: int = 0
    requests: int = 24
    rate: float = 0.01
    use_bloom: bool = True
    software_invalidate: bool = True
    dual_core: bool = False
    drop_prob: float = 0.4
    abtb_entries: int = 64
    bloom_bits: int = 4096
    slice_events: int = 64


@dataclass
class ChaosRunResult:
    """What one instrumented run observed."""

    label: str
    injected: int = 0
    events_spliced: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    skips_checked: int = 0
    violations: int = 0
    hazards_detected: int = 0
    trace_divergences: int = 0
    unsafe_skips: int = 0
    trampolines_skipped: int = 0
    trampolines_executed: int = 0
    store_flushes: int = 0
    coherence_flushes: int = 0
    context_flushes: int = 0
    invalidations_dropped: int = 0
    first_violation: str | None = None


def _mechanism(cfg: ChaosRunConfig) -> TrampolineSkipMechanism:
    return TrampolineSkipMechanism(
        MechanismConfig(
            abtb_entries=cfg.abtb_entries,
            bloom_bits=cfg.bloom_bits,
            use_bloom=cfg.use_bloom,
        )
    )


def _collect(
    label: str,
    injectors: list[Injector],
    oracle: CorrectnessOracle,
    mechanisms: list[TrampolineSkipMechanism],
    counters,
    dropped: int = 0,
) -> ChaosRunResult:
    result = ChaosRunResult(label)
    for inj in injectors:
        result.injected += inj.injected
        result.events_spliced += inj.events_spliced
        for name, count in inj.fault_counts.items():
            result.fault_counts[name] = result.fault_counts.get(name, 0) + count
    result.skips_checked = oracle.skips_checked
    result.violations = len(oracle.violations)
    result.hazards_detected = oracle.hazards_detected
    result.trace_divergences = oracle.trace_divergences
    if oracle.violations:
        result.first_violation = oracle.violations[0].describe()
    for mech in mechanisms:
        result.unsafe_skips += mech.stats.unsafe_skips
        result.store_flushes += mech.stats.store_flushes
        result.coherence_flushes += mech.stats.coherence_flushes
        result.context_flushes += mech.stats.context_flushes
    for c in counters:
        result.trampolines_skipped += c.trampolines_skipped
        result.trampolines_executed += c.trampolines_executed
    result.invalidations_dropped = dropped
    return result


def run_chaos(cfg: ChaosRunConfig, obs=None) -> ChaosRunResult:
    """One seeded, instrumented run (single- or dual-core).

    ``obs`` is an optional :class:`repro.obs.Observability` session:
    fault landings become trace instants and per-fault counters, and the
    counter sampler (when configured) rides each core's event stream.
    """
    try:
        module = ALL_WORKLOADS[cfg.workload]
    except KeyError:
        raise ChaosError(f"unknown workload {cfg.workload!r}") from None
    workload = Workload(module.config(seed=1234 + cfg.seed))
    expect_hazards = not cfg.use_bloom and not cfg.software_invalidate
    oracle = CorrectnessOracle(workload.program, expect_hazards=expect_hazards)
    faults = default_faults(software_invalidate=cfg.software_invalidate)
    synth = SyntheticSlots()
    tracer = obs.tracer if obs is not None else None
    metrics = obs.metrics if obs is not None else None
    if obs is not None:
        obs.attach_workload(workload)

    if not cfg.dual_core:
        label = f"{cfg.workload}/single/seed={cfg.seed}"
        mech = _mechanism(cfg)
        hooks = obs.hooks(oracle) if obs is not None else oracle
        cpu = CPU(mechanism=mech, hooks=hooks)
        cpu.run(workload.startup_trace())
        ctx = ChaosContext(workload.program, oracle, mech, synth)
        injector = Injector(
            faults, ctx, seed=cfg.seed, rate=cfg.rate, tracer=tracer, metrics=metrics
        )
        stream = injector.wrap(workload.trace(cfg.requests))
        if obs is not None:
            stream = obs.instrument(stream, cpu, label)
        cpu.run(stream)
        counters = [cpu.finalize()]
        if obs is not None:
            obs.finish_run(cpu, label)
        return _collect(label, [injector], oracle, [mech], counters)

    label = f"{cfg.workload}/dual/seed={cfg.seed}"
    mech0, mech1 = _mechanism(cfg), _mechanism(cfg)
    hooks = obs.hooks(oracle) if obs is not None else oracle
    cpu0 = CPU(mechanism=mech0, hooks=hooks)
    cpu1 = CPU(mechanism=mech1, hooks=hooks)
    lossy = LossyCoherence(oracle, drop_prob=cfg.drop_prob, seed=cfg.seed + 1)
    system = DualCoreSystem(
        (cpu0, cpu1), slice_events=cfg.slice_events, coherence_filter=lossy
    )
    cpu0.run(workload.startup_trace())
    ctx0 = ChaosContext(workload.program, oracle, mech0, synth)
    ctx1 = ChaosContext(workload.program, oracle, mech1, synth)
    inj0 = Injector(
        faults, ctx0, seed=cfg.seed, rate=cfg.rate, tracer=tracer, metrics=metrics
    )
    inj1 = Injector(
        default_faults(software_invalidate=cfg.software_invalidate),
        ctx1,
        seed=cfg.seed + 7919,
        rate=cfg.rate,
        tracer=tracer,
        metrics=metrics,
    )
    # The two streams are two threads of one process: they share the
    # program image and its live GOT, which is exactly what makes the
    # cross-core invalidation path load-bearing.
    stream0 = inj0.wrap(workload.trace(cfg.requests, start_id=0))
    stream1 = inj1.wrap(workload.trace(cfg.requests, start_id=100_000))
    if obs is not None:
        stream0 = obs.instrument(stream0, cpu0, f"{label}/core0")
        stream1 = obs.instrument(stream1, cpu1, f"{label}/core1")
    system.run(stream0, stream1)
    counters = list(system.finalize())
    if obs is not None:
        obs.finish_run(cpu0, f"{label}/core0")
        obs.finish_run(cpu1, f"{label}/core1")
    return _collect(
        label,
        [inj0, inj1],
        oracle,
        [mech0, mech1],
        counters,
        dropped=sum(system.invalidations_dropped),
    )


def run_corruption_trials(kinds=CORRUPTION_KINDS) -> dict[str, bool]:
    """Drive each corruption through a validated CPU run.

    True means the corruption was *detected* (``TraceError`` raised before
    any mis-execution) — the required outcome for every kind.
    """
    results: dict[str, bool] = {}
    for kind in kinds:
        cpu = CPU()
        try:
            cpu.run(validated(iter(corrupted_stream(kind))))
        except TraceError:
            results[kind] = True
        else:
            results[kind] = False
    return results


@dataclass(frozen=True)
class CampaignConfig:
    """A full chaos campaign: runs until ``min_faults`` injections land."""

    seed: int = 2025
    min_faults: int = 1000
    rate: float = 0.01
    use_bloom: bool = True
    software_invalidate: bool = True
    workloads: tuple[str, ...] = ("memcached", "apache")
    requests: int = 24
    max_rounds: int = 40
    abtb_entries: int = 64
    bloom_bits: int = 4096


@dataclass
class CampaignReport:
    """Aggregate verdict of a chaos campaign."""

    runs: list[ChaosRunResult]
    corruption: dict[str, bool]
    use_bloom: bool
    expect_hazards: bool

    @property
    def injected(self) -> int:
        return sum(r.injected for r in self.runs)

    @property
    def fault_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.runs:
            for name, count in r.fault_counts.items():
                out[name] = out.get(name, 0) + count
        return out

    @property
    def skips_checked(self) -> int:
        return sum(r.skips_checked for r in self.runs)

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.runs)

    @property
    def hazards_detected(self) -> int:
        return sum(r.hazards_detected for r in self.runs)

    @property
    def unsafe_skips(self) -> int:
        return sum(r.unsafe_skips for r in self.runs)

    @property
    def trace_divergences(self) -> int:
        return sum(r.trace_divergences for r in self.runs)

    @property
    def corruption_detected(self) -> bool:
        return all(self.corruption.values())

    @property
    def ok(self) -> bool:
        """Did the campaign confirm the paper's safety story?"""
        if not self.corruption_detected:
            return False
        if self.expect_hazards:
            # §3.4 with the contract broken: the hazard must fire and be
            # detected — a silent pass would mean the oracle is blind.
            return self.hazards_detected > 0 and self.unsafe_skips > 0
        return self.violations == 0 and self.unsafe_skips == 0

    def render(self) -> str:
        lines = [
            f"chaos campaign: {len(self.runs)} runs, {self.injected} faults injected, "
            f"{self.skips_checked} skips audited",
            f"  mode            : use_bloom={self.use_bloom} "
            f"expect_hazards={self.expect_hazards}",
        ]
        for name, count in sorted(self.fault_counts.items()):
            lines.append(f"  fault {name:<16}: {count}")
        for kind, detected in sorted(self.corruption.items()):
            lines.append(
                f"  corruption {kind:<17}: {'detected' if detected else 'MISSED'}"
            )
        lines.append(f"  unsafe skips    : {self.unsafe_skips}")
        lines.append(f"  oracle violations: {self.violations}")
        lines.append(f"  hazards detected: {self.hazards_detected}")
        for r in self.runs:
            lines.append(
                f"    {r.label:<28} faults={r.injected:<4} skips={r.skips_checked:<6} "
                f"violations={r.violations} hazards={r.hazards_detected} "
                f"unsafe={r.unsafe_skips} dropped_invals={r.invalidations_dropped}"
            )
            if r.first_violation:
                lines.append(f"      first violation: {r.first_violation}")
        lines.append(f"  verdict         : {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def run_fault_campaign(
    cfg: CampaignConfig = CampaignConfig(), obs=None, recorder=None
) -> CampaignReport:
    """Run seeded rounds (cycling workloads, one dual-core round per
    cycle) until at least ``min_faults`` injections landed.

    ``recorder`` (an :class:`~repro.resilience.incidents.IncidentRecorder`)
    turns every oracle violation and missed corruption detection into a
    structured incident, so chaos findings land in the same log as
    worker and integrity anomalies.
    """
    plan: list[tuple[str, bool]] = [(w, False) for w in cfg.workloads]
    plan.append((cfg.workloads[0], True))
    runs: list[ChaosRunResult] = []
    total = 0
    rounds = 0
    while rounds < len(plan) or total < cfg.min_faults:
        if rounds >= cfg.max_rounds:
            raise ChaosError(
                f"campaign hit max_rounds={cfg.max_rounds} with only "
                f"{total} faults injected; raise rate or requests"
            )
        workload, dual = plan[rounds % len(plan)]
        run = run_chaos(
            cfg=ChaosRunConfig(
                workload=workload,
                seed=cfg.seed + rounds,
                requests=cfg.requests,
                rate=cfg.rate,
                use_bloom=cfg.use_bloom,
                software_invalidate=cfg.software_invalidate,
                dual_core=dual,
                abtb_entries=cfg.abtb_entries,
                bloom_bits=cfg.bloom_bits,
            ),
            obs=obs,
        )
        runs.append(run)
        total += run.injected
        rounds += 1
    report = CampaignReport(
        runs=runs,
        corruption=run_corruption_trials(),
        use_bloom=cfg.use_bloom,
        expect_hazards=not cfg.use_bloom and not cfg.software_invalidate,
    )
    if recorder is not None:
        from repro.resilience.incidents import IncidentKind

        for run in report.runs:
            if run.violations and not report.expect_hazards:
                recorder.record(
                    IncidentKind.ORACLE_VIOLATION,
                    f"chaos run {run.label}: {run.violations} committed "
                    f"skip(s) to a stale target"
                    + (f" — first: {run.first_violation}" if run.first_violation else ""),
                    label=run.label,
                    violations=run.violations,
                )
        for kind, detected in report.corruption.items():
            if not detected:
                recorder.record(
                    IncidentKind.ORACLE_VIOLATION,
                    f"corruption trial {kind!r} was NOT detected by the "
                    f"integrity machinery",
                    trial=kind,
                )
    return report
