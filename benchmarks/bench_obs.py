"""Overhead budget for the observability layer.

The layer's contract is a *null-sink fast path*: with no tracer, no
metrics, no profiler, no event bus and no progress callback configured,
the simulator must run the exact code it ran before the layer existed —
no wrapper generators, no hook dispatch, no per-event flag checks.  This
benchmark holds that contract to <5% measured slowdown (for both the
original obs pillars and the PR-7 telemetry plane), and reports (without
asserting) what the fully-enabled configurations cost.

Each test also records its numbers into ``benchmarks/output/obs.json``
so CI archives the measured overheads next to the gate verdicts.

Run with ``pytest benchmarks/bench_obs.py -q``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.experiments.runner import retire, run_workload
from repro.obs import Observability
from repro.obs.events import EventBus
from repro.uarch import CPU
from repro.workloads import ALL_WORKLOADS, Workload

REQUESTS = 40
ROUNDS = 5
#: Disabled observability must stay within this fraction of the plain run.
MAX_DISABLED_OVERHEAD = 0.05

#: Where the measured numbers land (merged across tests, one JSON object).
OUTPUT_PATH = Path(__file__).parent / "output" / "obs.json"


def _record(**numbers) -> None:
    """Merge measured numbers into the benchmark's JSON output file."""
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {}
    if OUTPUT_PATH.is_file():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update({k: round(v, 6) for k, v in numbers.items()})
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_plain() -> None:
    wl = Workload(ALL_WORKLOADS["memcached"].config())
    cpu = CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=256)))
    retire(cpu, wl.trace_chunks(REQUESTS))
    cpu.finalize()


def _run_with_obs(obs: Observability | None) -> None:
    wl = Workload(ALL_WORKLOADS["memcached"].config())
    cpu = CPU(
        mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=256)),
        hooks=obs.hooks() if obs is not None else None,
    )
    sampler = None
    if obs is not None:
        obs.attach_workload(wl)
        sampler = obs.sampler(cpu, "bench")
    retire(cpu, wl.trace_chunks(REQUESTS), sampler=sampler)
    if obs is not None:
        obs.finish_run(cpu, "bench")
    cpu.finalize()


def _best_of(fn, rounds: int = ROUNDS) -> float:
    """Minimum wall time over ``rounds`` — the standard noise filter."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_observability_overhead_under_5_percent():
    """The acceptance bound: obs constructed but all-off ≈ no obs at all.

    Timings are interleaved (plain, disabled, plain, disabled, ...) so a
    machine-load drift hits both arms equally.
    """
    _run_plain()  # warm caches / imports outside the timed region
    plain_best = float("inf")
    disabled_best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run_plain()
        plain_best = min(plain_best, time.perf_counter() - start)

        start = time.perf_counter()
        _run_with_obs(Observability())  # all pillars off: the null sink
        disabled_best = min(disabled_best, time.perf_counter() - start)
    overhead = disabled_best / plain_best - 1.0
    print(
        f"\nplain {plain_best * 1e3:.1f} ms, disabled-obs {disabled_best * 1e3:.1f} ms, "
        f"overhead {overhead:+.2%} (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )
    _record(
        plain_ms=plain_best * 1e3,
        disabled_obs_ms=disabled_best * 1e3,
        disabled_obs_overhead=overhead,
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled observability costs {overhead:.2%} "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%}); the null-sink fast path regressed"
    )


def _run_workload_path(progress=None) -> None:
    """One pair-shaped run through ``run_workload`` — the code path
    ``run_campaign`` drives, where the event bus and the progress
    callback are threaded (or, here, not)."""
    run_workload(
        ALL_WORKLOADS["memcached"].config(),
        mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=256)),
        warmup_requests=5,
        measured_requests=REQUESTS,
        progress=progress,
    )


def test_disabled_event_bus_overhead_under_5_percent():
    """The telemetry-plane gate: ``run_workload`` with no progress
    callback (hence no sync hook, no bus emissions —
    exactly what a bus-less ``run_campaign`` drives) must cost within 5%
    of re-running itself.  Interleaved arms, best-of like the obs gate;
    the baseline arm is the same function so the only difference is the
    gating code's disabled branch.
    """
    _run_workload_path()  # warm-up
    baseline_best = float("inf")
    disabled_best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run_workload_path(progress=None)
        disabled_best = min(disabled_best, time.perf_counter() - start)

        start = time.perf_counter()
        _run_workload_path()
        baseline_best = min(baseline_best, time.perf_counter() - start)
    overhead = disabled_best / baseline_best - 1.0
    print(
        f"\nbaseline {baseline_best * 1e3:.1f} ms, no-bus {disabled_best * 1e3:.1f} ms, "
        f"overhead {overhead:+.2%} (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )
    _record(
        workload_path_ms=baseline_best * 1e3,
        disabled_bus_overhead=overhead,
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"bus-disabled run_workload costs {overhead:.2%} "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%}); the null-sink contract regressed"
    )


def test_enabled_event_bus_cost_is_reported():
    """Informational: progress counting + bus emission per retired batch.

    The progress callback fires once per retired batch, so even the
    enabled path must stay cheap — bounded here at 2x as a
    sanity rail, recorded exactly in the JSON output.
    """
    bus = EventBus(capacity=4096)

    def progress(n: int, _bus=bus) -> None:
        _bus.emit("progress", "batch retired", events_done=n)

    baseline = _best_of(_run_workload_path)
    enabled = _best_of(lambda: _run_workload_path(progress=progress))
    ratio = enabled / baseline
    print(
        f"\nbaseline {baseline * 1e3:.1f} ms, bus+progress {enabled * 1e3:.1f} ms, "
        f"x{ratio:.3f} ({bus.last_seq} event(s) emitted)"
    )
    _record(
        enabled_bus_ms=enabled * 1e3,
        enabled_bus_ratio=ratio,
    )
    assert ratio < 2.0


def test_enabled_observability_cost_is_reported():
    """Informational: what full tracing + sampling + profiling costs.

    No hard bound — enabled observability is allowed to be expensive —
    but it must complete and stay within an order of magnitude so nobody
    accidentally puts sampling inside the CPU's retire loop.
    """
    plain = _best_of(_run_plain)
    enabled = _best_of(
        lambda: _run_with_obs(
            Observability(
                trace_out="unused.trace.json",  # never exported here
                metrics_out="unused.jsonl",
                sample_every=2000,
                profile=True,
            )
        )
    )
    ratio = enabled / plain
    print(f"\nplain {plain * 1e3:.1f} ms, enabled-obs {enabled * 1e3:.1f} ms, x{ratio:.2f}")
    _record(enabled_obs_ms=enabled * 1e3, enabled_obs_ratio=ratio)
    assert ratio < 10.0
