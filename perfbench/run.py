"""Repository benchmark: one workload per invocation, metrics as JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pair-warm --seed 1 --seconds 15 --trace 0

``--trace 0`` times set-up and repeated passes with no spans installed and
prints the end-to-end metrics.  Their times are in reference-host seconds:
each timed region's wall or CPU time divided by the host slowdown sampled
during it (see ``hostspeed.py``), because the shared host's own speed
drifts more between runs than the bounds allow.  ``--trace 1`` runs the
same untraced passes, then as many passes again with spans around the
program's public calls (see ``spans.py``), and prints the per-layer
metrics, including the tracing overhead between the two.  Every pass's
outputs are checked (see ``cases.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  BENCHMARK.json at the repository root lists the metrics and
``perfbench/design.json`` records why the workloads and metrics are what
they are.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostProbe

ROOT = Path(__file__).resolve().parent.parent
#: Passes per run, at least: a median, and a second render to compare.
MIN_PASSES = 2
APPS = ("apache", "memcached", "mysql", "firefox")
RETIRE_KINDS = ("BLOCK", "LOAD", "STORE", "COND_BRANCH", "RET")


def timed_passes(case, seconds: float, count: int | None = None, recorder=None) -> list[dict]:
    """Run passes until ``seconds`` have elapsed (and at least
    ``MIN_PASSES``), or exactly ``count`` passes when given."""
    passes: list[dict] = []
    start = time.perf_counter()

    def more() -> bool:
        if count is not None:
            return len(passes) < count
        return len(passes) < MIN_PASSES or time.perf_counter() - start < seconds

    while more():
        # Garbage left by the previous pass is collected here, not inside
        # the next pass's timing.
        gc.collect()
        with HostProbe() as probe:
            t0 = os.times()
            wall0 = time.perf_counter()
            result = case.run_pass(recorder)
            wall = time.perf_counter() - wall0
            t1 = os.times()
        passes.append(
            {
                "result": result,
                "slowdown": probe.slowdown(),
                "wall_s": wall,
                "cpu_s": (t1.user - t0.user) + (t1.system - t0.system)
                + (t1.children_user - t0.children_user)
                + (t1.children_system - t0.children_system),
                "child_cpu_s": (t1.children_user - t0.children_user)
                + (t1.children_system - t0.children_system),
            }
        )
        print(
            f"pass {len(passes)}: {wall:.3f} s wall, {passes[-1]['cpu_s']:.3f} s cpu, "
            f"host slowdown {passes[-1]['slowdown']:.3f}, {result.failed}/{result.ops} failed",
            flush=True,
        )
    return passes


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def reference_s(passes: list[dict], clock: str) -> float:
    """Median over the passes of a pass's time in reference-host seconds."""
    return statistics.median(p[clock] / p["slowdown"] for p in passes)


def end_to_end(setup_s: float, passes: list[dict]) -> dict[str, tuple[float, str]]:
    run_s = reference_s(passes, "wall_s")
    ops = statistics.median(p["result"].ops for p in passes)
    instructions = statistics.median(p["result"].instructions for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (reference_s(passes, "cpu_s"), "s"),
        "ops_per_s": (ops / run_s, "1/s"),
        "sim_minstr_per_s": (instructions / run_s / 1e6, "Minstr/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def install_spans(tracer, spill_dir: Path) -> None:
    """Wrap each layer's public calls (see design.json for the map)."""
    import numpy as np

    from repro.analysis.report import Report
    from repro.experiments import runner
    from repro.isa.kinds import MAX_EVENT_KIND, EventKind
    from repro.sweep import engine
    from repro.trace.store import TraceStore
    from repro.uarch.backend import BatchedBackend
    from repro.uarch.cpu import CPU
    from repro.uarch.machine import CheckpointStore, MachineState
    from repro.workloads.base import Workload

    def count_generated(rec, args, kwargs, bundle):
        rec.counts["generate_events"] += bundle.total_events

    def count_trace_bytes(rec, args, kwargs, entry):
        rec.counts["trace_bytes"] += sum(p.stat().st_size for p in Path(entry).iterdir())

    def count_checkpoint_bytes(rec, args, kwargs, path):
        rec.counts["checkpoint_bytes"] += Path(path).stat().st_size

    def hit_counter(prefix):
        def count(rec, args, kwargs, result):
            rec.counts[f"{prefix}_{'misses' if result is None else 'hits'}"] += 1

        return count

    def count_batches(rec, args, kwargs):
        # Materialise the batches (callers pass short tuples) so their event
        # kinds can be counted outside the retire span.
        batches = tuple(args[1] if len(args) > 1 else kwargs.pop("batches"))
        for batch in batches:
            counts = np.bincount(batch.data["kind"], minlength=MAX_EVENT_KIND + 1)
            for kind in EventKind:
                rec.counts[f"events.{kind.name}"] += int(counts[kind])
            rec.counts["retire_events"] += len(batch.data)
        return (args[0], batches, *args[2:]), kwargs

    def pair_name(args, kwargs):
        return f"experiments.pair.{args[0] if args else kwargs['workload_name']}"

    tracer.function(runner, "run_workload", "experiments.run_workload")
    tracer.function(runner, "run_pair", pair_name)
    tracer.function(runner, "generate_bundle", "workloads.generate", after=count_generated)
    tracer.function(engine, "analyze_sweep", "sweep.analysis")
    tracer.function(engine, "write_sweep_report", "sweep.report")
    tracer.method(Workload, "__init__", "workloads.build")
    tracer.method(TraceStore, "save", "trace.encode", after=count_trace_bytes)
    tracer.method(TraceStore, "load", "trace.decode", after=hit_counter("trace"))
    tracer.method(BatchedBackend, "run_batches", "uarch.retire", before=count_batches)
    tracer.method(CPU, "run", "uarch.ref_retire")
    tracer.method(MachineState, "capture", "uarch.capture")
    tracer.method(CheckpointStore, "save", "uarch.checkpoint_save", after=count_checkpoint_bytes)
    tracer.method(CheckpointStore, "load", "uarch.checkpoint_load", after=hit_counter("checkpoint"))
    tracer.method(MachineState, "restore_into", "uarch.restore_into")
    tracer.method(Report, "render", "analysis.render")
    tracer.campaign_worker(runner, spill_dir)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from cases import Reproduce
    from repro.isa.kinds import EventKind

    units = {f"experiments.{eid}_s": "s" for eid in Reproduce.EXPERIMENTS}
    units.update(
        {
            "experiments.self_s": "s",
            "experiments.run_workload_calls": "count",
            "experiments.run_workload_s": "s",
            "experiments.run_workload_self_s": "s",
        }
    )
    units.update({f"experiments.pair_s.{app}": "s" for app in APPS})
    units.update(
        {
            "experiments.pair_self_s": "s",
            "experiments.worker_busy_frac": "fraction",
            "workloads.build_s": "s",
            "workloads.build_calls": "count",
            "workloads.generate_s": "s",
            "workloads.generate_events": "count",
            "trace.encode_s": "s",
            "trace.bytes": "bytes",
            "trace.decode_s": "s",
            "trace.store_hit_rate": "fraction",
        }
    )
    units.update({f"trace.events.{kind.name}": "count" for kind in EventKind})
    units.update(
        {
            "uarch.retire_s": "s",
            "uarch.retire_events": "count",
            "uarch.retire_ns_per_event": "ns",
            "uarch.ref_retire_s": "s",
            "uarch.capture_s": "s",
            "uarch.checkpoint_bytes": "bytes",
            "uarch.restore_s": "s",
            "uarch.checkpoint_hit_rate": "fraction",
        }
    )
    units.update({f"uarch.retire_ns.{kind}": "ns" for kind in RETIRE_KINDS})
    units.update({f"core.skip_rate.{app}": "fraction" for app in APPS})
    units.update({f"core.sim_speedup.{app}": "ratio" for app in APPS})
    units.update(
        {
            "sweep.run_self_s": "s",
            "sweep.worker_task_s": "s",
            "sweep.analysis_s": "s",
            "sweep.report_s": "s",
            "analysis.render_s": "s",
            "bench.tracing_overhead": "fraction",
            "bench.host_slowdown": "ratio",
            "bench.wall_run_s": "s",
        }
    )
    return units


def per_layer(case, untraced: list[dict], traced: list[dict], recorder) -> dict[str, float]:
    """Per-pass layer figures from the traced passes' spans and counters."""
    from spans import summarize

    n = len(traced)
    spans = summarize(recorder.spans)
    counts = recorder.counts

    def total(*names: str) -> float:
        return sum(spans.get(name, {}).get("total_s", 0.0) for name in names) / n

    def own(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix)) / n

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0) / n

    def rate(prefix: str) -> float:
        hits, misses = counts[f"{prefix}_hits"], counts[f"{prefix}_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    m = dict.fromkeys(per_layer_units(), 0.0)
    for eid in getattr(case, "EXPERIMENTS", ()):
        m[f"experiments.{eid}_s"] = total(f"experiment.{eid}")
    m["experiments.self_s"] = own("experiment.")
    m["experiments.run_workload_calls"] = calls("experiments.run_workload")
    m["experiments.run_workload_s"] = total("experiments.run_workload")
    m["experiments.run_workload_self_s"] = own("experiments.run_workload")
    for app in APPS:
        m[f"experiments.pair_s.{app}"] = total(f"experiments.pair.{app}")
    m["experiments.pair_self_s"] = own("experiments.pair.")
    jobs = getattr(case, "JOBS", 0)
    if jobs:
        m["experiments.worker_busy_frac"] = statistics.median(
            p["child_cpu_s"] / (jobs * p["wall_s"]) for p in untraced
        )
    m["workloads.build_s"] = total("workloads.build")
    m["workloads.build_calls"] = calls("workloads.build")
    m["workloads.generate_s"] = total("workloads.generate")
    m["workloads.generate_events"] = counts["generate_events"] / n
    m["trace.encode_s"] = total("trace.encode")
    m["trace.bytes"] = counts["trace_bytes"] / n
    m["trace.decode_s"] = total("trace.decode")
    m["trace.store_hit_rate"] = rate("trace")
    for name in m:
        if name.startswith("trace.events."):
            m[name] = counts[f"events.{name[13:]}"] / n
    m["uarch.retire_s"] = total("uarch.retire")
    m["uarch.retire_events"] = counts["retire_events"] / n
    if counts["retire_events"]:
        m["uarch.retire_ns_per_event"] = m["uarch.retire_s"] / m["uarch.retire_events"] * 1e9
    m["uarch.ref_retire_s"] = total("uarch.ref_retire")
    m["uarch.capture_s"] = total("uarch.capture", "uarch.checkpoint_save")
    m["uarch.checkpoint_bytes"] = counts["checkpoint_bytes"] / n
    m["uarch.restore_s"] = total("uarch.checkpoint_load", "uarch.restore_into")
    m["uarch.checkpoint_hit_rate"] = rate("checkpoint")
    if hasattr(case, "retire_ns_by_kind"):
        for kind, ns in case.retire_ns_by_kind(RETIRE_KINDS).items():
            m[f"uarch.retire_ns.{kind}"] = ns
        for app, (base, enhanced) in case.last.items():
            m[f"core.skip_rate.{app}"] = enhanced.skip_rate
            m[f"core.sim_speedup.{app}"] = base.counters.cycles / enhanced.counters.cycles
    m["sweep.run_self_s"] = own("sweep.run")
    m["sweep.worker_task_s"] = total("sweep.worker_task")
    m["sweep.analysis_s"] = total("sweep.analysis")
    m["sweep.report_s"] = total("sweep.report")
    m["analysis.render_s"] = total("analysis.render")
    m["bench.tracing_overhead"] = (
        reference_s(traced, "wall_s") / reference_s(untraced, "wall_s") - 1.0
    )
    m["bench.host_slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    m["bench.wall_run_s"] = statistics.median(p["wall_s"] for p in untraced)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("reproduce", "pair-warm", "sweep-cold")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from cases import CASES
    from spans import Recorder, Tracer

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        case = CASES[args.workload](ROOT, work, args.seed)
        with HostProbe() as probe:
            setup_wall = case.setup()
        setup_s = setup_wall / probe.slowdown()
        print(
            f"{args.workload} seed {args.seed}: setup {setup_wall:.3f} s wall, "
            f"host slowdown {probe.slowdown():.3f}",
            flush=True,
        )
        untraced = timed_passes(case, args.seconds)
        passes = list(untraced)
        if args.trace:
            recorder = Recorder()
            tracer = Tracer(recorder)
            try:
                install_spans(tracer, work / "spans")
                traced = timed_passes(case, args.seconds, count=len(untraced), recorder=recorder)
                tracer.merge_spills()
            finally:
                tracer.uninstall()
            passes += traced
            layers = per_layer(case, untraced, traced, recorder)
            metrics = {name: (layers[name], unit) for name, unit in per_layer_units().items()}
        else:
            metrics = end_to_end(setup_s, untraced)
        results = [p["result"] for p in passes]
        failed = sum(r.failed for r in results) + case.check(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r.ops for r in results),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
