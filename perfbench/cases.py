"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each workload drives the program the way a user does, through its public
API, and never changes it.  A pass returns how many operations it
attempted, how many failed a check, and how many simulated measured-window
instructions it retired; the comparisons against references run after the
timed passes, so their cost stays out of ``setup_s`` and ``run_s``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import SMOKE, Scale, all_experiments, runner, summarize_pair
from repro.isa.kinds import EventKind
from repro.sweep import SweepSpec, run_sweep
from repro.trace.batch import TraceBatch
from repro.trace.engine import LinkMode
from repro.trace.store import TraceStore, trace_key
from repro.uarch.backend import BatchedBackend
from repro.uarch.machine import CheckpointStore, MachineState
from repro.workloads import ALL_WORKLOADS
from spans import Recorder, Tracer

#: Cold imports timed per run; their median is the import part of setup_s.
IMPORT_REPEATS = 9


@dataclass
class PassResult:
    ops: int
    failed: int
    instructions: int
    #: Per-op outputs compared against the workload's reference afterwards.
    outputs: dict = field(default_factory=dict)


def cold_import_s(root: Path, snippet: str) -> float:
    """Median wall time of a fresh interpreter running ``snippet``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _count_window(recorder, args, kwargs, result) -> None:
    recorder.counts["instructions"] += int(result.counters.instructions)


def _report_failure(what: str) -> None:
    print(f"FAILED {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Reproduce:
    """Paper experiments at SMOKE scale on the reference interpreter.

    The subset is what fits the run budget twice over (see design.json):
    one ``run_pair`` per server application (fig6 apache, fig7 memcached,
    fig8_table6 mysql) plus the two analytic experiments.
    """

    name = "reproduce"
    EXPERIMENTS = ("fig6", "fig7", "fig8_table6", "memsave", "hwcost")

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        registry = all_experiments()
        self.experiments = [registry[eid] for eid in self.EXPERIMENTS]
        self.first_render: dict[str, str] = {}
        # Experiments return only reports, so the measured-window
        # instructions they simulate are summed from every run_workload
        # result: one addition per call, in traced and untraced runs alike.
        self.counter = Recorder()
        Tracer(self.counter).function(
            runner, "run_workload", "run_workload", after=_count_window
        )

    def setup(self) -> float:
        return cold_import_s(
            self.root,
            "import repro.experiments as e; e.all_experiments()",
        )

    def run_pass(self, recorder=None) -> PassResult:
        failed = 0
        for exp in self.experiments:
            eid = exp.experiment_id
            try:
                if recorder is not None:
                    report = recorder.call(f"experiment.{eid}", exp.run, SMOKE)
                else:
                    report = exp.run(SMOKE)
                text = report.render()
            except Exception:
                _report_failure(eid)
                failed += 1
                continue
            if not report.all_shapes_hold:
                print(f"FAILED {eid}: shape checks {report.shape_checks}", file=sys.stderr)
                failed += 1
            elif self.first_render.setdefault(eid, text) != text:
                print(f"FAILED {eid}: render differs from the first pass", file=sys.stderr)
                failed += 1
        instructions = int(self.counter.counts.pop("instructions", 0))
        self.counter.spans.clear()
        return PassResult(len(self.experiments), failed, instructions)

    def check(self, passes: list[PassResult]) -> int:
        return 0


class PairWarm:
    """Base + abtb=256 pairs for all four applications from warm caches."""

    name = "pair-warm"
    APPS = ("apache", "memcached", "mysql", "firefox")
    #: A sixth of PAPER's measured windows and a third of its warm-up, so
    #: that set-up, two passes and the reference check fit one run while
    #: retirement stays the largest part of a warm pass.
    SCALE = Scale(
        "pair-warm",
        {"apache": (10, 36), "memcached": (50, 250), "mysql": (8, 26), "firefox": (6, 20)},
    )
    ABTB = 256

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.traces = TraceStore(work / "trace-cache")
        self.machines = CheckpointStore(work / "machine-cache")
        self.filled: dict[str, dict] = {}
        self.last: dict[str, tuple] = {}

    def _pair(self, app: str, **kwargs):
        # Looked up on the runner at call time, so traced passes see the
        # wrapped function.
        return runner.run_pair(app, self.SCALE, self.ABTB, seed=self.seed, **kwargs)

    def setup(self) -> float:
        import_s = cold_import_s(self.root, "import repro.experiments, repro.trace.store")
        start = time.perf_counter()
        for app in self.APPS:
            base, enhanced = self._pair(
                app, backend="batched", trace_cache=self.traces, machine_cache=self.machines
            )
            self.filled[app] = summarize_pair(base, enhanced)
        return import_s + time.perf_counter() - start

    def run_pass(self, recorder=None) -> PassResult:
        failed = 0
        instructions = 0
        outputs = {}
        for app in self.APPS:
            try:
                base, enhanced = self._pair(
                    app, backend="batched", trace_cache=self.traces, machine_cache=self.machines
                )
            except Exception:
                _report_failure(f"pair {app}")
                failed += 1
                continue
            instructions += int(base.counters.instructions + enhanced.counters.instructions)
            outputs[app] = summarize_pair(base, enhanced)
            self.last[app] = (base, enhanced)
        return PassResult(len(self.APPS), failed, instructions, outputs)

    def retire_ns_by_kind(self, kinds) -> dict[str, float]:
        """Host ns per event of single-kind slices of the measured windows.

        Each slice retires through ``BatchedBackend.run_batches`` on a
        fresh copy of the warm base machine the last pass left behind.
        """
        totals = {kind: [0.0, 0] for kind in kinds}
        for app in self.APPS:
            config = ALL_WORKLOADS[app].config(seed=self.seed)
            key = trace_key(
                config, LinkMode.DYNAMIC, self.SCALE.warmup(app), self.SCALE.measured(app)
            )
            measured = self.traces.load(key).measured
            warm = MachineState.capture(self.last[app][0].cpu)
            for kind in kinds:
                rows = measured.data[measured.data["kind"] == int(EventKind[kind])]
                if not len(rows):
                    continue
                backend = BatchedBackend(warm.build_cpu())
                start = time.perf_counter()
                backend.run_batches((TraceBatch(rows, measured.tags),))
                totals[kind][0] += time.perf_counter() - start
                totals[kind][1] += len(rows)
        return {k: (s / n * 1e9 if n else 0.0) for k, (s, n) in totals.items()}

    def check(self, passes: list[PassResult]) -> int:
        """Compare every pass with the cold fill and the reference interpreter.

        The reference restores the warm machines the fill stored and
        retires the live-generated measured window on ``CPU.run``; a fully
        uncached reference would re-simulate start-up and warm-up on the
        interpreter, which costs more than the whole run budget.
        """
        failed = 0
        for app in self.APPS:
            try:
                reference = summarize_pair(
                    *self._pair(app, backend="reference", machine_cache=self.machines)
                )
            except Exception:
                _report_failure(f"reference pair {app}")
                reference = None
            for result in passes:
                got = result.outputs.get(app)
                if got is None:
                    continue  # already counted as failed by the pass
                if got != reference or got != self.filled.get(app):
                    print(
                        f"FAILED pair {app}: {got} != reference {reference} "
                        f"/ fill {self.filled.get(app)}",
                        file=sys.stderr,
                    )
                    failed += 1
        return failed


class SweepCold:
    """A sharded design-space sweep from an empty directory on every pass."""

    name = "sweep-cold"
    #: bench_sweep.py's grid at the default Bloom filter and the two end
    #: ABTB sizes only: 8 points, so that a run holds four or more passes,
    #: whose median steadies cpu_s, and the serial reference.  Per-point
    #: costs dominate either way.
    SPEC = SweepSpec(
        name="sweep-cold",
        workloads=("memcached", "apache"),
        warmup=5,
        measured=20,
        abtb_entries=(16, 256),
        abtb_ways=(0, 4),
    )
    JOBS = 2

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.points = len(self.SPEC.expand())
        self._passes = 0

    def setup(self) -> float:
        return cold_import_s(self.root, "import repro.sweep")

    def _sweep(self, jobs: int, recorder=None):
        # A fresh directory per sweep; the runner removes the whole work
        # directory when the run ends, so no deletion is timed.
        self._passes += 1
        out = self.work / f"sweep-{self._passes}"
        if recorder is not None:
            return recorder.call("sweep.run", run_sweep, self.SPEC, out, jobs=jobs)
        return run_sweep(self.SPEC, out, jobs=jobs)

    def run_pass(self, recorder=None) -> PassResult:
        try:
            result = self._sweep(self.JOBS, recorder)
        except Exception:
            _report_failure("sweep")
            return PassResult(self.points, self.points, 0)
        completed = result.campaign.completed
        instructions = sum(2 * int(s["instructions"]) for s in completed.values())
        return PassResult(self.points, self.points - len(completed), instructions, completed)

    def check(self, passes: list[PassResult]) -> int:
        try:
            reference = self._sweep(1).campaign.completed
        except Exception:
            _report_failure("serial reference sweep")
            reference = {}
        failed = 0
        for result in passes:
            for key, summary in result.outputs.items():
                if reference.get(key) != summary:
                    print(
                        f"FAILED point {key}: {summary} != serial {reference.get(key)}",
                        file=sys.stderr,
                    )
                    failed += 1
        return failed


CASES = {case.name: case for case in (Reproduce, PairWarm, SweepCold)}
