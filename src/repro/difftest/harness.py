"""Differential-correctness harness: reference vs batched backend.

The batched backend (:mod:`repro.uarch.backend`) claims counter-for-counter
equivalence with the reference interpreter.  This module *enforces* that
claim mechanically rather than trusting it:

* :func:`diff_backends` runs the same materialised event stream through a
  reference CPU and a :class:`~repro.uarch.backend.BatchedBackend`-driven
  CPU built from the same factory.  At every backend sync point (batch
  boundary, no lookahead outstanding) the reference machine is advanced to
  the identical stream position and the two full :meth:`CPU.snapshot`
  payloads — every counter, every cache/TLB/BTB entry and LRU order, the
  float cycle clock, mechanism state, marks — are compared field by field.
* On divergence, the harness *shrinks*: it re-runs both machines from a
  cold start with ``batch_events=1`` so sync points land after (almost)
  every event, and reports the minimal event window ``[last-good,
  first-bad)`` together with the exact snapshot paths that differ.
* :func:`difftest_workload` / :func:`run_matrix` wrap this in the paper's
  workload profiles: seeded traces (startup + request window), base and
  enhanced machines at configurable ABTB sizes.

Reference-side chunking is sound because sync positions are *pair-closed*:
the backend never reports a sync point between a trampoline pair head and
its tail (boundary-crossing pairs retire through the fallback before the
sync fires), so replaying ``events[done:position]`` through the reference
interpreter cannot split a lookahead window either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import ConfigError
from repro.isa.arch import Arch
from repro.trace.engine import LinkMode
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPU, CPUConfig
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload

#: ABTB sizes every profile is differentially tested at (besides base).
DEFAULT_ABTB_SIZES = (64, 256)


def snapshot_diff(reference: object, fast: object, path: str = "") -> list[tuple]:
    """Recursively compare two snapshot payloads.

    Returns ``(path, reference_value, fast_value)`` triples for every leaf
    that differs.  Floats are compared exactly — the backends promise
    bit-identical cycle arithmetic, so approximate equality would mask
    exactly the drift this harness exists to catch.
    """
    if isinstance(reference, dict) and isinstance(fast, dict):
        diffs = []
        for key in sorted(set(reference) | set(fast), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in reference:
                diffs.append((sub, "<absent>", fast[key]))
            elif key not in fast:
                diffs.append((sub, reference[key], "<absent>"))
            else:
                diffs.extend(snapshot_diff(reference[key], fast[key], sub))
        return diffs
    if isinstance(reference, (list, tuple)) and isinstance(fast, (list, tuple)):
        if len(reference) != len(fast):
            return [(f"{path}.len", len(reference), len(fast))]
        diffs = []
        for i, (r, f) in enumerate(zip(reference, fast)):
            diffs.extend(snapshot_diff(r, f, f"{path}[{i}]"))
        return diffs
    if reference != fast:
        return [(path, reference, fast)]
    return []


@dataclass
class Divergence:
    """Where and how the two backends came apart."""

    #: Last sync position where the snapshots still matched.
    last_good: int
    #: First sync position where they differed.
    first_bad: int
    #: Differing snapshot leaves at ``first_bad``: (path, reference, fast).
    diffs: list[tuple] = field(default_factory=list)
    #: The minimal event window ``events[last_good:first_bad]`` (reprs),
    #: after shrinking with single-event batches.
    window: list[str] = field(default_factory=list)
    #: False when the single-event-batch re-run did not reproduce the
    #: divergence (a batch-size-dependent bug); the window is then the
    #: original batch, not a minimal one.
    shrunk: bool = True

    def render(self) -> str:
        head = f"divergence in events [{self.last_good}, {self.first_bad})"
        if not self.shrunk:
            head += "  (not reproducible at batch_events=1; window is one full batch)"
        lines = [head]
        for ev in self.window[:8]:
            lines.append(f"  event: {ev}")
        if len(self.window) > 8:
            lines.append(f"  ... {len(self.window) - 8} more event(s)")
        for p, r, f in self.diffs[:20]:
            lines.append(f"  {p}: reference={r!r} fast={f!r}")
        if len(self.diffs) > 20:
            lines.append(f"  ... {len(self.diffs) - 20} more differing field(s)")
        return "\n".join(lines)


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    label: str
    events: int
    sync_points: int
    batch_events: int
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        head = (
            f"difftest {self.label}: {self.events} events, "
            f"{self.sync_points} sync point(s), batch={self.batch_events} — "
        )
        if self.ok:
            return head + "identical"
        return head + "DIVERGED\n" + self.divergence.render()


class _ReferenceRunner:
    """Advances a reference CPU along the shared event list on demand."""

    def __init__(self, cpu: CPU, events: list) -> None:
        self.cpu = cpu
        self.events = events
        self.done = 0

    def run_until(self, target: int) -> None:
        if target > self.done:
            self.cpu.run(self.events[self.done : target])
            self.done = target


class _DivergenceFound(Exception):
    """Internal control flow: stop the fast run at the first bad sync."""


def _run_and_compare(
    events: list, make_cpu, batch_events: int, fast_batches: list | None = None
) -> tuple[int, tuple[int, int, list] | None]:
    """One ref-vs-fast pass; returns (sync_points, found).

    ``found`` is ``(last_good, first_bad, diffs)`` or None.  Snapshots are
    compared at every sync point and once more at end of stream (the final
    partial batch syncs there too, so this is belt-and-braces for empty
    streams).

    When ``fast_batches`` is given the fast machine consumes those
    :class:`~repro.trace.batch.TraceBatch` objects zero-copy
    (:meth:`BatchedBackend.run_batches`) while the reference still walks
    ``events`` — so one pass proves generation *and* retirement
    equivalence.  A stream-length mismatch between the two is itself
    reported as a divergence (at position 0) rather than silently
    truncating the comparison.
    """
    reference = _ReferenceRunner(make_cpu(), events)
    fast_cpu = make_cpu()
    backend = BatchedBackend(fast_cpu, batch_events)
    if fast_batches is not None:
        total = sum(len(b) for b in fast_batches)
        if total != len(events):
            return 0, (0, min(total, len(events)), [("stream.len", len(events), total)])
    state = {"syncs": 0, "good": 0, "found": None}

    def sync_hook(position: int) -> None:
        state["syncs"] += 1
        reference.run_until(position)
        diffs = snapshot_diff(reference.cpu.snapshot(), fast_cpu.snapshot())
        if diffs:
            state["found"] = (state["good"], position, diffs)
            raise _DivergenceFound
        state["good"] = position

    try:
        if fast_batches is not None:
            backend.run_batches(fast_batches, sync_hook=sync_hook)
        else:
            backend.run(iter(events), sync_hook=sync_hook)
    except _DivergenceFound:
        return state["syncs"], state["found"]
    reference.run_until(len(events))
    diffs = snapshot_diff(reference.cpu.snapshot(), fast_cpu.snapshot())
    if diffs:
        return state["syncs"], (state["good"], len(events), diffs)
    return state["syncs"], None


def diff_backends(
    events,
    make_cpu,
    batch_events: int = 4096,
    label: str = "difftest",
    fast_batches: list | None = None,
) -> DiffReport:
    """Differentially run ``events`` through both backends.

    ``make_cpu`` is a zero-argument factory producing identically
    configured CPUs; it is called twice (reference and fast) and again
    for the shrinking re-run, so it must not share mutable state between
    calls.  Without ``fast_batches`` the stream is materialised once and
    both machines consume the same list — any divergence is the
    backend's, never the generator's.  With ``fast_batches`` the fast
    machine instead retires those batches zero-copy, so the comparison
    additionally covers the array-native generation path that produced
    them.
    """
    events = list(events)
    sync_points, found = _run_and_compare(events, make_cpu, batch_events, fast_batches)
    if found is None:
        return DiffReport(label, len(events), sync_points, batch_events)

    last_good, first_bad, diffs = found
    # Shrink: single-event batches make sync points as dense as the
    # backend allows (trampoline pairs still retire whole), so the first
    # bad position brackets a minimal window.
    shrunk = True
    if batch_events > 1:
        _, refound = _run_and_compare(events, make_cpu, 1, fast_batches)
        if refound is not None:
            last_good, first_bad, diffs = refound
        else:
            shrunk = False
    window = [repr(ev) for ev in events[last_good:first_bad]]
    return DiffReport(
        label,
        len(events),
        sync_points,
        batch_events,
        Divergence(last_good, first_bad, diffs, window, shrunk),
    )


def _config(workload: str, seed: int | None):
    try:
        module = ALL_WORKLOADS[workload]
    except KeyError:
        raise ConfigError(f"unknown workload {workload!r}") from None
    return module.config() if seed is None else module.config(seed=seed)


def workload_events(
    workload: str,
    requests: int = 12,
    seed: int | None = None,
    include_startup: bool = True,
) -> list:
    """Materialise one seeded workload slice (startup + request window)."""
    wl = Workload(_config(workload, seed), LinkMode.DYNAMIC)
    events = list(wl.startup_trace()) if include_startup else []
    events.extend(wl.trace(requests))
    return events


def workload_batches(
    workload: str,
    requests: int = 12,
    seed: int | None = None,
    include_startup: bool = True,
) -> list:
    """The same seeded workload slice as :func:`workload_events`, generated
    through the array-native path (:meth:`Workload.startup_batch` /
    :meth:`Workload.trace_batch`) on a fresh workload instance."""
    wl = Workload(_config(workload, seed), LinkMode.DYNAMIC)
    batches = [wl.startup_batch()] if include_startup else []
    batches.append(wl.trace_batch(requests))
    return batches


#: Apache run shapes the ablation feeds through ``run_workload`` beyond
#: the default x86 DYNAMIC configurations: label suffix → (workload
#: config overrides, mechanism config; None builds a base machine).  The
#: ablation switches contexts every 120k instructions, which a difftest
#: slice would never reach; a 3k interval puts several switches into
#: even a three-request slice.
ABLATION_SHAPES = {
    "arm/base": ({"arch": Arch.ARM}, None),
    "arm/enhanced": ({"arch": Arch.ARM}, MechanismConfig()),
    "cs=3k/flush": ({"context_switch_interval": 3_000}, MechanismConfig()),
    "cs=3k/asid": (
        {"context_switch_interval": 3_000},
        MechanismConfig(asid_support=True),
    ),
    "no-bloom": ({}, MechanismConfig(use_bloom=False)),
    "bloom=2048": ({}, MechanismConfig(bloom_bits=2048)),
}


def _difftest_config(
    config,
    mechanism_config: MechanismConfig | None,
    label: str,
    requests: int,
    batch_events: int,
    cpu_config: CPUConfig | None,
    generation: str,
) -> DiffReport:
    """Differential run of one workload configuration (see
    :func:`difftest_workload`).  The array arm retires the chunk streams
    production runs retire."""
    if generation not in ("array", "legacy"):
        raise ConfigError(f"unknown generation {generation!r}; expected 'array' or 'legacy'")
    wl = Workload(config, LinkMode.DYNAMIC)
    events = [*wl.startup_trace(), *wl.trace(requests)]
    fast_batches = None
    if generation == "array":
        wl = Workload(config, LinkMode.DYNAMIC)
        fast_batches = [*wl.startup_chunks(), *wl.trace_chunks(requests)]

    def make_cpu() -> CPU:
        mechanism = None
        if mechanism_config is not None:
            mechanism = TrampolineSkipMechanism(mechanism_config)
        return CPU(cpu_config, mechanism)

    return diff_backends(
        events, make_cpu, batch_events=batch_events, label=label, fast_batches=fast_batches
    )


def difftest_workload(
    workload: str,
    abtb_entries: int | None = None,
    requests: int = 12,
    seed: int | None = None,
    batch_events: int = 4096,
    cpu_config: CPUConfig | None = None,
    generation: str = "array",
    mechanism_config: MechanismConfig | None = None,
) -> DiffReport:
    """Differential run of one workload profile.

    ``abtb_entries=None`` builds base machines (no mechanism); an integer
    builds enhanced machines with that ABTB size.  ``mechanism_config``
    overrides the whole mechanism configuration instead (set-associative
    ABTB organizations, Bloom geometry, ...) — full-snapshot equality
    then covers the per-set state of the organization under test.

    ``generation`` picks what the *fast* machine consumes: ``"array"``
    (the default) feeds it the chunk streams of the vectorized generation
    path — legacy-iterator generation + reference retirement vs
    array-native generation + batched retirement, the full-pipeline
    equivalence every production run relies on; ``"legacy"`` feeds both
    machines the identical materialised event list, isolating backend
    behaviour.
    """
    if mechanism_config is not None and abtb_entries is not None:
        raise ConfigError("pass abtb_entries or mechanism_config, not both")
    if mechanism_config is not None:
        ways = mechanism_config.abtb_ways or "full"
        mech_label = f"abtb={mechanism_config.abtb_entries}/{ways}"
    elif abtb_entries is not None:
        mechanism_config = MechanismConfig(abtb_entries=abtb_entries)
        mech_label = f"abtb={abtb_entries}"
    else:
        mech_label = "base"
    return _difftest_config(
        _config(workload, seed), mechanism_config, f"{workload}/{mech_label}",
        requests, batch_events, cpu_config, generation,
    )


def run_matrix(
    workloads=None,
    abtb_sizes=DEFAULT_ABTB_SIZES,
    requests: int = 12,
    seed: int | None = None,
    batch_events: int = 4096,
    generation: str = "array",
) -> list[DiffReport]:
    """The full correctness matrix: every profile × {base, each ABTB size},
    plus the :data:`ABLATION_SHAPES` whenever Apache is selected.

    This is the gate EXPERIMENTS.md refers to: published numbers may only
    come from a backend that is difftest-clean on this matrix.  By default
    each cell compares legacy-iterator generation retired by the reference
    interpreter against array-native generation retired by the batched
    backend, with full-snapshot equality at every sync point.
    """
    reports = []
    for name in workloads if workloads is not None else sorted(ALL_WORKLOADS):
        for abtb in (None, *abtb_sizes):
            reports.append(
                difftest_workload(
                    name,
                    abtb_entries=abtb,
                    requests=requests,
                    seed=seed,
                    batch_events=batch_events,
                    generation=generation,
                )
            )
        if name != "apache":
            continue
        for suffix, (overrides, mechanism_config) in ABLATION_SHAPES.items():
            reports.append(
                _difftest_config(
                    replace(_config(name, seed), **overrides), mechanism_config,
                    f"{name}/{suffix}", requests, batch_events, None, generation,
                )
            )
    return reports
