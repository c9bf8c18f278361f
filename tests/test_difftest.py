"""Tests for the differential-correctness harness.

Two halves: the harness certifies the real backend as clean on seeded
workload slices and on chaos-perturbed streams, and — the part that
proves the harness itself works — a deliberately sabotaged machine
produces a report that localises the divergence to a minimal event
window with named snapshot fields.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import (
    ChaosContext,
    ChaosRunConfig,
    CorrectnessOracle,
    Injector,
    SyntheticSlots,
    default_faults,
)
from repro.chaos.campaign import _mechanism as _chaos_mechanism
from repro.difftest import (
    ABLATION_SHAPES,
    DEFAULT_ABTB_SIZES,
    diff_backends,
    difftest_workload,
    run_matrix,
    snapshot_diff,
    workload_events,
)
from repro.errors import ConfigError
from repro.isa.events import block, jmp_direct
from repro.isa.kinds import EventKind
from repro.trace.batch import TraceBatch
from repro.uarch import CPU
from repro.uarch.btb import BTB
from repro.uarch.cpu import CPUHooks
from repro.workloads import ALL_WORKLOADS, Workload, apache


class TestSnapshotDiff:
    def test_equal_payloads_empty(self):
        snap = CPU().snapshot()
        assert snapshot_diff(snap, snap) == []

    def test_nested_paths_and_values(self):
        ref = {"a": {"b": [1, 2], "c": 3.0}, "d": "x"}
        fast = {"a": {"b": [1, 5], "c": 3.0}, "d": "y"}
        diffs = snapshot_diff(ref, fast)
        assert ("a.b[1]", 2, 5) in diffs
        assert ("d", "x", "y") in diffs
        assert len(diffs) == 2

    def test_missing_keys_reported(self):
        diffs = snapshot_diff({"a": 1}, {"b": 2})
        assert ("a", 1, "<absent>") in diffs
        assert ("b", "<absent>", 2) in diffs

    def test_length_mismatch(self):
        assert snapshot_diff([1, 2], [1], "xs") == [("xs.len", 2, 1)]

    def test_float_compared_exactly(self):
        assert snapshot_diff({"cycles": 1.0}, {"cycles": 1.0 + 1e-12})


class TestCleanRuns:
    def test_workload_profile_clean(self):
        report = difftest_workload("memcached", abtb_entries=64, requests=4)
        assert report.ok
        assert report.events > 0
        assert report.sync_points >= 1
        assert "identical" in report.render()

    def test_matrix_clean(self):
        reports = run_matrix(
            workloads=["memcached"], abtb_sizes=(16,), requests=3
        )
        assert [r.label for r in reports] == [
            "memcached/base",
            "memcached/abtb=16",
        ]
        assert all(r.ok for r in reports)

    def test_ablation_shapes_clean(self):
        reports = run_matrix(workloads=["apache"], abtb_sizes=(), requests=3)
        assert [r.label for r in reports] == [
            "apache/base", *(f"apache/{suffix}" for suffix in ABLATION_SHAPES)
        ]
        assert all(r.ok for r in reports), "\n".join(r.render() for r in reports)

    def test_context_switch_shapes_switch(self):
        # The ASID cells only test something if the slice really switches.
        for overrides, _mechanism in ABLATION_SHAPES.values():
            if "context_switch_interval" in overrides:
                batch = Workload(replace(apache.config(), **overrides)).trace_batch(3)
                switches = batch.data["kind"] == int(EventKind.CONTEXT_SWITCH)
                assert switches.sum() >= 2

    def test_default_matrix_covers_two_abtb_sizes(self):
        assert len(DEFAULT_ABTB_SIZES) == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            workload_events("nosuchthing")

    def test_seed_changes_stream(self):
        a = workload_events("memcached", requests=2, seed=1)
        b = workload_events("memcached", requests=2, seed=2)
        assert len(a) != len(b) or any(
            x.pc != y.pc or x.mem_addr != y.mem_addr for x, y in zip(a, b)
        )


def _chaos_stream(cfg: ChaosRunConfig) -> tuple[list, Injector, CorrectnessOracle]:
    """The events of a single-core chaos run, as ``run_chaos`` builds it:
    start-up, then the requests with the injector's faults spliced in.
    A reference CPU with the oracle's hooks consumes them while they are
    recorded, because faults fire against the live program and machine."""
    workload = Workload(ALL_WORKLOADS[cfg.workload].config(seed=1234 + cfg.seed))
    oracle = CorrectnessOracle(
        workload.program, expect_hazards=not cfg.use_bloom and not cfg.software_invalidate
    )
    mechanism = _chaos_mechanism(cfg)
    cpu = CPU(mechanism=mechanism, hooks=oracle)
    events = list(workload.startup_trace())
    cpu.run(events)
    injector = Injector(
        default_faults(software_invalidate=cfg.software_invalidate),
        ChaosContext(workload.program, oracle, mechanism, SyntheticSlots()),
        seed=cfg.seed,
        rate=cfg.rate,
    )

    def recorded(stream):
        for ev in stream:
            events.append(ev)
            yield ev

    cpu.run(recorded(injector.wrap(workload.trace(cfg.requests))))
    return events, injector, oracle


#: ``ChaosRunConfig`` fields of each chaos case: seeds 1-3 with the Bloom
#: filter, seed 1 without it, and seed 1 without it and with software
#: invalidation broken (the §3.4 hazard).
CHAOS_CASES = (
    pytest.param({"seed": 1}, id="seed1"),
    pytest.param({"seed": 2}, id="seed2"),
    pytest.param({"seed": 3}, id="seed3"),
    pytest.param({"seed": 1, "use_bloom": False}, id="seed1-no-bloom"),
    pytest.param(
        {"seed": 1, "use_bloom": False, "software_invalidate": False},
        id="seed1-no-bloom-hazard",
    ),
)


class TestChaosStreams:
    """Streams perturbed by GOT rewrites, ifunc re-selection, spurious
    invalidations and the other chaos faults stay difftest-clean.  Each
    is diffed without hooks, where the backend passes over the stores
    and snoops that cannot hit the Bloom filter, and with a no-op hook,
    which takes every store through the control loop."""

    def _check(self, workload: str, case: dict) -> None:
        cfg = ChaosRunConfig(workload=workload, **case)
        events, injector, oracle = _chaos_stream(cfg)
        assert injector.injected > 0
        if not cfg.software_invalidate:
            assert oracle.hazards_detected > 0
        for hooks in (None, CPUHooks()):
            report = diff_backends(
                events,
                lambda: CPU(mechanism=_chaos_mechanism(cfg), hooks=hooks),
                label=f"{workload}/chaos/hooks={hooks is not None}",
            )
            assert report.ok, report.render()

    @pytest.mark.parametrize("case", CHAOS_CASES)
    def test_memcached_chaos_stream_clean(self, case):
        self._check("memcached", case)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", CHAOS_CASES)
    def test_apache_chaos_stream_clean(self, case):
        self._check("apache", case)


class _DroppingBTB(BTB):
    """A BTB that silently drops exactly one update — the injected bug."""

    def __init__(self, trip: int) -> None:
        super().__init__()
        self._trip = trip

    def update(self, pc: int, target: int) -> None:
        if self.updates == self._trip:
            self.updates += 1  # consume the update without applying it
            return
        super().update(pc, target)


class TestDivergenceDetection:
    def _make_factory(self, trip: int):
        """Factory whose *odd* calls (the reference CPUs of each pass)
        carry the sabotaged BTB, so reference and fast must come apart."""
        calls = {"n": 0}

        def make_cpu() -> CPU:
            calls["n"] += 1
            cpu = CPU()
            if calls["n"] % 2 == 1:  # reference arm of each pass
                sab = _DroppingBTB(trip)
                cpu.components["btb"] = sab
                cpu.btb = sab
            return cpu

        return make_cpu

    def test_divergence_caught_and_shrunk(self):
        # Distinct direct jumps: every one misses the BTB and updates it,
        # so update #trip is dropped at a deterministic stream position.
        trip = 40
        events = []
        for i in range(100):
            events.append(jmp_direct(0x1000 + 32 * i, 0x90_0000 + 32 * i))
            events.append(block(0x90_0000 + 32 * i, 2))
        # The stream position each instruction count is reached at, to
        # place the snapshots the shrinking pass takes.
        position_of, total = {0: 0}, 0
        for position, event in enumerate(events, start=1):
            total += event.n_instr
            position_of[total] = position
        make_cpu = self._make_factory(trip)
        built, shrink_positions = [], []

        def recording_factory() -> CPU:
            cpu = make_cpu()
            built.append(cpu)
            if len(built) > 2:  # the shrinking pass's machines
                real = cpu.snapshot

                def snapshot():
                    shrink_positions.append(position_of[cpu.counters.instructions])
                    return real()

                cpu.snapshot = snapshot
            return cpu

        report = diff_backends(events, recording_factory, batch_events=16, label="sabotage")
        assert not report.ok
        div = report.divergence
        assert div.shrunk
        # Shrunk to (at most) one jump + one block around the dropped update.
        assert div.first_bad - div.last_good <= 2
        assert div.last_good <= 2 * trip <= div.first_bad
        # The shrink compares only inside the bad window of the first pass.
        assert shrink_positions and min(shrink_positions) >= div.last_good
        assert any("btb" in path for path, _, _ in div.diffs)
        assert div.window  # the offending events are quoted
        assert "DIVERGED" in report.render()

    def test_shrink_narrows_the_window_in_stages(self):
        # One 256-event batch holds the whole stream, so the first pass
        # can only say "somewhere in [0, 200)".  Sixteen-event batches
        # narrow that to one window of 16 before single-event batches
        # compare inside it, instead of at every event up to the trip.
        trip = 40
        events = []
        for i in range(100):
            events.append(jmp_direct(0x1000 + 32 * i, 0x90_0000 + 32 * i))
            events.append(block(0x90_0000 + 32 * i, 2))
        make_cpu = self._make_factory(trip)
        built, shrink_snapshots = [], []

        def recording_factory() -> CPU:
            cpu = make_cpu()
            built.append(cpu)
            if len(built) > 2:  # the shrinking stages' machines
                real = cpu.snapshot

                def snapshot():
                    shrink_snapshots.append(cpu.counters.instructions)
                    return real()

                cpu.snapshot = snapshot
            return cpu

        report = diff_backends(events, recording_factory, batch_events=256, label="sabotage")
        div = report.divergence
        assert div is not None and div.shrunk
        assert div.first_bad - div.last_good <= 2
        assert div.last_good <= 2 * trip <= div.first_bad
        assert len(shrink_snapshots) <= 40

    def test_shrink_stops_at_the_last_stage_that_reproduces(self):
        # A bug that shows at batch_events 256 and 16 but not 1: the
        # single-event stage compares clean, so the report keeps the
        # 16-event stage's window and names its batch size.
        events = [block(0x1000 + 64 * i, 2) for i in range(300)]
        calls = {"n": 0}

        def make_cpu() -> CPU:
            calls["n"] += 1
            cpu = CPU()
            if calls["n"] in (1, 3):  # the references of the first two passes
                cpu.counters.instructions += 1
            return cpu

        report = diff_backends(events, make_cpu, batch_events=256, label="batch")
        div = report.divergence
        assert div is not None and not div.shrunk and div.batch_events == 16
        assert (div.last_good, div.first_bad) == (0, 16)
        assert "window from batch_events=16;" in report.render()

    def test_shrink_cuts_fast_batches_at_the_window(self):
        # The same sabotage with the fast machine on batches whose
        # boundaries fall inside the bad window and between sync points.
        trip = 40
        events = []
        for i in range(100):
            events.append(jmp_direct(0x1000 + 32 * i, 0x90_0000 + 32 * i))
            events.append(block(0x90_0000 + 32 * i, 2))
        batches = [TraceBatch.from_events(events[a:b]) for a, b in ((0, 37), (37, 81), (81, 200))]
        report = diff_backends(
            events, self._make_factory(trip), batch_events=16, label="sabotage",
            fast_batches=batches,
        )
        div = report.divergence
        assert div is not None and div.shrunk
        assert div.first_bad - div.last_good <= 2
        assert div.last_good <= 2 * trip <= div.first_bad

    def test_divergence_at_stream_end(self):
        # Trip on the very last update: only the end-of-stream comparison
        # can see it, sync points having all passed.
        events = [jmp_direct(0x1000 + 32 * i, 0x90_0000 + 32 * i) for i in range(10)]
        report = diff_backends(
            events, self._make_factory(9), batch_events=4096, label="tail"
        )
        assert not report.ok
        assert report.divergence.first_bad == len(events)
