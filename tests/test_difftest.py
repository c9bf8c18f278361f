"""Tests for the differential-correctness harness.

Two halves: the harness certifies the real backend as clean on seeded
workload slices, and — the part that proves the harness itself works — a
deliberately sabotaged machine produces a report that localises the
divergence to a minimal event window with named snapshot fields.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

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
from repro.uarch import CPU
from repro.uarch.btb import BTB
from repro.workloads import Workload, apache


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
        report = diff_backends(
            events, self._make_factory(trip), batch_events=16, label="sabotage"
        )
        assert not report.ok
        div = report.divergence
        assert div.shrunk
        # Shrunk to (at most) one jump + one block around the dropped update.
        assert div.first_bad - div.last_good <= 2
        assert div.last_good <= 2 * trip <= div.first_bad
        assert any("btb" in path for path, _, _ in div.diffs)
        assert div.window  # the offending events are quoted
        assert "DIVERGED" in report.render()

    def test_divergence_at_stream_end(self):
        # Trip on the very last update: only the end-of-stream comparison
        # can see it, sync points having all passed.
        events = [jmp_direct(0x1000 + 32 * i, 0x90_0000 + 32 * i) for i in range(10)]
        report = diff_backends(
            events, self._make_factory(9), batch_events=4096, label="tail"
        )
        assert not report.ok
        assert report.divergence.first_bad == len(events)
