"""Tests for the batched trace representation and the vectorized backend.

The contract under test is strict: for any event stream, the batched
backend must leave the CPU in a state *identical* to the reference
interpreter's — every counter, every cache/TLB/BTB entry and LRU order,
the float cycle clock, mechanism state and marks.  Equality is asserted
on full :meth:`CPU.snapshot` payloads, not a curated counter subset.
"""

from __future__ import annotations

import pytest

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.errors import ConfigError, TraceError
from repro.isa.events import (
    block,
    call_direct,
    call_indirect,
    cond_branch,
    context_switch,
    jmp_direct,
    load,
    mark,
    ret,
    store,
)
from repro.trace.batch import TraceBatch, iter_batches
from repro.uarch import CPU
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPUHooks
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload
from tests.test_cpu import GOT, plt_call


def mixed_trace(calls: int = 12) -> list:
    """A trace exercising every event kind, trampoline pairs included."""
    events = []
    for i in range(calls):
        events.extend(plt_call())
        events.append(block(0x5000 + 64 * i, 7))
        events.append(load(0x5100, 0x7000_0000 + 64 * i))
        events.append(store(0x5108, 0x7100_0000 + 8 * (i % 3)))
        events.append(cond_branch(0x5110, 0x5200, taken=(i % 3 != 0)))
        events.append(jmp_direct(0x5200, 0x5300 + 16 * (i % 5)))
        events.append(call_indirect(0x5300, 0x6000 + 256 * (i % 4), 0x7200_0000))
        events.append(ret(0x6010, 0x5308))
        if i % 4 == 3:
            events.append(mark(("begin", "req", i)))
            events.append(block(0x5400, 3))
            events.append(mark(("end", "req", i)))
        if i % 5 == 4:
            events.append(context_switch())
        if i % 6 == 5:
            events.append(store(0x5500, GOT))  # GOT rewrite: bloom/ABTB flush
    return events


def run_reference(events, cpu: CPU) -> CPU:
    cpu.run(list(events))
    return cpu


def run_batched(events, cpu: CPU, batch_events: int = 4096) -> CPU:
    BatchedBackend(cpu, batch_events).run(iter(events))
    return cpu


def assert_equivalent(events, make_cpu, batch_events: int = 4096) -> None:
    ref = run_reference(events, make_cpu())
    fast = run_batched(events, make_cpu(), batch_events)
    assert ref.snapshot() == fast.snapshot()


def enhanced() -> CPU:
    return CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)))


class TestTraceBatch:
    def test_round_trip_preserves_every_field(self):
        events = mixed_trace(6)
        batch = TraceBatch.from_events(events)
        back = batch.to_events()
        assert len(back) == len(events)
        for orig, rt in zip(events, back):
            for attr in ("kind", "pc", "n_instr", "nbytes", "target", "mem_addr", "tag"):
                assert getattr(orig, attr) == getattr(rt, attr), attr
            assert bool(orig.taken) == bool(rt.taken)

    def test_iter_batches_chunks_and_sizes(self):
        events = [block(0x1000 + 64 * i, 1) for i in range(10)]
        batches = list(iter_batches(events, 4))
        assert [len(b.data) for b in batches] == [4, 4, 2]

    def test_iter_batches_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            list(iter_batches([block(0x1000, 1)], 0))


class TestBackendEquivalence:
    def test_mixed_trace_base(self):
        assert_equivalent(mixed_trace(), CPU)

    def test_mixed_trace_enhanced(self):
        assert_equivalent(mixed_trace(), enhanced)

    @pytest.mark.parametrize("batch_events", [1, 2, 3, 7, 4096])
    def test_batch_size_invariance(self, batch_events):
        assert_equivalent(mixed_trace(), enhanced, batch_events)

    def test_pair_straddling_batch_boundary(self):
        # Pair head as the last event of a batch: the lookahead must cross
        # into the next batch through the fallback cursor.
        events = [block(0x1000, 1)] * 3 + plt_call() + plt_call()
        for batch_events in (4, 5):  # head at index 3 / tail split
            assert_equivalent(events, enhanced, batch_events)

    def test_marks_identical(self):
        events = mixed_trace()
        ref = run_reference(events, CPU())
        fast = run_batched(events, CPU())
        assert ref.marks == fast.marks
        assert any(m.tag == ("begin", "req", 3) for m in fast.marks)

    def test_context_switch_fallback(self):
        events = plt_call() + [context_switch()] + plt_call()
        assert_equivalent(events, enhanced)

    def test_empty_stream(self):
        assert_equivalent([], CPU)

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_workload_slice(self, name):
        cfg = ALL_WORKLOADS[name].config()
        events = list(Workload(cfg).trace(3))
        assert_equivalent(events, enhanced, batch_events=512)


class TestHooks:
    def test_hooked_cpu_falls_back_and_matches(self):
        class Recorder(CPUHooks):
            def __init__(self):
                self.trampolines = []
                self.stores = []

            def on_trampoline(self, site_pc, stub_pc, target, skipped, *a, **k):
                self.trampolines.append((site_pc, stub_pc, target, skipped))

            def on_store(self, addr):
                self.stores.append(addr)

        events = mixed_trace()

        def make(rec):
            return CPU(
                mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)),
                hooks=rec,
            )

        ref_rec, fast_rec = Recorder(), Recorder()
        ref = run_reference(events, make(ref_rec))
        fast = run_batched(events, make(fast_rec))
        assert ref.snapshot() == fast.snapshot()
        assert ref_rec.trampolines == fast_rec.trampolines
        assert ref_rec.stores == fast_rec.stores
        assert fast_rec.trampolines  # the hook actually observed something


class TestRunnerSelection:
    def test_batched_backend_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            BatchedBackend(CPU(), 0)

    def test_sync_hook_positions(self):
        events = [block(0x1000 + 64 * i, 1) for i in range(10)]
        positions = []
        BatchedBackend(CPU(), 4).run(iter(events), sync_hook=positions.append)
        assert positions == sorted(positions)
        assert positions[-1] == len(events)


class TestRunnerIntegration:
    def test_run_pair_backend_equivalence(self):
        from repro.experiments.runner import run_pair
        from repro.experiments.scale import Scale

        scale = Scale("tiny", {"memcached": (2, 6)})
        ref_base, ref_enh = run_pair(
            "memcached", scale, abtb_entries=64, seed=7, backend="reference"
        )
        fast_base, fast_enh = run_pair("memcached", scale, abtb_entries=64, seed=7)
        assert ref_base.counters.as_dict() == fast_base.counters.as_dict()
        assert ref_enh.counters.as_dict() == fast_enh.counters.as_dict()
        assert ref_enh.requests == fast_enh.requests

    def test_run_workload_rejects_unknown_backend(self):
        from repro.experiments.runner import run_workload

        cfg = ALL_WORKLOADS["memcached"].config()
        with pytest.raises(ConfigError):
            run_workload(cfg, measured_requests=1, backend="nope")
