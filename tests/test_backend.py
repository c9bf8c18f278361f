"""Tests for the batched trace representation and the vectorized backend.

The contract under test is strict: for any event stream, the batched
backend must leave the CPU in a state *identical* to the reference
interpreter's — every counter (``cycles`` included, priced from the
rest), every cache/TLB/BTB entry and LRU order, mechanism state and
marks.  Equality is asserted on full :meth:`CPU.snapshot` payloads, not
a curated counter subset.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.core.bloom import BloomFilter, positions_array
from repro.errors import ConfigError, TraceError
from repro.isa.events import (
    block,
    call_direct,
    call_indirect,
    coherence_inval,
    cond_branch,
    context_switch,
    jmp_direct,
    jmp_indirect,
    load,
    mark,
    ret,
    store,
)
from repro.trace.batch import TraceBatch, iter_batches
from repro.uarch import CPU, CPUConfig
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPUHooks
from repro.uarch.timing import TimingModel
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
        # Pair head as the last event of a batch: the window must borrow
        # the pair's tail from the next batch.
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


class Recorder(CPUHooks):
    """Records every hook call, interleaved, in the order it fires."""

    def __init__(self):
        self.calls = []

    def on_skip(self, call, jmp, target):
        self.calls.append(("skip", call, jmp, target))

    def on_store(self, addr):
        self.calls.append(("store", addr))

    def on_trampoline(self, *args):
        self.calls.append(("trampoline",) + args)


def _refuse_reference_handlers(cpu: CPU) -> CPU:
    """Make every per-event reference handler of ``cpu`` raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a row retired through a reference handler")

    cpu._dispatch = {kind: refuse for kind in cpu._dispatch}
    for name in ("_fetch", "_data_access", "_trampoline_pair", "_call_direct", "_jmp_indirect"):
        setattr(cpu, name, refuse)
    return cpu


class TestHooks:
    def test_hooked_cpu_matches_without_reference_handlers(self):
        events = mixed_trace()

        def make(rec):
            return CPU(
                mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)),
                hooks=rec,
            )

        ref_rec, fast_rec = Recorder(), Recorder()
        ref = run_reference(events, make(ref_rec))
        fast = run_batched(events, _refuse_reference_handlers(make(fast_rec)), 5)
        assert ref.snapshot() == fast.snapshot()
        assert ref_rec.calls == fast_rec.calls
        kinds = {call[0] for call in fast_rec.calls}
        assert kinds == {"skip", "store", "trampoline"}  # every hook observed


# ------------------------------------------------ snoop pre-filter


def _store_at(addr):
    return store(0x5200, addr)


class TestSnoopPrefilter:
    """Only snoops that can hit the Bloom filter enter the control loop;
    the rest count a query.  Every case is one span: no context switch,
    one window."""

    #: Not GOT: cannot hit a filter that holds only GOT.
    ELSEWHERE = 0x7100_0040

    def _span(self, snoop) -> list:
        # The filter starts empty, the first pair learns GOT in this span,
        # and a later snoop of GOT must flush the ABTB and the filter.
        return (
            [store(0x5108, GOT)]  # before the learn: an empty filter misses
            + plt_call()
            + [store(0x5110, self.ELSEWHERE), snoop(GOT)]
            + plt_call()
            + plt_call()
        )

    @pytest.mark.parametrize(
        "snoop, flushes",
        [(_store_at, "store_flushes"), (coherence_inval, "coherence_flushes")],
        ids=["store", "coherence"],
    )
    def test_slot_learned_in_the_span_still_flushes(self, snoop, flushes):
        events = self._span(snoop)
        ref = run_reference(events, enhanced())
        fast = run_batched(events, enhanced())
        assert ref.snapshot() == fast.snapshot()
        ref_bloom, bloom = ref.mechanism.bloom, fast.mechanism.bloom
        assert (bloom.queries, bloom.hits) == (ref_bloom.queries, ref_bloom.hits) == (3, 1)
        assert getattr(fast.mechanism.stats, flushes) == 1
        # The misses never reached the loop: only the learned slot was hashed.
        assert set(bloom._pos_cache) == {GOT}

    def test_hooked_cpu_sees_every_store(self):
        events = self._span(_store_at)

        def make(rec):
            return CPU(
                mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)),
                hooks=rec,
            )

        ref_rec, fast_rec = Recorder(), Recorder()
        ref = run_reference(events, make(ref_rec))
        fast = run_batched(events, make(fast_rec))
        assert ref.snapshot() == fast.snapshot()
        assert ref_rec.calls == fast_rec.calls
        stores = [call for call in fast_rec.calls if call[0] == "store"]
        assert stores == [("store", GOT), ("store", self.ELSEWHERE), ("store", GOT)]

    @pytest.mark.parametrize("bits, hashes", [(8, 1), (64, 3), (1024, 2), (4096, 8), (1 << 16, 4)])
    @given(keys=st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_vectorised_positions_match(self, bits, hashes, keys):
        bloom = BloomFilter(bits, hashes)
        rows = positions_array(np.array(keys, np.uint64), bits, hashes).tolist()
        assert rows == [bloom._positions(key) for key in keys]

    def test_could_hit_keeps_current_and_learned_keys(self):
        bloom = BloomFilter(1024, 2)
        bloom.add(GOT)
        keys = np.array([GOT, GOT + 8, self.ELSEWHERE], np.int64)
        assert bloom.could_hit(keys, np.array([GOT + 8])).tolist() == [True, True, False]
        bloom.clear()
        assert bloom.could_hit(keys, np.zeros(0, np.int64)).tolist() == [False] * 3


# ------------------------------------------------ property: equivalence

SITES = [0x400100 + 0x40 * i for i in range(4)]
STUBS = [0x401020 + 0x10 * i for i in range(4)]
FUNCS = [0x7F0000_0000 + 0x1000 * i for i in range(6)]
GOTS = [0x601018 + 8 * i for i in range(4)]

#: Non-integer penalties, so priced cycles round: with integer penalties
#: any order of the terms gives the same float, and equal marks could not
#: show that both engines price counts the same way.
ODD_TIMING = TimingModel(
    base_cpi=0.37, l1i_miss=12.1, l1d_miss=14.3, l2_miss=120.7,
    itlb_miss=30.9, dtlb_miss=29.3, mispredict=14.9,
)

#: Default machine; small structures so the run sees evictions
#: everywhere; both with the odd timing.
CONFIGS = [
    None,
    CPUConfig(timing=ODD_TIMING, direct_btb_bubble=3.3),
    CPUConfig(
        l1i_bytes=1024, l1i_ways=2, l1d_bytes=1024, l1d_ways=2, l2_bytes=4096, l2_ways=4,
        itlb_entries=4, itlb_ways=2, dtlb_entries=4, dtlb_ways=2, btb_entries=16,
        btb_ways=2, gshare_entries=64, history_bits=4, ras_depth=4,
        timing=ODD_TIMING, direct_btb_bubble=3.3,
    ),
]

MACHINES = {
    "base": None,
    "abtb16": MechanismConfig(abtb_entries=16),
    "abtb16-4way": MechanismConfig(abtb_entries=16, abtb_ways=4),
    "no-bloom": MechanismConfig(abtb_entries=16, use_bloom=False),
    "asid": MechanismConfig(abtb_entries=16, asid_support=True),
}


def _tagged(ev, tag):
    ev.tag = tag
    return ev


def _fragment(kind: int, i: int, j: int, taken: bool) -> list:
    """A few events of one shape; ``i``/``j`` pick sites, slots, targets."""
    site, stub, func, got = SITES[i % 4], STUBS[i % 4], FUNCS[j % 6], GOTS[i % 4]
    arm = stub + 0x200
    if kind == 0:  # x86 trampoline pair
        return [call_direct(site, stub), _tagged(jmp_indirect(stub, func, got), "plt")]
    if kind == 1:  # ARM pair: address-computation prefix, then the branch
        return [call_direct(site, arm), block(arm, 2, 8), jmp_indirect(arm + 8, func, got)]
    if kind == 2:  # a short BLOCK at the call's target but no jump: push-back
        return [call_direct(site, arm), block(arm, 2, 8)]
    if kind == 3:  # tail-called trampoline
        return [_tagged(jmp_indirect(stub, func, got), "plt")]
    if kind == 4:  # GOT rewrite
        return [_tagged(store(0x5000 + 4 * j, got), "got-store")]
    if kind == 5:
        return [coherence_inval(got if taken else 0x7000_0000 + 64 * j)]
    if kind == 6:
        return [context_switch()]
    if kind == 7:
        return [mark(("req", i, j))]
    if kind == 8:
        return [block(0x5000 + 48 * i * j, 1 + j, 4 + 60 * (j % 3))]
    if kind == 9:
        return [load(0x5100 + 4 * i, 0x7000_0000 + 4096 * i + 64 * j)]
    if kind == 10:
        return [store(0x5200 + 4 * i, 0x7000_0000 + 4096 * j + 8 * i)]
    if kind == 11:
        return [cond_branch(0x5300 + 4 * i, 0x5400 + 16 * j, taken)]
    if kind == 12:
        return [ret(func + 0x40, site + 5 if taken else 0x5500)]
    if kind == 13:
        return [jmp_direct(0x5600 + 4 * i, 0x5700 + 16 * j)]
    if kind == 14:
        return [call_indirect(0x5800 + 4 * i, func, GOTS[j % 4] if taken else 0)]
    return [call_direct(site, func)]  # a plain direct call


fragments = st.lists(
    st.tuples(
        st.integers(0, 15), st.integers(0, 7), st.integers(0, 7), st.booleans()
    ),
    max_size=60,
)


class TestEquivalenceProperty:
    """Any stream, any batch size: the passes leave the reference's state."""

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @given(
        shapes=fragments,
        batch_events=st.integers(1, 64),
        config=st.sampled_from(CONFIGS),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, machine, hooked, shapes, batch_events, config):
        events = [ev for shape in shapes for ev in _fragment(*shape)]

        def make(hooks):
            mech = MACHINES[machine]
            return CPU(
                config,
                TrampolineSkipMechanism(mech) if mech is not None else None,
                hooks=hooks,
            )

        ref_rec = Recorder() if hooked else None
        fast_rec = Recorder() if hooked else None
        ref = make(ref_rec)
        fast = _refuse_reference_handlers(make(fast_rec))
        done = 0

        def at_sync(position):
            nonlocal done
            ref.run(events[done:position])
            done = position
            assert ref.snapshot() == fast.snapshot(), position

        BatchedBackend(fast, batch_events).run(iter(events), sync_hook=at_sync)
        assert done == len(events)
        assert ref.snapshot() == fast.snapshot()
        assert ref.marks == fast.marks
        if hooked:
            assert ref_rec.calls == fast_rec.calls


class TestRunnerSelection:
    def test_batched_backend_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            BatchedBackend(CPU(), 0)

    def test_sync_hook_positions(self):
        events = [block(0x1000 + 64 * i, 1) for i in range(10)]
        positions = []
        BatchedBackend(CPU(), 4).run(iter(events), sync_hook=positions.append)
        assert positions == [4, 8, 10]
        # A window ending on a pair head borrows the rows the reference's
        # lookahead reads; the next window starts after them.
        events = [block(0x1000, 1)] * 3 + plt_call() + plt_call()
        for batch_events, expected in ((4, [5, 9, 11]), (5, [5, 10, 11])):
            positions = []
            BatchedBackend(enhanced(), batch_events).run(
                iter(events), sync_hook=positions.append
            )
            assert positions == expected, batch_events


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
