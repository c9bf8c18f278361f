"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import CDF
from repro.core import ABTB, BloomFilter
from repro.memory.pages import PAGE_SIZE, pages_spanned
from repro.uarch.btb import BTB
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.component import default_registry
from repro.uarch.cpu import CPUConfig
from repro.uarch.predictor import ReturnAddressStack
from repro.uarch.tlb import TLB
from repro.workloads.profiles import PopularityProfile, WeightedSampler

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestBloomProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_ever(self, keys):
        bloom = BloomFilter(4096, 3)
        for k in keys:
            bloom.add(k)
        assert all(bloom.maybe_contains(k) for k in keys)

    @given(st.lists(addresses, min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_clear_restores_empty(self, keys):
        bloom = BloomFilter(1024, 2)
        for k in keys:
            bloom.add(k)
        bloom.clear()
        assert bloom.set_bits == 0


class TestABTBProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.tuples(addresses, addresses, addresses), min_size=1, max_size=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, entries, inserts):
        abtb = ABTB(entries)
        for tramp, func, got in inserts:
            abtb.insert(tramp, func, got)
            assert len(abtb) <= entries

    @given(st.lists(st.tuples(addresses, addresses, addresses), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_last_insert_always_resident(self, inserts):
        abtb = ABTB(8)
        for tramp, func, got in inserts:
            abtb.insert(tramp, func, got)
            assert abtb.lookup(tramp) == func

    @given(st.lists(st.tuples(addresses, addresses, addresses), min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_got_addresses_cover_residents(self, inserts):
        abtb = ABTB(16)
        for tramp, func, got in inserts:
            abtb.insert(tramp, func, got)
        gots = abtb.got_addresses()
        for tramp, func, got in inserts:
            if tramp in abtb:
                assert got in gots or any(
                    t == tramp for t, _, _ in inserts[::-1]
                )  # stale duplicates may have rewritten the slot


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_always_hits(self, addrs):
        cache = SetAssociativeCache("c", 4096, 64, 4)
        for a in addrs:
            cache.access(a)
            assert cache.access(a)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_misses_bounded_by_accesses(self, addrs):
        cache = SetAssociativeCache("c", 1024, 64, 2)
        for a in addrs:
            cache.access(a)
        assert 0 < cache.accesses == len(addrs)
        assert 0 <= cache.misses <= cache.accesses

    @given(st.integers(min_value=0, max_value=1 << 30), st.integers(min_value=1, max_value=10000))
    @settings(max_examples=50, deadline=None)
    def test_pages_spanned_consistent(self, addr, nbytes):
        pages = list(pages_spanned(addr, nbytes))
        assert pages[0] == addr // PAGE_SIZE
        assert pages[-1] == (addr + nbytes - 1) // PAGE_SIZE
        assert pages == sorted(set(pages))


class TestBTBProperties:
    @given(st.lists(st.tuples(addresses, addresses), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_update_then_lookup(self, pairs):
        btb = BTB(64, 4)
        for pc, target in pairs:
            btb.update(pc, target)
            assert btb.peek(pc) == target


#: Small geometry, so that short streams fill and evict every set.
SMALL_CPU = CPUConfig(
    l1i_bytes=1024, l1i_ways=2, l1d_bytes=2048, l1d_ways=4, l2_bytes=4096, l2_ways=4,
    itlb_entries=8, itlb_ways=2, dtlb_entries=16, dtlb_ways=4, btb_entries=32, btb_ways=4,
)
LRU_STRUCTURES = ("l1i", "l1d", "l2", "itlb", "dtlb", "btb")


def _lru_step(structure, op: int, key: int, target: int):
    """One access of a random stream; returns what the structure reports."""
    if op == 0:
        structure.flush()
        return None
    if isinstance(structure, BTB):
        pc = key << 2
        if op == 1:
            structure.invalidate(pc)
            return None
        if op < 12:
            structure.update(pc, target)
            return None
        return structure.lookup(pc)
    if isinstance(structure, TLB):
        return structure.access_page(key)
    return structure.access_line(key)


class TestLRUSnapshotProperties:
    @given(
        st.sampled_from(LRU_STRUCTURES),
        st.lists(
            st.tuples(
                st.integers(0, 31), st.integers(0, 127), st.integers(0, 1 << 20)
            ),
            max_size=300,
        ),
        st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_restored_structure_continues_the_stream(self, name, stream, split):
        build = default_registry().factory(name)
        whole = build(SMALL_CPU)
        expected = [_lru_step(whole, *step) for step in stream]
        first = build(SMALL_CPU)
        got = [_lru_step(first, *step) for step in stream[:split]]
        restored = build(SMALL_CPU)
        restored.restore(json.loads(json.dumps(first.snapshot())))
        got += [_lru_step(restored, *step) for step in stream[split:]]
        assert got == expected
        assert restored.snapshot() == whole.snapshot()


class TestRASProperties:
    @given(st.lists(addresses, min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_balanced_within_depth_never_mispredicts(self, rets):
        ras = ReturnAddressStack(16)
        for r in rets:
            ras.push(r)
        for r in reversed(rets):
            assert not ras.pop_and_check(r)


class TestSamplerProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_in_range(self, universe, core, zipf_s):
        mass = 0.5 if core else 0.0
        profile = PopularityProfile(core_size=core, core_mass=mass, zipf_s=zipf_s)
        sampler = WeightedSampler(profile.weights(universe))
        rng = np.random.default_rng(0)
        draws = sampler.sample_many(rng, 200)
        assert draws.min() >= 0 and draws.max() < universe


class TestCDFProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_cdf_monotone_and_normalised(self, samples):
        cdf = CDF.of(samples)
        assert list(cdf.values) == sorted(cdf.values)
        assert all(0 < f <= 1 for f in cdf.fractions)
        assert cdf.fractions[-1] == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_monotone(self, samples):
        cdf = CDF.of(samples)
        assert cdf.percentile(25) <= cdf.percentile(50) <= cdf.percentile(95)
