"""Concurrency hardening: trace-store commit discipline and the lease
workers' requeue backoff.

Two failure modes this file pins down:

* ``TraceStore.save`` rewriting a committed entry under a concurrent
  reader (the reader passed ``has()``, then loaded a half-swapped mix of
  old and new segment files);
* a failing shard handed straight back to an idle worker after every
  failed attempt, or left waiting longer with each one without end.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.resilience import IncidentRecorder, LeasePolicy, LocalWorkers
from repro.trace.engine import LinkMode
from repro.trace.store import TraceStore, generate_bundle, trace_key
from repro.workloads import ALL_WORKLOADS, Workload

SEED = 1234


def _bundle(warmup: int = 1, measured: int = 2):
    wl = Workload(ALL_WORKLOADS["memcached"].config(seed=SEED), LinkMode.DYNAMIC)
    bundle = generate_bundle(wl, warmup, measured)
    key = trace_key(wl.config, LinkMode.DYNAMIC, warmup, measured)
    return key, bundle


# --------------------------------------------------------------------------
# TraceStore: committed entries are immutable; concurrent fill is safe.
# --------------------------------------------------------------------------


class TestTraceStoreCommitDiscipline:
    def test_save_skips_committed_entry(self, tmp_path):
        key, bundle = _bundle()
        store = TraceStore(tmp_path)
        entry = store.save(key, bundle)
        stamps = {
            name: os.stat(entry / name).st_mtime_ns
            for name in os.listdir(entry)
        }
        assert store.save(key, bundle) == entry
        after = {
            name: os.stat(entry / name).st_mtime_ns
            for name in os.listdir(entry)
        }
        assert after == stamps  # no file was rewritten

    def test_save_completes_partial_entry(self, tmp_path):
        # A crash mid-save leaves segments without the commit marker; the
        # next writer must finish the entry, not skip it.
        key, bundle = _bundle()
        store = TraceStore(tmp_path)
        entry = store.save(key, bundle)
        (entry / "meta.json").unlink()
        assert store.load(key) is None
        store.save(key, bundle)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.total_events == bundle.total_events

    def test_load_counters(self, tmp_path):
        key, bundle = _bundle()
        store = TraceStore(tmp_path)
        assert store.load(key) is None
        store.save(key, bundle)
        assert store.load(key) is not None
        stats = store.cache_stats()
        assert stats == {"hits": 1, "misses": 1, "hit_rate": 0.5}


def _hammer_store(root: str, key: str, expected_events: int, rounds: int):
    """Worker: race save/load on one key; every load must be all-or-nothing."""
    wl = Workload(ALL_WORKLOADS["memcached"].config(seed=SEED), LinkMode.DYNAMIC)
    bundle = generate_bundle(wl, 1, 2)
    store = TraceStore(root)
    for _ in range(rounds):
        loaded = store.load(key)
        if loaded is not None and loaded.total_events != expected_events:
            return f"partial bundle observed: {loaded.total_events} events"
        store.save(key, bundle)
        loaded = store.load(key)
        if loaded is None:
            return "load missed after own save committed"
        if loaded.total_events != expected_events:
            return f"partial bundle after save: {loaded.total_events} events"
    return "ok"


class TestTraceStoreConcurrency:
    def test_simultaneous_save_load_one_key(self, tmp_path):
        """N processes hammer one key: loads are complete bundles or misses."""
        key, bundle = _bundle()
        expected = bundle.total_events
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            verdicts = pool.starmap(
                _hammer_store,
                [(str(tmp_path), key, expected, 6) for _ in range(4)],
            )
        assert verdicts == ["ok"] * 4
        # The survivors agree on one committed, readable entry.
        final = TraceStore(tmp_path).load(key)
        assert final is not None
        assert final.total_events == expected


# --------------------------------------------------------------------------
# LocalWorkers: exponential requeue backoff, bounded by the failure budget.
# --------------------------------------------------------------------------


class TestBackoff:
    def test_defaults_keep_historical_schedule(self):
        # The default requeue wait: 0.25 s * 2 ** (failures - 1).
        policy = LeasePolicy()
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == [0.25, 0.5, 1.0, 2.0]

    def test_cap_bounds_the_exponential_curve(self):
        # The failure budget caps the curve: the failure that spends it
        # quarantines the shard instead of making it wait again.
        policy = LeasePolicy(max_shard_failures=4, backoff_base_s=0.01)
        recorder = IncidentRecorder()
        report = LocalWorkers(
            _always_raises, [("a", {})], jobs=1, policy=policy, recorder=recorder
        ).run()
        waits = [
            i.context["backoff_s"] for i in recorder.incidents if i.kind == "shard_requeued"
        ]
        assert waits == [0.01, 0.02, 0.04]
        assert max(waits) == policy.backoff(policy.max_shard_failures - 1)
        assert report.quarantined["a"]["failures"] == 4
        assert recorder.counts()["shard_quarantined"] == 1


def _always_raises(payload):
    raise RuntimeError("boom")
