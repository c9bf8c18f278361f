"""Concurrency hardening: trace-store commit discipline and the manager
client's capped, jittered backoff.

Two failure modes this file pins down:

* ``TraceStore.save`` rewriting a committed entry under a concurrent
  reader (the reader passed ``has()``, then loaded a half-swapped mix of
  old and new segment files);
* uncapped, jitterless exponential backoff in ``ManagerClient``'s
  retries of a manager it cannot reach (multi-minute sleeps, and a
  fleet of workers retrying in lockstep).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import ServiceError
from repro.service.worker import ManagerClient
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
# ManagerClient: capped exponential backoff with deterministic jitter.
# --------------------------------------------------------------------------

URL = "http://127.0.0.1:9/leases"


class TestBackoff:
    def test_cap_bounds_the_exponential_curve(self):
        client = ManagerClient(URL, retry_delay_s=1.0)
        # 1.5 ** 7 ≈ 17 s uncapped; the cap is max(4 * 1 s, 1 s).
        delays = [client.backoff_s(n, URL) for n in range(1, 9)]
        assert all(0.0 < d <= 4.0 for d in delays)
        assert delays[-1] >= 2.0  # capped, then jittered by at most half

    def test_defaults_keep_historical_schedule(self):
        # The schedule the client slept before its backoff became its own
        # method: 0.25 s * 1.5 ** (n - 1), capped at 1 s, keyed jitter 0.5.
        client = ManagerClient(URL)
        assert [client.backoff_s(n, "http://127.0.0.1:9/x") for n in (1, 2, 3, 4, 5)] == [
            0.23697233080431987,
            0.2590178719053046,
            0.4427280575347335,
            0.8122543006856426,
            0.60066114073329,
        ]

    def test_jitter_is_deterministic_per_key(self):
        client = ManagerClient(URL, retry_delay_s=1.0)
        first = client.backoff_s(1, URL)
        assert first == client.backoff_s(1, URL)
        assert 0.5 <= first <= 1.0  # cap stays a hard upper bound

    def test_jitter_desynchronises_distinct_keys(self):
        client = ManagerClient(URL, retry_delay_s=1.0)
        delays = {client.backoff_s(1, f"http://127.0.0.1:9/shard-{i}") for i in range(8)}
        assert len(delays) > 1

    def test_retry_sleeps_are_jittered_and_keyed(self):
        sleeps = []
        client = ManagerClient(
            URL, retries=3, retry_delay_s=1.0, sleep_fn=sleeps.append,
            transport=lambda url, method, data, timeout_s: (502, b""),
        )
        with pytest.raises(ServiceError):
            client.get("/x")
        url = URL + "/x"
        assert sleeps == [client.backoff_s(n, url) for n in (1, 2, 3)]
        assert all(0.5 <= s <= 4.0 for s in sleeps)
