"""Tests for the numpy-native trace pipeline.

The pipeline's contract, end to end: array-native generation emits
event-for-event (and serialised byte-for-byte) what the legacy iterator
generators emit; the codec round-trips every field of every event kind;
the batched backend retires stored batches to CPU state identical to the
reference interpreter over the iterator stream; and the content-addressed
trace store turns all of it into a deterministic, corruption-safe
campaign cache.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
from collections import defaultdict
from functools import partial

import pytest

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.difftest.harness import diff_backends, workload_batches, workload_events
from repro.errors import ConfigError, TraceCorruptionError, TraceError
from repro.experiments import runner
from repro.experiments.runner import run_campaign, run_pair, run_workload, summarize_pair
from repro.experiments.scale import Scale
from repro.isa.kinds import EventKind
from repro.obs import Observability
from repro.resilience.incidents import IncidentRecorder
from repro.trace import store as trace_store
from repro.trace.batch import TraceBatch
from repro.trace.engine import LinkMode
from repro.trace.store import (
    TraceStore,
    TraceTape,
    collect_stats,
    generate_bundle,
    stream_segments,
    trace_key,
)
from repro.uarch import CPU
from repro.uarch import backend as backend_module
from repro.uarch.backend import BatchedBackend
from repro.uarch.machine import CheckpointStore, SharedPrefix
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload

PROFILES = ("apache", "firefox", "memcached", "mysql")
REQUESTS = 4
SEED = 2025


def _workload(name: str, mode: LinkMode = LinkMode.DYNAMIC) -> Workload:
    return Workload(ALL_WORKLOADS[name].config(seed=SEED), mode)


# ------------------------------------------------- generation equivalence


class TestArrayGenerationMatchesLegacy:
    """The batch-emitting twins are oracle-checked against the iterators."""

    @pytest.mark.parametrize("name", PROFILES)
    def test_startup_and_requests_byte_identical(self, name):
        legacy = _workload(name)
        events = list(legacy.startup_trace())
        events.extend(legacy.trace(REQUESTS))

        arrayed = _workload(name)
        batches = [arrayed.startup_batch(), arrayed.trace_batch(REQUESTS)]

        total = sum(len(b.data) for b in batches)
        assert total == len(events)
        # Byte-identical through the codec — same rows, same tag
        # interning order — segment by segment.
        assert TraceBatch.from_events(events[: len(batches[0].data)]).to_bytes() == (
            batches[0].to_bytes()
        )
        assert TraceBatch.from_events(events[len(batches[0].data) :]).to_bytes() == (
            batches[1].to_bytes()
        )

    @pytest.mark.parametrize("name", PROFILES)
    def test_usage_stats_identical(self, name):
        legacy = _workload(name)
        list(legacy.startup_trace())
        legacy.reset_usage_stats()
        list(legacy.trace(REQUESTS))

        arrayed = _workload(name)
        arrayed.startup_batch()
        arrayed.reset_usage_stats()
        arrayed.trace_batch(REQUESTS)

        assert arrayed.touched_pairs == legacy.touched_pairs
        assert arrayed.pair_counts == legacy.pair_counts
        assert arrayed.engine.calls_emitted == legacy.engine.calls_emitted
        assert arrayed.engine.resolutions_emitted == legacy.engine.resolutions_emitted

    def test_static_mode_and_warmup_kwargs_match(self):
        legacy = _workload("memcached", LinkMode.STATIC)
        events = list(legacy.trace(REQUESTS, include_marks=False, start_id=7))
        arrayed = _workload("memcached", LinkMode.STATIC)
        batch = arrayed.trace_batch(REQUESTS, include_marks=False, start_id=7)
        assert TraceBatch.from_events(events).to_bytes() == batch.to_bytes()

    def test_template_cache_invalidated_by_binding_epoch(self):
        """A GOT rewrite mid-trace must not leave stale call templates."""
        legacy = _workload("memcached")
        arrayed = _workload("memcached")
        for wl in (legacy, arrayed):
            # Warm the engine (and, on the array side, its template cache).
            if wl is legacy:
                list(wl.startup_trace())
            else:
                wl.startup_batch()
            epoch = wl.program.binding_epoch
            wl.program.reselect_ifuncs(hwcap_level=1)
            assert wl.program.binding_epoch == epoch + 1
        events = list(legacy.trace(REQUESTS))
        batch = arrayed.trace_batch(REQUESTS)
        assert TraceBatch.from_events(events).to_bytes() == batch.to_bytes()


# ----------------------------------------------- codec round-trip (all kinds)


class TestCodecRoundTrip:
    @pytest.mark.parametrize("name", PROFILES)
    def test_round_trip_over_profile(self, name):
        """Satellite contract: from_events/to_events over every profile,
        context-switch and dlclose event kinds included."""
        wl = _workload(name)
        events = list(wl.startup_trace())
        events.extend(wl.trace(REQUESTS))
        # dlclose emits the GOT-reset stores + markers the codec must
        # also carry; unload the last-loaded library once tracing is done.
        events.extend(wl.engine.dlclose_events(wl.config.libraries[-1].name))

        batch = TraceBatch.from_events(events)
        back = batch.to_events()
        assert len(back) == len(events)
        for orig, rt in zip(events, back):
            for attr in ("kind", "pc", "n_instr", "nbytes", "target", "mem_addr", "tag"):
                assert getattr(orig, attr) == getattr(rt, attr), attr
            assert bool(orig.taken) == bool(rt.taken)
        # And byte-stability through a second serialisation.
        assert TraceBatch.from_events(back).to_bytes() == batch.to_bytes()

    def test_context_switch_kind_emitted_and_round_trips(self):
        import dataclasses

        cfg = dataclasses.replace(
            ALL_WORKLOADS["memcached"].config(seed=SEED), context_switch_interval=500
        )
        batch = Workload(cfg, LinkMode.DYNAMIC).trace_batch(5)
        kinds = {int(k) for k in batch.data["kind"]}
        assert int(EventKind.CONTEXT_SWITCH) in kinds
        assert int(EventKind.MARK) in kinds
        assert TraceBatch.from_events(batch.to_events()).to_bytes() == batch.to_bytes()


# ------------------------------------------------------------ batch slicing


class TestBatchSlices:
    def test_slices_are_zero_copy_views_covering_all_rows(self):
        batch = _workload("memcached").trace_batch(REQUESTS)
        pieces = list(batch.slices(101))
        assert sum(len(p.data) for p in pieces) == len(batch.data)
        assert all(p.tags is batch.tags for p in pieces)
        assert pieces[0].data.base is not None  # a view, not a copy

    def test_slices_rejects_nonpositive(self):
        batch = _workload("memcached").trace_batch(1)
        with pytest.raises(TraceError):
            list(batch.slices(0))


# ------------------------------------------------------- batched retirement


class TestRunBatches:
    def test_run_batches_matches_reference_full_snapshot(self):
        events = workload_events("memcached", requests=REQUESTS, seed=SEED)
        batches = workload_batches("memcached", requests=REQUESTS, seed=SEED)

        def make_cpu() -> CPU:
            return CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)))

        ref = make_cpu()
        ref.run(events)
        fast = make_cpu()
        BatchedBackend(fast, 101).run_batches(batches)
        assert ref.snapshot() == fast.snapshot()

    def test_difftest_array_generation_is_clean(self):
        report = diff_backends(
            workload_events("apache", requests=REQUESTS, seed=SEED),
            CPU,
            fast_batches=workload_batches("apache", requests=REQUESTS, seed=SEED),
        )
        assert report.ok, report.render()

    def test_difftest_reports_stream_length_mismatch(self):
        events = workload_events("apache", requests=REQUESTS, seed=SEED)
        batches = workload_batches("apache", requests=REQUESTS, seed=SEED)
        truncated = [batches[0], TraceBatch(batches[1].data[:-3], batches[1].tags)]
        report = diff_backends(events, CPU, fast_batches=truncated)
        assert not report.ok
        assert any(p == "stream.len" for p, _r, _f in report.divergence.diffs)


# ------------------------------------------------------------- trace store


class TestTraceStore:
    def _bundle(self, warmup=2, measured=3):
        wl = _workload("memcached")
        return generate_bundle(wl, warmup, measured), wl

    def test_save_load_round_trip_with_stats(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        cfg = wl.config
        key = trace_key(cfg, LinkMode.DYNAMIC, 2, 3)
        assert not store.has(key)
        store.save(key, bundle)
        assert store.has(key)
        loaded = store.load(key)
        assert loaded is not None
        for got, want in zip(loaded.segments(), bundle.segments()):
            assert got.to_bytes() == want.to_bytes()
        assert loaded.stats == collect_stats(wl)
        assert len(loaded.stats["touched_pairs"]) == wl.distinct_trampolines_touched
        assert loaded.stats["calls_emitted"] == wl.engine.calls_emitted

    def test_corrupt_segment_reads_as_miss(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)
        raw = bytearray((entry / "measured.trace").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (entry / "measured.trace").write_bytes(bytes(raw))
        assert store.has(key)  # marker present...
        assert store.load(key) is None  # ...but the payload is not trusted

    def test_transient_read_error_keeps_the_marker(self, tmp_path, monkeypatch):
        bundle, wl = self._bundle()
        recorder = IncidentRecorder()
        store = TraceStore(tmp_path, recorder=recorder)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)

        def too_many_files(path):
            exc = OSError(errno.EMFILE, "Too many open files")
            raise TraceCorruptionError(f"trace {path} unreadable: {exc}") from exc

        monkeypatch.setattr(TraceBatch, "load", too_many_files)
        assert store.load(key) is None
        assert recorder.counts() == {"trace_corrupt": 1}
        assert (entry / "meta.json").exists()  # the entry itself is fine
        monkeypatch.undo()
        assert store.load(key) is not None

    def test_marker_committed_since_the_read_is_kept(self, tmp_path, monkeypatch):
        # Another loader found the same damage first, and its repair
        # committed a fresh marker over good segments: that one stays.
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)
        raw = bytearray((entry / "measured.trace").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (entry / "measured.trace").write_bytes(bytes(raw))
        real_load = TraceBatch.load

        def load_during_repair(path):
            try:
                return real_load(path)  # reads the damaged bytes
            finally:
                (entry / "meta.json").unlink()
                TraceStore(tmp_path).save(key, bundle)

        monkeypatch.setattr(TraceBatch, "load", load_during_repair)
        assert store.load(key, segments=("measured",)) is None
        monkeypatch.undo()
        assert (entry / "meta.json").exists()
        assert store.load(key) is not None

    def test_missing_marker_reads_as_miss(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)
        (entry / "meta.json").unlink()
        assert store.load(key) is None

    def test_key_covers_recipe_and_windows(self):
        cfg = ALL_WORKLOADS["memcached"].config(seed=SEED)
        base = trace_key(cfg, LinkMode.DYNAMIC, 2, 3)
        assert trace_key(cfg, LinkMode.DYNAMIC, 2, 3) == base
        assert trace_key(cfg, LinkMode.STATIC, 2, 3) != base
        assert trace_key(cfg, LinkMode.DYNAMIC, 3, 3) != base
        assert trace_key(cfg, LinkMode.DYNAMIC, 2, 4) != base
        other = ALL_WORKLOADS["memcached"].config(seed=SEED + 1)
        assert trace_key(other, LinkMode.DYNAMIC, 2, 3) != base


# ----------------------------------------------------- runner integration


class TestRunnerTraceCache:
    SCALE = Scale("t", {"memcached": (3, 2)})

    def _pair(self, **kw):
        base, enhanced = run_pair("memcached", self.SCALE, abtb_entries=16, **kw)
        return (
            base.counters.instructions,
            base.counters.cycles,
            enhanced.counters.cycles,
            len(base.requests),
            base.usage,
            enhanced.usage,
        )

    def test_cold_and_warm_match_reference(self, tmp_path):
        reference = self._pair(backend="reference")
        store = TraceStore(tmp_path)
        cold = self._pair(trace_cache=store)
        warm = self._pair(trace_cache=store)
        assert reference == cold == warm
        assert reference[4]["calls_emitted"] > 0

    def test_warm_pair_links_no_program(self, tmp_path, monkeypatch):
        caches = dict(
            trace_cache=TraceStore(tmp_path / "traces"),
            machine_cache=CheckpointStore(tmp_path / "machines"),
        )
        filled = run_pair("memcached", self.SCALE, abtb_entries=16, **caches)

        def no_link(self, *args, **kwargs):
            raise AssertionError("a warm run built a Workload")

        monkeypatch.setattr(Workload, "__init__", no_link)
        warm = run_pair("memcached", self.SCALE, abtb_entries=16, **caches)
        assert summarize_pair(*warm) == summarize_pair(*filled)
        assert [r.usage for r in warm] == [r.usage for r in filled]

    def test_corrupt_entry_is_repaired_once(self, tmp_path):
        recorder = IncidentRecorder()
        store = TraceStore(tmp_path, recorder=recorder)
        filled = run_pair("memcached", self.SCALE, abtb_entries=16, trace_cache=store)
        (measured,) = tmp_path.rglob("measured.trace")
        raw = bytearray(measured.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        measured.write_bytes(bytes(raw))
        # The first pair's base run detects the damage and rewrites the
        # entry; the second pair hits twice.
        again = run_pair("memcached", self.SCALE, abtb_entries=16, trace_cache=store)
        hits = store.hits
        repaired = run_pair("memcached", self.SCALE, abtb_entries=16, trace_cache=store)
        assert store.hits == hits + 2
        assert recorder.counts() == {"trace_corrupt": 1}
        assert summarize_pair(*again) == summarize_pair(*repaired) == summarize_pair(*filled)

    def test_warm_pair_reads_only_the_measured_segment(self, tmp_path):
        recorder = IncidentRecorder()
        traces = TraceStore(tmp_path / "traces", recorder=recorder)
        machines = CheckpointStore(tmp_path / "machines", recorder=recorder)
        caches = dict(trace_cache=traces, machine_cache=machines)
        filled = run_pair("memcached", self.SCALE, abtb_entries=16, **caches)
        (meta,) = (tmp_path / "traces").rglob("meta.json")
        for segment in ("startup", "warmup"):
            (meta.parent / f"{segment}.trace").unlink()
        misses = traces.misses
        warm = run_pair("memcached", self.SCALE, abtb_entries=16, **caches)
        assert summarize_pair(*warm) == summarize_pair(*filled)
        assert traces.misses == misses and recorder.counts() == {}
        # A cold machine needs every segment: the damaged entry misses
        # once and is written again.
        shutil.rmtree(tmp_path / "machines")
        cold = run_pair("memcached", self.SCALE, abtb_entries=16, **caches)
        assert summarize_pair(*cold) == summarize_pair(*filled)
        assert traces.misses == misses + 1
        assert recorder.counts() == {"trace_corrupt": 1}
        assert traces.load(meta.parent.name) is not None

    def test_trace_cache_ignored_for_reference_backend(self, tmp_path):
        store = TraceStore(tmp_path)
        result = self._pair(backend="reference", trace_cache=store)
        assert result == self._pair(backend="reference")
        assert not list(tmp_path.rglob("meta.json"))  # never engaged

    def test_uncached_pair_links_and_generates_once(self, monkeypatch, tmp_path):
        # The producer is a forked child, so its calls are counted in a
        # file it appends to, each line naming the process that called.
        log = tmp_path / "calls"
        real_init, real_stream = Workload.__init__, stream_segments

        def note(call: str) -> None:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {call}\n")

        def counting_init(self, *args, **kwargs):
            note("link")
            real_init(self, *args, **kwargs)

        def counting_stream(*args, **kwargs):
            note("generate")
            return real_stream(*args, **kwargs)

        monkeypatch.setattr(Workload, "__init__", counting_init)
        monkeypatch.setattr(trace_store, "stream_segments", counting_stream)
        monkeypatch.setattr(runner, "stream_segments", counting_stream)
        run_pair("memcached", self.SCALE, abtb_entries=16)
        calls = [line.split() for line in log.read_text().splitlines()]
        producers = {pid for pid, _ in calls}
        assert len(producers) == 1 and str(os.getpid()) not in producers
        assert sorted(call for _, call in calls) == ["generate", "link"]


# ------------------------------------------------------------ pair tape


def _fingerprint(result) -> tuple:
    """Everything a run reports, the whole final machine included."""
    return (
        result.counters.as_dict(),
        result.requests,
        result.usage,
        result.unmatched_marks,
        result.cpu.snapshot(),
    )


@pytest.fixture
def producers(monkeypatch):
    """The pids of the processes forked during the test."""
    pids: list[int] = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids: list[int]) -> None:
    """Each pid was a child of this process and has been reaped: no
    producer is left running or as a zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class _MapsNothing(TrampolineSkipMechanism):
    """A mechanism whose ABTB never maps a target, so nothing is skipped."""

    def mapped_target(self, real_target: int) -> None:
        return None


class TestPairTape:
    """An uncached batched pair generates once, in a forked producer, while
    its enhanced run retires; the base run replays the tape and shares the
    enhanced run's start.  Each side must report exactly what two
    independent runs would."""

    SCALE = Scale("t", {"apache": (2, 3), "memcached": (3, 4), "mysql": (1, 2), "firefox": (1, 2)})
    NO_WARMUP = Scale(
        "t0", {"apache": (0, 3), "memcached": (0, 4), "mysql": (0, 2), "firefox": (0, 2)}
    )
    ABTB = 16

    def _generated(self, name, scale=None, mechanism_class=TrampolineSkipMechanism, **kwargs):
        """Base and enhanced as two independent run_workload calls."""
        scale = scale or self.SCALE
        config = ALL_WORKLOADS[name].config()
        windows = (scale.warmup(name), scale.measured(name))
        mechanism = mechanism_class(MechanismConfig(abtb_entries=self.ABTB))
        return [
            runner.run_workload(config, mech, *windows, label=label, **kwargs)
            for label, mech in (("base", None), ("enhanced", mechanism))
        ]

    @pytest.mark.parametrize("name", PROFILES)
    def test_replayed_side_equals_generated(self, name):
        taped = run_pair(name, self.SCALE, abtb_entries=self.ABTB)
        generated = self._generated(name)
        assert [_fingerprint(r) for r in taped] == [_fingerprint(r) for r in generated]

    @pytest.mark.parametrize("name", PROFILES)
    def test_pair_without_warmup_equals_generated(self, name):
        taped = run_pair(name, self.NO_WARMUP, abtb_entries=self.ABTB)
        generated = self._generated(name, self.NO_WARMUP)
        assert [_fingerprint(r) for r in taped] == [_fingerprint(r) for r in generated]

    @pytest.mark.parametrize("name", PROFILES)
    def test_prefix_ends_at_warmup_when_nothing_is_skipped(self, name, monkeypatch):
        recorded = []
        real_record = SharedPrefix.record

        def record(prefix, cpu, at):
            recorded.append(at)
            real_record(prefix, cpu, at)

        monkeypatch.setattr(SharedPrefix, "record", record)
        monkeypatch.setattr(runner, "TrampolineSkipMechanism", _MapsNothing)
        taped = run_pair(name, self.SCALE, abtb_entries=self.ABTB)
        generated = self._generated(name, mechanism_class=_MapsNothing)
        assert taped[1].counters.trampolines_skipped == 0
        assert [_fingerprint(r) for r in taped] == [_fingerprint(r) for r in generated]
        # No skip, and no MARK before the measured window: the record
        # falls at the end of warm-up.
        bundle = generate_bundle(
            Workload(ALL_WORKLOADS[name].config(), LinkMode.DYNAMIC),
            self.SCALE.warmup(name),
            self.SCALE.measured(name),
        )
        assert recorded == [len(bundle.startup) + len(bundle.warmup)]

    @pytest.mark.parametrize("name", PROFILES)
    def test_base_memory_passes_start_at_the_recorded_row(self, name, monkeypatch):
        """The base run probes no cache or TLB before the first row where
        the enhanced run skips or meets a mark, and probes from there on."""
        spans = defaultdict(list)  # cpu -> (row, probed, skips, has a mark)
        earlier = defaultdict(int)  # cpu -> rows of its earlier run_batches calls
        probes: list[int] = []
        real_run = BatchedBackend.run_batches
        real_span = BatchedBackend._retire_span
        real_pass = backend_module._lru_pass

        def run_batches(self, *args, **kwargs):
            try:
                return real_run(self, *args, **kwargs)
            finally:
                earlier[self.cpu] += self.position

        def retire_span(self, cols, tags, lo, hi):
            probes.clear()
            skipped = self.cpu.counters.trampolines_skipped
            real_span(self, cols, tags, lo, hi)
            spans[self.cpu].append((
                earlier[self.cpu] + self.position + lo,
                bool(probes),
                self.cpu.counters.trampolines_skipped > skipped,
                bool((cols["kind"][lo:hi] == int(EventKind.MARK)).any()),
            ))

        def lru_pass(structure, keys):
            probes.append(len(keys))
            return real_pass(structure, keys)

        monkeypatch.setattr(BatchedBackend, "run_batches", run_batches)
        monkeypatch.setattr(BatchedBackend, "_retire_span", retire_span)
        monkeypatch.setattr(backend_module, "_lru_pass", lru_pass)
        base, enhanced = run_pair(name, self.SCALE, abtb_entries=self.ABTB)
        recorded = next(
            row for row, _, skips, mark in spans[enhanced.cpu] if skips or mark
        )
        base_spans = spans[base.cpu]
        assert any(row < recorded for row, *_ in base_spans)
        assert all(probed == (row >= recorded) for row, probed, *_ in base_spans)
        assert all(probed for _, probed, *_ in spans[enhanced.cpu])

    def _pair_after_one_warm_side(self, name, tmp_path, mechanism) -> None:
        """Cache one side's machine (``mechanism`` None: the base one),
        then check the pair: that side restores it and neither records
        nor adopts, and the other side simulates everything."""
        machines = CheckpointStore(tmp_path)
        config = ALL_WORKLOADS[name].config()
        windows = (self.SCALE.warmup(name), self.SCALE.measured(name))
        run_workload(config, mechanism, *windows, machine_cache=machines)
        assert len(list(tmp_path.iterdir())) == 1
        taped = run_pair(name, self.SCALE, abtb_entries=self.ABTB, machine_cache=machines)
        assert len(list(tmp_path.iterdir())) == 2
        generated = self._generated(name)
        assert [_fingerprint(r) for r in taped] == [_fingerprint(r) for r in generated]

    @pytest.mark.parametrize("name", PROFILES)
    def test_replay_after_a_warm_base_machine(self, name, tmp_path):
        # The enhanced run keeps all three segments from the producer and
        # records; the base run replays only the measured window.
        self._pair_after_one_warm_side(name, tmp_path, None)

    @pytest.mark.parametrize("name", PROFILES)
    def test_replay_after_a_warm_enhanced_machine(self, name, tmp_path):
        # The enhanced run keeps the start-up and warm-up frames without
        # decoding them and records nothing; the base run replays all
        # three segments with no prefix to adopt.
        mechanism = TrampolineSkipMechanism(MechanismConfig(abtb_entries=self.ABTB))
        self._pair_after_one_warm_side(name, tmp_path, mechanism)

    @pytest.mark.parametrize("name", PROFILES)
    def test_replayed_side_reports_the_same_progress(self, name, monkeypatch):
        totals: list[int] = []

        def progress(n: int) -> None:
            totals[-1] += n

        real = runner.run_workload

        def one_total_per_side(*args, **kwargs):
            totals.append(0)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_workload", one_total_per_side)
        taped = run_pair(name, self.SCALE, abtb_entries=self.ABTB, progress=progress)
        generated = self._generated(name, progress=progress)
        assert len(totals) == 4 and totals[0] > 0
        assert totals[:2] == totals[2:]
        assert [_fingerprint(r) for r in taped] == [_fingerprint(r) for r in generated]

    # ------------------------------------------------- producer lifecycle

    def test_producer_exception_is_raised_with_its_type(self, monkeypatch, producers):
        def no_program(self, *args, **kwargs):
            raise ConfigError("cannot link this program")

        # The forked producer inherits the patch.
        monkeypatch.setattr(Workload, "__init__", no_program)
        with pytest.raises(ConfigError, match="cannot link this program"):
            run_pair("memcached", self.SCALE, abtb_entries=self.ABTB)
        _assert_reaped(producers)

    def test_raising_progress_leaves_no_child(self, producers):
        def progress(n: int) -> None:
            raise RuntimeError("progress callback failed")

        # MySQL's start-up alone fills the pipe many times over, so the
        # producer is still generating when the first window retires.
        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_pair("mysql", self.SCALE, abtb_entries=self.ABTB, progress=progress)
        _assert_reaped(producers)

    def test_killed_producer_raises_corruption(self, monkeypatch, producers):
        real = trace_store.stream_segments
        test_process = os.getpid()

        def killed_after_one_chunk(workload, warmup, measured):
            startup, *rest = real(workload, warmup, measured)

            def first_chunk_then_sigkill():
                yield next(startup)
                assert os.getpid() != test_process, "generated in the test process"
                os.kill(os.getpid(), signal.SIGKILL)

            return (first_chunk_then_sigkill(), *rest)

        monkeypatch.setattr(trace_store, "stream_segments", killed_after_one_chunk)
        with pytest.raises(TraceCorruptionError, match="ended before the trace did"):
            run_pair("memcached", self.SCALE, abtb_entries=self.ABTB)
        _assert_reaped(producers)

    # ----------------------------------------------------- tape contract

    @staticmethod
    def _producing(warmup=3, measured=4):
        config = ALL_WORKLOADS["memcached"].config(seed=SEED)
        key = trace_key(config, LinkMode.DYNAMIC, warmup, measured)
        tape = TraceTape()
        streams = tape.produce(
            key, partial(Workload, config, LinkMode.DYNAMIC), warmup, measured
        )
        return tape, key, streams, config

    def _recorded(self):
        """A filled tape, as a first run leaves it: every stream used up."""
        tape, key, streams, config = self._producing()
        recorded = [[chunk.to_bytes() for chunk in stream] for stream in streams]
        return tape, key, recorded, config

    def test_replay_is_byte_identical_to_the_recording(self, producers):
        tape, key, recorded, _ = self._recorded()
        assert all(recorded)
        # The producer sends what generating here would.
        workload = _workload("memcached")
        generated = [
            [chunk.to_bytes() for chunk in stream]
            for stream in stream_segments(workload, 3, 4)
        ]
        assert recorded == generated
        assert tape.stats == collect_stats(workload)
        replayed = [[chunk.to_bytes() for chunk in stream] for stream in tape.replay(key)]
        assert replayed == recorded
        # The measured window's request marks ride in the tag tables.
        assert all(TraceBatch.from_bytes(raw).tags for raw in recorded[2])
        with pytest.raises(ConfigError, match="replays once"):
            tape.replay(key)
        _assert_reaped(producers)

    def test_warm_replay_decodes_only_the_measured_frames(self):
        tape, key, recorded, _ = self._recorded()
        startup, warmup, measured = tape.replay(key, ("measured",))
        assert (list(startup), list(warmup)) == ([], [])
        assert [chunk.to_bytes() for chunk in measured] == recorded[2]

    def test_replay_under_another_trace_key_raises(self):
        tape, _, _, config = self._recorded()
        with pytest.raises(ConfigError, match="cannot replay under"):
            tape.replay(trace_key(config, LinkMode.DYNAMIC, 3, 5))

    def test_tape_not_used_up_cannot_replay(self, producers):
        tape, key, (startup, warmup, measured), _ = self._producing()
        try:
            list(startup)
            list(warmup)
            next(measured)
            with pytest.raises(ConfigError, match="not used up"):
                tape.replay(key)
        finally:
            tape.close()
        _assert_reaped(producers)

    def test_flipped_byte_in_a_frame_raises(self):
        tape, key, _, _ = self._recorded()
        frame = bytearray(tape.frames["measured"][0])
        frame[len(frame) // 2] ^= 0x01
        tape.frames["measured"][0] = bytes(frame)
        startup, warmup, measured = tape.replay(key)
        list(startup)
        list(warmup)
        with pytest.raises(TraceCorruptionError, match="tape frame 0"):
            next(measured)

    @pytest.mark.parametrize("conflict", ["trace_cache", "obs", "reference"])
    def test_run_workload_refuses_a_tape_with(self, conflict, tmp_path):
        kwargs = {
            "trace_cache": {"trace_cache": TraceStore(tmp_path)},
            "obs": {"obs": Observability()},
            "reference": {"backend": "reference"},
        }[conflict]
        with pytest.raises(ConfigError, match="trace tape"):
            run_workload(
                ALL_WORKLOADS["memcached"].config(), None, 1, 1, tape=TraceTape(), **kwargs
            )


# ------------------------------------------------------------ determinism


class TestDeterminism:
    def test_same_seed_byte_identical_batches(self):
        a = _workload("apache").trace_batch(REQUESTS)
        b = _workload("apache").trace_batch(REQUESTS)
        assert a.to_bytes() == b.to_bytes()

    def test_serial_and_sharded_campaigns_store_identical_bytes(self, tmp_path):
        """Satellite contract: the same seed produces byte-identical
        serialised traces whether the campaign runs --jobs 1 or --jobs 4."""
        scale = Scale("t", {"memcached": (2, 2), "apache": (2, 2)})
        summaries = {}
        for jobs in (1, 4):
            root = tmp_path / f"jobs{jobs}"
            result = run_campaign(
                ("memcached", "apache"), scale, abtb_sizes=(16,),
                jobs=jobs,
                machine_cache_dir=root / "machines",
                trace_cache_dir=root / "traces",
            )
            assert result.ok
            summaries[jobs] = result.completed
        assert summaries[1] == summaries[4]
        files1 = sorted(
            p.relative_to(tmp_path / "jobs1")
            for p in (tmp_path / "jobs1").rglob("*.trace")
        )
        files4 = sorted(
            p.relative_to(tmp_path / "jobs4")
            for p in (tmp_path / "jobs4").rglob("*.trace")
        )
        assert files1 and files1 == files4
        for rel in files1:
            assert (tmp_path / "jobs1" / rel).read_bytes() == (
                tmp_path / "jobs4" / rel
            ).read_bytes(), rel
