"""Tests for the chaos harness: fault injection + correctness oracle.

The paper's safety claim (§3.2–§3.4) is adversarial by nature — "no GOT
write can lead to a committed stale target" — so these tests attack the
mechanism with every fault in the catalogue and let the oracle audit
every committed skip against linker ground truth.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    CORRUPTION_KINDS,
    AbtbThrashFault,
    BloomSaturationFault,
    CampaignConfig,
    ChaosContext,
    ChaosRunConfig,
    ContextSwitchFault,
    CorrectnessOracle,
    GotRewriteFault,
    IfuncReselectFault,
    Injector,
    LossyCoherence,
    SpuriousInvalFault,
    corrupted_stream,
    run_chaos,
    run_corruption_trials,
    run_fault_campaign,
)
from repro.cli import main
from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.errors import ChaosError, OracleViolation, TraceError
from repro.isa.events import store
from repro.trace.validate import validated
from repro.uarch import CPU
from repro.uarch.multicore import DualCoreSystem
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload
from tests.test_cpu import FUNC, GOT, plt_call


def _memcached(seed: int = 7) -> Workload:
    return Workload(ALL_WORKLOADS["memcached"].config(seed=seed))


def _instrumented_run(faults, seed=11, requests=12, rate=0.02, use_bloom=True):
    """One single-core memcached run with the given fault mix."""
    workload = _memcached(seed)
    mech = TrampolineSkipMechanism(
        MechanismConfig(abtb_entries=64, bloom_bits=4096, use_bloom=use_bloom)
    )
    oracle = CorrectnessOracle(workload.program)
    cpu = CPU(mechanism=mech, hooks=oracle)
    cpu.run(workload.startup_trace())
    ctx = ChaosContext(workload.program, oracle, mech)
    injector = Injector(faults, ctx, seed=seed, rate=rate)
    cpu.run(injector.wrap(workload.trace(requests)))
    cpu.finalize()
    return injector, oracle, mech


# --------------------------------------------------------------- the oracle


class TestOracle:
    def test_clean_run_audits_every_skip(self, tiny_program):
        oracle = CorrectnessOracle(tiny_program)
        oracle.register_slot(GOT, FUNC)
        cpu = CPU(mechanism=TrampolineSkipMechanism(), hooks=oracle)
        cpu.run(plt_call() * 8)
        assert oracle.skips_checked > 0
        assert oracle.clean
        oracle.assert_clean()

    def test_stale_skip_is_a_violation(self, tiny_program):
        # Bloom off, untagged GOT store: the mechanism keeps its stale
        # mapping and commits it — exactly what the oracle must catch.
        oracle = CorrectnessOracle(tiny_program)
        oracle.register_slot(GOT, FUNC)
        mech = TrampolineSkipMechanism(MechanismConfig(use_bloom=False))
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(plt_call() * 5)  # learn, promote, skip
        new_target = FUNC + 0x100
        oracle.queue_truth(GOT, new_target)
        cpu.run([store(0x9000, GOT)])  # linker rewrote; nobody told the ABTB
        cpu.run(plt_call(new_target))
        assert mech.stats.unsafe_skips == 1
        assert len(oracle.violations) == 1
        assert not oracle.clean
        record = oracle.violations[0]
        assert record.got_addr == GOT
        assert record.committed == FUNC and record.truth == new_target
        with pytest.raises(OracleViolation):
            oracle.assert_clean()

    def test_expect_hazards_counts_instead_of_violating(self, tiny_program):
        oracle = CorrectnessOracle(tiny_program, expect_hazards=True)
        oracle.register_slot(GOT, FUNC)
        mech = TrampolineSkipMechanism(MechanismConfig(use_bloom=False))
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(plt_call() * 5)
        oracle.queue_truth(GOT, FUNC + 0x100)
        cpu.run([store(0x9000, GOT)])
        cpu.run(plt_call(FUNC + 0x100))
        assert oracle.hazards_detected == 1
        assert oracle.violations == []

    def test_raise_on_violation(self, tiny_program):
        oracle = CorrectnessOracle(tiny_program, raise_on_violation=True)
        oracle.register_slot(GOT, FUNC)
        mech = TrampolineSkipMechanism(MechanismConfig(use_bloom=False))
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(plt_call() * 5)
        oracle.queue_truth(GOT, FUNC + 0x100)
        cpu.run([store(0x9000, GOT)])
        with pytest.raises(OracleViolation):
            cpu.run(plt_call(FUNC + 0x100))

    def test_truth_applied_at_store_retirement(self, tiny_program):
        # A queued truth must not take effect before the store retires —
        # that ordering is what keeps the oracle exact under dual-core
        # slice buffering.
        oracle = CorrectnessOracle(tiny_program)
        oracle.register_slot(GOT, FUNC)
        oracle.queue_truth(GOT, FUNC + 0x100)
        assert oracle._lookup(GOT) == FUNC
        oracle.on_store(GOT)
        assert oracle._lookup(GOT) == FUNC + 0x100

    def test_real_program_slots_indexed(self, tiny_program):
        oracle = CorrectnessOracle(tiny_program)
        assert len(oracle.known_slots()) >= 5  # app imports 3, libx 2
        caller, symbol = next(iter(oracle.slot_index().values()))
        assert caller in tiny_program.modules


# ------------------------------------------------------------- the injector


class TestInjector:
    def test_bad_rate_rejected(self, tiny_program):
        ctx = ChaosContext(tiny_program, CorrectnessOracle(tiny_program))
        with pytest.raises(ChaosError):
            Injector([], ctx, rate=1.5)
        with pytest.raises(ChaosError):
            Injector([], ctx, rate=0.1)  # rate without faults

    def test_seeded_runs_are_identical(self):
        cfg = ChaosRunConfig(workload="memcached", seed=13, requests=10, rate=0.02)
        assert run_chaos(cfg) == run_chaos(cfg)

    def test_fixed_schedule_fires_once(self, tiny_program):
        oracle = CorrectnessOracle(tiny_program)
        ctx = ChaosContext(tiny_program, oracle)
        injector = Injector(
            [], ctx, at=[(3, ContextSwitchFault())], rate=0.0
        )
        events = list(injector.wrap(plt_call() * 4))
        assert injector.injected == 1
        assert injector.fault_counts == {"context-switch": 1}
        # The stream gained exactly the one context switch.
        assert len(events) == 16 + 1

    def test_injection_never_splits_trampoline_pairs(self):
        # High injection rate over a real trace: every call→stub pair must
        # stay adjacent or the CPU's pairing logic desyncs (which would
        # show up as lost trampoline executions).
        baseline_workload = _memcached(3)
        baseline_cpu = CPU()
        baseline_cpu.run(baseline_workload.startup_trace())
        baseline_cpu.run(baseline_workload.trace(8))
        baseline = baseline_cpu.finalize().trampolines_executed

        workload = _memcached(3)
        oracle = CorrectnessOracle(workload.program)
        mech = TrampolineSkipMechanism()
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(workload.startup_trace())
        ctx = ChaosContext(workload.program, oracle, mech)
        injector = Injector(
            [ContextSwitchFault(), SpuriousInvalFault()], ctx, seed=1, rate=0.05
        )
        cpu.run(injector.wrap(workload.trace(8)))
        c = cpu.finalize()
        assert injector.injected > 0
        assert c.trampolines_skipped + c.trampolines_executed == baseline


# ------------------------------------------------------ individual faults


class TestFaults:
    @pytest.mark.parametrize(
        "fault",
        [
            GotRewriteFault(),
            IfuncReselectFault(),
            ContextSwitchFault(),
            SpuriousInvalFault(),
            BloomSaturationFault(),
            AbtbThrashFault(),
        ],
        ids=lambda f: f.name,
    )
    def test_fault_fires_and_mechanism_stays_safe(self, fault):
        injector, oracle, mech = _instrumented_run([fault], rate=0.03)
        assert injector.injected > 0, f"{fault.name} never fired"
        assert oracle.skips_checked > 0
        assert oracle.clean
        assert mech.stats.unsafe_skips == 0

    def test_got_rewrite_changes_linker_truth(self):
        workload = _memcached(5)
        oracle = CorrectnessOracle(workload.program)
        ctx = ChaosContext(workload.program, oracle)
        CPU().run(workload.startup_trace())
        import numpy as np

        rng = np.random.default_rng(0)
        before = {
            (caller, symbol): value
            for caller, symbol, _got, value in ctx.resolved_slots()
        }
        events = GotRewriteFault().fire(ctx, rng)
        assert events, "no resolved slot to rewrite"
        assert events[-1].tag == "got-store"
        got_addr = events[-1].mem_addr
        caller, symbol = oracle.slot_index()[got_addr]
        assert workload.program.got_value(caller, symbol) != before[(caller, symbol)]

    def test_untagged_rewrite_store_when_contract_broken(self):
        workload = _memcached(5)
        oracle = CorrectnessOracle(workload.program)
        ctx = ChaosContext(workload.program, oracle)
        CPU().run(workload.startup_trace())
        import numpy as np

        events = GotRewriteFault(software_invalidate=False).fire(
            ctx, np.random.default_rng(0)
        )
        assert events and events[-1].tag is None

    def test_bloom_saturation_causes_false_positive_flushes(self):
        # A tiny filter + the saturation fault: stores to addresses nobody
        # mapped must flush through false positives (performance loss,
        # never safety loss).
        workload = _memcached(9)
        mech = TrampolineSkipMechanism(
            MechanismConfig(abtb_entries=64, bloom_bits=64)
        )
        oracle = CorrectnessOracle(workload.program)
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(workload.startup_trace())
        ctx = ChaosContext(workload.program, oracle, mech)
        injector = Injector([BloomSaturationFault()], ctx, seed=2, rate=0.01)
        cpu.run(injector.wrap(workload.trace(10)))
        assert injector.injected > 0
        assert mech.stats.store_flushes > 0
        assert oracle.clean and mech.stats.unsafe_skips == 0

    def test_abtb_thrash_evicts_but_stays_safe(self):
        workload = _memcached(10)
        mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
        oracle = CorrectnessOracle(workload.program)
        cpu = CPU(mechanism=mech, hooks=oracle)
        cpu.run(workload.startup_trace())
        ctx = ChaosContext(workload.program, oracle, mech)
        injector = Injector([AbtbThrashFault()], ctx, seed=3, rate=0.01)
        cpu.run(injector.wrap(workload.trace(10)))
        assert injector.injected > 0
        assert mech.abtb.evictions > 0
        assert oracle.clean and mech.stats.unsafe_skips == 0


# --------------------------------------------------------- trace corruption


class TestCorruption:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_corruption_raises_trace_error(self, kind):
        cpu = CPU()
        with pytest.raises(TraceError):
            cpu.run(validated(iter(corrupted_stream(kind))))

    def test_all_trials_detected(self):
        assert all(run_corruption_trials().values())

    def test_benign_stream_passes_validation(self):
        workload = _memcached(4)
        events = list(validated(workload.trace(3)))
        assert events


# ---------------------------------------------------------------- dual core


class TestDualCore:
    def test_core0_rewrite_core1_never_skips_stale(self):
        # Satellite: core 0's stream rewrites GOT slots mid-window; the
        # shared oracle audits every skip on both cores and core 1's
        # mechanism must never commit a stale target.
        workload = _memcached(21)
        mk = lambda: TrampolineSkipMechanism(  # noqa: E731
            MechanismConfig(abtb_entries=64, bloom_bits=4096)
        )
        mech0, mech1 = mk(), mk()
        oracle = CorrectnessOracle(workload.program)
        cpu0 = CPU(mechanism=mech0, hooks=oracle)
        cpu1 = CPU(mechanism=mech1, hooks=oracle)
        system = DualCoreSystem((cpu0, cpu1), slice_events=64)
        cpu0.run(workload.startup_trace())
        ctx0 = ChaosContext(workload.program, oracle, mech0)
        injector = Injector([GotRewriteFault()], ctx0, seed=5, rate=0.02)
        system.run(
            injector.wrap(workload.trace(12, start_id=0)),
            validated(workload.trace(12, start_id=5000)),
        )
        system.finalize()
        assert injector.injected > 0
        assert oracle.skips_checked > 0
        assert oracle.clean
        assert mech0.stats.unsafe_skips == 0
        assert mech1.stats.unsafe_skips == 0
        # The rewrites were observed remotely (snoop or conservative flush).
        assert system.invalidations_delivered[1] > 0

    def test_unsafe_coherence_loss_is_detected_by_oracle(self):
        # Broken hardware: cross-core invalidations silently dropped.
        # Core 1 keeps stale ABTB entries, commits stale targets — and
        # the oracle must catch it.
        workload = _memcached(22)
        mk = lambda: TrampolineSkipMechanism(  # noqa: E731
            MechanismConfig(abtb_entries=64, bloom_bits=4096)
        )
        mech0, mech1 = mk(), mk()
        oracle = CorrectnessOracle(workload.program)
        cpu0 = CPU(mechanism=mech0, hooks=oracle)
        cpu1 = CPU(mechanism=mech1, hooks=oracle)
        lossy = LossyCoherence(oracle, drop_prob=1.0, unsafe=True, seed=1)
        system = DualCoreSystem((cpu0, cpu1), slice_events=64, coherence_filter=lossy)
        cpu0.run(workload.startup_trace())
        ctx0 = ChaosContext(workload.program, oracle, mech0)
        injector = Injector([GotRewriteFault()], ctx0, seed=6, rate=0.03)
        system.run(
            injector.wrap(workload.trace(16, start_id=0)),
            validated(workload.trace(16, start_id=5000)),
        )
        system.finalize()
        assert injector.injected > 0
        assert lossy.dropped > 0
        assert len(oracle.violations) > 0
        assert mech1.stats.unsafe_skips > 0

    def test_safe_coherence_loss_preserves_correctness(self):
        # Default LossyCoherence only drops provably harmless
        # invalidations; the bloom-on invariant must survive.
        result = run_chaos(
            ChaosRunConfig(
                workload="memcached", seed=23, requests=12, rate=0.02,
                dual_core=True, drop_prob=1.0,
            )
        )
        assert result.invalidations_dropped > 0
        assert result.violations == 0 and result.unsafe_skips == 0


# ---------------------------------------------------------------- campaigns


class TestCampaign:
    def test_acceptance_campaign_bloom_on(self):
        # The ISSUE's acceptance bar: >= 5 fault types, >= 1000 injected
        # faults across single- and dual-core runs, zero unsafe skips and
        # zero oracle violations, all corruption trials detected.
        report = run_fault_campaign(CampaignConfig(seed=2025, min_faults=1000))
        assert report.injected >= 1000
        assert len(report.fault_counts) >= 5
        assert any("dual" in r.label for r in report.runs)
        assert any("single" in r.label for r in report.runs)
        assert report.unsafe_skips == 0
        assert report.violations == 0
        assert report.corruption_detected
        assert report.ok
        assert "verdict         : OK" in report.render()

    def test_campaign_bloom_off_detects_34_hazard(self):
        # Same campaign shape, bloom disabled and the software contract
        # broken: the §3.4 hazard must fire and be detected.
        report = run_fault_campaign(
            CampaignConfig(
                seed=2025, min_faults=200, use_bloom=False, software_invalidate=False
            )
        )
        assert report.expect_hazards
        assert report.hazards_detected > 0
        assert report.unsafe_skips > 0
        assert report.ok

    def test_bloom_off_with_contract_honoured_stays_clean(self):
        # §3.4 done right: tagged got-stores invalidate the ABTB in
        # software, so even without the Bloom filter nothing goes stale.
        result = run_chaos(
            ChaosRunConfig(
                workload="memcached", seed=31, requests=16, rate=0.02,
                use_bloom=False, software_invalidate=True,
            )
        )
        assert result.injected > 0
        assert result.violations == 0
        assert result.hazards_detected == 0
        assert result.unsafe_skips == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ChaosError):
            run_chaos(ChaosRunConfig(workload="postgres"))

    def test_cli_chaos_smoke(self, capsys):
        rc = main(
            ["chaos", "--min-faults", "30", "--requests", "8", "--seed", "1",
             "--workloads", "memcached"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict" in out and "OK" in out
