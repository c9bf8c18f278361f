"""Behavioural tests of the CPU model and the trampoline-skip protocol.

These tests drive hand-crafted event sequences through the CPU and assert
the paper's protocol exactly: when trampolines are skipped, what is (not)
charged, how mispredictions stay symmetric with the base system, and how
Bloom-filter flushes degrade gracefully.
"""

from __future__ import annotations

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.isa.events import (
    block,
    call_direct,
    call_indirect,
    cond_branch,
    context_switch,
    jmp_indirect,
    load,
    mark,
    ret,
    store,
)
from repro.uarch import CPU

SITE = 0x400100
PLT = 0x401020
GOT = 0x601018
FUNC = 0x7F0000_0000


def plt_call(target: int = FUNC):
    """One steady-state library call: call stub, trampoline, body, return."""
    tramp = jmp_indirect(PLT, target, GOT)
    tramp.tag = "plt"
    return [
        call_direct(SITE, PLT),
        tramp,
        block(target, 10),
        ret(target + 60, SITE + 5),
    ]


def enhanced_cpu(**mech_kwargs) -> CPU:
    return CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(**mech_kwargs)))


class TestFetchCharging:
    def test_block_counts_instructions_and_lines(self):
        cpu = CPU()
        cpu.run([block(0x1000, 32, 128)])  # 128 bytes = 2 lines, 1 page
        c = cpu.finalize()
        assert c.instructions == 32
        assert c.l1i_accesses == 2
        assert c.l1i_misses == 2
        assert c.itlb_accesses == 1

    def test_repeated_block_hits(self):
        cpu = CPU()
        cpu.run([block(0x1000, 8), block(0x1000, 8)])
        c = cpu.finalize()
        assert c.l1i_misses == 1

    def test_line_straddling_block(self):
        cpu = CPU()
        cpu.run([block(0x103C, 4, 16)])  # crosses a 64-byte boundary
        assert cpu.finalize().l1i_accesses == 2

    def test_load_store_charge_dside(self):
        cpu = CPU()
        cpu.run([load(0x1000, 0x9000), store(0x1004, 0x9008)])
        c = cpu.finalize()
        assert c.loads == 1 and c.stores == 1
        assert c.l1d_accesses == 2
        assert c.l1d_misses == 1  # same line
        assert c.dtlb_misses == 1  # same page

    def test_cycles_accumulate(self):
        cpu = CPU()
        cpu.run([block(0x1000, 100)])
        assert cpu.finalize().cycles > 0


class TestBranches:
    def test_cond_branch_direction_misprediction(self):
        cpu = CPU()
        # Alternate fast so the 2-bit counters keep mispredicting some.
        events = [cond_branch(0x1000, 0x2000, taken=bool(i % 2)) for i in range(20)]
        cpu.run(events)
        assert cpu.finalize().branch_mispredictions > 0

    def test_well_predicted_loop_branch(self):
        cpu = CPU()
        cpu.run([cond_branch(0x1000, 0x2000, taken=True) for _ in range(50)])
        c = cpu.finalize()
        assert c.branch_mispredictions <= 1

    def test_direct_call_btb_miss_is_not_misprediction(self):
        cpu = CPU()
        cpu.run([call_direct(0x1000, 0x5000), block(0x5000, 4), ret(0x5010, 0x1005)])
        c = cpu.finalize()
        assert c.branch_mispredictions == 0
        assert c.btb_misses == 1

    def test_indirect_call_cold_mispredicts(self):
        cpu = CPU()
        cpu.run([call_indirect(0x1000, 0x5000), block(0x5000, 4), ret(0x5010, 0x1006)])
        assert cpu.finalize().branch_mispredictions == 1

    def test_indirect_call_warm_predicts(self):
        cpu = CPU()
        seq = [call_indirect(0x1000, 0x5000), block(0x5000, 4), ret(0x5010, 0x1006)]
        cpu.run(seq * 3)
        assert cpu.finalize().branch_mispredictions == 1  # only the cold one

    def test_ret_predicted_by_ras(self):
        cpu = CPU()
        cpu.run([call_direct(0x1000, 0x5000), block(0x5000, 4), ret(0x5010, 0x1005)])
        assert cpu.finalize().branch_mispredictions == 0

    def test_ret_mismatch_mispredicts(self):
        cpu = CPU()
        cpu.run([call_direct(0x1000, 0x5000), ret(0x5010, 0xBAD)])
        assert cpu.finalize().branch_mispredictions == 1


class TestTrampolinePairBase:
    def test_base_executes_and_charges_trampoline(self):
        cpu = CPU()
        cpu.run(plt_call() * 3)
        c = cpu.finalize()
        assert c.trampolines_executed == 3
        assert c.trampolines_skipped == 0
        assert c.got_loads == 3

    def test_base_warm_pair_predicts(self):
        cpu = CPU()
        cpu.run(plt_call() * 5)
        c = cpu.finalize()
        # Only the cold trampoline target mispredicts.
        assert c.branch_mispredictions == 1

    def test_trampoline_instruction_counted(self):
        cpu = CPU()
        cpu.run(plt_call())
        # call + jmp + 10-block + ret
        assert cpu.finalize().instructions == 13


class TestTrampolineSkip:
    def test_second_execution_skips(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 2)
        c = cpu.finalize()
        assert c.trampolines_executed == 1
        assert c.trampolines_skipped == 1

    def test_skipped_trampoline_charges_nothing(self):
        base, enh = CPU(), enhanced_cpu()
        base.run(plt_call() * 10)
        enh.run(plt_call() * 10)
        cb, ce = base.finalize(), enh.finalize()
        # 9 skipped trampolines: one instruction and one GOT load each.
        assert cb.instructions - ce.instructions == 9
        assert cb.got_loads - ce.got_loads == 9
        assert ce.trampolines_skipped == 9

    def test_steady_state_misprediction_parity(self):
        base, enh = CPU(), enhanced_cpu()
        base.run(plt_call() * 50)
        enh.run(plt_call() * 50)
        assert base.finalize().branch_mispredictions == enh.finalize().branch_mispredictions

    def test_skip_preserves_architectural_flow(self):
        # The RAS still sees the call, so the return predicts correctly.
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 5)
        assert cpu.ras.mispredictions == 0

    def test_skip_rate_approaches_one(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 200)
        c = cpu.finalize()
        assert c.trampolines_skipped / 200 > 0.99


class TestBloomFlushRecovery:
    def test_got_store_stops_skipping_until_relearn(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 3)  # learn + 2 skips
        cpu.run([store(0x1000, GOT)])  # GOT rewrite: flush
        assert len(cpu.mechanism.abtb) == 0
        cpu.run(plt_call() * 3)
        c = cpu.finalize()
        # Exec 4 re-executes (relearn), 5-6 skip again.
        assert c.trampolines_executed == 2
        assert c.trampolines_skipped == 4

    def test_demotion_after_flush_costs_one_mispredict(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 3)
        before = cpu.finalize().branch_mispredictions
        cpu.run([store(0x1000, GOT)])
        cpu.run(plt_call())  # promoted BTB entry is now wrong-path
        after = cpu.finalize().branch_mispredictions
        assert after - before == 1

    def test_target_change_never_skips_unsafely_with_bloom(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call(FUNC) * 3)
        cpu.run([store(0x1000, GOT)])  # dlclose-style rewrite
        cpu.run(plt_call(0x7F1111_0000) * 3)  # trampoline now goes elsewhere
        assert cpu.mechanism.stats.unsafe_skips == 0

    def test_stale_skip_detected_without_bloom_or_invalidate(self):
        # Section 3.4 contract violation: no bloom, no explicit invalidate.
        cpu = enhanced_cpu(use_bloom=False)
        cpu.run(plt_call(FUNC) * 3)
        cpu.run(plt_call(0x7F1111_0000) * 1)  # target changed silently
        assert cpu.mechanism.stats.unsafe_skips == 1

    def test_unrelated_stores_never_flush(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 2)
        cpu.run([store(0x1000, 0x9000 + 8 * i) for i in range(200)])
        assert len(cpu.mechanism.abtb) == 1


class TestContextSwitch:
    def test_switch_flushes_tlbs_and_abtb(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 3)
        cpu.run([context_switch()])
        assert len(cpu.mechanism.abtb) == 0
        assert cpu.itlb.accesses > 0
        cpu.run([block(FUNC, 4)])
        assert cpu.finalize().itlb_misses >= 2  # refetch walks the page again

    def test_asid_retains_abtb(self):
        cpu = enhanced_cpu(asid_support=True)
        cpu.run(plt_call() * 3)
        cpu.run([context_switch()])
        assert len(cpu.mechanism.abtb) == 1

    def test_switch_counted(self):
        cpu = CPU()
        cpu.run([context_switch(), context_switch()])
        assert cpu.finalize().context_switches == 2

    def test_relearn_after_switch(self):
        cpu = enhanced_cpu()
        cpu.run(plt_call() * 3)
        cpu.run([context_switch()])
        cpu.run(plt_call() * 3)
        c = cpu.finalize()
        # 1 learn + 2 skips, switch, 1 relearn + 2 skips.
        assert c.trampolines_executed == 2
        assert c.trampolines_skipped == 4


class TestMarks:
    def test_marks_record_progress(self):
        cpu = CPU()
        cpu.run([mark("a"), block(0x1000, 10), mark("b")])
        assert [m.tag for m in cpu.marks] == ["a", "b"]
        assert cpu.marks[1].instructions - cpu.marks[0].instructions == 10
        assert cpu.marks[1].cycles > cpu.marks[0].cycles

    def test_marks_have_no_cost(self):
        cpu = CPU()
        cpu.run([mark("a")] * 10)
        c = cpu.finalize()
        assert c.instructions == 0 and c.cycles == 0


class TestResolverSequence:
    """First-call behaviour through the real engine-generated sequence."""

    def _one_first_call(self, cpu: CPU):
        from repro.linker import DynamicLinker
        from repro.trace.engine import ExecutionEngine
        from tests.conftest import tiny_specs

        exe, libs = tiny_specs()
        program = DynamicLinker().link(exe, libs)
        engine = ExecutionEngine(program)
        site = program.module("app").function("main").entry + 32
        events, binding = engine.call_events("app", "printf", site)
        events += engine.return_events(binding, site)
        cpu.run(events)
        return program, engine, site

    def test_resolver_store_flushes_freshly_learned_entry(self):
        cpu = enhanced_cpu()
        self._one_first_call(cpu)
        # The pair learned plt->push_addr, then the GOT store flushed it.
        assert len(cpu.mechanism.abtb) == 0
        assert cpu.mechanism.stats.store_flushes == 1

    def test_resolver_instructions_charged(self):
        cpu = CPU()
        self._one_first_call(cpu)
        assert cpu.finalize().instructions > 700  # the resolver dominates

    def test_steady_state_reached_after_resolution(self):
        cpu = enhanced_cpu()
        program, engine, site = self._one_first_call(cpu)
        for _ in range(4):
            events, binding = engine.call_events("app", "printf", site)
            events += engine.return_events(binding, site)
            cpu.run(events)
        c = cpu.finalize()
        # Second call relearns, remaining calls skip.
        assert c.trampolines_skipped >= 2
