"""Ablations on the mechanism's design choices.

Four studies the paper's design implies but does not quantify:

* **Bloom-filter sizing** — the paper calls the filter "small" without a
  size.  Because *every* retired store probes it, an undersized filter
  false-positives on ordinary application stores and repeatedly flushes
  the ABTB; the sweep exposes the resulting skip-rate cliff.
* **ABTB replacement** — LRU vs FIFO at a capacity-constrained size.
* **Section 3.4 alternative** — no Bloom filter; software explicitly
  invalidates the ABTB on GOT writes.  Same steady-state skip rate, zero
  unsafe skips, no snoop hardware.
* **Context switches / ASID** — frequent switches flush the ABTB like a
  TLB; ASID-style retention recovers the lost skips.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.report import Report, Table
from repro.core.config import MechanismConfig
from repro.isa.arch import Arch
from repro.core.mechanism import TrampolineSkipMechanism
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import retire, run_workload
from repro.experiments.scale import SMOKE, Scale
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPU
from repro.workloads import Workload, apache

BLOOM_SIZES = (2048, 8192, 32768, 1 << 17)
#: Capacity-constrained, so replacement policy matters: Apache touches
#: 301 distinct trampolines in the SMOKE window.
ABLATION_ABTB = 64


def _run(scale: Scale, mech_cfg: MechanismConfig, workload_cfg=None):
    cfg = workload_cfg if workload_cfg is not None else apache.config()
    return run_workload(
        cfg,
        TrampolineSkipMechanism(mech_cfg),
        warmup_requests=scale.warmup("apache"),
        measured_requests=scale.measured("apache"),
    )


def bloom_sweep(scale: Scale) -> list[tuple[int, float, int]]:
    """(bloom bits, skip rate, store flushes in window) per size."""
    out = []
    for bits in BLOOM_SIZES:
        result = _run(scale, MechanismConfig(bloom_bits=bits))
        out.append(
            (bits, result.skip_rate, result.mechanism.stats.store_flushes)
        )
    return out


def replacement_study(scale: Scale) -> dict[str, float]:
    """Skip rate for LRU vs FIFO at a constrained ABTB size."""
    return {
        policy: _run(
            scale, MechanismConfig(abtb_entries=ABLATION_ABTB, abtb_policy=policy)
        ).skip_rate
        for policy in ("lru", "fifo")
    }


def explicit_invalidate_study(scale: Scale):
    """Section 3.4: no bloom, software invalidates on GOT writes."""
    with_bloom = _run(scale, MechanismConfig(use_bloom=True))
    without = _run(scale, MechanismConfig(use_bloom=False))
    return with_bloom, without


def asid_study(scale: Scale):
    """Frequent context switches, with and without ASID retention."""
    cfg = replace(apache.config(), context_switch_interval=120_000)
    flushed = _run(scale, MechanismConfig(asid_support=False), cfg)
    retained = _run(scale, MechanismConfig(asid_support=True), cfg)
    return flushed, retained


def arch_study(scale: Scale):
    """x86-64 vs ARM trampolines (paper Figure 2): same mechanism, 3x the
    instruction savings on ARM's three-instruction stubs."""
    out = {}
    for arch in (Arch.X86_64, Arch.ARM):
        cfg = replace(apache.config(), arch=arch)
        base = run_workload(
            replace(apache.config(), arch=arch),
            None,
            warmup_requests=scale.warmup("apache"),
            measured_requests=scale.measured("apache"),
        )
        enhanced = _run(scale, MechanismConfig(), cfg)
        out[arch] = (base, enhanced)
    return out


def prefork_study(scale: Scale, processes: int = 6):
    """Prefork workers timeslicing one core: flush vs ASID retention.

    Prefork siblings share the parent's layout, so ASID-retained ABTB
    entries stay valid across sibling switches and the skip rate holds;
    flushing on every switch forces constant relearning.
    """
    out = {}
    per_worker = max(2, scale.measured("apache") // processes)
    for label, asid in (("flush on switch", False), ("ASID retention", True)):
        wl = Workload(apache.config())
        mech = TrampolineSkipMechanism(MechanismConfig(asid_support=asid))
        cpu = CPU(mechanism=mech)
        retire(cpu, wl.startup_chunks())
        cpu.finalize()
        snap = cpu.counters.copy()
        # prefork_trace has no array twin, so it is batched on the fly.
        BatchedBackend(cpu).run(wl.prefork_trace(processes, per_worker))
        cpu.finalize()
        window = cpu.counters.delta(snap)
        skipped = window.trampolines_skipped
        total = skipped + window.trampolines_executed
        out[label] = (skipped / total if total else 0.0, window.context_switches)
    return out


def run(scale: Scale = SMOKE) -> Report:
    """Run all four ablations on the Apache workload."""
    report = Report("ablation", "Design-choice ablations (Apache)")

    sweep = bloom_sweep(scale)
    bloom_table = Table(
        "Bloom filter sizing", ["Bits", "Bytes", "Skip rate", "Store flushes (total)"]
    )
    for bits, skip, flushes in sweep:
        bloom_table.add_row(bits, bits // 8, round(skip, 3), flushes)
    report.tables.append(bloom_table)

    policies = replacement_study(scale)
    policy_table = Table(
        f"ABTB replacement at {ABLATION_ABTB} entries", ["Policy", "Skip rate"]
    )
    for policy, skip in policies.items():
        policy_table.add_row(policy, round(skip, 3))
    report.tables.append(policy_table)

    with_bloom, without = explicit_invalidate_study(scale)
    alt_table = Table(
        "Section 3.4 alternative (explicit invalidate)",
        ["Variant", "Skip rate", "Unsafe skips", "Snoop storage bytes"],
    )
    alt_table.add_row(
        "bloom (transparent)",
        round(with_bloom.skip_rate, 3),
        with_bloom.mechanism.stats.unsafe_skips,
        with_bloom.mechanism.bloom.storage_bytes,
    )
    alt_table.add_row(
        "explicit invalidate",
        round(without.skip_rate, 3),
        without.mechanism.stats.unsafe_skips,
        0,
    )
    report.tables.append(alt_table)

    arch_results = arch_study(scale)
    arch_table = Table(
        "Architecture comparison (paper Figure 2)",
        ["Arch", "Trampoline instr PKI", "Skip rate", "Instr saved/skip", "Speedup"],
    )
    arch_speedups = {}
    for arch, (base, enhanced) in arch_results.items():
        saved = base.counters.instructions - enhanced.counters.instructions
        skips = max(enhanced.counters.trampolines_skipped, 1)
        arch_speedups[arch] = base.counters.cycles / enhanced.counters.cycles
        arch_table.add_row(
            arch.value,
            round(base.counters.pki("trampoline_instructions"), 2),
            round(enhanced.skip_rate, 3),
            round(saved / skips, 2),
            round(arch_speedups[arch], 4),
        )
    report.tables.append(arch_table)

    flushed, retained = asid_study(scale)
    prefork = prefork_study(scale)
    prefork_table = Table(
        "Prefork workers timeslicing one core",
        ["Variant", "Skip rate", "Context switches"],
    )
    for label, (skip, switches) in prefork.items():
        prefork_table.add_row(label, round(skip, 3), switches)
    report.tables.append(prefork_table)

    asid_table = Table(
        "Context switches every 120k instructions",
        ["Variant", "Skip rate", "Context flushes"],
    )
    asid_table.add_row(
        "flush on switch", round(flushed.skip_rate, 3), flushed.mechanism.stats.context_flushes
    )
    asid_table.add_row(
        "ASID retention", round(retained.skip_rate, 3), retained.mechanism.stats.context_flushes
    )
    report.tables.append(asid_table)

    best_bloom_skip = sweep[-1][1]
    report.shape_checks = {
        "undersized bloom filters flush spuriously": sweep[0][2] > sweep[-1][2],
        "skip rate improves with bloom size": sweep[0][1] <= best_bloom_skip,
        "LRU at least matches FIFO": policies["lru"] >= policies["fifo"] - 0.01,
        "explicit invalidate matches bloom steady state": (
            abs(without.skip_rate - with_bloom.skip_rate) < 0.05
        ),
        "explicit invalidate never skips unsafely": (
            without.mechanism.stats.unsafe_skips == 0
        ),
        "ASID retention recovers context-switch losses": (
            retained.skip_rate >= flushed.skip_rate
        ),
        "ARM saves 3 instructions per skipped trampoline": (
            arch_results[Arch.ARM][0].counters.instructions
            - arch_results[Arch.ARM][1].counters.instructions
        )
        == 3 * arch_results[Arch.ARM][1].counters.trampolines_skipped,
        "mechanism benefits ARM at least as much as x86": (
            arch_speedups[Arch.ARM] >= arch_speedups[Arch.X86_64] - 0.003
        ),
        "ASID retention preserves prefork skip rate": (
            prefork["ASID retention"][0] >= prefork["flush on switch"][0]
        ),
    }
    report.notes.append(
        "store flushes include one legitimate flush per lazy resolution "
        "(501 for Apache); anything above that is Bloom false positives"
    )
    report.notes.append(
        "prefork: with promote-at-learn, ABTB retention buys little once "
        "the BTB itself is flushed by the switch — relearning costs a "
        "single trampoline execution either way"
    )
    return report


register(Experiment("ablation", "Design ablations", "Bloom/replacement/3.4/ASID studies", run))
