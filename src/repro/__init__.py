"""repro — a trace-driven reproduction of *Architectural Support for
Dynamic Linking* (Agrawal et al., ASPLOS 2015).

The package models the full stack the paper touches:

* :mod:`repro.linker` — an ELF-like dynamic-linking substrate (PLT/GOT
  geometry, lazy resolver, static linking, software call-site patching);
* :mod:`repro.memory` — page-granular address spaces with fork/CoW;
* :mod:`repro.uarch` — caches, TLBs, BTB, branch predictors and a
  trace-driven CPU front-end model with performance counters;
* :mod:`repro.core` — the paper's contribution: the ABTB, its Bloom
  filter, and the speculative trampoline-skip mechanism;
* :mod:`repro.workloads` — synthetic Apache, Memcached, MySQL and Firefox
  models calibrated to the paper's opportunity study;
* :mod:`repro.experiments` — one runnable experiment per paper table and
  figure, plus a hardened campaign runner (leases, quarantine, checkpoint);
* :mod:`repro.chaos` — fault injection (GOT rewrites, ifunc re-selection,
  coherence loss, Bloom/ABTB thrash, trace corruption) audited by a
  stale-target correctness oracle.

Quickstart::

    from repro import quick_comparison
    result = quick_comparison("memcached", n_requests=50)
    print(result["speedup"])
"""

from __future__ import annotations

from repro.core import ABTB, BloomFilter, MechanismConfig, TrampolineSkipMechanism
from repro.trace.engine import LinkMode
from repro.uarch import CPU, CPUConfig, PerfCounters, TimingModel
from repro.workloads import ALL_WORKLOADS, Workload, WorkloadConfig

__version__ = "1.0.0"


def quick_comparison(
    workload: str = "memcached",
    n_requests: int = 50,
    abtb_entries: int = 256,
    seed: int | None = None,
    obs=None,
):
    """Run one workload on the base and enhanced CPUs and compare.

    Returns a dict with the two counter bundles, the trampoline skip rate
    and the overall speedup — the package's one-call demo.  Pass an
    :class:`repro.obs.Observability` as ``obs`` to capture traces,
    metric series and hot-trampoline profiles from both runs.
    """
    from repro.experiments.runner import retire

    module = ALL_WORKLOADS[workload]
    results = {}
    for label, mech in (
        ("base", None),
        ("enhanced", TrampolineSkipMechanism(MechanismConfig(abtb_entries=abtb_entries))),
    ):
        cfg = module.config() if seed is None else module.config(seed=seed)
        wl = Workload(cfg)
        cpu = CPU(mechanism=mech, hooks=obs.hooks() if obs is not None else None)
        sampler = None
        if obs is not None:
            obs.attach_workload(wl)
            sampler = obs.sampler(cpu, label)
        retire(cpu, wl.trace_chunks(n_requests), sampler=sampler)
        if obs is not None:
            obs.finish_run(cpu, label)
        results[label] = cpu.finalize()
    base, enh = results["base"], results["enhanced"]
    skipped = enh.trampolines_skipped
    executed = enh.trampolines_executed
    return {
        "base": base,
        "enhanced": enh,
        "skip_rate": skipped / (skipped + executed) if (skipped + executed) else 0.0,
        "speedup": base.cycles / enh.cycles if enh.cycles else 0.0,
    }


__all__ = [
    "ABTB",
    "ALL_WORKLOADS",
    "BloomFilter",
    "CPU",
    "CPUConfig",
    "LinkMode",
    "MechanismConfig",
    "PerfCounters",
    "TimingModel",
    "TrampolineSkipMechanism",
    "Workload",
    "WorkloadConfig",
    "quick_comparison",
    "__version__",
]
