#!/usr/bin/env python3
"""Runtime library replacement under the trampoline-skip hardware.

The paper notes its software-emulation baseline "doesn't support
unloading or replacing libraries; on the other hand, the hardware we
propose implicitly supports these operations."  This example demonstrates
that property end to end:

1. an app calls a plugin function through its PLT; the mechanism learns
   the trampoline and starts skipping it;
2. the plugin is dlclose'd — ld.so resets the GOT slots, the Bloom
   filter observes the stores, and the ABTB flushes;
3. a new version of the plugin is dlopen'd at a different address;
4. calls lazily re-resolve, the mechanism relearns, and skipping resumes
   — with **zero unsafe skips** throughout.

Usage::

    python examples/plugin_reload.py
"""

from __future__ import annotations

from repro.core import TrampolineSkipMechanism
from repro.linker import ClassicLayout, DynamicLinker, FunctionSpec, ModuleSpec
from repro.trace.engine import ExecutionEngine
from repro.uarch import CPU


def plugin_spec(version: int) -> ModuleSpec:
    return ModuleSpec(
        "plugin.so",
        [FunctionSpec("plugin_handle", 256 + 64 * version), FunctionSpec("plugin_misc", 128)],
        imports=[],
    )


def call_batch(engine: ExecutionEngine, cpu: CPU, site: int, n: int) -> None:
    for _ in range(n):
        events, binding = engine.call_events("app", "plugin_handle", site)
        events += engine.return_events(binding, site)
        cpu.run(events)


def main() -> None:
    exe = ModuleSpec("app", [FunctionSpec("main", 512)], imports=["plugin_handle"])
    layout = ClassicLayout(aslr=True, seed=11)
    linker = DynamicLinker()
    program = linker.link(exe, [plugin_spec(1)], layout)
    engine = ExecutionEngine(program)
    mech = TrampolineSkipMechanism()
    cpu = CPU(mechanism=mech)
    site = program.module("app").function("main").entry + 32

    print("== phase 1: plugin v1 loaded ==")
    v1_addr = program.symbols.lookup("plugin_handle").address
    call_batch(engine, cpu, site, 20)
    c = cpu.finalize()
    print(f"plugin_handle @ {v1_addr:#x}")
    print(f"trampolines executed {c.trampolines_executed}, skipped {c.trampolines_skipped}")

    print("\n== phase 2: dlclose(plugin.so) ==")
    cpu.run(engine.dlclose_events("plugin.so"))
    print(f"ABTB entries after unload: {len(mech.abtb)} (flushed by the GOT-reset store)")

    print("\n== phase 3: dlopen(plugin.so v2) at a new address ==")
    linker.dlopen(program, plugin_spec(2), layout)
    v2_addr = program.symbols.lookup("plugin_handle").address
    print(f"plugin_handle now @ {v2_addr:#x} (moved {abs(v2_addr - v1_addr):,} bytes)")
    skipped_before = cpu.finalize().trampolines_skipped
    call_batch(engine, cpu, site, 20)
    c = cpu.finalize()
    print(f"calls re-resolved lazily; skipped {c.trampolines_skipped - skipped_before} of 20 new calls")

    print(f"\nunsafe skips across the whole scenario: {mech.stats.unsafe_skips} (must be 0)")
    assert mech.stats.unsafe_skips == 0
    assert v1_addr != v2_addr
    print("the hardware handled unload/replace transparently — the software")
    print("patching baseline would have left dangling direct calls to v1")


if __name__ == "__main__":
    main()
