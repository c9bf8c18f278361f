#!/usr/bin/env python3
"""Memory-savings study — Section 5.5 of the paper.

Forks a prefork Apache worker pool, lets the software call-site patcher
rewrite call sites lazily (privatising shared code pages via
copy-on-write), and contrasts the physical-memory bill with the
patch-before-fork variant and with the proposed hardware (which leaves
code pages untouched).

Usage::

    python examples/memory_savings.py [workers]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.memory.cow import measure
from repro.memory.pages import PAGE_SIZE
from repro.trace.engine import LinkMode
from repro.workloads import apache
from repro.workloads.base import Workload


def human(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:,.1f} {unit}"
        n /= 1024
    return f"{n:,.1f} TB"


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(f"== Section 5.5 memory study: prefork Apache, {workers} workers ==\n")

    cfg = replace(apache.config(), sites_per_pair=3)
    wl = Workload(cfg, mode=LinkMode.PATCHED)
    parent = wl.address_space
    assert parent is not None and wl.patcher is not None

    children = [parent.fork(f"worker{i}") for i in range(workers)]
    wl.patcher.spaces = children
    shared_before = measure(wl.phys, children)
    print(f"after fork, before patching: {shared_before.total_frames} physical frames, "
          f"{shared_before.shared_frames} shared")

    for _ in wl.trace(60, include_marks=False):
        pass

    after = measure(wl.phys, children)
    stats = wl.patcher.stats
    extra = after.total_bytes - shared_before.total_bytes
    print("\nlazy patch-after-fork (the naive software emulation):")
    print(f"  call sites patched : {stats.sites_patched:,}")
    print(f"  code pages touched : {stats.pages_touched:,}")
    print(f"  mprotect calls     : {stats.mprotect_calls:,}")
    print(f"  CoW page copies    : {after.cow_faults - shared_before.cow_faults:,}")
    print(f"  waste per process  : {human(stats.wasted_bytes_per_process)}"
          f"  (paper: ~1.1 MB)")
    print(f"  waste, this pool   : {human(extra)}")
    print(f"  waste @500 workers : {human(stats.wasted_bytes_per_process * 500)}"
          f"  (paper: ~0.5 GB)")

    eager_pages = stats.pages_touched
    print(f"\npatch-before-fork: {human(eager_pages * PAGE_SIZE)} once, shared by all workers,")
    print("  but every site must be resolved eagerly — lazy loading is lost")
    print("\nproposed hardware: 0 bytes — code pages stay read-only and shared")


if __name__ == "__main__":
    main()
