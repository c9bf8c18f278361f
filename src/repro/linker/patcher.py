"""Software call-site patching baseline (Sections 2.3, 4.3 and 5.5).

The paper's evaluation emulates the proposed hardware in software: a
modified dynamic linker rewrites every ``call trampoline`` site into a
direct ``call function``.  This module implements that baseline together
with its costs, which are the paper's argument *for* the hardware:

* a patched target must be within ``rel32`` reach of the site (needs the
  compat layout — breaks ASLR);
* patching writes to code pages, which must be unprotected first (a
  security hole) and which privatises shared pages in forked processes
  (copy-on-write), wasting memory;
* lazy patching works per call *site*, not per symbol, so a popular symbol
  is patched once per site rather than resolved once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LinkError
from repro.linker.dynamic import CallBinding, LinkedProgram
from repro.linker.layout import within_rel32
from repro.memory.address_space import AddressSpace
from repro.memory.pages import PAGE_SIZE, Perm, page_of


@dataclass(frozen=True)
class PatchRecord:
    """One rewritten call site."""

    site_pc: int
    caller: str
    symbol: str
    target: int
    page: int


@dataclass
class PatchStats:
    """Aggregate patching costs.

    Attributes:
        sites_patched: distinct call sites rewritten.
        pages_touched: distinct code pages written to.
        mprotect_calls: page-permission flips performed (2 per patch:
            unprotect + reprotect).
        cow_copies: page privatisations triggered in tracked address spaces.
        out_of_reach: sites that could not be patched (>2 GB offset).
    """

    sites_patched: int = 0
    pages_touched: int = 0
    mprotect_calls: int = 0
    cow_copies: int = 0
    out_of_reach: int = 0

    @property
    def wasted_bytes_per_process(self) -> int:
        """Private bytes each patched process pays for its code copies."""
        return self.pages_touched * PAGE_SIZE


class CallSitePatcher:
    """Rewrites library call sites to direct calls in a linked program.

    The patcher operates on one or more address spaces (a prefork parent
    and its children): writes to shared code pages privatise them via the
    page model's CoW machinery, making the Section 5.5 memory overheads
    directly measurable.
    """

    def __init__(
        self,
        program: LinkedProgram,
        spaces: list[AddressSpace] | None = None,
        require_rel32: bool = True,
    ) -> None:
        self.program = program
        self.spaces = spaces if spaces is not None else []
        self.require_rel32 = require_rel32
        self.stats = PatchStats()
        self._patched: dict[int, PatchRecord] = {}
        self._pages: set[int] = set()
        self.records: list[PatchRecord] = []

    # ------------------------------------------------------------ queries

    def is_patched(self, site_pc: int) -> bool:
        """Whether the call at ``site_pc`` has been rewritten."""
        return site_pc in self._patched

    # ------------------------------------------------------------ patching

    def patch_site(self, site_pc: int, caller: str, symbol: str) -> PatchRecord | None:
        """Rewrite one call site to call its resolved target directly.

        Returns None (and counts ``out_of_reach``) when the target cannot
        be encoded as ``rel32`` and reach checking is on.  Patching an
        already-patched site is a no-op returning the existing record.
        """
        existing = self._patched.get(site_pc)
        if existing is not None:
            return existing
        binding = self.program.bind_call(caller, symbol)
        target = binding.func_addr
        if self.require_rel32 and not within_rel32(site_pc, target):
            self.stats.out_of_reach += 1
            return None
        record = PatchRecord(site_pc, caller, symbol, target, page_of(site_pc))
        self._patched[site_pc] = record
        self.records.append(record)
        self.stats.sites_patched += 1
        self.stats.mprotect_calls += 2
        if record.page not in self._pages:
            self._pages.add(record.page)
            self.stats.pages_touched += 1
        for space in self.spaces:
            self._write_code(space, site_pc)
        return record

    def patch_all_sites(self, sites: list[tuple[int, str, str]]) -> list[PatchRecord]:
        """Eagerly patch a list of (site_pc, caller, symbol) call sites.

        This is the patch-before-fork strategy: it preserves page sharing
        across later forks but forfeits lazy resolution (every site is
        resolved whether or not it ever executes).
        """
        out: list[PatchRecord] = []
        for site_pc, caller, symbol in sites:
            record = self.patch_site(site_pc, caller, symbol)
            if record is not None:
                out.append(record)
        return out

    def bound_call(self, site_pc: int, caller: str, symbol: str) -> CallBinding:
        """The binding a patched program uses at ``site_pc``.

        Patched sites call directly; unpatched sites still go via the PLT.
        """
        record = self._patched.get(site_pc)
        if record is None:
            return self.program.bind_call(caller, symbol)
        definition = self.program.symbols.lookup(symbol)
        if definition is None:
            raise LinkError(f"undefined symbol {symbol!r}")
        func = self.program.modules[definition.module].function(symbol)
        return CallBinding(
            symbol=symbol,
            caller=caller,
            via_plt=False,
            plt_addr=0,
            plt_push_addr=0,
            plt0_addr=0,
            got_addr=0,
            func_addr=record.target,
            func_size=func.size,
            first_call=False,
        )

    # ------------------------------------------------------------ internal

    def _write_code(self, space: AddressSpace, site_pc: int) -> None:
        """Unprotect, write, reprotect one code page in ``space``."""
        if not space.is_mapped(site_pc):
            return
        mapping = space.mapping_at(site_pc)
        original = mapping.perm
        faults_before = space.cow_faults
        space.protect(site_pc & ~(PAGE_SIZE - 1), PAGE_SIZE, Perm.RW | Perm.X)
        space.write(site_pc)
        space.protect(site_pc & ~(PAGE_SIZE - 1), PAGE_SIZE, original)
        self.stats.cow_copies += space.cow_faults - faults_before
