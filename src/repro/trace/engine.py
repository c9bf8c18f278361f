"""Execution engine: turns library calls into architectural event streams.

The engine knows how a call site reaches a library function under each
linking regime:

* ``DYNAMIC`` — ``call plt_stub`` + ``jmp *GOT`` (the trampoline), with the
  full lazy-resolver detour on the first call per (module, symbol);
* ``STATIC`` — a direct call to the function;
* ``PATCHED`` — the paper's software-emulation baseline: the first
  execution of each call *site* runs the resolver and rewrites the site
  (paying mprotect/patch overhead and privatising the code page), after
  which the site calls directly.

The *enhanced* (proposed-hardware) configuration is not an engine mode:
it runs the same DYNAMIC trace through a CPU equipped with the
trampoline-skip mechanism — exactly how the real hardware would behave.
"""

from __future__ import annotations

import enum
import zlib

from repro.errors import TraceError
from repro.isa.arch import ARCH_PARAMS, Arch
from repro.isa.events import (
    TraceEvent,
    block,
    call_direct,
    call_indirect,
    jmp_direct,
    jmp_indirect,
    load,
    ret,
    store,
)
from repro.linker.dynamic import CallBinding, LinkedProgram
from repro.linker.patcher import CallSitePatcher
from repro.linker.static import StaticProgram
from repro.trace.builder import (
    BatchBuilder,
    K_BLOCK,
    K_CALL_DIRECT,
    K_CALL_INDIRECT,
    K_JMP_DIRECT,
    K_JMP_INDIRECT,
    K_LOAD,
    K_STORE,
)

#: Where ld.so's resolver code lives (one page of hot resolver text).
RESOLVER_TEXT_BASE = 0x7FFF_F7DD_0000
#: Data region for symbol tables / hash chains walked by the resolver.
SYMTAB_DATA_BASE = 0x7FFF_F7E4_0000
SYMTAB_DATA_SPAN = 1 << 20
#: Instructions modelling the software patcher's extra work per site
#: (two mprotect syscalls, disassembly checks, bookkeeping).
PATCH_OVERHEAD_INSTRUCTIONS = 2600
#: Return-site displacement: a ``call rel32`` is 5 bytes.
CALL_SITE_LEN = 5


class TraceCursor:
    """A position-tracking, seekable cursor over an event stream.

    Trace generation is stateful (lazy bindings resolve, patchers rewrite
    sites, samplers advance), so resuming a simulation from a checkpoint
    cannot simply *skip* generation — the generator must be advanced to
    the same position.  The cursor makes that explicit: :meth:`drain`
    consumes events without yielding them (advancing generator state at
    generation cost, no simulation cost), and iteration yields the rest
    while tracking the absolute position for later checkpoints.
    """

    def __init__(self, events, base_index: int = 0) -> None:
        self._it = iter(events)
        #: Absolute stream position (events consumed so far).
        self.index = base_index

    def __iter__(self):
        for ev in self._it:
            self.index += 1
            yield ev

    def drain(self, n: int | None = None) -> int:
        """Consume up to ``n`` events (all remaining if None) without
        yielding them; returns how many were consumed."""
        consumed = 0
        for _ in self._it:
            self.index += 1
            consumed += 1
            if n is not None and consumed >= n:
                break
        return consumed

    def seek(self, index: int) -> None:
        """Advance to absolute position ``index`` (forward-only)."""
        if index < self.index:
            raise TraceError(
                f"cannot seek backwards: at {self.index}, asked for {index}"
            )
        self.drain(index - self.index)
        if self.index != index:
            raise TraceError(
                f"stream ended at {self.index} before reaching {index}"
            )


class LinkMode(enum.Enum):
    """How library calls are bound in the generated trace."""

    DYNAMIC = "dynamic"
    STATIC = "static"
    PATCHED = "patched"


class CallStyle(enum.Enum):
    """Dynamic-call instruction convention.

    * ``ELF_PLT`` — the ELF convention the paper evaluates: every call
      goes through a PLT stub (call + indirect jump).  PE cross-DLL calls
      *without* ``__declspec(dllimport)`` compile to the same
      thunk shape, so this style covers them too.
    * ``PE_DLLIMPORT`` — Windows ``call [IAT]``: a single
      memory-indirect call, bound eagerly at load time.  There is no
      trampoline to skip, so the mechanism neither helps nor hurts —
      but the call still pays the IAT load and indirect-branch cost the
      enhanced ELF path eliminates entirely.
    """

    ELF_PLT = "elf_plt"
    PE_DLLIMPORT = "pe_dllimport"


class ExecutionEngine:
    """Emits the event sequences for library calls and returns.

    The engine is deliberately stateless about *what* gets called — the
    workload models own control flow — and authoritative about *how* a
    call executes under the configured linking regime.
    """

    def __init__(
        self,
        program: LinkedProgram | StaticProgram,
        mode: LinkMode = LinkMode.DYNAMIC,
        patcher: CallSitePatcher | None = None,
        arch: Arch = Arch.X86_64,
        call_style: CallStyle = CallStyle.ELF_PLT,
    ) -> None:
        if mode is LinkMode.PATCHED and patcher is None:
            raise TraceError("PATCHED mode requires a CallSitePatcher")
        if mode is LinkMode.STATIC and not isinstance(program, StaticProgram):
            raise TraceError("STATIC mode requires a StaticProgram")
        if call_style is CallStyle.PE_DLLIMPORT:
            if mode is not LinkMode.DYNAMIC or not isinstance(program, LinkedProgram):
                raise TraceError("PE_DLLIMPORT requires dynamic linking")
            # PE binaries bind their import address tables at load time.
            program.bind_now()
        self.program = program
        self.mode = mode
        self.patcher = patcher
        self.arch = arch
        self.arch_params = ARCH_PARAMS[arch]
        self.call_style = call_style
        #: Total library calls emitted.
        self.calls_emitted = 0
        #: Lazy resolutions emitted (first calls).
        self.resolutions_emitted = 0
        #: Optional observability tracer; when set, resolver detours and
        #: dlclose emissions land as instant events.
        self.tracer = None
        # Warm-call templates for the batch-emitting path, keyed
        # (caller, symbol); dropped whenever the program's binding_epoch
        # moves (GOT rewrite / ifunc reselect / dlclose / dlopen).
        self._templates: dict[tuple[str, str], tuple] = {}
        self._template_epoch = -1

    # ------------------------------------------------------------ plt call

    def call_events(self, caller: str, symbol: str, site_pc: int) -> tuple[list[TraceEvent], CallBinding]:
        """Events from the call site up to (and including) entering the
        function, plus the binding describing the callee.

        The caller is responsible for emitting the function body and then
        :meth:`return_events`.
        """
        self.calls_emitted += 1
        if self.mode is LinkMode.STATIC:
            binding = self.program.bind_call(caller, symbol)
            return [call_direct(site_pc, binding.func_addr)], binding

        if self.mode is LinkMode.PATCHED:
            assert self.patcher is not None
            if self.patcher.is_patched(site_pc):
                binding = self.patcher.bound_call(site_pc, caller, symbol)
                return [call_direct(site_pc, binding.func_addr)], binding
            # First execution of this site: resolve through the normal
            # dynamic path, then rewrite the site.
            binding = self.program.bind_call(caller, symbol)
            events = self._dynamic_call_events(binding, site_pc)
            record = self.patcher.patch_site(site_pc, caller, symbol)
            if record is not None:
                events.extend(self._patch_overhead_events(site_pc))
            return events, binding

        binding = self.program.bind_call(caller, symbol)
        if self.call_style is CallStyle.PE_DLLIMPORT:
            # call [IAT]: one memory-indirect call, no stub, no laziness.
            return [call_indirect(site_pc, binding.func_addr, binding.got_addr)], binding
        return self._dynamic_call_events(binding, site_pc), binding

    def return_events(self, binding: CallBinding, site_pc: int) -> list[TraceEvent]:
        """The callee's return back to just after the call site."""
        ret_pc = binding.func_addr + max(binding.func_size - 1, 1)
        return [ret(ret_pc, site_pc + CALL_SITE_LEN)]

    # ------------------------------------------------------- batch emission

    def call_rows(
        self, caller: str, symbol: str, site_pc: int, builder: BatchBuilder
    ) -> tuple[int, int, bool]:
        """Batch twin of :meth:`call_events`: appends the call's rows to
        ``builder`` and returns ``(func_addr, func_size, via_plt)``.

        Emits event-for-event what :meth:`call_events` would — the first
        call per (caller, symbol) still takes the full ``bind_call`` +
        resolver path, as rows (:meth:`_dynamic_call_rows`) for ELF PLT
        calls and through :meth:`call_events` in the other modes — but
        warm calls replay a precomputed per-binding template (one dict
        hit, two list appends) without re-binding or building
        ``TraceEvent`` objects.
        Templates are invalidated wholesale whenever the program's
        ``binding_epoch`` moves, so GOT rewrites, ifunc reselection,
        dlclose and dlopen all force re-binding through the slow path.
        """
        epoch = getattr(self.program, "binding_epoch", 0)
        if epoch != self._template_epoch:
            self._templates.clear()
            self._template_epoch = epoch
        tmpl = self._templates.get((caller, symbol))
        if tmpl is not None:
            kind, nbytes, target, mem_addr, suffix, tagged, info = tmpl
            self.calls_emitted += 1
            builder.rows += (kind, site_pc, 1, nbytes, target, mem_addr, 1, -1)
            if suffix:
                builder.rows += suffix
                if tagged:
                    # The trampoline row's tag index is per-builder, so it
                    # cannot be baked into the template.
                    builder.rows.append(builder.tag_id("plt"))
            return info
        if self.mode is LinkMode.DYNAMIC and self.call_style is CallStyle.ELF_PLT:
            self.calls_emitted += 1
            binding = self.program.bind_call(caller, symbol)
            self._dynamic_call_rows(binding, site_pc, builder)
        else:
            events, binding = self.call_events(caller, symbol, site_pc)
            builder.extend_events(events)
        info = (binding.func_addr, binding.func_size, binding.via_plt)
        if self.mode is LinkMode.STATIC:
            self._templates[(caller, symbol)] = (
                K_CALL_DIRECT, 5, binding.func_addr, 0, (), False, info,
            )
        elif self.mode is LinkMode.DYNAMIC:
            if self.call_style is CallStyle.PE_DLLIMPORT:
                self._templates[(caller, symbol)] = (
                    K_CALL_INDIRECT, 6, binding.func_addr, binding.got_addr, (), False, info,
                )
            else:
                # Warm ELF PLT call: stub prefix (ARM) + tagged jmp *GOT.
                # The final row is stored without its tag element (see
                # above); PATCHED sites are never templated — patching is
                # per *site*, not per binding.
                params = self.arch_params
                branch_pc = binding.plt_addr + params.stub_prefix_bytes
                suffix: tuple = ()
                if params.stub_prefix_instrs:
                    suffix = (
                        K_BLOCK, binding.plt_addr, params.stub_prefix_instrs,
                        params.stub_prefix_bytes, 0, 0, 1, -1,
                    )
                suffix = suffix + (
                    K_JMP_INDIRECT, branch_pc, 1, params.branch_bytes,
                    binding.func_addr, binding.got_addr, 1,
                )
                self._templates[(caller, symbol)] = (
                    K_CALL_DIRECT, 5, binding.plt_addr, 0, suffix, True, info,
                )
        return info

    # ---------------------------------------------------------- internals

    def _stub_events(self, binding: CallBinding, branch_target: int) -> list[TraceEvent]:
        """The PLT stub body: architecture-dependent prefix + indirect branch.

        On x86-64 the stub's working part is the single ``jmp *GOT``; on
        ARM two ``add`` instructions compute the slot address first
        (paper Figure 2b).  The indirect branch is tagged so the CPU can
        attribute trampoline executions.
        """
        params = self.arch_params
        events: list[TraceEvent] = []
        branch_pc = binding.plt_addr
        if params.stub_prefix_instrs:
            events.append(
                block(binding.plt_addr, params.stub_prefix_instrs, params.stub_prefix_bytes)
            )
            branch_pc = binding.plt_addr + params.stub_prefix_bytes
        trampoline = jmp_indirect(branch_pc, branch_target, binding.got_addr)
        trampoline.nbytes = params.branch_bytes
        trampoline.tag = "plt"
        events.append(trampoline)
        return events

    def _note_resolution(self, binding: CallBinding, site_pc: int) -> None:
        """Count a lazy resolution and report it to the tracer."""
        self.resolutions_emitted += 1
        if self.tracer is not None:
            self.tracer.instant(
                f"resolver_run {binding.caller}:{binding.symbol}",
                category="engine",
                caller=binding.caller,
                symbol=binding.symbol,
                site_pc=hex(site_pc),
                resolver_instructions=binding.resolver_instructions,
            )

    def _dynamic_call_events(self, binding: CallBinding, site_pc: int) -> list[TraceEvent]:
        """``call stub; [adds;] jmp *GOT`` — plus the resolver on first call."""
        if not binding.first_call:
            return [call_direct(site_pc, binding.plt_addr)] + self._stub_events(
                binding, binding.func_addr
            )

        self._note_resolution(binding, site_pc)
        events: list[TraceEvent] = []
        # The unresolved GOT slot points back at the stub's lazy tail.
        events.append(call_direct(site_pc, binding.plt_addr))
        events.extend(self._stub_events(binding, binding.plt_push_addr))
        # push <reloc-index>; jmp PLT0
        events.append(block(binding.plt_push_addr, 1, 5))
        events.append(jmp_direct(binding.plt_push_addr + 5, binding.plt0_addr))
        # PLT0: push link_map; jmp *resolver
        events.append(block(binding.plt0_addr, 2, 16))
        events.append(jmp_direct(binding.plt0_addr + 14, RESOLVER_TEXT_BASE))
        events.extend(self._resolver_events(binding))
        return events

    def _resolver_events(self, binding: CallBinding) -> list[TraceEvent]:
        """_dl_runtime_resolve / _dl_fixup: hash walk, GOT write, jump."""
        events: list[TraceEvent] = []
        n = max(binding.resolver_instructions, 64)
        loads = max(binding.resolver_loads, 1)
        chunk = max(n // (loads + 1), 4)
        pc = RESOLVER_TEXT_BASE
        # Spread the symbol-table walk deterministically over the symtab
        # region so the resolver has its own data footprint.
        salt = zlib.crc32(f"{binding.caller}:{binding.symbol}".encode()) * 2654435761
        emitted = 0
        for i in range(loads):
            events.append(block(pc, chunk, chunk * 4))
            addr = SYMTAB_DATA_BASE + ((salt + i * 8191) % SYMTAB_DATA_SPAN) & ~0x7
            events.append(load(pc + chunk * 4, addr))
            pc += chunk * 4 + 8
            if pc > RESOLVER_TEXT_BASE + 0x3000:
                pc = RESOLVER_TEXT_BASE  # the resolver loops over its page
            emitted += chunk + 1
        if emitted < n:
            events.append(block(pc, n - emitted, (n - emitted) * 4))
        # The GOT update: the store the Bloom filter must observe.  The tag
        # lets the Section 3.4 (no-bloom) variant model a modified linker
        # that issues an explicit ABTB invalidation alongside the store.
        got_store = store(pc + 4, binding.got_addr)
        got_store.tag = "got-store"
        events.append(got_store)
        # Final jump to the freshly resolved function (register-indirect).
        events.append(jmp_indirect(pc + 8, binding.func_addr, 0))
        return events

    def _dynamic_call_rows(
        self, binding: CallBinding, site_pc: int, builder: BatchBuilder
    ) -> None:
        """Row twin of :meth:`_dynamic_call_events` (ELF PLT calls): the
        call, the stub, and on a first call the lazy tail, PLT0 and the
        resolver walk of :meth:`_resolver_events`, appended to ``builder``."""
        params = self.arch_params
        rows = builder.rows
        first = binding.first_call
        if first:
            self._note_resolution(binding, site_pc)
        plt = binding.plt_addr
        rows += (K_CALL_DIRECT, site_pc, 1, 5, plt, 0, 1, -1)
        branch_pc = plt
        if params.stub_prefix_instrs:
            rows += (
                K_BLOCK, plt, params.stub_prefix_instrs, params.stub_prefix_bytes, 0, 0, 1, -1,
            )
            branch_pc = plt + params.stub_prefix_bytes
        rows += (
            K_JMP_INDIRECT, branch_pc, 1, params.branch_bytes,
            binding.plt_push_addr if first else binding.func_addr, binding.got_addr,
            1, builder.tag_id("plt"),
        )
        if not first:
            return
        push, plt0 = binding.plt_push_addr, binding.plt0_addr
        rows += (
            K_BLOCK, push, 1, 5, 0, 0, 1, -1,
            K_JMP_DIRECT, push + 5, 1, 5, plt0, 0, 1, -1,
            K_BLOCK, plt0, 2, 16, 0, 0, 1, -1,
            K_JMP_DIRECT, plt0 + 14, 1, 5, RESOLVER_TEXT_BASE, 0, 1, -1,
        )
        n = max(binding.resolver_instructions, 64)
        loads = max(binding.resolver_loads, 1)
        chunk = max(n // (loads + 1), 4)
        pc = RESOLVER_TEXT_BASE
        salt = zlib.crc32(f"{binding.caller}:{binding.symbol}".encode()) * 2654435761
        for i in range(loads):
            addr = SYMTAB_DATA_BASE + ((salt + i * 8191) % SYMTAB_DATA_SPAN) & ~0x7
            rows += (
                K_BLOCK, pc, chunk, chunk * 4, 0, 0, 1, -1,
                K_LOAD, pc + chunk * 4, 1, 4, 0, addr, 1, -1,
            )
            pc += chunk * 4 + 8
            if pc > RESOLVER_TEXT_BASE + 0x3000:
                pc = RESOLVER_TEXT_BASE
        emitted = loads * (chunk + 1)
        if emitted < n:
            rows += (K_BLOCK, pc, n - emitted, (n - emitted) * 4, 0, 0, 1, -1)
        rows += (K_STORE, pc + 4, 1, 4, 0, binding.got_addr, 1, builder.tag_id("got-store"))
        rows += (K_JMP_INDIRECT, pc + 8, 1, 6, binding.func_addr, 0, 1, -1)

    def dlclose_events(self, library: str) -> list[TraceEvent]:
        """Unload a library at runtime and emit the GOT-reset stores.

        Each GOT slot that pointed into the unloaded library is rewritten
        by ld.so; those stores are what the hardware's Bloom filter
        observes, flushing any ABTB entries that could otherwise send
        skipped calls into unmapped memory.
        """
        if self.mode is not LinkMode.DYNAMIC or not isinstance(self.program, LinkedProgram):
            raise TraceError("dlclose is only meaningful under dynamic linking")
        resets = self.program.unload_library(library)
        if self.tracer is not None:
            self.tracer.instant(
                f"dlclose_events {library}",
                category="engine",
                library=library,
                got_resets=len(resets),
            )
        events: list[TraceEvent] = []
        pc = RESOLVER_TEXT_BASE + 0x2000  # ld.so's unload path
        events.append(block(pc, 120 + 10 * len(resets), 0x600))
        for _caller, _symbol, got_addr in resets:
            reset_store = store(pc + 0x80, got_addr)
            reset_store.tag = "got-store"
            events.append(reset_store)
        return events

    def _patch_overhead_events(self, site_pc: int) -> list[TraceEvent]:
        """The software patcher's per-site work, including the code write."""
        pc = RESOLVER_TEXT_BASE + 0x4000  # patcher code lives next door
        return [
            block(pc, PATCH_OVERHEAD_INSTRUCTIONS, 0x1000),
            store(pc + 0x40, site_pc),  # the write into the text page
        ]
