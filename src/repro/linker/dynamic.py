"""The dynamic linker: module mapping, symbol resolution, lazy binding.

This models the ld.so behaviour the paper depends on:

* libraries are mapped into the process with their text shared read-only
  between all processes (one physical copy system-wide);
* every import gets a PLT stub and a GOT slot; GOT slots initially point
  back into the stub (``push n; jmp PLT0``) so the first call routes through
  the resolver;
* the resolver looks the symbol up in load order, writes the real address
  into the GOT slot (**a store — the event the mechanism's Bloom filter
  watches**), and jumps to the function;
* subsequent calls execute only the trampoline's ``jmp *GOT[n]``.

GNU ifuncs (Section 2.4.1) resolve through an extra indirection: the
resolver calls the ifunc's selector, which picks an implementation variant
based on hardware capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.linker.layout import ClassicLayout, LayoutPolicy
from repro.linker.module import ModuleImage, ModuleSpec
from repro.linker.symbols import Symbol, SymbolKind, SymbolTable
from repro.memory.address_space import AddressSpace
from repro.memory.pages import PAGE_SIZE, Frame, Perm, PhysicalMemory, pages_spanned

#: Instructions charged for one pass through the lazy resolver
#: (_dl_runtime_resolve + _dl_fixup hash lookup), calibrated to glibc.
RESOLVER_INSTRUCTIONS = 760
#: Data loads performed by one resolver pass (symbol hash chains, link maps).
RESOLVER_LOADS = 48
#: Extra instructions for running an ifunc selector.
IFUNC_SELECTOR_INSTRUCTIONS = 120


@dataclass(frozen=True)
class CallBinding:
    """Everything the trace engine needs to emit one library call.

    Attributes:
        symbol: the called symbol name.
        caller: the module making the call.
        via_plt: True for dynamic linking, False for direct (static/patched).
        plt_addr: address of the caller's PLT stub for this symbol.
        plt_push_addr: address of the stub's lazy tail (first-call target).
        plt0_addr: the module's shared resolver stub.
        got_addr: address of the caller's GOT slot for this symbol.
        func_addr: resolved entry address of the function.
        func_size: text size of the function body.
        first_call: True when this call triggers lazy resolution.
        resolver_instructions: instruction cost of resolution (0 otherwise).
        resolver_loads: data loads performed by resolution.
    """

    symbol: str
    caller: str
    via_plt: bool
    plt_addr: int
    plt_push_addr: int
    plt0_addr: int
    got_addr: int
    func_addr: int
    func_size: int
    first_call: bool
    resolver_instructions: int = 0
    resolver_loads: int = 0


@dataclass
class _GotSlot:
    """Runtime state of one GOT slot."""

    resolved: bool = False
    value: int = 0


class LinkedProgram:
    """A fully mapped process image with live GOT state.

    The trace engine drives this object: :meth:`bind_call` performs (and
    records) lazy resolution exactly once per (module, symbol) pair, the
    way ld.so does.
    """

    def __init__(
        self,
        modules: dict[str, ModuleImage],
        symbols: SymbolTable,
        heap_base: int,
        load_order: list[str],
        hwcap_level: int = 0,
    ) -> None:
        self.modules = modules
        self.symbols = symbols
        self.heap_base = heap_base
        self.load_order = load_order
        self.hwcap_level = hwcap_level
        self._got: dict[tuple[str, str], _GotSlot] = {}
        for name, image in modules.items():
            for sym in image.imports():
                self._got[(name, sym)] = _GotSlot()
        #: (module, symbol) pairs resolved so far, in resolution order.
        self.resolution_log: list[tuple[str, str]] = []
        #: Optional observability tracer (see :meth:`attach_tracer`).
        self.tracer = None
        #: Monotonic counter bumped by every operation that can change an
        #: *already resolved* binding (GOT rewrite, ifunc reselection,
        #: dlclose) or the module map (dlopen).  The batch-emitting engine
        #: path caches per-binding warm-call templates keyed on this epoch
        #: and drops them all whenever it moves.
        self.binding_epoch = 0

    def attach_tracer(self, tracer) -> None:
        """Emit linker activity (resolver runs, GOT writes, dlclose) as
        instant events on an :class:`repro.obs.tracer.Tracer`."""
        self.tracer = tracer

    # ---------------------------------------------------------- resolution

    def module(self, name: str) -> ModuleImage:
        """The image of a loaded module."""
        try:
            return self.modules[name]
        except KeyError:
            raise LinkError(f"module {name!r} is not loaded") from None

    def _resolve_symbol(self, symbol: str) -> tuple[Symbol, int, int]:
        """Find a definition; returns (symbol, entry, extra selector cost)."""
        definition = self.symbols.lookup(symbol)
        if definition is None:
            raise LinkError(f"undefined symbol {symbol!r}")
        extra = 0
        entry = definition.address
        if definition.kind is SymbolKind.IFUNC:
            layout = self.modules[definition.module].function(symbol)
            variants = layout.variant_entries
            entry = variants[self.hwcap_level % len(variants)]
            extra = IFUNC_SELECTOR_INSTRUCTIONS
        return definition, entry, extra

    def bind_call(self, caller: str, symbol: str) -> CallBinding:
        """Bind one dynamic library call from ``caller`` to ``symbol``.

        The first call per (caller, symbol) runs the lazy resolver and
        writes the GOT slot; later calls find the slot resolved.
        """
        image = self.module(caller)
        slot = self._got.get((caller, symbol))
        if slot is None:
            raise LinkError(f"module {caller!r} does not import {symbol!r}")
        definition, entry, selector_cost = self._resolve_symbol(symbol)
        func_size = self.modules[definition.module].function(symbol).size
        if slot.resolved:
            return CallBinding(
                symbol,
                caller,
                True,
                image.plt_entry(symbol),
                image.plt_push_address(symbol),
                image.plt0_address(),
                image.got_slot(symbol),
                slot.value,
                func_size,
                first_call=False,
            )
        slot.resolved = True
        slot.value = entry
        self.resolution_log.append((caller, symbol))
        if self.tracer is not None:
            self.tracer.instant(
                f"resolve {caller}:{symbol}",
                category="linker",
                caller=caller,
                symbol=symbol,
                got_addr=hex(image.got_slot(symbol)),
                target=hex(entry),
                ifunc=definition.kind is SymbolKind.IFUNC,
            )
        return CallBinding(
            symbol,
            caller,
            True,
            image.plt_entry(symbol),
            image.plt_push_address(symbol),
            image.plt0_address(),
            image.got_slot(symbol),
            entry,
            func_size,
            first_call=True,
            resolver_instructions=RESOLVER_INSTRUCTIONS + selector_cost,
            resolver_loads=RESOLVER_LOADS,
        )

    def bind_now(self) -> int:
        """Eagerly resolve every import (LD_BIND_NOW); returns slot count."""
        count = 0
        for (caller, symbol), slot in self._got.items():
            if not slot.resolved:
                _, entry, _ = self._resolve_symbol(symbol)
                slot.resolved = True
                slot.value = entry
                self.resolution_log.append((caller, symbol))
                count += 1
        if self.tracer is not None:
            self.tracer.instant("bind_now", category="linker", slots_bound=count)
        return count

    def got_value(self, caller: str, symbol: str) -> int | None:
        """Current GOT slot contents (None while unresolved)."""
        slot = self._got[(caller, symbol)]
        return slot.value if slot.resolved else None

    def resolved_count(self) -> int:
        """Number of populated GOT slots."""
        return sum(1 for s in self._got.values() if s.resolved)

    # ------------------------------------------------------------- rewrite

    def rewrite_got(self, caller: str, symbol: str, new_value: int) -> int:
        """Overwrite a *resolved* GOT slot in place; returns the slot address.

        Models ld.so rewriting a live slot at runtime: a library unloaded
        and re-loaded at a new base, an ifunc selector changing its answer,
        or interposition after a ``dlopen``.  The caller is responsible for
        emitting the matching store event — that store is what the
        hardware's Bloom filter (or the §3.4 software contract) must see.
        """
        slot = self._got.get((caller, symbol))
        if slot is None:
            raise LinkError(f"module {caller!r} does not import {symbol!r}")
        if not slot.resolved:
            raise LinkError(f"GOT slot {caller!r}:{symbol!r} is not resolved")
        slot.value = new_value
        self.binding_epoch += 1
        got_addr = self.modules[caller].got_slot(symbol)
        if self.tracer is not None:
            self.tracer.instant(
                f"got_rewrite {caller}:{symbol}",
                category="linker",
                caller=caller,
                symbol=symbol,
                got_addr=hex(got_addr),
                new_value=hex(new_value),
            )
        return got_addr

    def reselect_ifuncs(self, hwcap_level: int) -> list[tuple[str, str, int, int]]:
        """Re-run every resolved ifunc selector under a new hwcap level.

        Returns the (caller, symbol, got_addr, new_entry) rewrites for
        slots whose winning variant changed — each is a GOT write the
        hardware must observe.
        """
        self.hwcap_level = hwcap_level
        self.binding_epoch += 1
        rewrites: list[tuple[str, str, int, int]] = []
        for (caller, symbol), slot in self._got.items():
            if not slot.resolved:
                continue
            definition = self.symbols.lookup(symbol)
            if definition is None or definition.kind is not SymbolKind.IFUNC:
                continue
            _, entry, _ = self._resolve_symbol(symbol)
            if entry != slot.value:
                slot.value = entry
                rewrites.append((caller, symbol, self.modules[caller].got_slot(symbol), entry))
        if self.tracer is not None:
            self.tracer.instant(
                "ifunc_reselect",
                category="linker",
                hwcap_level=hwcap_level,
                rewrites=len(rewrites),
            )
        return rewrites

    # -------------------------------------------------------------- unload

    def unload_library(self, name: str) -> list[tuple[str, str, int]]:
        """Unload a library (dlclose): reset every GOT slot that points into
        it and drop its symbols.

        Returns the (module, symbol, got_addr) triples that were reset —
        these are GOT *writes* that the hardware's Bloom filter must catch.
        """
        if name not in self.modules:
            raise LinkError(f"module {name!r} is not loaded")
        self.binding_epoch += 1
        victim = self.modules[name]
        lo, hi = victim.text_range
        reset: list[tuple[str, str, int]] = []
        for (caller, symbol), slot in self._got.items():
            if slot.resolved and lo <= slot.value < hi:
                slot.resolved = False
                slot.value = 0
                reset.append((caller, symbol, self.modules[caller].got_slot(symbol)))
        for sym_name in list(self.symbols._by_name):
            if self.symbols._by_name[sym_name].module == name:
                del self.symbols._by_name[sym_name]
        del self.modules[name]
        self.load_order.remove(name)
        if self.tracer is not None:
            self.tracer.instant(
                f"dlclose {name}",
                category="linker",
                library=name,
                slots_reset=len(reset),
            )
        return reset


@dataclass
class _FileCacheEntry:
    """Shared page frames backing a module's file, like the OS page cache."""

    code_frames: list[Frame] = field(default_factory=list)
    data_frames: list[Frame] = field(default_factory=list)


class DynamicLinker:
    """Maps modules into address spaces and constructs linked programs.

    One linker instance models one machine: its file cache makes library
    text frames shared across every process that maps the same module,
    which is the memory-conservation property of dynamic linking that the
    paper's Section 5.5 accounting depends on.
    """

    def __init__(self, phys: PhysicalMemory | None = None) -> None:
        self.phys = phys if phys is not None else PhysicalMemory()
        self._file_cache: dict[str, _FileCacheEntry] = {}

    def link(
        self,
        exe: ModuleSpec,
        libraries: list[ModuleSpec],
        layout: LayoutPolicy | None = None,
        address_space: AddressSpace | None = None,
        hwcap_level: int = 0,
    ) -> LinkedProgram:
        """Map the executable and its libraries; return the live program.

        When ``address_space`` is given, pages are actually mapped into it
        (text shared, GOT copy-on-write private), enabling fork/CoW
        experiments; otherwise only addresses are computed.
        """
        layout = layout if layout is not None else ClassicLayout(aslr=False)
        names = [exe.name] + [lib.name for lib in libraries]
        if len(set(names)) != len(names):
            raise LinkError("duplicate module names")

        modules: dict[str, ModuleImage] = {}
        symbols = SymbolTable()
        placements = {exe.name: layout.place_executable(exe)}
        for lib in libraries:
            placements[lib.name] = layout.place_library(lib)

        for spec in [exe] + libraries:
            placed = placements[spec.name]
            image = ModuleImage(spec, placed.text_base, placed.plt_base, placed.got_base)
            modules[spec.name] = image
            for fn in spec.functions:
                symbols.define(
                    Symbol(fn.name, spec.name, image.function(fn.name).entry, fn.kind)
                )
            if address_space is not None:
                self._map_module(address_space, spec, image)

        # Check every import resolves before handing the program out.
        for spec in [exe] + libraries:
            for sym in spec.imports:
                if symbols.lookup(sym) is None:
                    raise LinkError(f"module {spec.name!r}: undefined import {sym!r}")

        return LinkedProgram(modules, symbols, layout.heap_base(), names, hwcap_level)

    def dlopen(
        self,
        program: LinkedProgram,
        spec: ModuleSpec,
        layout: LayoutPolicy,
        address_space: AddressSpace | None = None,
    ) -> ModuleImage:
        """Load a library into a running program (``dlopen`` semantics).

        The new module's symbols join the global table (without
        interposing on existing winners), its imports get fresh GOT slots,
        and — unlike the software patching baseline — nothing about
        already-resolved calls changes: the proposed hardware supports
        dynamic loading implicitly.
        """
        if spec.name in program.modules:
            raise LinkError(f"module {spec.name!r} is already loaded")
        placed = layout.place_library(spec)
        image = ModuleImage(spec, placed.text_base, placed.plt_base, placed.got_base)
        for fn in spec.functions:
            program.symbols.define(
                Symbol(fn.name, spec.name, image.function(fn.name).entry, fn.kind)
            )
        for sym in spec.imports:
            if program.symbols.lookup(sym) is None:
                raise LinkError(f"dlopen {spec.name!r}: undefined import {sym!r}")
        program.modules[spec.name] = image
        program.load_order.append(spec.name)
        program.binding_epoch += 1
        for sym in spec.imports:
            program._got[(spec.name, sym)] = _GotSlot()
        if address_space is not None:
            self._map_module(address_space, spec, image)
        return image

    def _map_module(self, space: AddressSpace, spec: ModuleSpec, image: ModuleImage) -> None:
        """Map text+PLT (shared RX) and GOT (private CoW RW) pages."""
        entry = self._file_cache.get(spec.name)
        code_lo = image.text_base
        code_hi = image.plt_range[1]
        code_pages = len(pages_spanned(code_lo, code_hi - code_lo))
        got_lo, got_hi = image.got_range
        got_pages = len(pages_spanned(got_lo, got_hi - got_lo))
        if entry is None:
            entry = _FileCacheEntry(
                code_frames=[self.phys.allocate(f"{spec.name}:text") for _ in range(code_pages)],
                data_frames=[self.phys.allocate(f"{spec.name}:got") for _ in range(got_pages)],
            )
            self._file_cache[spec.name] = entry
        space.map_shared_frames(code_lo & ~(PAGE_SIZE - 1), entry.code_frames, Perm.RX, cow=True)
        space.map_shared_frames(got_lo & ~(PAGE_SIZE - 1), entry.data_frames, Perm.RW, cow=True)
