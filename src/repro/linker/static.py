"""Static-linking baseline.

A statically linked program has no PLT and no GOT: every call site encodes
its target directly.  This is the performance upper bound the paper's
hardware aims to match while keeping dynamic linking's benefits.
"""

from __future__ import annotations

from repro.errors import LinkError
from repro.linker.dynamic import CallBinding
from repro.linker.layout import _align_up
from repro.linker.module import ModuleImage, ModuleSpec
from repro.linker.symbols import Symbol, SymbolKind, SymbolTable


class StaticProgram:
    """A statically linked image: one text segment, direct calls only.

    Exposes the same call-binding interface as
    :class:`repro.linker.dynamic.LinkedProgram` so the trace engine can run
    either, but ``via_plt`` is always False and there is no lazy state.
    """

    def __init__(self, modules: dict[str, ModuleImage], symbols: SymbolTable, heap_base: int) -> None:
        self.modules = modules
        self.symbols = symbols
        self.heap_base = heap_base
        self.load_order = list(modules)

    def module(self, name: str) -> ModuleImage:
        """The image of one input module (text only)."""
        try:
            return self.modules[name]
        except KeyError:
            raise LinkError(f"module {name!r} was not linked in") from None

    def bind_call(self, caller: str, symbol: str) -> CallBinding:
        """Bind a call: always a direct call to the definition."""
        definition = self.symbols.lookup(symbol)
        if definition is None:
            raise LinkError(f"undefined symbol {symbol!r}")
        func = self.modules[definition.module].function(symbol)
        entry = definition.address
        if definition.kind is SymbolKind.IFUNC and func.variant_entries:
            # Static linking bakes in the generic implementation: the
            # load-time hardware dispatch of ifuncs is a dynamic-linking
            # benefit that static linking loses.
            entry = func.entry
        return CallBinding(
            symbol=symbol,
            caller=caller,
            via_plt=False,
            plt_addr=0,
            plt_push_addr=0,
            plt0_addr=0,
            got_addr=0,
            func_addr=entry,
            func_size=func.size,
            first_call=False,
        )


class StaticLinker:
    """Combines an executable and libraries into one static image."""

    def link(self, exe: ModuleSpec, libraries: list[ModuleSpec], base: int = 0x400000) -> StaticProgram:
        """Lay all module texts out contiguously and resolve all symbols."""
        modules: dict[str, ModuleImage] = {}
        symbols = SymbolTable()
        cursor = base
        for spec in [exe] + libraries:
            # Strip imports: a static image has no PLT stubs.
            stripped = replace_spec_without_imports(spec)
            image = ModuleImage(stripped, cursor, cursor + stripped.text_size, cursor + stripped.text_size)
            modules[spec.name] = image
            for fn in spec.functions:
                symbols.define(Symbol(fn.name, spec.name, image.function(fn.name).entry, fn.kind))
            cursor = _align_up(image.text_end + 16, 64)
        # Verify closure: every import of every input must now resolve.
        for spec in [exe] + libraries:
            for sym in spec.imports:
                if symbols.lookup(sym) is None:
                    raise LinkError(f"static link failed: undefined symbol {sym!r}")
        heap_base = _align_up(cursor + (1 << 20), 4096)
        return StaticProgram(modules, symbols, heap_base)


def replace_spec_without_imports(spec: ModuleSpec) -> ModuleSpec:
    """A copy of ``spec`` with its import list removed."""
    return ModuleSpec(name=spec.name, functions=list(spec.functions), imports=[], text_align=spec.text_align)
