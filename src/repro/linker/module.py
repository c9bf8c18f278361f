"""Modules: the executable and shared libraries, before and after layout.

The geometry mirrors x86-64 ELF exactly where it matters to the paper:

* PLT entries are 16 bytes, so four fit in a 64-byte instruction-cache line,
  but because programs call a small, source-order-scattered subset of a
  module's imports, used entries are sparse — effectively one I-cache line
  per exercised trampoline (Section 2.2).
* GOT slots are 8 bytes (eight per data-cache line) and equally sparse.
* PLT slot 0 is the shared lazy-resolution stub (PLT0); each import's stub
  is ``jmp *GOT[n]; push n; jmp PLT0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.linker.symbols import FunctionSpec, SymbolKind

#: Bytes per PLT stub (x86-64 ELF).
PLT_ENTRY_SIZE = 16
#: Bytes per GOT slot (one 64-bit pointer).
GOT_SLOT_SIZE = 8
#: Reserved GOT slots (link_map pointer, resolver address, etc.).
GOT_RESERVED_SLOTS = 3
#: Offset within a PLT stub of the ``push n; jmp PLT0`` tail that the
#: unresolved GOT slot initially points back to.
PLT_PUSH_OFFSET = 6


@dataclass
class ModuleSpec:
    """A module as described by its (synthetic) object file.

    Attributes:
        name: module name, e.g. ``"app"`` or ``"libc.so"``.
        functions: functions defined by the module, in source order.
        imports: external symbol names, in PLT slot order.  As in real
            toolchains the order follows the source, not call frequency.
        text_align: alignment of the text segment base.
    """

    name: str
    functions: list[FunctionSpec] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    text_align: int = 4096

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for fn in self.functions:
            if fn.name in seen:
                raise LinkError(f"module {self.name!r}: duplicate function {fn.name!r}")
            seen.add(fn.name)
        if len(set(self.imports)) != len(self.imports):
            raise LinkError(f"module {self.name!r}: duplicate import")

    @property
    def text_size(self) -> int:
        """Total text bytes of all defined functions (and ifunc variants)."""
        total = 0
        for fn in self.functions:
            total += fn.size
            if fn.kind is SymbolKind.IFUNC:
                total += fn.size * fn.ifunc_variants
        return total

    @property
    def plt_size(self) -> int:
        """PLT bytes: PLT0 plus one stub per import."""
        return PLT_ENTRY_SIZE * (1 + len(self.imports))

    @property
    def got_size(self) -> int:
        """GOT bytes: reserved slots plus one per import."""
        return GOT_SLOT_SIZE * (GOT_RESERVED_SLOTS + len(self.imports))


@dataclass
class FunctionLayout:
    """A defined function placed in memory."""

    name: str
    entry: int
    size: int
    module: str
    kind: SymbolKind = SymbolKind.FUNC
    #: Entry addresses of ifunc implementation variants (empty for FUNC).
    variant_entries: list[int] = field(default_factory=list)


class ModuleImage:
    """A module after address-space layout.

    Provides the address queries the trace engine and the experiments need:
    function entries, PLT stub addresses, GOT slot addresses, and section
    ranges (used to classify trampoline PCs and to account patched pages).
    """

    def __init__(self, spec: ModuleSpec, text_base: int, plt_base: int, got_base: int) -> None:
        self.spec = spec
        self.name = spec.name
        self.text_base = text_base
        self.plt_base = plt_base
        self.got_base = got_base

        self.functions: dict[str, FunctionLayout] = {}
        cursor = text_base
        for fn in spec.functions:
            variants: list[int] = []
            entry = cursor
            cursor += fn.size
            if fn.kind is SymbolKind.IFUNC:
                for _ in range(fn.ifunc_variants):
                    variants.append(cursor)
                    cursor += fn.size
            self.functions[fn.name] = FunctionLayout(
                fn.name, entry, fn.size, spec.name, fn.kind, variants
            )
        self.text_end = cursor

        self._plt_index = {name: i for i, name in enumerate(spec.imports)}

    # ------------------------------------------------------------- queries

    def function(self, name: str) -> FunctionLayout:
        """Layout of a defined function."""
        try:
            return self.functions[name]
        except KeyError:
            raise LinkError(f"module {self.name!r} does not define {name!r}") from None

    def imports(self) -> list[str]:
        """Imported symbol names in PLT order."""
        return list(self.spec.imports)

    def plt0_address(self) -> int:
        """Address of the shared lazy-resolution stub."""
        return self.plt_base

    def plt_entry(self, symbol: str) -> int:
        """Address of the PLT stub for an imported symbol."""
        return self.plt_base + PLT_ENTRY_SIZE * (1 + self._plt_slot(symbol))

    def plt_push_address(self, symbol: str) -> int:
        """Address of the stub's ``push n`` tail (initial GOT target)."""
        return self.plt_entry(symbol) + PLT_PUSH_OFFSET

    def got_slot(self, symbol: str) -> int:
        """Address of the GOT slot holding the symbol's resolved pointer."""
        return self.got_base + GOT_SLOT_SIZE * (GOT_RESERVED_SLOTS + self._plt_slot(symbol))

    def _plt_slot(self, symbol: str) -> int:
        try:
            return self._plt_index[symbol]
        except KeyError:
            raise LinkError(f"module {self.name!r} does not import {symbol!r}") from None

    # -------------------------------------------------------------- ranges

    @property
    def plt_range(self) -> tuple[int, int]:
        """Half-open byte range of the PLT section."""
        return (self.plt_base, self.plt_base + self.spec.plt_size)

    @property
    def got_range(self) -> tuple[int, int]:
        """Half-open byte range of the GOT section."""
        return (self.got_base, self.got_base + self.spec.got_size)

    @property
    def text_range(self) -> tuple[int, int]:
        """Half-open byte range of the text segment."""
        return (self.text_base, self.text_end)
