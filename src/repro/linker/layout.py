"""Address-space layout policies.

Two layouts are provided:

* :class:`ClassicLayout` — the conventional Linux x86-64 process map: the
  executable low (0x400000), heap above it, shared libraries mapped high
  (around 0x7f...), optionally randomised (ASLR).  Library text is far
  (>2 GB) from executable call sites, which is precisely why the paper's
  naive software patching approach breaks (Section 2.3).
* :class:`CompatLayout` — the evaluation layout of Section 4.3: ASLR
  disabled and all code loaded within a contiguous 2 GB window so patched
  ``call rel32`` sites can reach library functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import LayoutError
from repro.linker.module import ModuleSpec

#: 2 GB: the reach of an x86-64 ``call rel32`` in either direction.
REL32_REACH = 2 * 1024 * 1024 * 1024


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass
class PlacedModule:
    """Where one module's sections landed."""

    text_base: int
    plt_base: int
    got_base: int
    end: int


class LayoutPolicy:
    """Interface: assign section base addresses to a sequence of modules."""

    def place_executable(self, spec: ModuleSpec) -> PlacedModule:
        """Place the main executable (must be called first, exactly once)."""
        raise NotImplementedError

    def place_library(self, spec: ModuleSpec) -> PlacedModule:
        """Place one shared library (called once per library, in load order)."""
        raise NotImplementedError

    def heap_base(self) -> int:
        """Base address for heap allocations, above all placed sections."""
        raise NotImplementedError


def _place_at(spec: ModuleSpec, base: int) -> PlacedModule:
    """Lay out text, then PLT, then GOT (own page, it is writable data)."""
    text_base = _align_up(base, spec.text_align)
    plt_base = _align_up(text_base + spec.text_size, 16)
    got_base = _align_up(plt_base + spec.plt_size, 4096)
    end = _align_up(got_base + spec.got_size, 4096)
    return PlacedModule(text_base, plt_base, got_base, end)


@dataclass
class ClassicLayout(LayoutPolicy):
    """Conventional process map with libraries mapped high.

    Attributes:
        aslr: randomise library bases within the mmap region.
        seed: RNG seed for ASLR placement.
    """

    aslr: bool = True
    seed: int = 0
    exe_base: int = 0x400000
    mmap_top: int = 0x7FFF_F000_0000
    _cursor: int = field(init=False, default=0)
    _rng: np.random.Generator = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    _exe_end: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._cursor = self.mmap_top

    def place_executable(self, spec: ModuleSpec) -> PlacedModule:
        """Place the executable at the traditional low text base."""
        placed = _place_at(spec, self.exe_base)
        self._exe_end = placed.end
        return placed

    def place_library(self, spec: ModuleSpec) -> PlacedModule:
        """Map a library at the top of the mmap region, growing downward."""
        gap = 0
        if self.aslr:
            # Page-granular randomisation of up to 16 MB between libraries,
            # matching mmap_rnd-style entropy at the scale that matters here.
            gap = int(self._rng.integers(0, 4096)) * 4096
        size_estimate = _place_at(spec, 0).end + 4096
        base = self._cursor - gap - size_estimate - 2 * spec.text_align
        placed = _place_at(spec, base)
        if placed.end > self._cursor:
            raise LayoutError(f"library {spec.name!r} overlaps previous mapping")
        if placed.text_base <= self._exe_end:
            raise LayoutError("mmap region exhausted; too many libraries")
        self._cursor = placed.text_base - 4096  # guard page
        return placed

    def heap_base(self) -> int:
        """Heap grows upward from just above the executable."""
        return _align_up(self._exe_end + (1 << 20), 4096)


@dataclass
class CompatLayout(LayoutPolicy):
    """Section 4.3 evaluation layout: everything within one 2 GB window.

    ASLR is disabled and libraries are packed right above the executable so
    every call site can reach every function with a ``rel32`` offset.
    """

    exe_base: int = 0x400000
    _cursor: int = field(init=False, default=0)
    _window_end: int = field(init=False, default=0)

    def place_executable(self, spec: ModuleSpec) -> PlacedModule:
        """Place the executable and open the 2 GB reachability window."""
        placed = _place_at(spec, self.exe_base)
        self._cursor = placed.end
        self._window_end = self.exe_base + REL32_REACH
        return placed

    def place_library(self, spec: ModuleSpec) -> PlacedModule:
        """Pack the library directly above the previous module."""
        placed = _place_at(spec, self._cursor + 4096)
        if placed.end > self._window_end:
            raise LayoutError(
                f"library {spec.name!r} does not fit in the 2 GB compat window"
            )
        self._cursor = placed.end
        return placed

    def heap_base(self) -> int:
        """The heap sits above all code in the compat layout."""
        return _align_up(self._cursor + (1 << 20), 4096)


def within_rel32(call_site: int, target: int) -> bool:
    """Whether ``target`` is reachable from ``call_site`` via ``call rel32``."""
    return abs(target - (call_site + 5)) < REL32_REACH
