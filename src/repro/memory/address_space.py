"""Per-process virtual address spaces built on the page-frame model.

An :class:`AddressSpace` maps virtual page numbers to physical frames with
permissions, supports mmap-style region mapping (optionally sharing frames
with a backing object, as the dynamic loader does for library text), and
implements ``fork`` with copy-on-write semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PageFaultError
from repro.memory.pages import PAGE_SIZE, Frame, Perm, PhysicalMemory, page_of, pages_spanned


@dataclass
class Mapping:
    """A virtual page's view of a physical frame."""

    frame: Frame
    perm: Perm
    #: True when the page must be privatised before the first write.
    cow: bool = False


class AddressSpace:
    """One process's virtual memory.

    All page-table mutations go through the shared :class:`PhysicalMemory`
    so system-wide accounting (the paper's memory-savings numbers) stays
    consistent.
    """

    def __init__(self, phys: PhysicalMemory, name: str = "proc") -> None:
        self.phys = phys
        self.name = name
        self._pages: dict[int, Mapping] = {}
        #: Count of CoW faults taken by this address space.
        self.cow_faults = 0

    # ------------------------------------------------------------------ map

    def map_private(self, base: int, nbytes: int, perm: Perm, origin: str = "") -> None:
        """Map fresh anonymous pages (heap, stack, writable data)."""
        for vpn in pages_spanned(base, nbytes):
            if vpn in self._pages:
                raise PageFaultError(f"{self.name}: page {vpn:#x} already mapped")
            self._pages[vpn] = Mapping(self.phys.allocate(origin), perm)

    def map_shared_frames(self, base: int, frames: list[Frame], perm: Perm, cow: bool) -> None:
        """Map existing frames starting at ``base`` (file-backed mmap).

        With ``cow=True`` the mapping is MAP_PRIVATE: reads share the frame,
        the first write privatises it.
        """
        vpn = page_of(base)
        for offset, frame in enumerate(frames):
            if vpn + offset in self._pages:
                raise PageFaultError(f"{self.name}: page {vpn + offset:#x} already mapped")
            self._pages[vpn + offset] = Mapping(self.phys.share(frame), perm, cow=cow)

    def unmap(self, base: int, nbytes: int) -> None:
        """Remove mappings, releasing frame references."""
        for vpn in pages_spanned(base, nbytes):
            mapping = self._pages.pop(vpn, None)
            if mapping is not None:
                self.phys.release(mapping.frame)

    # --------------------------------------------------------------- access

    def mapping_at(self, addr: int) -> Mapping:
        """The mapping covering ``addr`` (raises if unmapped)."""
        try:
            return self._pages[page_of(addr)]
        except KeyError:
            raise PageFaultError(f"{self.name}: access to unmapped address {addr:#x}") from None

    def is_mapped(self, addr: int) -> bool:
        """Whether ``addr`` falls in a mapped page."""
        return page_of(addr) in self._pages

    def protect(self, base: int, nbytes: int, perm: Perm) -> None:
        """mprotect: change permissions on a range (must be fully mapped)."""
        for vpn in pages_spanned(base, nbytes):
            if vpn not in self._pages:
                raise PageFaultError(f"{self.name}: mprotect of unmapped page {vpn:#x}")
            self._pages[vpn].perm = perm

    def read(self, addr: int) -> None:
        """Model a read access: checks mapping and permission."""
        mapping = self.mapping_at(addr)
        if not mapping.perm & Perm.R:
            raise PageFaultError(f"{self.name}: read of non-readable page at {addr:#x}")

    def write(self, addr: int) -> None:
        """Model a write: checks permission and takes a CoW fault if needed."""
        mapping = self.mapping_at(addr)
        if not mapping.perm & Perm.W:
            raise PageFaultError(f"{self.name}: write to non-writable page at {addr:#x}")
        if mapping.cow and mapping.frame.refcount > 1:
            mapping.frame = self.phys.copy_on_write(mapping.frame)
            mapping.cow = False
            self.cow_faults += 1
        elif mapping.cow:
            # Sole owner: the write simply claims the frame.
            mapping.cow = False

    def fetch(self, addr: int) -> None:
        """Model an instruction fetch: checks the execute permission."""
        mapping = self.mapping_at(addr)
        if not mapping.perm & Perm.X:
            raise PageFaultError(f"{self.name}: fetch from non-executable page at {addr:#x}")

    # ----------------------------------------------------------------- fork

    def fork(self, child_name: str) -> "AddressSpace":
        """Create a child address space sharing all pages copy-on-write.

        Writable pages become CoW in both parent and child, mirroring the
        Unix fork semantics that drive the Section 5.5 analysis.
        """
        child = AddressSpace(self.phys, child_name)
        for vpn, mapping in self._pages.items():
            if mapping.perm & Perm.W:
                mapping.cow = True
            child._pages[vpn] = Mapping(
                self.phys.share(mapping.frame), mapping.perm, cow=mapping.cow or bool(mapping.perm & Perm.W)
            )
        return child

    # ----------------------------------------------------------- accounting

    @property
    def mapped_pages(self) -> int:
        """Number of mapped virtual pages."""
        return len(self._pages)

    @property
    def private_bytes(self) -> int:
        """Bytes in frames referenced only by this address space."""
        return sum(PAGE_SIZE for m in self._pages.values() if m.frame.refcount == 1)
