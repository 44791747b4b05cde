"""x86-64 four-level guest page tables, stored as extents.

Kitten maps its world identity-style, and its page tables are what a
real builder makes of that: PML4 → PDPT → PD → PT, with 1 GiB and 2 MiB
huge-page leaves wherever alignment allows (LWKs lean hard on huge
pages).  Because each ``map`` call covers one contiguous range, the
table is kept as one extent per call (:class:`repro.hw.memory.LeafExtents`)
and its leaves are computed: the greedy 1G → 2M → 4K decomposition of the
extent.  Leaf counts, the leaf a walk ends at and how many levels it
touched are arithmetic, which is what makes guest-side translation costs
and the "identity mappings make nested paging cheap" story concrete.

This is the *guest's own* translation structure — the layer above the
EPT.  A correct Kitten's page tables cover exactly its memory map; the
fault-injection knobs desynchronise the two layers the way real bugs do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    LeafExtents,
    is_page_aligned,
    leaf_cap,
    leaf_size,
)

#: Levels a walk touches to reach a leaf of each size (PML4 is level 1).
_LEVELS_TOUCHED = {PAGE_SIZE_1G: 2, PAGE_SIZE_2M: 3, PAGE_SIZE: 4}


class PageTableError(Exception):
    pass


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a successful page walk."""

    paddr: int
    page_size: int
    writable: bool
    levels_touched: int


class GuestPageTable:
    """A guest's four-level translation structure."""

    def __init__(self) -> None:
        self._extents = LeafExtents()

    @property
    def leaf_count(self) -> dict[int, int]:
        """Leaf entries installed per page size, for introspection."""
        return dict(self._extents.counts)

    # -- mapping -------------------------------------------------------

    def map(
        self,
        virt: int,
        phys: int,
        size: int,
        *,
        writable: bool = True,
        max_page: int = PAGE_SIZE_1G,
    ) -> int:
        """Map [virt, +size) → [phys, +size); returns leaf entries made.

        Greedily uses 1 GiB / 2 MiB leaves where both addresses align
        (capped by ``max_page``).  Overlapping an existing mapping is an
        error — Kitten never double-maps — raised after installing the
        leaves that precede the first conflicting one, as a leaf-by-leaf
        builder would.
        """
        if not (is_page_aligned(virt) and is_page_aligned(phys) and is_page_aligned(size)) or size <= 0:
            raise PageTableError(f"bad map [{virt:#x},+{size:#x})")
        end = virt + size
        cap = leaf_cap(phys - virt, max_page)
        clash = self._extents.first_mapped(virt, end)
        if clash < end:
            clash &= -leaf_size(clash, virt, end, cap)
            if clash > virt:
                self._extents.insert(virt, clash, phys - virt, cap, writable)
            raise PageTableError(f"{clash:#x} already mapped")
        return self._extents.insert(virt, end, phys - virt, cap, writable)

    def unmap(self, virt: int, size: int) -> int:
        """Unmap [virt, +size); huge leaves are split when partially
        covered.  Returns leaf entries removed (post-split).  A hole in
        the range raises after everything below it is unmapped."""
        if not is_page_aligned(virt) or not is_page_aligned(size) or size <= 0:
            raise PageTableError(f"bad unmap [{virt:#x},+{size:#x})")
        end = virt + size
        hole = self._extents.first_hole(virt, end)
        removed = self._extents.remove(virt, hole)
        if hole < end:
            raise PageTableError(f"{hole:#x} not mapped")
        return removed

    # -- walking ---------------------------------------------------------

    def walk(self, vaddr: int) -> WalkResult | None:
        """Translate ``vaddr``; None on a guest page fault."""
        leaf = self._extents.leaf(vaddr)
        if leaf is None:
            return None
        _base, page_size, delta, writable = leaf
        return WalkResult(
            paddr=vaddr + delta,
            page_size=page_size,
            writable=writable,
            levels_touched=_LEVELS_TOUCHED[page_size],
        )

    def translate(self, vaddr: int, *, write: bool = False) -> WalkResult | None:
        result = self.walk(vaddr)
        if result is None or (write and not result.writable):
            return None
        return result

    def covers(self, addr: int, length: int) -> bool:
        """Is [addr, +length) fully mapped?"""
        end = addr + max(length, 1)
        return self._extents.first_hole(addr, end) >= end

    # -- introspection -------------------------------------------------

    def mapped_bytes(self) -> int:
        return self._extents.mapped_bytes
