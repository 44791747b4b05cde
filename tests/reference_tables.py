"""Per-leaf reference models of the two translation layers.

Test-only.  These are the straightforward implementations the extent
based :class:`repro.kitten.pagetable.GuestPageTable` and
:class:`repro.vmx.ept.ExtendedPageTable` must agree with: a real
four-level tree with one entry object per leaf, and an EPT holding one
:class:`~repro.vmx.ept.EptMapping` per page in a dict.  Every leaf is
installed, split and removed one at a time, so leaf counts, splintering
and partial failures are what a page-table builder literally does.
``tests/test_pagetable_differential.py`` drives both models through the
same operation sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hw.memory import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZES_DESC,
    is_page_aligned,
)
from repro.kitten.pagetable import PageTableError, WalkResult
from repro.vmx.ept import (
    EptError,
    EptMapping,
    EptPermissions,
    EptViolationInfo,
)

#: Bits of virtual address translated per level.
_LEVEL_SHIFTS = (39, 30, 21, 12)  # PML4, PDPT, PD, PT
_INDEX_MASK = 0x1FF


@dataclass
class PTEntry:
    """One page-table entry (any level)."""

    present: bool = False
    writable: bool = True
    #: For leaf entries: physical frame base.  For interior entries: the
    #: next-level table.
    frame: int = 0
    huge: bool = False
    table: "PageTable | None" = None


@dataclass
class PageTable:
    """One 512-entry table."""

    level: int  # 0 = PML4 ... 3 = PT
    entries: dict[int, PTEntry] = field(default_factory=dict)

    def entry(self, index: int, create: bool = False) -> PTEntry | None:
        entry = self.entries.get(index)
        if entry is None and create:
            entry = PTEntry()
            self.entries[index] = entry
        return entry


class ReferenceGuestPageTable:
    """A guest's four-level translation structure, one object per leaf."""

    def __init__(self) -> None:
        self.root = PageTable(level=0)
        self.leaf_count: dict[int, int] = {
            PAGE_SIZE: 0, PAGE_SIZE_2M: 0, PAGE_SIZE_1G: 0
        }

    @staticmethod
    def _indices(vaddr: int) -> tuple[int, int, int, int]:
        return tuple((vaddr >> shift) & _INDEX_MASK for shift in _LEVEL_SHIFTS)

    def map(
        self,
        virt: int,
        phys: int,
        size: int,
        *,
        writable: bool = True,
        max_page: int = PAGE_SIZE_1G,
    ) -> int:
        if not (is_page_aligned(virt) and is_page_aligned(phys) and is_page_aligned(size)) or size <= 0:
            raise PageTableError(f"bad map [{virt:#x},+{size:#x})")
        created = 0
        remaining = size
        while remaining:
            for page_size in (PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE):
                if page_size > max_page:
                    continue
                if virt % page_size or phys % page_size or remaining < page_size:
                    continue
                self._install_leaf(virt, phys, page_size, writable)
                virt += page_size
                phys += page_size
                remaining -= page_size
                created += 1
                break
        return created

    def _install_leaf(
        self, virt: int, phys: int, page_size: int, writable: bool
    ) -> None:
        leaf_level = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}[page_size]
        table = self.root
        indices = self._indices(virt)
        for level in range(leaf_level):
            entry = table.entry(indices[level], create=True)
            assert entry is not None
            if entry.present and entry.table is None:
                raise PageTableError(
                    f"{virt:#x}: huge mapping already covers this range"
                )
            if entry.table is None:
                entry.table = PageTable(level=level + 1)
                entry.present = True
            table = entry.table
        leaf = table.entry(indices[leaf_level], create=True)
        assert leaf is not None
        if leaf.present:
            raise PageTableError(f"{virt:#x} already mapped")
        leaf.present = True
        leaf.writable = writable
        leaf.frame = phys
        leaf.huge = page_size != PAGE_SIZE
        self.leaf_count[page_size] += 1

    def unmap(self, virt: int, size: int) -> int:
        if not is_page_aligned(virt) or not is_page_aligned(size) or size <= 0:
            raise PageTableError(f"bad unmap [{virt:#x},+{size:#x})")
        removed = 0
        addr = virt
        end = virt + size
        while addr < end:
            result = self.walk(addr)
            if result is None:
                raise PageTableError(f"{addr:#x} not mapped")
            base = addr & ~(result.page_size - 1)
            leaf_end = base + result.page_size
            if base < addr or leaf_end > end:
                # Split the huge leaf and retry at finer granularity.
                self._split_leaf(base, result)
                continue
            self._remove_leaf(base, result.page_size)
            removed += 1
            addr = leaf_end
        return removed

    def _split_leaf(self, base: int, result: WalkResult) -> None:
        if result.page_size == PAGE_SIZE:
            raise PageTableError("cannot split a 4K leaf")
        at_base = self.walk(base)
        assert at_base is not None
        phys_base = at_base.paddr  # leaf-aligned physical base
        smaller = PAGE_SIZE_2M if result.page_size == PAGE_SIZE_1G else PAGE_SIZE
        self._remove_leaf(base, result.page_size)
        for offset in range(0, result.page_size, smaller):
            self._install_leaf(
                base + offset, phys_base + offset, smaller, result.writable
            )

    def _remove_leaf(self, virt: int, page_size: int) -> None:
        leaf_level = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}[page_size]
        indices = self._indices(virt)
        path: list[tuple[PageTable, int]] = []
        table = self.root
        for level in range(leaf_level):
            entry = table.entry(indices[level])
            if entry is None or entry.table is None:
                raise PageTableError(f"{virt:#x}: broken interior node")
            path.append((table, indices[level]))
            table = entry.table
        leaf = table.entry(indices[leaf_level])
        if leaf is None or not leaf.present:
            raise PageTableError(f"{virt:#x} not mapped at {page_size:#x}")
        del table.entries[indices[leaf_level]]
        self.leaf_count[page_size] -= 1
        # Prune now-empty interior tables so the slot can later hold a
        # huge leaf again.
        for parent, index in reversed(path):
            child = parent.entries[index].table
            if child is not None and not child.entries:
                del parent.entries[index]
            else:
                break

    def walk(self, vaddr: int) -> WalkResult | None:
        indices = self._indices(vaddr)
        table = self.root
        for level in range(4):
            entry = table.entry(indices[level])
            if entry is None or not entry.present:
                return None
            if entry.table is None:  # leaf
                page_size = {1: PAGE_SIZE_1G, 2: PAGE_SIZE_2M, 3: PAGE_SIZE}[level]
                offset = vaddr & (page_size - 1)
                return WalkResult(
                    paddr=entry.frame + offset,
                    page_size=page_size,
                    writable=entry.writable,
                    levels_touched=level + 1,
                )
            table = entry.table
        return None  # pragma: no cover

    def translate(self, vaddr: int, *, write: bool = False) -> WalkResult | None:
        result = self.walk(vaddr)
        if result is None or (write and not result.writable):
            return None
        return result

    def covers(self, addr: int, length: int) -> bool:
        pos = addr
        end = addr + max(length, 1)
        while pos < end:
            result = self.walk(pos)
            if result is None:
                return False
            pos = (pos & ~(result.page_size - 1)) + result.page_size
        return True

    def mapped_bytes(self) -> int:
        return sum(size * count for size, count in self.leaf_count.items())


class ReferenceExtendedPageTable:
    """A software EPT holding one :class:`EptMapping` per entry."""

    def __init__(self) -> None:
        self._mappings: dict[int, EptMapping] = {}
        self.generation: int = 0

    def __len__(self) -> int:
        return len(self._mappings)

    def map_region(
        self,
        guest_start: int,
        size: int,
        host_start: int | None = None,
        perms: EptPermissions | None = None,
        coalesce: bool = True,
    ) -> list[EptMapping]:
        if size <= 0 or not is_page_aligned(size) or not is_page_aligned(guest_start):
            raise EptError(f"bad map range [{guest_start:#x},+{size:#x})")
        if host_start is None:
            host_start = guest_start
        if not is_page_aligned(host_start):
            raise EptError(f"host start {host_start:#x} not aligned")
        if self.overlaps(guest_start, size):
            raise EptError(
                f"map [{guest_start:#x},+{size:#x}) overlaps existing mapping"
            )
        perms = perms or EptPermissions.full()
        created: list[EptMapping] = []
        gpa, hpa, remaining = guest_start, host_start, size
        sizes = PAGE_SIZES_DESC if coalesce else (PAGE_SIZE,)
        while remaining:
            for page_size in sizes:
                if (
                    gpa % page_size == 0
                    and hpa % page_size == 0
                    and remaining >= page_size
                ):
                    mapping = EptMapping(gpa, hpa, page_size, perms)
                    self._mappings[gpa] = mapping
                    created.append(mapping)
                    gpa += page_size
                    hpa += page_size
                    remaining -= page_size
                    break
        self.generation += 1
        return created

    def unmap_region(self, guest_start: int, size: int) -> int:
        if size <= 0 or not is_page_aligned(size) or not is_page_aligned(guest_start):
            raise EptError(f"bad unmap range [{guest_start:#x},+{size:#x})")
        end = guest_start + size
        covered = sum(
            min(m.guest_end, end) - max(m.guest_page, guest_start)
            for m in self._overlapping(guest_start, size)
        )
        if covered != size:
            raise EptError(
                f"unmap [{guest_start:#x},+{size:#x}) covers only "
                f"{covered:#x} mapped bytes"
            )
        for mapping in self._overlapping(guest_start, size):
            del self._mappings[mapping.guest_page]
            if mapping.guest_page < guest_start:
                self._resplinter(
                    mapping, mapping.guest_page, guest_start - mapping.guest_page
                )
            if mapping.guest_end > end:
                self._resplinter(mapping, end, mapping.guest_end - end)
        self.generation += 1
        return size

    def _resplinter(self, parent: EptMapping, gpa: int, size: int) -> None:
        """Re-map a surviving slice of a splintered large page."""
        hpa = parent.translate(gpa)
        remaining = size
        while remaining:
            for page_size in PAGE_SIZES_DESC:
                if gpa % page_size == 0 and hpa % page_size == 0 and remaining >= page_size:
                    self._mappings[gpa] = EptMapping(gpa, hpa, page_size, parent.perms)
                    gpa += page_size
                    hpa += page_size
                    remaining -= page_size
                    break

    def find_mapping(self, gpa: int) -> EptMapping | None:
        for page_size in PAGE_SIZES_DESC:
            base = gpa & ~(page_size - 1)
            mapping = self._mappings.get(base)
            if mapping is not None and mapping.page_size == page_size:
                return mapping
        return None

    def translate(
        self, gpa: int, *, write: bool = False, execute: bool = False
    ) -> tuple[int, EptMapping] | EptViolationInfo:
        mapping = self.find_mapping(gpa)
        if mapping is None or not mapping.perms.allows(write=write, execute=execute):
            return EptViolationInfo(gpa=gpa, is_write=write, is_exec=execute)
        return mapping.translate(gpa), mapping

    def is_mapped(self, gpa: int) -> bool:
        return self.find_mapping(gpa) is not None

    def _overlapping(self, start: int, size: int) -> list[EptMapping]:
        end = start + size
        return [
            m
            for m in self._mappings.values()
            if m.guest_page < end and m.guest_end > start
        ]

    def overlaps(self, start: int, size: int) -> bool:
        return bool(self._overlapping(start, size))

    def mappings(self) -> Iterator[EptMapping]:
        yield from sorted(self._mappings.values(), key=lambda m: m.guest_page)

    @property
    def mapped_bytes(self) -> int:
        return sum(m.page_size for m in self._mappings.values())

    def count_by_size(self) -> dict[int, int]:
        counts: dict[int, int] = {PAGE_SIZE: 0, PAGE_SIZE_2M: 0, PAGE_SIZE_1G: 0}
        for m in self._mappings.values():
            counts[m.page_size] += 1
        return counts

    @property
    def is_identity(self) -> bool:
        return all(m.is_identity for m in self._mappings.values())
