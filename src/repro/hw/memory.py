"""Physical memory with page-granular ownership.

The machine's DRAM is modelled two ways at once:

* **Ownership** is tracked exactly, via an interval map from physical
  address ranges to an owner label (the host OS, an enclave id, or the
  free pool).  Every protection decision Covirt makes about memory reduces
  to a question against this map, so it is fully functional.
* **Contents** are backed lazily: a 4 KiB numpy page is materialised only
  when something actually reads or writes it.  A 64 GiB machine therefore
  costs nothing until touched.

It also holds the leaf arithmetic both translation layers share
(:class:`LeafExtents`): page tables and EPTs are stored as a few sorted
extents whose 4K/2M/1G leaves are computed, never materialised.

Addresses and sizes are plain integers in bytes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

import numpy as np

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB
PAGE_SIZE_2M = 1 << 21
PAGE_SIZE_1G = 1 << 30

#: Leaf page sizes, largest first: the order greedy coalescing tries them.
PAGE_SIZES_DESC = (PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE)

#: Owner label for unassigned memory.
FREE = "free"


def page_align_down(addr: int) -> int:
    """Round ``addr`` down to a 4 KiB boundary."""
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to a 4 KiB boundary."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def is_page_aligned(addr: int) -> bool:
    return addr & (PAGE_SIZE - 1) == 0


class OwnershipError(Exception):
    """An operation violated the physical-memory ownership discipline."""


@dataclass(frozen=True)
class MemoryRegion:
    """A page-aligned, contiguous range of physical memory.

    Regions are the unit of resource assignment in the co-kernel stack:
    Pisces hands whole regions to enclaves, XEMEM shares sub-ranges of
    them, and Covirt maps them into EPTs.
    """

    start: int
    size: int
    zone: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")
        if not is_page_aligned(self.start) or not is_page_aligned(self.size):
            raise ValueError(
                f"region [{self.start:#x}, +{self.size:#x}) is not page aligned"
            )

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.start + self.size

    @property
    def num_pages(self) -> int:
        return self.size >> PAGE_SHIFT

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def contains_range(self, start: int, size: int) -> bool:
        return self.start <= start and start + size <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.start < other.end and other.start < self.end

    def page_numbers(self) -> range:
        """Physical frame numbers covered by the region."""
        return range(self.start >> PAGE_SHIFT, self.end >> PAGE_SHIFT)

    def split(self, offset: int) -> tuple["MemoryRegion", "MemoryRegion"]:
        """Split into two regions at ``offset`` bytes from the start."""
        if not 0 < offset < self.size or not is_page_aligned(offset):
            raise ValueError(f"bad split offset {offset:#x}")
        return (
            MemoryRegion(self.start, offset, self.zone),
            MemoryRegion(self.start + offset, self.size - offset, self.zone),
        )

    def __repr__(self) -> str:
        return f"MemoryRegion({self.start:#x}..{self.end:#x}, zone={self.zone})"


class IntervalMap:
    """Sorted map from half-open integer intervals to values.

    Maintains the invariants that intervals never overlap, are sorted,
    and adjacent intervals with equal values are coalesced.  This is the
    data structure behind physical-memory ownership.  (Translation
    extents cannot use it: coalescing would change their leaves.)
    """

    def __init__(self, start: int, end: int, initial: Hashable) -> None:
        if end <= start:
            raise ValueError("empty interval map")
        self._starts: list[int] = [start]
        self._ends: list[int] = [end]
        self._values: list[Hashable] = [initial]
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return len(self._starts)

    def get(self, point: int) -> Hashable:
        """Value at ``point``."""
        if not self.start <= point < self.end:
            raise KeyError(f"point {point:#x} outside map range")
        idx = bisect.bisect_right(self._starts, point) - 1
        return self._values[idx]

    def set(self, start: int, end: int, value: Hashable) -> None:
        """Assign ``value`` over [start, end), splitting as needed."""
        if end <= start:
            raise ValueError("empty assignment")
        if start < self.start or end > self.end:
            raise KeyError(
                f"assignment [{start:#x},{end:#x}) outside map "
                f"[{self.start:#x},{self.end:#x})"
            )
        # Clip surviving fragments of existing intervals, insert the new
        # span, then coalesce equal-valued neighbours.
        pieces: list[tuple[int, int, Hashable]] = []
        for s, e, v in zip(self._starts, self._ends, self._values):
            if e <= start or s >= end:
                pieces.append((s, e, v))
                continue
            if s < start:
                pieces.append((s, start, v))
            if e > end:
                pieces.append((end, e, v))
        pieces.append((start, end, value))
        pieces.sort(key=lambda p: p[0])
        out_s: list[int] = []
        out_e: list[int] = []
        out_v: list[Hashable] = []
        for s, e, v in pieces:
            if out_v and out_v[-1] == v and out_e[-1] == s:
                out_e[-1] = e
            else:
                out_s.append(s)
                out_e.append(e)
                out_v.append(v)
        self._starts, self._ends, self._values = out_s, out_e, out_v

    def intervals(self) -> Iterator[tuple[int, int, Hashable]]:
        """Yield (start, end, value) for every interval, in order."""
        yield from zip(self._starts, self._ends, self._values)

    def intervals_in(self, start: int, end: int) -> Iterator[tuple[int, int, Hashable]]:
        """Yield intervals clipped to [start, end)."""
        for s, e, v in self.intervals():
            if e <= start or s >= end:
                continue
            yield max(s, start), min(e, end), v

    def uniform_value(self, start: int, end: int) -> Hashable | None:
        """If [start, end) maps to a single value, return it, else None."""
        pieces = list(self.intervals_in(start, end))
        if len(pieces) == 1:
            return pieces[0][2]
        first = pieces[0][2]
        return first if all(v == first for _, _, v in pieces) else None

    def find(self, value: Hashable) -> list[tuple[int, int]]:
        """All intervals currently holding ``value``."""
        return [(s, e) for s, e, v in self.intervals() if v == value]

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are broken."""
        assert self._starts[0] == self.start
        assert self._ends[-1] == self.end
        for i in range(len(self._starts)):
            assert self._starts[i] < self._ends[i], "empty interval"
            if i:
                assert self._ends[i - 1] == self._starts[i], "gap/overlap"
                assert self._values[i - 1] != self._values[i], "uncoalesced"


# -- translation extents -----------------------------------------------------
#
# Both translation layers (a guest's four-level page tables and an
# enclave's EPT) map memory as a handful of contiguous ranges, so both
# store extents rather than one object per leaf.  An extent's leaves are
# *defined* as the greedy decomposition a page-table builder makes: at
# each address, the largest aligned block (up to the extent's cap) that
# fits.  Three rules follow:
#
# * leaf counts, leaf sizes and walk depths are arithmetic on an
#   extent's bounds, so no per-leaf state exists;
# * cutting an extent at a page boundary leaves exactly the leaves that
#   splintering the straddling huge leaf would;
# * extents from different map calls are never merged, because the
#   greedy decomposition of a union differs from the union of the two.


def leaf_cap(delta: int, max_page: int = PAGE_SIZE_1G) -> int:
    """Largest leaf size, at most ``max_page``, at which an address and
    that address plus ``delta`` (a page multiple) are both aligned."""
    for size in PAGE_SIZES_DESC:
        if size <= max_page and delta % size == 0:
            return size
    raise ValueError(f"no leaf size fits under {max_page:#x}")


def leaf_size(addr: int, start: int, end: int, cap: int) -> int:
    """Size of the leaf holding ``addr`` in extent [start, end): the
    largest aligned block of at most ``cap`` bytes that contains
    ``addr`` and lies inside the extent."""
    for size in PAGE_SIZES_DESC[:-1]:
        if size <= cap:
            base = addr & -size
            if base >= start and base + size <= end:
                return size
    return PAGE_SIZE


def leaf_counts(start: int, end: int, cap: int) -> dict[int, int]:
    """Leaves per page size in extent [start, end), keyed 4K, 2M, 1G.

    The aligned blocks of one size that fit inside the extent form one
    span, and each of its bytes lies in a leaf at least that large; so a
    size's count is its span less the next larger size's span.
    """
    counts = {PAGE_SIZE: 0, PAGE_SIZE_2M: 0, PAGE_SIZE_1G: 0}
    larger = 0
    for size in PAGE_SIZES_DESC:
        if size <= cap:
            span = max(0, (end & -size) - ((start + size - 1) & -size))
            counts[size] = (span - larger) // size
            larger = span
    return counts


class LeafExtents:
    """Sorted, disjoint translation extents with computed leaves.

    Extent ``i`` translates ``[starts[i], ends[i])`` to the same range
    shifted by ``deltas[i]``, with attribute ``attrs[i]`` (a write bit,
    a permission set), in leaves of at most ``caps[i]`` bytes.  The
    parallel lists are ordered by start and searched with :mod:`bisect`.
    :meth:`insert` does not check for overlap: callers check first.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.deltas: list[int] = []
        self.caps: list[int] = []
        self.attrs: list[Any] = []
        #: Leaves per page size over every extent, kept in step.
        self.counts: dict[int, int] = {PAGE_SIZE: 0, PAGE_SIZE_2M: 0, PAGE_SIZE_1G: 0}

    @property
    def mapped_bytes(self) -> int:
        return sum(size * n for size, n in self.counts.items())

    def _tally(self, start: int, end: int, cap: int, sign: int) -> int:
        counts = leaf_counts(start, end, cap)
        for size, n in counts.items():
            self.counts[size] += sign * n
        return sum(counts.values())

    # -- lookup ------------------------------------------------------------

    def find(self, addr: int) -> int:
        """Index of the extent holding ``addr``, or -1."""
        i = bisect.bisect_right(self.starts, addr) - 1
        return i if i >= 0 and addr < self.ends[i] else -1

    def leaf(self, addr: int) -> tuple[int, int, int, Any] | None:
        """``(base, size, delta, attr)`` of the leaf holding ``addr``."""
        i = self.find(addr)
        if i < 0:
            return None
        size = leaf_size(addr, self.starts[i], self.ends[i], self.caps[i])
        return addr & -size, size, self.deltas[i], self.attrs[i]

    def first_mapped(self, start: int, end: int) -> int:
        """Lowest address in [start, end) some extent maps, else ``end``."""
        i = bisect.bisect_right(self.starts, start) - 1
        if i >= 0 and start < self.ends[i]:
            return start
        if i + 1 < len(self.starts) and self.starts[i + 1] < end:
            return self.starts[i + 1]
        return end

    def first_hole(self, start: int, end: int) -> int:
        """Lowest address in [start, end) no extent maps, else ``end``."""
        i = self.find(start)
        if i < 0:
            return start
        addr = self.ends[i]
        for i in range(i + 1, len(self.starts)):
            if addr >= end or self.starts[i] != addr:
                break
            addr = self.ends[i]
        return min(addr, end)

    def mapped_in(self, start: int, end: int) -> int:
        """Bytes of [start, end) that some extent maps."""
        i = max(bisect.bisect_right(self.starts, start) - 1, 0)
        total = 0
        while i < len(self.starts) and self.starts[i] < end:
            total += max(0, min(self.ends[i], end) - max(self.starts[i], start))
            i += 1
        return total

    def leaves(self) -> Iterator[tuple[int, int, int, Any]]:
        """Every leaf as ``(base, size, delta, attr)``, in address order."""
        for start, end, delta, cap, attr in zip(
            self.starts, self.ends, self.deltas, self.caps, self.attrs
        ):
            addr = start
            while addr < end:
                size = leaf_size(addr, start, end, cap)
                yield addr, size, delta, attr
                addr += size

    # -- update ------------------------------------------------------------

    def insert(self, start: int, end: int, delta: int, cap: int, attr: Any) -> int:
        """Add extent [start, end); returns its leaf count."""
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, end)
        self.deltas.insert(i, delta)
        self.caps.insert(i, cap)
        self.attrs.insert(i, attr)
        return self._tally(start, end, cap, 1)

    def cut(self, addr: int) -> None:
        """Split the extent straddling page boundary ``addr`` in two."""
        i = self.find(addr)
        if i < 0 or self.starts[i] == addr:
            return
        start, end, cap = self.starts[i], self.ends[i], self.caps[i]
        self._tally(start, end, cap, -1)
        self.ends[i] = addr
        self._tally(start, addr, cap, 1)
        self.insert(addr, end, self.deltas[i], cap, self.attrs[i])

    def remove(self, start: int, end: int) -> int:
        """Unmap [start, end), cutting extents that straddle its bounds;
        returns the leaves removed."""
        self.cut(start)
        self.cut(end)
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        removed = sum(
            self._tally(self.starts[i], self.ends[i], self.caps[i], -1)
            for i in range(lo, hi)
        )
        for column in (self.starts, self.ends, self.deltas, self.caps, self.attrs):
            del column[lo:hi]
        return removed

    def fault(self) -> str | None:
        """The first broken structural invariant, described, or None."""
        prev_end = None
        for start, end in zip(self.starts, self.ends):
            if start >= end or not (is_page_aligned(start) and is_page_aligned(end)):
                return f"malformed extent [{start:#x},{end:#x})"
            if prev_end is not None and prev_end > start:
                return f"mappings overlap at {start:#x}"
            prev_end = end
        return None


class PhysicalMemory:
    """The machine's DRAM: exact ownership plus lazily backed contents."""

    def __init__(self, size: int) -> None:
        if size <= 0 or not is_page_aligned(size):
            raise ValueError("memory size must be a positive page multiple")
        self.size = size
        self._owners = IntervalMap(0, size, FREE)
        self._pages: dict[int, np.ndarray] = {}
        #: Bytes currently materialised (for tests / introspection).
        self.resident_pages = 0

    # -- ownership ---------------------------------------------------------

    def owner_of(self, addr: int) -> Hashable:
        """Owner label of the page containing ``addr``."""
        return self._owners.get(addr)

    def region_owner(self, region: MemoryRegion) -> Hashable | None:
        """Single owner of the whole region, or None if mixed."""
        return self._owners.uniform_value(region.start, region.end)

    def set_owner(self, region: MemoryRegion, owner: Hashable) -> None:
        """Assign every page of ``region`` to ``owner`` unconditionally."""
        self._owners.set(region.start, region.end, owner)

    def transfer(
        self, region: MemoryRegion, expected: Hashable, new_owner: Hashable
    ) -> None:
        """Move ``region`` from ``expected`` to ``new_owner``.

        Raises :class:`OwnershipError` if any page of the region is not
        currently owned by ``expected`` — this is the check that makes
        double-grants and double-frees structurally impossible.
        """
        current = self._owners.uniform_value(region.start, region.end)
        if current != expected:
            raise OwnershipError(
                f"region {region} owned by {current!r}, expected {expected!r}"
            )
        self._owners.set(region.start, region.end, new_owner)

    def owned_by(self, owner: Hashable) -> list[MemoryRegion]:
        """All regions currently owned by ``owner``."""
        return [
            MemoryRegion(s, e - s) for s, e in self._owners.find(owner)
        ]

    def total_owned(self, owner: Hashable) -> int:
        """Bytes owned by ``owner``."""
        return sum(e - s for s, e in self._owners.find(owner))

    def allocate(
        self,
        size: int,
        owner: Hashable,
        *,
        within: tuple[int, int] | None = None,
        alignment: int = PAGE_SIZE,
    ) -> MemoryRegion:
        """Carve a free region of ``size`` bytes and assign it to ``owner``.

        ``within`` restricts the search to an address window (used for
        NUMA-zone-local allocation); ``alignment`` must be a power of two
        page multiple.
        """
        size = page_align_up(size)
        if alignment < PAGE_SIZE or alignment & (alignment - 1):
            raise ValueError("alignment must be a power-of-two page multiple")
        lo, hi = within if within is not None else (0, self.size)
        for s, e in self._owners.find(FREE):
            s = max(s, lo)
            e = min(e, hi)
            aligned = (s + alignment - 1) & ~(alignment - 1)
            if aligned + size <= e:
                region = MemoryRegion(aligned, size)
                self._owners.set(aligned, aligned + size, owner)
                return region
        raise OwnershipError(
            f"no free region of {size:#x} bytes in window [{lo:#x},{hi:#x})"
        )

    def release(self, region: MemoryRegion, expected: Hashable) -> None:
        """Return a region to the free pool, verifying current ownership."""
        self.transfer(region, expected, FREE)
        self._drop_backing(region)

    # -- contents ----------------------------------------------------------

    def _page(self, frame: int, create: bool) -> np.ndarray | None:
        page = self._pages.get(frame)
        if page is None and create:
            page = np.zeros(PAGE_SIZE, dtype=np.uint8)
            self._pages[frame] = page
            self.resident_pages += 1
        return page

    def _drop_backing(self, region: MemoryRegion) -> None:
        for frame in region.page_numbers():
            if self._pages.pop(frame, None) is not None:
                self.resident_pages -= 1

    def read(self, addr: int, length: int) -> bytes:
        """Read raw bytes; unbacked pages read as zero."""
        if addr < 0 or addr + length > self.size:
            raise ValueError(f"read [{addr:#x},+{length}) out of range")
        out = bytearray(length)
        pos = 0
        while pos < length:
            frame = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - off)
            page = self._page(frame, create=False)
            if page is not None:
                out[pos : pos + chunk] = page[off : off + chunk].tobytes()
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes, materialising pages as needed."""
        if addr < 0 or addr + len(data) > self.size:
            raise ValueError(f"write [{addr:#x},+{len(data)}) out of range")
        pos = 0
        while pos < len(data):
            frame = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            page = self._page(frame, create=True)
            assert page is not None
            page[off : off + chunk] = np.frombuffer(
                data[pos : pos + chunk], dtype=np.uint8
            )
            pos += chunk

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little"))

    def check_invariants(self) -> None:
        self._owners.check_invariants()
