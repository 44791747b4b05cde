"""Differential test: extent page tables against the per-leaf reference.

:class:`GuestPageTable` and :class:`ExtendedPageTable` compute their
leaves from extents; ``tests/reference_tables.py`` builds the same
tables one leaf object at a time.  Hypothesis drives both through the
same map / unmap / splinter sequences — failing calls, ``max_page``
caps, ``coalesce=False`` and non-identity host offsets included — and
after every step everything observable must agree: return values or
exception types, leaf counts by size, length and mapped bytes, walks and
translations around every interesting boundary, coverage, and the EPT's
full entry list.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.kitten.pagetable import GuestPageTable
from repro.vmx.ept import EptPermissions, ExtendedPageTable
from tests.reference_tables import (
    ReferenceExtendedPageTable,
    ReferenceGuestPageTable,
)

MiB = 1 << 20

#: Addresses on and just past 4K/2M/1G boundaries, across four GiB.
POINTS = sorted(
    g * PAGE_SIZE_1G + m * PAGE_SIZE_2M + k * PAGE_SIZE
    for g in range(4)
    for m in (0, 1, 511)
    for k in (0, 1, 511)
)
PROBES = sorted(
    {p + off for p in POINTS for off in (-PAGE_SIZE, 0, PAGE_SIZE + 7) if p + off >= 0}
)
#: Host offsets: identity, 4K/2M/1G-aligned shifts, and a misaligned one
#: (always rejected).
DELTAS = (0, PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G, 3 * PAGE_SIZE_1G + PAGE_SIZE_2M, 0x800)
CAPS = (PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G)
PERMS = (EptPermissions.full(), EptPermissions(read=True, write=False, execute=False))
#: Range lengths; 0 makes an invalid call.
SIZES = (
    0, PAGE_SIZE, 3 * PAGE_SIZE, PAGE_SIZE_2M - PAGE_SIZE, PAGE_SIZE_2M,
    PAGE_SIZE_2M + PAGE_SIZE, 3 * PAGE_SIZE_2M, PAGE_SIZE_1G,
    PAGE_SIZE_1G + PAGE_SIZE_2M + PAGE_SIZE, 2 * PAGE_SIZE_1G,
)
#: 4K-only mappings are capped at this size to keep the reference fast.
SMALL_LEAF_LIMIT = 4 * MiB

point = st.integers(min_value=0, max_value=len(POINTS) - 1)
length = st.integers(min_value=0, max_value=len(SIZES) - 1)
ops = st.one_of(
    st.tuples(
        st.just("map"), point, length, st.sampled_from(DELTAS),
        st.sampled_from(CAPS), st.booleans(),
    ),
    st.tuples(st.just("unmap"), point, length),
    # Punch one page out of whatever leaf holds it.
    st.tuples(st.just("splinter"), point, st.integers(min_value=0, max_value=3)),
)


#: Sequences random search rarely hits: a huge leaf straddling the first
#: conflicting byte (none of it installs), and an unmap across adjacent
#: extents from separate map calls.
EDGE_CASES = [
    [
        ("map", POINTS.index(PAGE_SIZE), SIZES.index(PAGE_SIZE), 0, PAGE_SIZE_1G, False),
        ("map", 0, SIZES.index(3 * PAGE_SIZE_2M), 0, PAGE_SIZE_1G, False),
    ],
    [
        ("map", 0, SIZES.index(PAGE_SIZE), 0, PAGE_SIZE_1G, False),
        ("map", POINTS.index(PAGE_SIZE), SIZES.index(PAGE_SIZE_2M - PAGE_SIZE),
         0, PAGE_SIZE_1G, False),
        ("unmap", 0, SIZES.index(PAGE_SIZE_2M)),
    ],
]


def outcome(call):
    """A call's return value, or the type of the exception it raised."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return ("raised", type(exc))


def op_range(op) -> tuple[int, int]:
    """The (start, size) an op touches."""
    if op[0] == "splinter":
        return POINTS[op[1]] + op[2] * PAGE_SIZE, PAGE_SIZE
    size = SIZES[op[2]]
    if op[0] == "map" and (op[4] == PAGE_SIZE or op[3] % PAGE_SIZE_2M):
        size = min(size, SMALL_LEAF_LIMIT)
    return POINTS[op[1]], size


def assert_same_guest_tables(new: GuestPageTable, ref: ReferenceGuestPageTable) -> None:
    assert new.leaf_count == ref.leaf_count
    assert new.mapped_bytes() == ref.mapped_bytes()
    for addr in PROBES:
        assert new.walk(addr) == ref.walk(addr), hex(addr)
        assert new.translate(addr, write=True) == ref.translate(addr, write=True)
    for lo, hi in [*zip(PROBES, PROBES[1:]), *zip(POINTS, POINTS[2:])]:
        assert new.covers(lo, hi - lo) == ref.covers(lo, hi - lo), hex(lo)


def assert_same_epts(new: ExtendedPageTable, ref: ReferenceExtendedPageTable) -> None:
    new.check_invariants()
    assert len(new) == len(ref)
    assert new.count_by_size() == ref.count_by_size()
    assert new.mapped_bytes == ref.mapped_bytes
    assert new.generation == ref.generation
    assert new.is_identity == ref.is_identity
    for addr in PROBES:
        assert new.translate(addr) == ref.translate(addr), hex(addr)
        assert new.translate(addr, write=True) == ref.translate(addr, write=True)
    assert list(new.mappings()) == list(ref.mappings())


@settings(max_examples=120, deadline=None)
@given(st.lists(ops, max_size=24))
@example(EDGE_CASES[0])
@example(EDGE_CASES[1])
def test_guest_page_table_matches_reference(sequence):
    new, ref = GuestPageTable(), ReferenceGuestPageTable()
    for op in sequence:
        start, size = op_range(op)
        if op[0] == "map":
            _, _, _, delta, cap, writable = op
            results = [
                outcome(lambda t=t: t.map(
                    start, start + delta, size, writable=writable, max_page=cap
                ))
                for t in (new, ref)
            ]
        else:
            results = [outcome(lambda t=t: t.unmap(start, size)) for t in (new, ref)]
        assert results[0] == results[1], op
        assert_same_guest_tables(new, ref)


@settings(max_examples=120, deadline=None)
@given(st.lists(ops, max_size=24))
@example(EDGE_CASES[0])
@example(EDGE_CASES[1])
def test_ept_matches_reference(sequence):
    new, ref = ExtendedPageTable(), ReferenceExtendedPageTable()
    for op in sequence:
        start, size = op_range(op)
        if op[0] == "map":
            _, _, _, delta, cap, read_only = op
            host = None if delta == 0 else start + delta
            kwargs = dict(
                host_start=host,
                perms=PERMS[read_only],
                coalesce=cap != PAGE_SIZE,
            )
            got = outcome(lambda: new.map_region(start, size, **kwargs))
            want = outcome(lambda: len(ref.map_region(start, size, **kwargs)))
        else:
            got = outcome(lambda: new.unmap_region(start, size))
            want = outcome(lambda: ref.unmap_region(start, size))
        assert got == want, op
        assert_same_epts(new, ref)
