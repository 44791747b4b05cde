"""Physical memory: regions, interval map, ownership, contents."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.hw.memory import (
    FREE,
    IntervalMap,
    MemoryRegion,
    OwnershipError,
    OwnershipInvariantError,
    PAGE_SIZE,
    PhysicalMemory,
    page_align_down,
    page_align_up,
)

MiB = 1 << 20


class TestAlignment:
    @pytest.mark.parametrize(
        "addr,down,up",
        [(0, 0, 0), (1, 0, PAGE_SIZE), (PAGE_SIZE, PAGE_SIZE, PAGE_SIZE),
         (PAGE_SIZE + 1, PAGE_SIZE, 2 * PAGE_SIZE)],
    )
    def test_page_align(self, addr, down, up):
        assert page_align_down(addr) == down
        assert page_align_up(addr) == up


class TestMemoryRegion:
    def test_basic_properties(self):
        region = MemoryRegion(0x10000, 0x4000, zone=1)
        assert region.end == 0x14000
        assert region.num_pages == 4
        assert region.zone == 1

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            MemoryRegion(0x100, PAGE_SIZE)
        with pytest.raises(ValueError):
            MemoryRegion(0, PAGE_SIZE + 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoryRegion(0, 0)

    def test_contains(self):
        region = MemoryRegion(0x1000, 0x1000)
        assert region.contains(0x1000)
        assert region.contains(0x1FFF)
        assert not region.contains(0x2000)
        assert region.contains_range(0x1000, 0x1000)
        assert not region.contains_range(0x1800, 0x1000)

    def test_overlaps(self):
        a = MemoryRegion(0x0, 0x2000)
        b = MemoryRegion(0x1000, 0x2000)
        c = MemoryRegion(0x2000, 0x1000)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_split(self):
        region = MemoryRegion(0x1000, 0x3000)
        left, right = region.split(0x1000)
        assert left == MemoryRegion(0x1000, 0x1000)
        assert right == MemoryRegion(0x2000, 0x2000)

    def test_split_rejects_bad_offsets(self):
        region = MemoryRegion(0x1000, 0x2000)
        for offset in (0, 0x2000, 0x100):
            with pytest.raises(ValueError):
                region.split(offset)

    def test_page_numbers(self):
        region = MemoryRegion(2 * PAGE_SIZE, 3 * PAGE_SIZE)
        assert list(region.page_numbers()) == [2, 3, 4]


class TestIntervalMap:
    def test_initial_state(self):
        imap = IntervalMap(0, 100, "x")
        assert imap.get(0) == "x"
        assert imap.get(99) == "x"
        assert len(imap) == 1

    def test_set_middle_splits(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        assert [v for _, _, v in imap.intervals()] == ["a", "b", "a"]
        assert imap.get(19) == "a"
        assert imap.get(20) == "b"
        assert imap.get(39) == "b"
        assert imap.get(40) == "a"
        imap.check_invariants()

    def test_set_coalesces_neighbours(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        imap.set(40, 60, "b")
        assert (20, 60, "b") in list(imap.intervals())
        imap.check_invariants()

    def test_overwrite_back_to_original_coalesces_fully(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        imap.set(20, 40, "a")
        assert len(imap) == 1
        imap.check_invariants()

    def test_set_spanning_multiple_intervals(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(10, 20, "b")
        imap.set(30, 40, "c")
        imap.set(5, 50, "d")
        assert imap.get(15) == "d"
        assert imap.get(35) == "d"
        assert imap.get(4) == "a"
        imap.check_invariants()

    def test_out_of_range_rejected(self):
        imap = IntervalMap(0, 100, "a")
        with pytest.raises(KeyError):
            imap.get(100)
        with pytest.raises(KeyError):
            imap.set(50, 150, "b")
        with pytest.raises(ValueError):
            imap.set(50, 50, "b")

    def test_uniform_value(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        assert imap.uniform_value(0, 20) == "a"
        assert imap.uniform_value(20, 40) == "b"
        assert imap.uniform_value(10, 30) is None

    def test_find(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        imap.set(60, 80, "b")
        assert imap.find("b") == [(20, 40), (60, 80)]

    def test_intervals_in_clips(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        pieces = list(imap.intervals_in(30, 50))
        assert pieces == [(30, 40, "b"), (40, 50, "a")]


def split_first_interval(imap: IntervalMap) -> None:
    """Cut the first interval in two equal-valued halves behind the
    API: coverage is unchanged, only coalescing is broken."""
    mid = (imap._starts[0] + imap._ends[0]) // 2
    imap._starts.insert(1, mid)
    imap._ends.insert(0, mid)
    imap._values.insert(0, imap._values[0])


class TestInvariants:
    def test_broken_map_raises_typed_error(self):
        imap = IntervalMap(0, 100, "a")
        imap.set(20, 40, "b")
        split_first_interval(imap)
        with pytest.raises(OwnershipInvariantError, match="uncoalesced"):
            imap.check_invariants()
        imap._ends[0] -= 1
        with pytest.raises(OwnershipInvariantError, match="gap/overlap"):
            imap.check_invariants()
        assert issubclass(OwnershipInvariantError, OwnershipError)
        assert not issubclass(OwnershipInvariantError, AssertionError)

    def test_oracle_catches_broken_map_under_python_O(self):
        """The ownership-disjoint oracle does not rest on ``assert``: run
        with ``-O``, an uncoalesced ownership map (coverage intact, so
        the conservation check alone passes) is still a violation."""
        script = textwrap.dedent(
            """
            from repro.core.features import CovirtConfig
            from repro.fuzz.oracles import OraclePack, OracleViolation
            from repro.harness.env import CovirtEnvironment, Layout
            from tests.hw.test_memory import split_first_interval

            assert False, "asserts must be stripped in this run"
            env = CovirtEnvironment()
            env.launch(
                Layout("2c/2n", {0: 1, 1: 1}, {0: 1 << 30, 1: 1 << 30}),
                CovirtConfig.memory_only(),
            )
            pack = OraclePack(env)
            pack.check_all()
            split_first_interval(env.machine.memory._owners)
            try:
                pack.check_all()
            except OracleViolation as violation:
                print(violation.oracle, "|", violation.detail)
            else:
                print("undetected")
            """
        )
        root = Path(__file__).resolve().parents[2]
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.strip()
        assert out == "ownership-disjoint | uncoalesced", out


class TestPhysicalMemory:
    def test_initially_free(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        assert mem.owner_of(0) == FREE
        assert mem.total_owned(FREE) == 16 * PAGE_SIZE

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_allocate_and_owner(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        region = mem.allocate(4 * PAGE_SIZE, "enclave:1")
        assert mem.owner_of(region.start) == "enclave:1"
        assert mem.total_owned("enclave:1") == 4 * PAGE_SIZE

    def test_allocate_respects_window(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        window = (8 * PAGE_SIZE, 16 * PAGE_SIZE)
        region = mem.allocate(2 * PAGE_SIZE, "x", within=window)
        assert region.start >= 8 * PAGE_SIZE

    def test_allocate_alignment(self):
        mem = PhysicalMemory(64 * PAGE_SIZE)
        mem.allocate(PAGE_SIZE, "pad")  # misalign the free pool
        region = mem.allocate(4 * PAGE_SIZE, "x", alignment=4 * PAGE_SIZE)
        assert region.start % (4 * PAGE_SIZE) == 0

    def test_allocate_exhaustion(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.allocate(4 * PAGE_SIZE, "x")
        with pytest.raises(OwnershipError):
            mem.allocate(PAGE_SIZE, "y")

    def test_transfer_checks_expected_owner(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        region = mem.allocate(4 * PAGE_SIZE, "a")
        with pytest.raises(OwnershipError):
            mem.transfer(region, "b", "c")
        mem.transfer(region, "a", "b")
        assert mem.owner_of(region.start) == "b"

    def test_double_release_impossible(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        region = mem.allocate(4 * PAGE_SIZE, "a")
        mem.release(region, "a")
        with pytest.raises(OwnershipError):
            mem.release(region, "a")

    def test_ownership_conservation(self):
        mem = PhysicalMemory(64 * PAGE_SIZE)
        regions = [mem.allocate(4 * PAGE_SIZE, f"own{i}") for i in range(5)]
        total = mem.total_owned(FREE) + sum(
            mem.total_owned(f"own{i}") for i in range(5)
        )
        assert total == 64 * PAGE_SIZE
        for i, region in enumerate(regions):
            mem.release(region, f"own{i}")
        assert mem.total_owned(FREE) == 64 * PAGE_SIZE

    def test_read_write_roundtrip(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write(100, b"hello world")
        assert mem.read(100, 11) == b"hello world"

    def test_unbacked_reads_zero(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        assert mem.read(0, 8) == b"\x00" * 8
        assert mem.resident_pages == 0

    def test_write_crossing_page_boundary(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        data = bytes(range(64))
        mem.write(PAGE_SIZE - 32, data)
        assert mem.read(PAGE_SIZE - 32, 64) == data
        assert mem.resident_pages == 2

    def test_u64_roundtrip(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write_u64(0x100, 0xDEADBEEF12345678)
        assert mem.read_u64(0x100) == 0xDEADBEEF12345678

    def test_out_of_range_access(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(ValueError):
            mem.read(4 * PAGE_SIZE - 4, 8)
        with pytest.raises(ValueError):
            mem.write(4 * PAGE_SIZE, b"x")

    def test_release_drops_backing(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        region = mem.allocate(PAGE_SIZE, "a")
        mem.write(region.start, b"secret")
        assert mem.resident_pages == 1
        mem.release(region, "a")
        assert mem.resident_pages == 0
        assert mem.read(region.start, 6) == b"\x00" * 6

    def test_owned_by(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        r1 = mem.allocate(2 * PAGE_SIZE, "a")
        mem.allocate(2 * PAGE_SIZE, "b")
        r3 = mem.allocate(2 * PAGE_SIZE, "a")
        owned = mem.owned_by("a")
        assert len(owned) == 2
        assert owned[0].start == r1.start and owned[1].start == r3.start

    def test_fragmentation_churn(self):
        """Thousands of allocate/release cycles with mixed sizes must
        neither leak nor fragment the free pool irrecoverably."""
        from repro.fuzz.rng import named_stream

        rng = named_stream("memory-churn", 3)
        print(f"churn rng: {rng.describe()}")
        mem = PhysicalMemory(256 * PAGE_SIZE)
        live: list[tuple[MemoryRegion, str]] = []
        for step in range(2000):
            if live and (rng.random() < 0.5 or len(live) > 20):
                region, owner = live.pop(rng.randrange(len(live)))
                mem.release(region, owner)
            else:
                size = rng.choice([1, 2, 4, 8]) * PAGE_SIZE
                owner = f"o{step}"
                try:
                    live.append((mem.allocate(size, owner), owner))
                except OwnershipError:
                    pass
            mem.check_invariants()
        for region, owner in live:
            mem.release(region, owner)
        # After full release the pool coalesces back to one interval.
        assert mem.total_owned(FREE) == 256 * PAGE_SIZE
        assert mem.allocate(256 * PAGE_SIZE, "all").size == 256 * PAGE_SIZE
