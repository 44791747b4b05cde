"""Extended page tables: mapping, coalescing, splintering, translation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.vmx.ept import (
    EptError,
    EptInvariantError,
    EptMapping,
    EptPermissions,
    EptViolationInfo,
    ExtendedPageTable,
)

MiB = 1 << 20
GiB = 1 << 30


class TestEptMapping:
    def test_alignment_enforced(self):
        with pytest.raises(EptError):
            EptMapping(PAGE_SIZE, 0, PAGE_SIZE_2M, EptPermissions.full())
        with pytest.raises(EptError):
            EptMapping(0, 0, 12345, EptPermissions.full())

    def test_translate(self):
        m = EptMapping(0x200000, 0x400000, PAGE_SIZE_2M, EptPermissions.full())
        assert m.translate(0x200000 + 5) == 0x400000 + 5
        with pytest.raises(EptError):
            m.translate(0x100000)

    def test_identity(self):
        assert EptMapping(0x1000, 0x1000, PAGE_SIZE, EptPermissions.full()).is_identity
        assert not EptMapping(
            0x1000, 0x2000, PAGE_SIZE, EptPermissions.full()
        ).is_identity


class TestPermissions:
    def test_full_allows_everything(self):
        perms = EptPermissions.full()
        assert perms.allows()
        assert perms.allows(write=True)
        assert perms.allows(execute=True)

    def test_readonly_denies_write(self):
        perms = EptPermissions(read=True, write=False, execute=False)
        assert perms.allows()
        assert not perms.allows(write=True)
        assert not perms.allows(execute=True)


class TestMapRegion:
    def test_coalesces_to_largest_pages(self):
        ept = ExtendedPageTable()
        ept.map_region(0, GiB + 2 * PAGE_SIZE_2M + 3 * PAGE_SIZE)
        counts = ept.count_by_size()
        assert counts[PAGE_SIZE_1G] == 1
        assert counts[PAGE_SIZE_2M] == 2
        assert counts[PAGE_SIZE] == 3

    def test_unaligned_start_limits_page_size(self):
        ept = ExtendedPageTable()
        # Start 4K past a 2M boundary: leading 4K pages until aligned.
        ept.map_region(PAGE_SIZE_2M + PAGE_SIZE, PAGE_SIZE_2M)
        counts = ept.count_by_size()
        assert counts[PAGE_SIZE_2M] == 0
        assert counts[PAGE_SIZE] == PAGE_SIZE_2M // PAGE_SIZE

    def test_coalescing_disabled(self):
        ept = ExtendedPageTable()
        ept.map_region(0, PAGE_SIZE_2M, coalesce=False)
        assert ept.count_by_size()[PAGE_SIZE] == 512

    def test_double_map_rejected(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 4 * PAGE_SIZE)
        with pytest.raises(EptError):
            ept.map_region(2 * PAGE_SIZE, 4 * PAGE_SIZE)

    def test_non_identity_mapping(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 2 * PAGE_SIZE, host_start=0x100000)
        hpa, _ = ept.translate(PAGE_SIZE + 8)
        assert hpa == 0x100000 + PAGE_SIZE + 8
        assert not ept.is_identity

    def test_bad_ranges_rejected(self):
        ept = ExtendedPageTable()
        with pytest.raises(EptError):
            ept.map_region(0, 0)
        with pytest.raises(EptError):
            ept.map_region(5, PAGE_SIZE)
        with pytest.raises(EptError):
            ept.map_region(0, PAGE_SIZE, host_start=3)

    def test_generation_bumps(self):
        ept = ExtendedPageTable()
        g0 = ept.generation
        ept.map_region(0, PAGE_SIZE)
        assert ept.generation == g0 + 1


class TestTranslate:
    def test_hit(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 4 * PAGE_SIZE)
        result = ept.translate(3 * PAGE_SIZE + 100)
        assert not isinstance(result, EptViolationInfo)
        hpa, mapping = result
        assert hpa == 3 * PAGE_SIZE + 100

    def test_violation_on_unmapped(self):
        ept = ExtendedPageTable()
        ept.map_region(0, PAGE_SIZE)
        result = ept.translate(PAGE_SIZE, write=True)
        assert isinstance(result, EptViolationInfo)
        assert result.is_write
        assert "write" in result.describe()

    def test_violation_on_permission(self):
        ept = ExtendedPageTable()
        ept.map_region(
            0, PAGE_SIZE, perms=EptPermissions(read=True, write=False, execute=False)
        )
        assert isinstance(ept.translate(0, write=True), EptViolationInfo)
        assert not isinstance(ept.translate(0), EptViolationInfo)


class TestUnmapRegion:
    def test_exact_unmap(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 4 * PAGE_SIZE)
        ept.unmap_region(0, 4 * PAGE_SIZE)
        assert len(ept) == 0
        assert ept.mapped_bytes == 0

    def test_partial_unmap_of_small_pages(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 4 * PAGE_SIZE)
        ept.unmap_region(PAGE_SIZE, 2 * PAGE_SIZE)
        assert ept.is_mapped(0)
        assert not ept.is_mapped(PAGE_SIZE)
        assert not ept.is_mapped(2 * PAGE_SIZE)
        assert ept.is_mapped(3 * PAGE_SIZE)

    def test_splinters_large_page(self):
        ept = ExtendedPageTable()
        ept.map_region(0, PAGE_SIZE_2M)
        assert ept.count_by_size()[PAGE_SIZE_2M] == 1
        ept.unmap_region(PAGE_SIZE, PAGE_SIZE)  # punch a 4K hole
        assert not ept.is_mapped(PAGE_SIZE)
        assert ept.is_mapped(0)
        assert ept.is_mapped(2 * PAGE_SIZE)
        assert ept.mapped_bytes == PAGE_SIZE_2M - PAGE_SIZE
        ept.check_invariants()

    def test_splinter_preserves_translation(self):
        ept = ExtendedPageTable()
        ept.map_region(0, PAGE_SIZE_2M, host_start=PAGE_SIZE_2M)
        ept.unmap_region(0, PAGE_SIZE)
        hpa, _ = ept.translate(5 * PAGE_SIZE)
        assert hpa == PAGE_SIZE_2M + 5 * PAGE_SIZE

    def test_unmap_not_fully_mapped_rejected(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 2 * PAGE_SIZE)
        with pytest.raises(EptError):
            ept.unmap_region(0, 4 * PAGE_SIZE)

    def test_unmap_returns_bytes(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 8 * PAGE_SIZE)
        assert ept.unmap_region(0, 8 * PAGE_SIZE) == 8 * PAGE_SIZE

    def test_map_unmap_inverse(self):
        ept = ExtendedPageTable()
        ept.map_region(GiB, 100 * MiB)
        before = ept.mapped_bytes
        ept.map_region(0, 30 * MiB)
        ept.unmap_region(0, 30 * MiB)
        assert ept.mapped_bytes == before
        result = ept.translate(GiB + 50 * MiB)
        assert not isinstance(result, EptViolationInfo)
        ept.check_invariants()

    def test_mappings_iterator_sorted(self):
        ept = ExtendedPageTable()
        ept.map_region(8 * PAGE_SIZE, PAGE_SIZE)
        ept.map_region(0, PAGE_SIZE)
        starts = [m.guest_page for m in ept.mappings()]
        assert starts == sorted(starts)


class TestInvariants:
    def test_sound_table_passes(self):
        ept = ExtendedPageTable()
        ept.map_region(0, GiB + PAGE_SIZE)
        ept.unmap_region(PAGE_SIZE_2M, PAGE_SIZE)
        ept.check_invariants()

    def test_overlap_behind_the_api_is_typed(self):
        ept = ExtendedPageTable()
        ept.map_region(0, 4 * PAGE_SIZE)
        ept._extents.insert(
            2 * PAGE_SIZE, 6 * PAGE_SIZE, 0, PAGE_SIZE, EptPermissions.full()
        )
        with pytest.raises(EptInvariantError, match="overlap at 0x2000"):
            ept.check_invariants()
        assert issubclass(EptInvariantError, EptError)
        assert not issubclass(EptInvariantError, AssertionError)

    def test_oracle_catches_overlap_under_python_O(self):
        """The ept-coverage oracle does not rest on ``assert``: run with
        ``-O``, an overlapping extent slipped in behind the API still
        becomes an ept-coverage violation."""
        script = textwrap.dedent(
            """
            from repro.core.features import CovirtConfig
            from repro.fuzz.oracles import OraclePack, OracleViolation
            from repro.harness.env import CovirtEnvironment, Layout
            from repro.vmx.ept import EptPermissions

            assert False, "asserts must be stripped in this run"
            env = CovirtEnvironment()
            enclave = env.launch(
                Layout("2c/2n", {0: 1, 1: 1}, {0: 1 << 30, 1: 1 << 30}),
                CovirtConfig.memory_only(),
            )
            pack = OraclePack(env)
            pack.check_all()
            table = env.controller.contexts[enclave.enclave_id].ept.table
            start = table._extents.starts[0]
            table._extents.insert(
                start, start + 4096, 0, 4096, EptPermissions.full()
            )
            try:
                pack.check_all()
            except OracleViolation as violation:
                print(violation.oracle, "|", violation.detail)
            else:
                print("undetected")
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.strip()
        oracle, _, detail = out.partition(" | ")
        assert oracle == "ept-coverage", out
        assert "mappings overlap" in detail
