"""Hypervisor event tails in fault dossiers, read off the flight ring."""

import pytest

from repro.core.debug import TRACE_TAIL_DEPTH
from repro.core.faults import EnclaveFaultError
from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout

GiB = 1 << 30
LAYOUT = Layout("2c/2n", {0: 1, 1: 1}, {0: GiB, 1: GiB})


def crash(env, enclave):
    """Wild read on the BSP; returns the enclave's fault dossier."""
    bsp = enclave.assignment.core_ids[0]
    with pytest.raises(EnclaveFaultError):
        enclave.port.read(bsp, 50 * GiB, 8)
    return env.controller.dossiers[enclave.enclave_id]


def bsp_tail(dossier):
    return next(c for c in dossier.cores if c.core_id == dossier.fault.core_id).trace_tail


class TestHypervisorTracing:
    @pytest.fixture
    def env(self):
        return CovirtEnvironment()

    def test_launch_recorded(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        tail = bsp_tail(crash(env, enclave))
        assert tail[0].split()[1:] == ["hv.launch", "entry_point=0x50000"]
        assert tail[-1].split()[1:] == [
            "hv.exit.ept_violation",
            f"enclave={enclave.enclave_id}",
        ]

    def test_exit_and_drop_recorded(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_ipi())
        bsp = enclave.assignment.core_ids[0]
        enclave.port.send_ipi(bsp, 0, 199)  # dropped
        dossier = crash(env, enclave)
        assert any("hv.exit.apic_write" in line for line in bsp_tail(dossier))
        report = dossier.render()
        assert "dropped IPIs (1):" in report
        assert "vector 199" in report

    def test_posted_delivery_recorded(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_ipi())
        env.mcp.channels[enclave.enclave_id].host_send("ping", None)
        bsp = enclave.assignment.core_ids[0]
        hv = enclave.virt_context.hypervisors[bsp]
        # Exit-free deliveries emit no span; the counters keep them.
        assert hv.counters.posted_deliveries > 0

    def test_trace_tail_lands_in_dossier(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.memory_only())
        dossier = crash(env, enclave)
        report = dossier.render()
        assert f"hypervisor trace, core {dossier.fault.core_id} (tail):" in report
        assert "hv.exit.ept_violation" in report

    def test_timestamps_monotone(self, env):
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        bsp = enclave.assignment.core_ids[0]
        for _ in range(5):
            enclave.port.cpuid(bsp, 0)
        tail = bsp_tail(crash(env, enclave))
        assert len(tail) == TRACE_TAIL_DEPTH
        stamps = [int(line.split()[0]) for line in tail]
        assert stamps == sorted(stamps)

    def test_quiesced_dossier_has_no_trace_section(self, env):
        env.machine.obs.quiesce()
        enclave = env.launch(LAYOUT, CovirtConfig.full())
        dossier = crash(env, enclave)
        assert all(core.trace_tail == [] for core in dossier.cores)
        report = dossier.render()
        assert "hypervisor trace" not in report
        assert "ept_violation" in report  # the fault header still names it
