"""Fault dossiers: the debugging traces Covirt makes possible.

Section V's war stories end the same way every time: *without* Covirt a
bug takes down the node and leaves nothing to debug; *with* Covirt the
enclave is terminated cleanly and the interesting state survives.  The
paper credits this with cutting "complex debugging efforts from weeks
to days".

A :class:`FaultDossier` is that surviving state, collected by the
controller at termination time: the fault itself, every core's
hypervisor counters and final register/TSC state, the EPT's shape, the
whitelist's drop log, the tail of the co-kernel console, and the last
hypervisor spans each core emitted (read off the machine's flight
recorder, so a quiesced machine's dossier has no trace section).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.faults import CovirtFault
from repro.hw.memory import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import EnclaveVirtContext
    from repro.core.hypervisor import CovirtHypervisor

#: Hypervisor spans kept per core in a dossier's trace tail.
TRACE_TAIL_DEPTH = 8


@dataclass
class CoreSnapshot:
    """Final architectural state of one enclave core."""

    core_id: int
    tsc: int
    mode: str
    halted: bool
    vm_entries: int
    total_exits: int
    exits_by_reason: dict[str, int]
    tlb_entries: int
    pending_commands: int
    trace_tail: list[str] = field(default_factory=list)


@dataclass
class FaultDossier:
    """Everything a developer gets instead of a dead node."""

    fault: CovirtFault
    enclave_name: str
    cores: list[CoreSnapshot] = field(default_factory=list)
    ept_mapped_bytes: int = 0
    ept_entries: dict[int, int] = field(default_factory=dict)
    dropped_ipis: list[str] = field(default_factory=list)
    denied_msr_writes: list[tuple[int, int, int]] = field(default_factory=list)
    denied_io: list[tuple[int, int, int, bool]] = field(default_factory=list)
    console_tail: list[str] = field(default_factory=list)
    features: str = ""

    @classmethod
    def collect(cls, ctx: "EnclaveVirtContext", fault: CovirtFault) -> "FaultDossier":
        """Snapshot an enclave's state at termination."""
        dossier = cls(
            fault=fault,
            enclave_name=ctx.enclave.name,
            features=ctx.config.label(),
        )
        for core_id, hv in sorted(ctx.hypervisors.items()):
            core = hv.core
            dossier.cores.append(
                CoreSnapshot(
                    core_id=core_id,
                    tsc=core.read_tsc(),
                    mode=core.mode.value,
                    halted=core.halted,
                    vm_entries=core.vm_entries,
                    total_exits=hv.counters.total_exits,
                    exits_by_reason=dict(hv.counters.exits),
                    tlb_entries=len(core.tlb) if core.tlb else 0,
                    pending_commands=hv.queue.pending(),
                    trace_tail=_span_tail(hv),
                )
            )
        if ctx.ept is not None:
            dossier.ept_mapped_bytes = ctx.ept.mapped_bytes
            dossier.ept_entries = ctx.ept.entry_counts()
        if ctx.whitelist is not None:
            dossier.dropped_ipis = [
                f"core {d.msg.dest_core} vector {d.msg.vector} @ {d.tsc}: {d.reason}"
                for d in ctx.whitelist.dropped
            ]
        dossier.denied_msr_writes = list(ctx.denied_msr_writes)
        dossier.denied_io = list(ctx.denied_io)
        kernel = ctx.enclave.kernel
        if kernel is not None:
            dossier.console_tail = kernel.console[-10:]
        return dossier

    def render(self) -> str:
        """Human-readable crash report."""
        lines = [
            "=" * 70,
            f"COVIRT FAULT DOSSIER — enclave {self.fault.enclave_id} "
            f"({self.enclave_name!r}, {self.features})",
            "=" * 70,
            f"fault:  {self.fault.describe()}",
            "",
            "cores:",
        ]
        for core in self.cores:
            exits = ", ".join(
                f"{k}={v}" for k, v in sorted(core.exits_by_reason.items())
            ) or "none"
            lines.append(
                f"  core {core.core_id}: tsc={core.tsc} mode={core.mode}"
                f"{' HALTED' if core.halted else ''} entries={core.vm_entries}"
                f" exits[{exits}] tlb={core.tlb_entries}"
                f" pending_cmds={core.pending_commands}"
            )
        if self.ept_entries:
            lines.append(
                f"ept:    {self.ept_mapped_bytes >> 20} MiB mapped "
                f"({self.ept_entries.get(PAGE_SIZE_1G, 0)}x1G, "
                f"{self.ept_entries.get(PAGE_SIZE_2M, 0)}x2M, "
                f"{self.ept_entries.get(PAGE_SIZE, 0)}x4K)"
            )
        if self.dropped_ipis:
            lines.append(f"dropped IPIs ({len(self.dropped_ipis)}):")
            lines += [f"  {entry}" for entry in self.dropped_ipis[-5:]]
        if self.denied_msr_writes:
            lines.append(
                "denied MSR writes: "
                + ", ".join(
                    f"core{c}:{idx:#x}={val:#x}"
                    for c, idx, val in self.denied_msr_writes[-5:]
                )
            )
        if self.denied_io:
            lines.append(
                "denied I/O: "
                + ", ".join(
                    f"core{c}:{'out' if w else 'in'} port {p:#x}"
                    for c, p, _v, w in self.denied_io[-5:]
                )
            )
        if self.console_tail:
            lines.append("co-kernel console (tail):")
            lines += [f"  | {entry}" for entry in self.console_tail]
        for core in self.cores:
            if core.trace_tail:
                lines.append(f"hypervisor trace, core {core.core_id} (tail):")
                lines += [f"  {entry}" for entry in core.trace_tail]
        lines.append("=" * 70)
        return "\n".join(lines)


def _span_tail(hv: "CovirtHypervisor") -> list[str]:
    """The last spans on a hypervisor's track in the flight ring, oldest
    first, rendered as end TSC, name and sorted ``k=v`` args."""
    tail: list[str] = []
    for event in reversed(hv.obs.flight.tail()):
        if event.get("track") == hv.track:
            args = "".join(f" {k}={v}" for k, v in sorted(event["args"].items()))
            tail.append(f"{event['end']:>14d}  {event['name']}{args}")
            if len(tail) == TRACE_TAIL_DEPTH:
                break
    return tail[::-1]
