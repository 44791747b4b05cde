"""Pinned simulated outputs and the checks against them.

The simulator is deterministic, so every unit of benchmark work has one
right answer.  ``pins.json`` holds it for the fuzz campaigns and served
sessions each workload draws from; the paper figures are checked
against the committed full-mode ``BENCH_fig3.json``..``BENCH_fig8.json``
at the repository root.  A mismatch is a failed operation: a speed-up
that changes behaviour shows up as failures, not as a gain.

``python3 perfbench/repin.py`` regenerates ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from perfbench import ROOT

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The paper-figure scenarios of ``benchmarks/runner.py`` that
#: ``paper-figs`` repeats.
FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def load() -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text())


def digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:32]


def campaign_summary(result: Any, steps_applied: int) -> dict[str, Any]:
    """The pinned view of one :class:`~repro.fuzz.pool.CampaignResult`."""
    return {
        "executions": result.executions,
        "steps_applied": steps_applied,
        "edges": result.edges,
        "corpus": digest([run.fingerprint for run in result.corpus]),
        "findings": len(result.findings),
    }


def _diff(what: str, got: dict[str, Any], want: dict[str, Any]) -> list[str]:
    return [
        f"{what}: {key} is {got.get(key)!r}, pinned {want[key]!r}"
        for key in sorted(want)
        if got.get(key) != want[key]
    ]


def check_campaign(
    schedule: str, seed: int, summary: dict[str, Any],
    fuzz_pins: dict[str, Any],
) -> list[str]:
    """Mismatches of one campaign against its pin (and findings == 0)."""
    what = f"fuzz campaign {schedule}/{seed}"
    pinned = fuzz_pins[schedule].get(str(seed))
    if pinned is None:
        return [f"{what}: no pin"]
    problems = _diff(what, summary, pinned)
    if summary.get("findings"):
        problems.append(f"{what}: {summary['findings']} findings")
    return problems


def check_session(
    seed: int, fingerprint: str | None, serve_pins: dict[str, Any]
) -> list[str]:
    """Mismatch of one served session's final engine fingerprint."""
    pinned = serve_pins["sessions"].get(str(seed))
    if pinned is None:
        return [f"served session {seed}: no pin"]
    if fingerprint != pinned:
        return [
            f"served session {seed}: fingerprint {fingerprint}, "
            f"pinned {pinned}"
        ]
    return []


def figure_reference(name: str) -> dict[str, Any]:
    """The committed full-mode BENCH doc for one figure."""
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def check_figure(
    name: str, doc: dict[str, Any], reference: dict[str, Any]
) -> list[str]:
    """Mismatches of a fresh scenario doc against the committed one:
    ``sim_cycles`` and every ``results`` row."""
    problems = []
    if doc["sim_cycles"] != reference["sim_cycles"]:
        problems.append(
            f"{name}: sim_cycles {doc['sim_cycles']}, "
            f"committed {reference['sim_cycles']}"
        )
    got, want = doc["results"], reference["results"]
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} rows, committed {len(want)}")
    for index, (row, ref) in enumerate(zip(got, want)):
        if row != ref:
            problems.append(f"{name}: row {index} is {row}, committed {ref}")
    return problems
