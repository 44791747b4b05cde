"""One-shot reproduction verification.

Runs every paper figure once and checks its *shape claims* — declared
next to the figure in :data:`repro.harness.figures.FIGURES` and
measured on its typed rows — packaged as a single report a reader can
run (``python -m repro verify``) to see paper-vs-measured at a glance.
"""

from __future__ import annotations

from repro.harness.figures import FIGURES, Claim, Figure
from repro.harness.report import format_rows

#: Every paper claim, with the figure whose rows it is measured on
#: (a flat view of the registry, for test parametrisation).
CLAIMS: list[tuple[Figure, Claim]] = [
    (figure, claim) for figure in FIGURES.values() for claim in figure.claims
]


def run_verification() -> tuple[str, bool]:
    """Run all claims; returns (report text, all passed)."""
    rows = []
    all_ok = True
    for figure in FIGURES.values():
        results = figure.run()
        for claim in figure.claims:
            value, ok = claim.evaluate(results)
            all_ok &= ok
            rows.append(
                [
                    claim.figure,
                    claim.claim,
                    claim.band,
                    f"{value:.2f}",
                    "PASS" if ok else "FAIL",
                ]
            )
    report = format_rows(
        ["figure", "paper claim", "accepted band", "measured", "verdict"],
        rows,
        title="Reproduction verification (paper shape claims)",
    )
    return report, all_ok
