"""Golden pin of the paper-figure tables and the verification report.

``golden/figures.txt`` holds the exact stdout of::

    python -m repro run fig3 fig4 fig5a fig5b fig6 fig7 fig8
    python -m repro verify

one after the other.  Any change to a rendered cell, a title, a note or
a claim's measured value fails here.  After an *intentional* change,
regenerate with::

    pytest tests/harness/test_figures_golden.py --update-golden
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "figures.txt"

FIGURES = ["fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8"]


def test_run_and_verify_match_golden(capsys, update_golden):
    assert main(["run", *FIGURES]) == 0
    assert main(["verify"]) == 0
    output = capsys.readouterr().out
    if update_golden:
        GOLDEN.write_text(output)
    assert output == GOLDEN.read_text(), (
        "figure tables or verify report diverged from tests/harness/"
        "golden/figures.txt — if the change is intentional, rerun with"
        " --update-golden"
    )
