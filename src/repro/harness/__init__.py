"""Experiment harness: the testbed environment, experiment drivers and
report helpers.  The paper's Figs. 3–8 are declared in
:mod:`repro.harness.figures`."""

from repro.harness.env import CovirtEnvironment, EVALUATION_LAYOUTS
from repro.harness.experiments import run_table1
from repro.harness.report import format_rows, overhead_pct

__all__ = [
    "CovirtEnvironment",
    "EVALUATION_LAYOUTS",
    "run_table1",
    "format_rows",
    "overhead_pct",
]
