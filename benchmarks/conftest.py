"""Benchmark-suite helpers.

A bench target runs its driver once to print its table (through the
captured-output bypass so it lands in the terminal / tee'd log), then
hands the driver to pytest-benchmark for timing.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def show(capsys):
    """Print straight through pytest's capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _show
