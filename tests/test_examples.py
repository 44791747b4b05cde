"""Every script under ``examples/`` still imports against the package.

Loading a script runs only its imports and definitions (each keeps its
work behind ``if __name__ == "__main__"``), so a renamed or deleted
API fails here instead of when a reader first runs the example.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
