"""Put ``src`` on the path so the benchmark's tests import ``repro``.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys

from perfbench import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
