#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json`` from the current simulator.

Run it only when simulated behaviour is meant to change; the pins are
what every benchmark run checks its outputs against.  It runs each
pinned fuzz campaign once in-process and drives each pinned served
session through a self-hosted daemon, exactly as the benchmark does.

Usage::

    python3 perfbench/repin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import pins  # noqa: E402
from perfbench.work import run_campaign  # noqa: E402

#: Campaign shape: guided, executions of 60 steps like ``repro fuzz``.
FUZZ_SHAPE = {"budget": 16, "steps": 60, "batch_size": 1}
#: Served-session shape: the request mix repeated this many times.
SERVE_SHAPE = {"scenario": "baseline", "requests": 125}
#: First seed of each pool; pools are consecutive seeds.
FUZZ_SEED0 = 1000
SERVE_SEED0 = 5000
#: Pool sizes: a little under one run's work each (about 20 s on a
#: 2-core x86 VM, against run_seconds 25), so every run drives the whole
#: pool and the seed only sets the order (and, for sessions, the
#: pairing).  Drawing a different subset per seed made run-to-run
#: spread track which campaigns or sessions were drawn.
FUZZ_POOL = {"churn": 8, "hostile": 5}
SERVE_POOL = 8


def pin_fuzz() -> dict:
    out = dict(FUZZ_SHAPE)
    for schedule, pool in sorted(FUZZ_POOL.items()):
        out[schedule] = {}
        for seed in range(FUZZ_SEED0, FUZZ_SEED0 + pool):
            record = run_campaign(schedule, seed, out)
            out[schedule][str(seed)] = record["summary"]
            print(f"{schedule}/{seed}: {record['summary']}", flush=True)
    return out


def pin_serve() -> dict:
    from perfbench.serve_load import DaemonProcess, drive_round

    out = dict(SERVE_SHAPE, sessions={})
    seeds = list(range(SERVE_SEED0, SERVE_SEED0 + SERVE_POOL))
    with DaemonProcess() as daemon:
        for i in range(0, SERVE_POOL, 2):
            result = drive_round(
                daemon.endpoint, seeds[i:i + 2], SERVE_SHAPE["requests"],
                SERVE_SHAPE["scenario"],
            )
            for seed, session in zip(seeds[i:i + 2], result["sessions"]):
                if session["errors"]:
                    raise SystemExit(f"session {seed}: {session['errors']}")
                out["sessions"][str(seed)] = session["fingerprint"]
                print(f"serve/{seed}: {session['fingerprint']}", flush=True)
    return out


def main() -> int:
    doc = {"fuzz": pin_fuzz(), "serve": pin_serve()}
    pins.PINS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
