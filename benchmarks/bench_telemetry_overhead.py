#!/usr/bin/env python3
"""Telemetry-plane overhead microbenchmark: ``BENCH_telemetry.json``.

Pins the zero-overhead contract the serving daemon's telemetry plane
makes: instrumentation left in hot simulation loops must cost (almost)
nothing when nobody is watching.  Four modes run the same hot
span-close + counter-inc loop:

* ``off``          — the observability bundle is quiesced
  (:meth:`repro.obs.Observability.quiesce`): the span tracer's
  ``enabled`` gate is clear and no metric hooks are installed, so each
  op collapses to a predicate test plus a counter bump;
* ``flight``       — the default serving configuration: the flight
  recorder observes every span close and metric delta (**the
  denominator**: every ratio is relative to this mode);
* ``subscribed``   — a telemetry subscriber is attached through a real
  :class:`~repro.serve.telemetry.TelemetryHub` tap, so every op also
  builds and enqueues wire frames;
* ``slow-subscriber`` — same, but the subscriber's bounded queue is
  tiny, so most frames drop.  The drop count is **deterministic**
  (frames generated minus queue capacity) — drops are accounted, never
  a stall.

The regression sentinel is ``ratio_vs_flight``: wall-clock ns/op is
machine-speed noise, but the *ratio* between modes is stable, and a
broken fast-path gate moves ``off`` from ~0.1x to ~1x — far outside
the tolerance band in ``benchmarks/tolerances.json``, so
``repro bench-compare`` trips.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
        [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.features import CovirtConfig
from repro.harness.env import CovirtEnvironment, Layout
from repro.hw.clock import Clock
from repro.obs import MetricsRegistry, Observability
from repro.obs.scenario import protection_probe
from repro.obs.schema import (
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    validate_bench,
)
from repro.serve.telemetry import MAX_QUEUE_FRAMES, TelemetryHub

DEFAULT_SEED = 0xC0517

#: Ops per timed loop.  Short loops are seldom preempted, and ``ROUNDS``
#: of them per mode keep the scenario's wall time inside the runner's
#: ``wall_seconds`` band.  The ``subscribed`` mode's frame volume (2
#: frames per op, warmup included, + hello) stays inside one
#: maximum-size subscriber queue, so the subscribed row measures tap
#: cost, not drop cost.
OPS_FULL = 1_200
OPS_QUICK = 400

#: The slow subscriber's queue; everything beyond it must drop.
SLOW_QUEUE = 256


def _hot_loop(obs: Observability, ops: int) -> float:
    """The measured op: one completed span + one counter increment —
    the instrumentation shape of the simulator's exit path.  Returns
    ns/op (wall clock)."""
    tracer = obs.tracer
    counter = obs.metrics.counter("bench.telemetry_ops", "bench ops")
    # Warm caches and code paths outside the timed window.
    for i in range(ops // 10 + 1):
        tracer.complete("bench.warm", i, i + 10, track="bench")
        counter.inc(kind="warm")
    t0 = time.perf_counter_ns()
    for i in range(ops):
        tracer.complete("bench.op", i, i + 10, category="bench", track="bench")
        counter.inc(kind="op")
    elapsed = time.perf_counter_ns() - t0
    return elapsed / ops


#: Timed loops per mode.  Modes interleave round by round and each mode
#: keeps its fastest loop, so one preemption cannot move a ratio out of
#: its tolerance band.
ROUNDS = 5

MODES = ("off", "flight", "subscribed", "slow-subscriber")

#: Hub subscriber queue per subscribed mode.
SUBSCRIBER_QUEUES = {
    "subscribed": MAX_QUEUE_FRAMES,  # roomy: no drops, pure tap cost
    "slow-subscriber": SLOW_QUEUE,
}


def _time_mode(mode: str, ops: int) -> tuple[float, float, dict[str, int]]:
    """One timed loop on a fresh bundle (and hub, for subscribed modes).
    Returns (ns/op, elapsed seconds, frame stats)."""
    obs = Observability(Clock())
    hub = None
    if mode == "off":
        obs.quiesce()
    elif mode in SUBSCRIBER_QUEUES:
        hub = TelemetryHub(MetricsRegistry())
        hub.subscribe(None, max_queue=SUBSCRIBER_QUEUES[mode])
        hub.attach_obs("bench", obs, tenant="bench", session_id="bench-0")
    t0 = time.perf_counter()
    ns_per_op = _hot_loop(obs, ops)
    elapsed = time.perf_counter() - t0
    if mode == "off" and len(obs.tracer):
        raise AssertionError("quiesced tracer must record nothing")
    frames = {"frames": 0, "dropped": 0}
    if hub is not None:
        stats = hub.unsubscribe(None)
        frames = {
            "frames": stats["enqueued"] + stats["dropped"],
            "dropped": stats["dropped"],
        }
    return ns_per_op, elapsed, frames


def measure_rows(quick: bool) -> list[dict[str, Any]]:
    """One row per mode; ``ratio_vs_flight`` is the sentinel metric.
    Timing columns come from each mode's fastest round; the frame and
    drop columns (deterministic) from the first."""
    ops = OPS_QUICK if quick else OPS_FULL
    best: dict[str, tuple[float, float]] = {}
    frame_stats: dict[str, dict[str, int]] = {}
    for _ in range(ROUNDS):
        for mode in MODES:
            ns_per_op, elapsed, frames = _time_mode(mode, ops)
            frame_stats.setdefault(mode, frames)
            if mode not in best or ns_per_op < best[mode][0]:
                best[mode] = (ns_per_op, elapsed)

    rows = []
    for mode in MODES:
        ns_per_op, elapsed = best[mode]
        frames = frame_stats[mode]["frames"]
        dropped = frame_stats[mode]["dropped"]
        rows.append(
            {
                "mode": mode,
                "ops": ops,
                "ns_per_op": round(ns_per_op, 1),
                "ratio_vs_flight": round(ns_per_op / best["flight"][0], 4),
                "frames": frames,
                "frames_per_sec": round(frames / elapsed, 1) if frames else 0.0,
                "dropped": dropped,
                "drop_rate": round(dropped / frames, 4) if frames else 0.0,
            }
        )
    return rows


def build_doc(quick: bool, seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """The standalone covirt-bench artifact (no ``wall_seconds``: the
    rows carry wall-clock figures already, and the runner stamps its
    own when it wraps this scenario)."""
    rows = measure_rows(quick)
    # A probe env supplies the simulator-side schema fields (exit
    # counts, populated histograms) every covirt-bench doc must carry.
    env = CovirtEnvironment()
    enclave = env.launch(
        Layout("probe-1c/1n", {0: 1}, {0: 256 << 20}),
        CovirtConfig.full(),
        name="probe",
    )
    protection_probe(env, enclave)
    env.teardown(enclave)
    registry = env.machine.obs.metrics
    return {
        "schema": BENCH_SCHEMA_NAME,
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "telemetry",
        "title": "Telemetry-plane overhead: off / flight / subscribed",
        "quick": quick,
        "seed": seed,
        "sim_cycles": max(
            env.machine.clock.now,
            max(
                env.machine.core(i).read_tsc()
                for i in range(env.machine.num_cores)
            ),
        ),
        "exits_by_reason": registry.exit_counts_by_reason(),
        "metrics": registry.to_dict(),
        "results": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark telemetry-plane overhead; "
        "write BENCH_telemetry.json."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller op counts for the CI smoke job",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_telemetry.json")
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED
    )
    args = parser.parse_args(argv)

    doc = build_doc(args.quick, args.seed)
    problems = validate_bench(doc)
    path = Path(args.out)
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    by_mode = {row["mode"]: row for row in doc["results"]}
    print(
        f"[telemetry] {path.name}: off {by_mode['off']['ratio_vs_flight']}x, "
        f"subscribed {by_mode['subscribed']['ratio_vs_flight']}x vs flight "
        f"({by_mode['flight']['ns_per_op']} ns/op); "
        f"slow-subscriber dropped {by_mode['slow-subscriber']['dropped']}"
        f"/{by_mode['slow-subscriber']['frames']} frames"
    )
    if problems:
        for problem in problems:
            print(f"[telemetry]   INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
