#!/usr/bin/env python3
"""Host-time benchmark of the Covirt simulator: the one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz-churn --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fuzz-churn`` / ``fuzz-hostile`` — guided fuzz campaigns on one
  schedule: the pinned campaign pool in seed-shuffled order;
* ``serve-aging`` — a ``covirt-serve`` daemon in its own process, driven
  closed-loop over two connections in rounds of one fixed-length session
  per connection, over the pinned session pool in fixed pairs, the
  rounds ordered by the seed;
* ``paper-figs`` — full-mode fig3..fig8 scenarios, in seed-shuffled
  order, pass after pass.

``--trace 0`` measures end-to-end metrics with nothing wrapped.  Every
timed op is bracketed by speed probes run in the process doing the work
and its time rescaled to the reference host speed (:mod:`perfbench.speed`),
because the shared host's own speed drifts by more than the bounds.
``--trace 1`` runs a fixed slice of the same work untraced and then
traced, writes the spans to ``perfbench/out/`` as a Chrome trace and
reports per-layer metrics.  Either way every output is checked against
its pin; a mismatch is a failed operation and the command exits 1.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import child_env, pins, speed, tracing  # noqa: E402
from perfbench.serve_load import (  # noqa: E402
    SEGMENT,
    DaemonProcess,
    drive_round,
    launch_probe,
)

WORKLOADS = ("fuzz-churn", "fuzz-hostile", "serve-aging", "paper-figs")
#: Set-up is repeated this often per run and its median reported.
SETUP_REPS = 5
#: serve-aging holds at least this many requests, so ten lie beyond p99.
MIN_REQUESTS = 1000
#: The percentile ``op_ms_tail`` reports: the highest with at least ten
#: timed ops beyond it.  A run times 128 / 80 distinct fuzz executions
#: (8 / 5 campaigns of 16), 1000 distinct requests, and about 150
#: figure scenarios.
TAIL_PCT = {
    "fuzz-churn": 92, "fuzz-hostile": 87, "serve-aging": 99, "paper-figs": 90,
}
#: Work in one traced run, per half: campaigns, figure passes, or
#: serve rounds.
TRACE_UNITS = {
    "fuzz-churn": 3, "fuzz-hostile": 2, "paper-figs": 4, "serve-aging": 2,
}
OUT_DIR = ROOT / "perfbench" / "out"
#: How long one child may take before the run is abandoned.
CHILD_TIMEOUT = 170


# -- inputs -----------------------------------------------------------------


def missing_sources() -> list[str]:
    """What the benchmark needs from the checkout but cannot find."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "runner.py", pins.PINS_PATH]
    needed += [ROOT / f"BENCH_{fig}.json" for fig in pins.FIGURES]
    return [str(path.relative_to(ROOT)) for path in needed
            if not path.is_file()]


def plan_units(workload: str, seed: int, pinned: dict[str, Any]) -> list:
    """The run's inputs, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "paper-figs":
        return [rng.sample(pins.FIGURES, len(pins.FIGURES))
                for _ in range(64)]
    if workload == "serve-aging":
        # A round lasts as long as its slower session, so the pairing
        # sets the round's length and latencies: it stays fixed.
        pool = sorted(int(s) for s in pinned["serve"]["sessions"])
        rounds = [pool[i:i + 2] for i in range(0, len(pool) - 1, 2)]
        rng.shuffle(rounds)
        return rounds
    schedule = workload.split("-", 1)[1]
    pool = sorted(int(s) for s in pinned["fuzz"][schedule])
    rng.shuffle(pool)
    return pool


# -- helpers ----------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_setups(start):
    """Run ``start()`` :data:`SETUP_REPS` times; close all but the last
    handle.  Each set-up is rescaled by a speed probe the handle's
    process runs right after it.  Returns (median seconds, last
    handle)."""
    times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        handle = start()
        ms = (time.perf_counter() - t0) * 1e3
        try:
            probe = handle.probe()
        except BaseException:
            handle.close()
            raise
        times.append(speed.normalise(ms, probe, probe) / 1e3)
        if rep < SETUP_REPS - 1:
            handle.close()
    return statistics.median(times), handle


class WorkerProcess:
    """A :mod:`perfbench.work` child, ready when constructed."""

    def __init__(self, workload: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.work", workload],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if not self.proc.stdout.readline():
            self.close()
            raise RuntimeError(f"{workload} worker exited during set-up")

    def probe(self) -> float:
        """A speed probe run in the worker, in ms."""
        self.proc.stdin.write(json.dumps({"probe": True}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["probe_ms"]

    def run(self, job: dict[str, Any]) -> dict[str, Any]:
        try:
            out, _ = self.proc.communicate(json.dumps(job) + "\n",
                                           timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.communicate("\n", timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


# -- workloads --------------------------------------------------------------


def fails_of(records: list[dict[str, Any]], workload: str) -> tuple[int, int]:
    """(attempted, failed) ops: fuzz executions or figure scenarios."""
    weight = (
        (lambda r: 1) if workload == "paper-figs"
        else (lambda r: r["summary"]["executions"])
    )
    attempted = sum(weight(r) for r in records)
    failed = sum(weight(r) for r in records if r["problems"])
    return attempted, failed


def run_worker_workload(args, units: list) -> dict[str, Any]:
    if args.trace:
        worker = WorkerProcess(args.workload)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        try:
            result = worker.run({"units": units[:TRACE_UNITS[args.workload]],
                                 "trace": str(path)})
        finally:
            worker.close()
        doc = json.loads(path.read_text())
        totals = doc["otherData"]
        metrics = tracing.layer_metrics(doc)
        metrics.update(per_layer_ratios(
            spans=doc["otherData"]["counts"].get("obs.spans", 0),
            steps=totals["steps"], executions=totals["executions"],
            novel=totals["novel"],
        ))
        attempted, failed = fails_of(result["records"], args.workload)
        return {"metrics": metrics, "attempted": attempted,
                "failed": failed, "problems": problems_of(result["records"]),
                "trace": path}

    setup_s, worker = timed_setups(lambda: WorkerProcess(args.workload))
    try:
        result = worker.run({"units": units, "seconds": args.seconds})
    finally:
        worker.close()
    records = result["records"]
    # Each distinct op counts once, at its median time over the repeats
    # a run happened to make, so which units the run's tail repeated
    # moves neither throughput nor the fuzz latencies.
    if args.workload == "paper-figs":
        ops = {r["figure"]: 1 for r in records}
        secs = median_by(records, "figure",
                         lambda r: speed.normalise(r["ms"], *r["probe_ms"]))
        secs = {k: ms / 1e3 for k, ms in secs.items()}
        latencies = [speed.normalise(r["ms"], *r["probe_ms"])
                     for r in records]
    else:
        ops = {r["seed"]: r["summary"]["steps_applied"] for r in records}
        secs = median_by(records, "seed", campaign_seconds)
        execs = [((r["seed"], i), ms) for r in records
                 for i, ms in enumerate(exec_ms(r))]
        latencies = list(median_by(execs, 0, lambda e: e[1]).values())
    ops_per_s = sum(ops.values()) / sum(secs.values())
    attempted, failed = fails_of(records, args.workload)
    return {
        "metrics": end_to_end(setup_s, ops_per_s, latencies,
                              TAIL_PCT[args.workload], result["peak_rss_mb"]),
        "attempted": attempted, "failed": failed,
        "problems": problems_of(records), "samples": len(latencies),
    }


def exec_ms(record: dict[str, Any]) -> list[float]:
    """A campaign's execution times, normalised by the probes around
    each execution."""
    probes = record["probe_ms"]
    return [speed.normalise(ms, probes[i], probes[i + 1])
            for i, ms in enumerate(record["exec_ms"])]


def campaign_seconds(record: dict[str, Any]) -> float:
    """A campaign's normalised wall: its executions and the distillation
    after the last one."""
    last = record["probe_ms"][-1]
    tail = speed.normalise(record["tail_ms"], last, last)
    return (sum(exec_ms(record)) + tail) / 1e3


def median_by(records, key, value) -> dict[Any, float]:
    """Median of ``value(record)`` per distinct ``record[key]``."""
    groups: dict[Any, list[float]] = {}
    for r in records:
        groups.setdefault(r[key], []).append(value(r))
    return {k: statistics.median(v) for k, v in groups.items()}


def problems_of(records: list[dict[str, Any]]) -> list[str]:
    return [p for r in records for p in r["problems"]]


def request_ms(result: dict[str, Any]):
    """(session, request index, ms) for each request of a serve round,
    normalised by the probes around its segment."""
    probes = result["probe_ms"]
    for s in result["sessions"]:
        for k, a, b in s["spans"]:
            j = k // SEGMENT
            yield s, k, speed.normalise((b - a) / 1e6, probes[j],
                                        probes[j + 1])


def round_seconds(result: dict[str, Any]) -> float:
    """A serve round's normalised wall: per segment, first request sent
    to last reply, leaving out the barriers between segments."""
    probes, bounds = result["probe_ms"], {}
    for s in result["sessions"]:
        for k, a, b in s["spans"]:
            lo, hi = bounds.get(k // SEGMENT, (a, b))
            bounds[k // SEGMENT] = (min(lo, a), max(hi, b))
    return sum(speed.normalise((hi - lo) / 1e9, probes[j], probes[j + 1])
               for j, (lo, hi) in bounds.items())


def session_fails(
    sessions: list[dict[str, Any]], requests: int, serve_pins: dict
) -> tuple[int, list[str]]:
    """Failed requests and their reasons: every errored request, and
    all requests of a session that parked or ended on a fingerprint
    other than its pin."""
    failed, problems = 0, []
    for s in sessions:
        bad = list(s["errors"])
        if s.get("parked"):
            bad.append(f"served session {s['seed']} parked")
        bad += pins.check_session(s["seed"], s.get("fingerprint"), serve_pins)
        errors_only = len(bad) == len(s["errors"])
        failed += len(s["errors"]) if errors_only else requests
        problems += bad
    return failed, problems


def run_serve(args, rounds: list[list[int]]) -> dict[str, Any]:
    serve_pins = pins.load()["serve"]
    requests, scenario = serve_pins["requests"], serve_pins["scenario"]

    def drive(daemon, plan):
        results = []
        for seeds in plan:
            results.append(drive_round(daemon.endpoint, seeds, requests,
                                       scenario))
        return results

    if args.trace:
        plan = rounds[:TRACE_UNITS["serve-aging"]]
        with DaemonProcess() as daemon:
            t0 = time.perf_counter_ns()
            untraced = drive(daemon, plan)
            t1 = time.perf_counter_ns()
        path = OUT_DIR / f"serve-aging-seed{args.seed}.trace.json"
        with DaemonProcess(trace=str(path)) as daemon:
            t2 = time.perf_counter_ns()
            traced = drive(daemon, plan)
            t3 = time.perf_counter_ns()
        doc = json.loads(path.read_text())
        # One track for the two brackets and one per client thread.
        tracks = {"bench": [(0, None, tracing.UNTRACED_SPAN, t0, t1, None),
                            (1, None, tracing.TRACED_SPAN, t2, t3, None)]}
        span_id = 2
        for r in traced:
            for thread, s in enumerate(r["sessions"]):
                track = tracks.setdefault(f"client-{thread}", [])
                for k, a, b in s["spans"]:
                    track.append((span_id, None, tracing.REQUEST_SPAN, a, b,
                                  f"{s.get('session_id')}:{k}"))
                    span_id += 1
        sessions = [s for r in traced for s in r["sessions"]]
        tracing.merge(doc, tracks)
        tracing.write_trace(doc, path)
        metrics = tracing.layer_metrics(doc)
        metrics.update(per_layer_ratios(
            spans=doc["otherData"]["counts"].get("obs.spans", 0),
            steps=sum(s.get("steps_applied", 0) for s in sessions),
            requests=len(sessions) * requests,
            shed=sum(s["shed"] for s in sessions),
        ))
        ratio, first = tracing.age_ratio(doc, requests)
        metrics["fuzz.oracles.age_ratio"] = ratio
        metrics["fuzz.oracles.age_first_ms"] = first
        sessions += [s for r in untraced for s in r["sessions"]]
        failed, problems = session_fails(sessions, requests, serve_pins)
        return {"metrics": metrics, "attempted": len(sessions) * requests,
                "failed": failed, "problems": problems, "trace": path}

    def start():
        daemon = DaemonProcess()
        try:
            launch_probe(daemon.endpoint, rounds[0], scenario)
        except BaseException:
            daemon.close()
            raise
        return daemon

    setup_s, daemon = timed_setups(start)
    results = []
    try:
        t0 = time.perf_counter()
        for seeds in rounds * 8:
            result = drive_round(daemon.endpoint, seeds, requests, scenario,
                                 probe=daemon.probe)
            result["seeds"] = tuple(seeds)
            results.append(result)
            done = sum(len(s["spans"]) for r in results for s in r["sessions"])
            if done >= MIN_REQUESTS and time.perf_counter() - t0 >= args.seconds:
                break
    finally:
        daemon.close()
    sessions = [s for r in results for s in r["sessions"]]
    # As for the other workloads, each distinct request (session seed,
    # index) and round counts once, at its median over repeats.
    requests_ms = [((s["seed"], k), ms) for r in results
                   for s, k, ms in request_ms(r)]
    latencies = list(median_by(requests_ms, 0, lambda e: e[1]).values())
    walls = median_by(results, "seeds", round_seconds)
    ops_per_s = requests * sum(map(len, walls)) / sum(walls.values())
    failed, problems = session_fails(sessions, requests, serve_pins)
    return {
        "metrics": end_to_end(setup_s, ops_per_s, latencies,
                              TAIL_PCT[args.workload], daemon.peak_rss_mb),
        "attempted": len(sessions) * requests, "failed": failed,
        "problems": problems, "samples": len(latencies),
    }


# -- metrics ----------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for
    this kind of run (end-to-end untraced, per-layer traced)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(
    setup_s: float, ops_per_s: float, latencies: list[float], tail_pct: int,
    rss_mb: float,
) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": percentile(latencies, tail_pct),
        "peak_rss_mb": rss_mb,
    }


def per_layer_ratios(
    *, spans: int = 0, steps: int = 0, executions: int = 0, novel: int = 0,
    requests: int = 0, shed: int = 0,
) -> dict[str, float]:
    """The count ratios, each next to its base; 0 where the base is 0."""
    return {
        "obs.spans_per_step": spans / steps if steps else 0.0,
        "obs.steps": steps,
        "fuzz.new_cov_ratio": novel / executions if executions else 0.0,
        "fuzz.executions": executions,
        "serve.shed_frac": shed / requests if requests else 0.0,
        "serve.requests": requests,
        "fuzz.oracles.age_ratio": 0.0,
        "fuzz.oracles.age_first_ms": 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print("perfbench: missing from the checkout: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    units = plan_units(args.workload, args.seed, pins.load())
    if args.workload == "serve-aging":
        out = run_serve(args, units)
    else:
        out = run_worker_workload(args, units)

    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print(f"trace: {out['trace'].relative_to(ROOT)}")
    else:
        print(f"samples: {out['samples']} ops timed; op_ms_tail is "
              f"p{TAIL_PCT[args.workload]}")
    declared = declared_metrics(args.trace)
    if set(out["metrics"]) != set(declared):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(out['metrics']) ^ set(declared))}"
        )
    metrics = {
        name: {"value": out["metrics"][name], "unit": unit}
        for name, unit in declared.items()
    }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    fail_frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"fail_frac: {fail_frac:.6g} ({out['failed']}/{out['attempted']})")
    correct = out["failed"] == 0 and out["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
