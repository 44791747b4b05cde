"""The workload process for ``fuzz-churn``, ``fuzz-hostile`` and
``paper-figs``.

Run as ``python3 -m perfbench.work WORKLOAD`` from the repository root
(with ``src`` on ``PYTHONPATH``).  It imports the simulator, warms up
with one small unit of the workload (a 60-step fuzz execution, or a
quick-mode fig3), prints ``{"ready": ...}`` and then answers JSON jobs
on stdin, one result line each, until an empty line or EOF.  The parent
(:mod:`perfbench.run`) times spawn-to-ready as set-up.

Job keys: ``probe`` (true: run :func:`perfbench.speed.probe` and return
``probe_ms``), ``units`` (campaign seeds, or one figure list per pass, in
order), ``seconds`` (run units, cycling over the list, until this much
time has passed; the unit under way is finished; every execution or
figure is bracketed by speed probes, whose time is not counted), and
``trace`` (a path: instead run ``units`` once untraced, then once more
under the tracer, and write the Chrome trace there; no probes).
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
import time
from typing import Any, Callable

from repro.fuzz.pool import FuzzCampaign

from perfbench import peak_rss_mb, pins, speed
from perfbench.tracing import (
    TRACED_SPAN,
    UNTRACED_SPAN,
    Tracer,
    write_trace,
)

#: Workload name -> fuzz schedule.
FUZZ_SCHEDULES = {"fuzz-churn": "churn", "fuzz-hostile": "hostile"}


# -- fuzz ------------------------------------------------------------------


class CountingCampaign(FuzzCampaign):
    """A campaign that also counts the steps of every execution it folds
    (the fold sees every result, novel or not)."""

    steps_applied = 0

    def _fold(self, result: dict[str, Any]) -> None:
        self.steps_applied += len(result["run"]["steps"])
        super()._fold(result)


def run_campaign(
    schedule: str, seed: int, fuzz_pins: dict[str, Any],
    on_exec: Callable[[int], None] | None = None, probes: bool = False,
) -> dict[str, Any]:
    """One guided campaign; its wall, per-execution ms and summary.

    ``batch_size`` 1 makes the progress callback fire after every
    execution, which is what times executions one by one.  With
    ``probes``, a speed probe runs before the first execution and after
    each one (``probe_ms``, one more than ``exec_ms``), outside the
    timed intervals.
    """
    campaign = CountingCampaign(
        fuzz_pins["budget"],
        workers=1,
        steps=fuzz_pins["steps"],
        schedules=(schedule,),
        seed=seed,
        batch_size=fuzz_pins["batch_size"],
    )
    exec_ms: list[float] = []
    probe_ms = [speed.probe()] if probes else []
    mark = [time.perf_counter()]

    def progress(_line: str) -> None:
        exec_ms.append((time.perf_counter() - mark[0]) * 1e3)
        if probes:
            probe_ms.append(speed.probe())
        if on_exec is not None:
            on_exec(len(exec_ms))
        mark[0] = time.perf_counter()

    result = campaign.run(progress=progress)
    # After the last execution the campaign still distils its corpus.
    tail_ms = (time.perf_counter() - mark[0]) * 1e3
    return {
        "seed": seed,
        "wall_s": (sum(exec_ms) + tail_ms) / 1e3,
        "exec_ms": exec_ms,
        "tail_ms": tail_ms,
        "probe_ms": probe_ms,
        "novel": len(result.growth),
        "summary": pins.campaign_summary(result, campaign.steps_applied),
    }


def fuzz_units(
    schedule: str, seeds: list[int], fuzz_pins: dict[str, Any],
    tracer: Tracer | None = None, probes: bool = False,
) -> list[dict[str, Any]]:
    """Campaigns for ``seeds`` in order, each checked against its pin."""
    records = []
    for seed in seeds:
        on_exec = None
        if tracer is not None:
            tracer.op = f"{seed}:0"

            def on_exec(n: int, seed: int = seed) -> None:
                tracer.op = f"{seed}:{n}"

        record = run_campaign(schedule, seed, fuzz_pins, on_exec, probes)
        record["problems"] = pins.check_campaign(
            schedule, seed, record["summary"], fuzz_pins
        )
        records.append(record)
    return records


# -- paper figures -----------------------------------------------------------


def load_runner():
    """``benchmarks/runner.py`` as a module (it is not a package)."""
    path = pins.ROOT / "benchmarks" / "runner.py"
    spec = importlib.util.spec_from_file_location("bench_runner", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def figure_units(
    passes: list[list[str]], runner: Any, references: dict[str, Any],
    tracer: Tracer | None = None, pass_offset: int = 0, probes: bool = False,
) -> list[dict[str, Any]]:
    """Full-mode figure scenarios, pass by pass, each checked against
    the committed BENCH doc.  With ``probes``, each record also holds
    the speed probes (``probe_ms``) taken just before and after it."""
    records = []
    before = speed.probe() if probes else None
    for number, figures in enumerate(passes, start=pass_offset):
        for name in figures:
            if tracer is not None:
                tracer.op = f"{number}:{name}"
            t0 = time.perf_counter()
            doc = runner.run_scenario(name, quick=False)
            ms = (time.perf_counter() - t0) * 1e3
            records.append({
                "pass": number, "figure": name, "ms": ms,
                "problems": pins.check_figure(name, doc, references[name]),
            })
            if probes:
                after = speed.probe()
                records[-1]["probe_ms"] = [before, after]
                before = after
    return records


# -- the process -------------------------------------------------------------


class Workload:
    """Set-up and unit runner for one workload name."""

    def __init__(self, name: str) -> None:
        self.name = name
        if name in FUZZ_SCHEDULES:
            from repro.fuzz.engine import FuzzEngine

            self.schedule = FUZZ_SCHEDULES[name]
            self.fuzz_pins = pins.load()["fuzz"]
            # Warm-up: the first execution in a process runs ~25% slower
            # than later ones (2-core x86 host), which would otherwise
            # land on whichever campaign the seed orders first.
            FuzzEngine(seed=0, schedule=self.schedule).run(
                self.fuzz_pins["steps"]
            )
        elif name == "paper-figs":
            self.runner = load_runner()
            self.references = {
                fig: pins.figure_reference(fig) for fig in pins.FIGURES
            }
            self.runner.run_scenario(pins.FIGURES[0], quick=True)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_units(
        self, units: list[Any], tracer: Tracer | None = None, offset: int = 0,
        probes: bool = False,
    ) -> list[dict[str, Any]]:
        if self.name == "paper-figs":
            return figure_units(
                units, self.runner, self.references, tracer, offset, probes
            )
        return fuzz_units(
            self.schedule, units, self.fuzz_pins, tracer, probes
        )

    def run(self, job: dict[str, Any]) -> dict[str, Any]:
        units = job["units"]
        if job.get("trace"):
            return self._traced(units, job["trace"])
        records = []
        t0 = time.perf_counter()
        for offset, unit in enumerate(itertools.cycle(units)):
            records += self.run_units([unit], offset=offset, probes=True)
            if time.perf_counter() - t0 >= job["seconds"]:
                break
        return {
            "records": records,
            "wall_s": time.perf_counter() - t0,
            "peak_rss_mb": peak_rss_mb(),
        }

    def _traced(self, units: list[Any], path: str) -> dict[str, Any]:
        """``units`` untraced, then the same ``units`` traced."""
        tracer = Tracer()
        start = time.perf_counter_ns()
        records = self.run_units(units)
        tracer.bracket(UNTRACED_SPAN, start, time.perf_counter_ns())
        tracer.install()
        try:
            start = time.perf_counter_ns()
            traced = self.run_units(units, tracer)
            tracer.bracket(TRACED_SPAN, start, time.perf_counter_ns())
        finally:
            tracer.uninstall()
        totals = {"steps": 0, "executions": 0, "novel": 0}
        if self.name in FUZZ_SCHEDULES:
            totals = {
                "steps": sum(r["summary"]["steps_applied"] for r in traced),
                "executions": sum(r["summary"]["executions"] for r in traced),
                "novel": sum(r["novel"] for r in traced),
            }
        write_trace(tracer.chrome_trace({"workload": self.name, **totals}),
                    path)
        return {"records": records + traced, "peak_rss_mb": peak_rss_mb()}


def main(argv: list[str]) -> int:
    workload = Workload(argv[0])
    print(json.dumps({"ready": argv[0]}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        job = json.loads(line)
        if job.get("probe"):
            result = {"probe_ms": speed.probe()}
        else:
            result = workload.run(job)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
