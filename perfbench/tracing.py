"""Benchmark-owned host-time tracing.

A :class:`Tracer` replaces the public entry points of each simulator
layer (:data:`LAYERS`) with thin wrappers that record one span per call:
layer name, host start and end (``perf_counter_ns``), the enclosing
span, and the benchmark op the call belongs to.  Nothing under ``src/``
changes, and nothing is wrapped unless :meth:`Tracer.install` is called,
so an untraced run executes the original functions.

Spans stay in memory and are written once, at the end, as a Chrome-trace
document (``ph: "X"`` events, host time with ``otherData.cycles_per_us``
set to 1000 so one "cycle" reads as one nanosecond) that
``python -m repro trace-analyze`` loads.  :func:`layer_metrics` computes
the per-layer numbers from such a document.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Layer name -> the (module, class or None, attribute) entry points it
#: wraps.  ``None`` as the class wraps a module-level function.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "fuzz.campaign": [("repro.fuzz.pool", "FuzzCampaign", "run")],
    "fuzz.engine": [
        ("repro.fuzz.engine", "FuzzEngine", "run"),
        ("repro.fuzz.engine", "FuzzEngine", "replay"),
    ],
    "fuzz.oracles": [("repro.fuzz.oracles", "OraclePack", "check_all")],
    "vmx.ept_check": [
        ("repro.vmx.ept", "ExtendedPageTable", "check_invariants")
    ],
    "hw.owned_by": [("repro.hw.memory", "PhysicalMemory", "owned_by")],
    "pisces.boot": [("repro.pisces.kmod", "PiscesKmod", "boot_enclave")],
    "kitten.pt_map": [("repro.kitten.pagetable", "GuestPageTable", "map")],
    "vmx.ept_map": [("repro.vmx.ept", "ExtendedPageTable", "map_region")],
    "vmx.ept_unmap": [
        ("repro.vmx.ept", "ExtendedPageTable", "unmap_region")
    ],
    "core.exit_dispatch": [("repro.core.exits", None, "dispatch")],
    "core.mem_update": [
        ("repro.core.controller", "CovirtController", "issue_memory_update")
    ],
    "recovery.on_failure": [
        ("repro.hobbes.master", "MasterControlProcess", "enclave_failed")
    ],
    "xemem.ops": [
        ("repro.xemem.api", "XememService", name)
        for name in ("make", "attach", "detach", "remove")
    ],
    "workloads.run": [("repro.workloads.engine", "ExecutionEngine", "run")],
    "serve.session": [
        ("repro.serve.session", "Session", name)
        for name in ("step", "advance", "inspect", "trace")
    ],
}

#: Client-side span of one served request (``serve-aging`` only).
REQUEST_SPAN = "serve.request"

#: Entry points that are only counted (no span): too hot to time.
#: ``SpanTracer._closed`` is the one place every recorded simulator span
#: passes through.
COUNTED: dict[str, tuple[str, str | None, str]] = {
    "obs.spans": ("repro.obs.spans", "SpanTracer", "_closed"),
}

#: Benchmark-level spans that bracket the two halves of a traced run.
UNTRACED_SPAN = "bench.untraced"
TRACED_SPAN = "bench.traced"

def resolve(module: str, owner: str | None) -> Any:
    """The object holding a wrapped attribute (a class or a module)."""
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


def entry_points() -> list[tuple[str, Any, str]]:
    """Every ``(label, holder, attribute)`` a traced run replaces."""
    points = [
        (layer, resolve(module, owner), attr)
        for layer, targets in LAYERS.items()
        for module, owner, attr in targets
    ]
    points += [
        (label, resolve(module, owner), attr)
        for label, (module, owner, attr) in COUNTED.items()
    ]
    return points


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Not thread-safe by design: the traced code (a fuzz campaign, a
    figure scenario, the daemon's serve loop) runs on one thread.
    """

    def __init__(self, op_of: dict[str, Callable[..., Any]] | None = None):
        #: ``(span_id, parent_id, name, start_ns, end_ns, op)`` tuples.
        self.spans: list[tuple[int, int | None, str, int, int, Any]] = []
        self.counts: Counter[str] = Counter()
        #: The op new top-level spans belong to; workload code sets it.
        self.op: Any = None
        #: Layer -> ``f(*args)`` giving the op id of an outermost call.
        self._op_of = op_of or {}
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any, bool]] = []
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to record one span named ``name`` per call."""
        op_of = self._op_of.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None and op_of is not None:
                self.op = op_of(*args)
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent, name, start, end, self.op)
                )

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to count its calls under ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def bracket(self, name: str, start: int, end: int) -> None:
        """Record a span the caller timed itself (no wrapper)."""
        self.spans.append((self._next_id, None, name, start, end, None))
        self._next_id += 1

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        """Replace every entry point with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for label, holder, attr in entry_points():
            original = getattr(holder, attr)
            own = attr in vars(holder)
            wrap = self.counted if label in COUNTED else self.span
            self._saved.append((holder, attr, original, own))
            setattr(holder, attr, wrap(label, original))

    def uninstall(self) -> None:
        """Put every original back exactly as it was."""
        while self._saved:
            holder, attr, original, own = self._saved.pop()
            if own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)

    # -- export ----------------------------------------------------------

    def chrome_trace(self, other: dict[str, Any] | None = None) -> dict:
        """The spans as a Chrome-trace document."""
        return chrome_trace(
            self.spans, pid=self.pid, tid=self.tid,
            other={"counts": dict(self.counts), **(other or {})},
        )


def chrome_trace(
    spans: list[tuple[int, int | None, str, int, int, Any]],
    *,
    pid: int,
    tid: int,
    other: dict[str, Any],
) -> dict[str, Any]:
    """Chrome-trace JSON for host-time spans (``ts``/``dur`` in us).

    ``args.cycles`` carries the exact duration in ns and
    ``otherData.cycles_per_us`` is 1000, so ``repro trace-analyze``
    reports host nanoseconds where it would report simulated cycles.
    Events are emitted in start order, as its loader expects.
    """
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
         "args": {"name": f"host-{pid}"}},
    ]
    for span_id, parent, name, start, end, op in sorted(
        spans, key=lambda s: (s[3], -s[4])
    ):
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".")[0],
                "pid": pid,
                "tid": tid,
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {
                    "span": span_id, "parent": parent, "op": op,
                    "cycles": end - start,
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"cycles_per_us": 1000, "clock": "host_ns", **other},
    }


def write_trace(doc: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def merge(doc: dict[str, Any], tracks: dict[str, list[tuple]]) -> None:
    """Append the benchmark client's spans to ``doc`` under pid 0, one
    track (tid) per ``tracks`` key, named after it.  Spans of concurrent
    threads go on separate tracks, so ``repro trace-analyze``, which
    nests spans by containment within a track, never nests one in
    another."""
    for tid, (name, spans) in enumerate(tracks.items(), start=1):
        events = chrome_trace(spans, pid=0, tid=tid, other={})["traceEvents"]
        events[0]["args"]["name"] = name
        doc["traceEvents"].extend(events)


# -- rollup ----------------------------------------------------------------


def _spans_of(doc: dict[str, Any]) -> list[dict[str, Any]]:
    return [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]


def layer_metrics(doc: dict[str, Any]) -> dict[str, float]:
    """Per-layer ``calls``, ``ms`` (inclusive, outermost calls only, so
    recursion is not counted twice), ``self_ms`` (inclusive minus direct
    child spans) and ``share`` (ms over the traced wall)."""
    spans = _spans_of(doc)
    by_key = {(ev["pid"], ev["args"]["span"]): ev for ev in spans}
    child_ns: Counter = Counter()
    for ev in spans:
        parent = ev["args"]["parent"]
        if parent is not None:
            child_ns[(ev["pid"], parent)] += ev["args"]["cycles"]

    def nested_in_same_layer(ev: dict[str, Any]) -> bool:
        parent = ev["args"]["parent"]
        while parent is not None:
            up = by_key[(ev["pid"], parent)]
            if up["name"] == ev["name"]:
                return True
            parent = up["args"]["parent"]
        return False

    by_name: dict[str, list[dict[str, Any]]] = {}
    for ev in spans:
        by_name.setdefault(ev["name"], []).append(ev)
    walls = {name: by_name[name][0]["args"]["cycles"]
             for name in (UNTRACED_SPAN, TRACED_SPAN) if name in by_name}
    traced_ns = walls.get(TRACED_SPAN, 0)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = by_name.get(layer, [])
        total = sum(
            ev["args"]["cycles"] for ev in mine if not nested_in_same_layer(ev)
        )
        own = sum(
            ev["args"]["cycles"] - child_ns[(ev["pid"], ev["args"]["span"])]
            for ev in mine
        )
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.ms"] = total / 1e6
        out[f"{layer}.self_ms"] = own / 1e6
        out[f"{layer}.share"] = total / traced_ns if traced_ns else 0.0
    # What a client waits for beyond the session's own work: protocol,
    # JSON, sockets and scheduler queueing.
    requests = by_name.get(REQUEST_SPAN, [])
    overhead_ms = (
        sum(ev["args"]["cycles"] for ev in requests) / 1e6
        - out["serve.session.ms"]
    ) if requests else 0.0
    out["serve.overhead.calls"] = len(requests)
    out["serve.overhead.ms"] = overhead_ms
    out["serve.overhead.self_ms"] = overhead_ms
    out["serve.overhead.share"] = (
        overhead_ms * 1e6 / traced_ns if traced_ns else 0.0
    )
    untraced_ns = walls.get(UNTRACED_SPAN, 0)
    out["trace.untraced_s"] = untraced_ns / 1e9
    out["trace.overhead_ratio"] = (
        traced_ns / untraced_ns if untraced_ns else 0.0
    )
    return out


#: The layer whose per-call cost :func:`age_ratio` follows.
AGING_LAYER = "fuzz.oracles"


def age_ratio(doc: dict[str, Any], requests: int) -> tuple[float, float]:
    """``(last ÷ first, first)``: mean :data:`AGING_LAYER` call ms in the
    last tenth of each session's ``requests`` requests over the first
    tenth.

    Ops are ``"<session>:<request index>"``.  ``(0, 0)`` when there is
    no such call in either tenth.
    """
    tenth = requests // 10
    first: list[int] = []
    last: list[int] = []
    for ev in _spans_of(doc):
        op = ev["args"]["op"]
        if ev["name"] != AGING_LAYER or op is None:
            continue
        index = int(str(op).rpartition(":")[2])
        if index < tenth:
            first.append(ev["args"]["cycles"])
        elif requests - tenth <= index < requests:
            last.append(ev["args"]["cycles"])
    if not first or not last:
        return 0.0, 0.0
    first_ms = sum(first) / len(first) / 1e6
    last_ms = sum(last) / len(last) / 1e6
    return last_ms / first_ms, first_ms
