"""The ``serve-aging`` workload: a daemon launcher and a closed-loop
client.

``python3 -m perfbench.serve_load [--trace PATH]`` boots a
:class:`~repro.serve.daemon.ServeDaemon` on an ephemeral localhost TCP
port, prints ``{"endpoint": ...}`` and serves until a ``shutdown``
request.  Each ``probe`` line on its stdin runs a speed probe
(:mod:`perfbench.speed`) in the daemon's process and prints
``{"probe_ms": ...}``; the parent asks only while no request is in
flight.  With ``--trace`` it first installs the benchmark's layer
wrappers, so ``Session`` calls are timed daemon-side; it writes the
Chrome trace to ``PATH`` on the way out.  Its last line is
``{"peak_rss_mb": ...}``.

:func:`drive_round` is the load: one thread and one connection per
session, each launching its session and then issuing a fixed number of
requests back to back (a closed loop), repeating the step(2) /
run(20 M cycles) / inspect / trace(limit 16) mix.  Per-request cost
grows with session age, so the load is a fixed request count per
session, never a fixed duration.  Every :data:`SEGMENT` requests (one
turn of the mix) the sessions meet at a barrier, where the daemon is
idle and can be probed for the host's speed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from typing import Any, Callable

from perfbench import ROOT, child_env, peak_rss_mb, speed
from perfbench.tracing import Tracer, write_trace

#: Simulated cycles per ``session.run`` request.
RUN_CYCLES = 20_000_000
#: Error codes that mean admission control shed the request.
SHED_CODES = ("busy", "quota")
#: Seconds a daemon gets to come up or to go away.
DAEMON_TIMEOUT = 60
#: Requests per session between two barriers of a round.  Probing
#: after every turn of the mix tracked the host's drift best: ops_per_s
#: spread 0.05 (six seeds), against 0.08 (six seeds) with 25 requests
#: between barriers and 0.14 (ten seeds) with probes only between rounds.
SEGMENT = 4


def _request(client, session_id: str, k: int) -> None:
    """Request ``k`` of the repeating mix."""
    mix = k % 4
    if mix == 0:
        client.step(session_id, steps=2)
    elif mix == 1:
        client.run(session_id, cycles=RUN_CYCLES)
    elif mix == 2:
        client.inspect(session_id)
    else:
        client.trace(session_id, cursor=0, limit=16)


def _session_worker(
    endpoint: str, tenant: str, seed: int, requests: int, scenario: str,
    sync: threading.Barrier, out: dict[str, Any],
) -> None:
    from repro.serve.client import ServeClient
    from repro.serve.protocol import ServeError

    spans: list[tuple[int, int, int]] = []
    out.update(seed=seed, spans=spans, errors=[], shed=0)
    try:
        with ServeClient(endpoint, tenant=tenant) as client:
            sid = client.launch(scenario=scenario, seed=seed)["session_id"]
            out["session_id"] = sid
            for k in range(requests):
                if k % SEGMENT == 0:
                    sync.wait()
                t0 = time.perf_counter_ns()
                try:
                    _request(client, sid, k)
                except ServeError as err:
                    out["errors"].append(f"request {k}: {err}")
                    out["shed"] += err.code in SHED_CODES
                spans.append((k, t0, time.perf_counter_ns()))
            final = client.inspect(sid)
            out["fingerprint"] = final["fingerprint"]
            out["parked"] = final["state"] == "parked"
            out["steps_applied"] = client.kill(sid)["steps_applied"]
    except Exception as exc:  # noqa: BLE001 - reported as a failed session
        sync.abort()
        out["errors"].append(f"{type(exc).__name__}: {exc}")


def drive_round(
    endpoint: str, seeds: list[int], requests: int, scenario: str,
    probe: Callable[[], float] | None = None,
) -> dict[str, Any]:
    """One session per seed, driven concurrently; returns each
    session's request spans, final fingerprint and errors.

    With ``probe``, it is called at each barrier (after the launches and
    between segments) and once after the last reply, and its readings
    are returned as ``probe_ms``: segment ``j`` (requests ``j * SEGMENT``
    onwards) lies between readings ``j`` and ``j + 1``.
    """
    probes: list[float] = []

    def mark() -> None:
        if probe is not None:
            probes.append(probe())

    sync = threading.Barrier(len(seeds), action=mark, timeout=DAEMON_TIMEOUT)
    sessions: list[dict[str, Any]] = [{} for _ in seeds]
    threads = [
        threading.Thread(
            target=_session_worker,
            args=(endpoint, f"bench-{i}", seed, requests, scenario, sync,
                  sessions[i]),
        )
        for i, seed in enumerate(seeds)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    mark()
    return {"sessions": sessions, "probe_ms": probes}


def launch_probe(endpoint: str, seeds: list[int], scenario: str) -> None:
    """Launch one session per seed, take one step of the request mix in
    each (which also warms the daemon's request path), and kill them:
    the set-up a client pays before its first timed request."""
    from repro.serve.client import ServeClient

    for i, seed in enumerate(seeds):
        with ServeClient(endpoint, tenant=f"bench-{i}") as client:
            sid = client.launch(scenario=scenario, seed=seed)["session_id"]
            _request(client, sid, 0)
            client.kill(sid)


class DaemonProcess:
    """A daemon launcher child process; ``endpoint`` once started."""

    def __init__(self, trace: str | None = None) -> None:
        cmd = [sys.executable, "-m", "perfbench.serve_load"]
        if trace:
            cmd += ["--trace", trace]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("serve daemon exited before listening")
        self.endpoint = json.loads(line)["endpoint"]
        self.peak_rss_mb = 0.0

    def probe(self) -> float:
        """A speed probe run in the daemon's process, in ms."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["probe_ms"]

    def close(self) -> None:
        """Ask the daemon to shut down, then reap it (forcibly if it
        does not go)."""
        from repro.serve.client import ServeClient

        if self.proc.poll() is None and getattr(self, "endpoint", None):
            try:
                with ServeClient(self.endpoint, timeout=DAEMON_TIMEOUT) as c:
                    c.shutdown()
            except OSError:
                pass
        try:
            out, _ = self.proc.communicate(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in (out or "").splitlines():
            if line.startswith("{"):
                self.peak_rss_mb = json.loads(line).get(
                    "peak_rss_mb", self.peak_rss_mb
                )

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _answer_probes() -> None:
    for line in sys.stdin:
        if line.strip() == "probe":
            print(json.dumps({"probe_ms": speed.probe()}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serve-aging daemon")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    from repro.serve.daemon import ServeDaemon

    tracer = None
    if args.trace:
        served: dict[str, int] = {}

        def session_op(session, *_args) -> str:
            index = served.get(session.session_id, 0)
            served[session.session_id] = index + 1
            return f"{session.session_id}:{index}"

        tracer = Tracer(op_of={"serve.session": session_op})
        tracer.install()
    daemon = ServeDaemon(tcp=("127.0.0.1", 0))
    print(json.dumps({"endpoint": daemon.endpoint}), flush=True)
    threading.Thread(target=_answer_probes, daemon=True).start()
    try:
        daemon.serve_forever()
    finally:
        if tracer is not None:
            tracer.uninstall()
            write_trace(tracer.chrome_trace(), args.trace)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
