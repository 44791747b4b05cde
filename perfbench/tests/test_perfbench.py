"""The benchmark's own checks: tracing stays out of untraced runs, traced
call counts repeat, and the output checks catch a perturbed pin."""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import pins, run, speed, tracing
from perfbench.work import Workload

PINS = pins.load()
CHURN_SEED = min(int(s) for s in PINS["fuzz"]["churn"])
SERVE_SEED = min(int(s) for s in PINS["serve"]["sessions"])


def _entry_point_objects():
    return [
        (label, holder, attr, getattr(holder, attr))
        for label, holder, attr in tracing.entry_points()
    ]


def _drive_session(seed: int, requests: int) -> str:
    """A served session driven in-process with the benchmark's mix."""
    from repro.serve.session import Session
    from perfbench.serve_load import RUN_CYCLES

    session = Session("s-test", "t", PINS["serve"]["scenario"], seed)
    for k in range(requests):
        mix = k % 4
        if mix == 0:
            session.step(2)
        elif mix == 1:
            session.advance(RUN_CYCLES)
        elif mix == 2:
            session.inspect()
        else:
            session.trace(cursor=0, limit=16)
    return session.inspect()["fingerprint"]


class TestUntracedIsUntouched:
    def test_untraced_work_runs_the_originals(self):
        before = _entry_point_objects()
        fuzz = Workload("fuzz-churn").run_units([CHURN_SEED], probes=True)
        figs = Workload("paper-figs").run_units([["fig3"]], probes=True)
        _drive_session(SERVE_SEED, 8)
        for label, holder, attr, original in before:
            assert getattr(holder, attr) is original, (label, attr)
        # One speed probe on either side of every timed op.
        assert len(fuzz[0]["probe_ms"]) == len(fuzz[0]["exec_ms"]) + 1
        assert [len(r["probe_ms"]) for r in figs] == [2]

    def test_uninstall_restores_every_entry_point(self):
        before = _entry_point_objects()
        own = [attr in vars(holder) for _, holder, attr, _ in before]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for label, holder, attr, original in before:
                assert getattr(holder, attr) is not original, (label, attr)
        finally:
            tracer.uninstall()
        for (label, holder, attr, original), was_own in zip(before, own):
            assert getattr(holder, attr) is original, (label, attr)
            assert (attr in vars(holder)) == was_own, (label, attr)


class TestTracedCallsRepeat:
    @pytest.mark.parametrize(
        "workload, units",
        [("fuzz-churn", [CHURN_SEED]), ("paper-figs", [["fig4", "fig3"]])],
    )
    def test_same_seed_same_calls(self, tmp_path, workload, units):
        calls = []
        for attempt in range(2):
            path = tmp_path / f"{attempt}.json"
            result = Workload(workload)._traced(units, str(path))
            assert not run.problems_of(result["records"])
            metrics = tracing.layer_metrics(json.loads(path.read_text()))
            calls.append(
                {k: v for k, v in metrics.items() if k.endswith(".calls")}
            )
        assert calls[0] == calls[1]
        assert calls[0]["serve.session.calls"] == 0
        if workload == "paper-figs":
            assert calls[0]["fuzz.oracles.calls"] == 0
            assert calls[0]["workloads.run.calls"] > 0
        else:
            assert calls[0]["workloads.run.calls"] == 0
            assert calls[0]["fuzz.oracles.calls"] > 0

    def test_trace_is_loadable_by_trace_analyze(self, tmp_path):
        from repro.obs.analyze import load_trace, rollups

        path = tmp_path / "t.json"
        Workload("paper-figs")._traced([["fig3"]], str(path))
        folded = rollups(load_trace(path))
        assert any(p.endswith(";workloads.run") for p in folded)


class TestChecksCatchPerturbation:
    def test_figure_row(self):
        reference = pins.figure_reference("fig4")
        doc = {"results": copy.deepcopy(reference["results"]),
               "sim_cycles": reference["sim_cycles"]}
        assert pins.check_figure("fig4", doc, reference) == []
        doc["results"][3]["attach_us"] += 0.001
        assert pins.check_figure("fig4", doc, reference)
        doc = dict(doc, results=reference["results"],
                   sim_cycles=reference["sim_cycles"] + 1)
        assert pins.check_figure("fig4", doc, reference)

    def test_campaign_summary(self):
        pinned = PINS["fuzz"]["churn"][str(CHURN_SEED)]
        assert pins.check_campaign("churn", CHURN_SEED, dict(pinned),
                                   PINS["fuzz"]) == []
        for key, bump in (("edges", 1), ("corpus", "x"), ("findings", 1)):
            summary = dict(pinned, **{key: pinned[key] + bump})
            assert pins.check_campaign("churn", CHURN_SEED, summary,
                                       PINS["fuzz"])

    def test_session_fingerprint(self):
        pinned = PINS["serve"]["sessions"][str(SERVE_SEED)]
        session = {"seed": SERVE_SEED, "errors": [], "fingerprint": pinned}
        assert run.session_fails([session], 125, PINS["serve"]) == (0, [])
        session["fingerprint"] = pinned[:-1] + "0"
        failed, problems = run.session_fails([session], 125, PINS["serve"])
        assert failed == 125 and problems

    def test_mismatch_fails_the_command(self, monkeypatch, capsys):
        metrics = {name: 1.0 for name in run.declared_metrics(0)}
        monkeypatch.setattr(run, "run_worker_workload", lambda args, units: {
            "metrics": metrics, "attempted": 16, "failed": 16,
            "problems": ["fig4: row 3 differs"], "samples": 0,
        })
        code = run.main(["--workload", "paper-figs", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert last["correct"] is False and last["failed"] == 16


def test_age_ratio_uses_first_and_last_tenth():
    spans = []
    for index in range(20):
        cost = 1_000_000 if index < 2 else 3_000_000
        spans.append((index, None, "fuzz.oracles", 0, cost, f"s-1:{index}"))
    doc = tracing.chrome_trace(spans, pid=1, tid=1, other={})
    ratio, first = tracing.age_ratio(doc, 20)
    assert ratio == pytest.approx(3.0) and first == pytest.approx(1.0)


def test_self_time_subtracts_children():
    spans = [
        (0, None, tracing.TRACED_SPAN, 0, 100, None),
        (1, None, "pisces.boot", 10, 60, None),
        (2, 1, "kitten.pt_map", 20, 50, None),
    ]
    doc = tracing.chrome_trace(spans, pid=1, tid=1, other={})
    m = tracing.layer_metrics(doc)
    assert m["pisces.boot.ms"] == pytest.approx(50e-6)
    assert m["pisces.boot.self_ms"] == pytest.approx(20e-6)
    assert m["pisces.boot.share"] == pytest.approx(0.5)
    assert m["kitten.pt_map.calls"] == 1


def test_normalise_rescales_to_the_reference_speed():
    ref = speed.REFERENCE_MS
    assert speed.normalise(10.0, ref, ref) == pytest.approx(10.0)
    assert speed.normalise(10.0, 2 * ref, 2 * ref) == pytest.approx(5.0)
    assert speed.normalise(10.0, ref, 3 * ref) == pytest.approx(5.0)
    assert speed.probe() > 0


def test_plan_is_a_function_of_the_seed():
    a = run.plan_units("fuzz-hostile", 7, PINS)
    assert a == run.plan_units("fuzz-hostile", 7, PINS)
    assert a != run.plan_units("fuzz-hostile", 8, PINS)
    assert sorted(a) == sorted(int(s) for s in PINS["fuzz"]["hostile"])
    assert run.plan_units("paper-figs", 3, PINS) != \
        run.plan_units("paper-figs", 4, PINS)


def test_merged_client_threads_get_their_own_tracks(tmp_path):
    from repro.obs.analyze import load_trace

    doc = tracing.chrome_trace([], pid=9, tid=9, other={})
    tracing.merge(doc, {
        "bench": [(0, None, tracing.TRACED_SPAN, 0, 1000, None)],
        "client-0": [(1, None, tracing.REQUEST_SPAN, 10, 900, "s-1:0")],
        "client-1": [(2, None, tracing.REQUEST_SPAN, 20, 30, "s-2:0")],
    })
    model = load_trace(tracing.write_trace(doc, tmp_path / "t.json"))
    roots = {track: [s.name for s in model.roots(track)]
             for track in ("bench", "client-0", "client-1")}
    assert roots == {"bench": [tracing.TRACED_SPAN],
                     "client-0": [tracing.REQUEST_SPAN],
                     "client-1": [tracing.REQUEST_SPAN]}
