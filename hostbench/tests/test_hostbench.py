"""Tests of the benchmark's own code (no workload is run).

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYERS, per_layer_metrics  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import (  # noqa: E402
    FRONTIER_CASE,
    check_frontier,
    check_replan,
    check_serve,
    check_tune,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


# -- output checks -----------------------------------------------------------
def test_frontier_check_accepts_committed_record_and_rejects_perturbed():
    baseline = _load("BENCH_obs.json")
    record = copy.deepcopy(baseline["cases"][FRONTIER_CASE])
    assert check_frontier({"record": record}, baseline) == []
    record["step_time_s"] = record["step_time_s"] * (1 + 1e-15) + 1e-12
    problems = check_frontier({"record": record}, baseline)
    assert len(problems) == 1 and "step_time_s" in problems[0]


def test_serve_check_accepts_committed_records_and_rejects_perturbed():
    baseline = _load("BENCH_serve.json")
    records = copy.deepcopy(baseline["cases"])
    assert check_serve({"records": records}, 0, baseline) == []
    records["hot-25rps"]["latency_p99_s"] += 1e-12
    assert check_serve({"records": records}, 0, baseline)
    # Off the default seed only the request accounting is checked...
    assert check_serve({"records": records}, 3, baseline) == []
    # ...and it catches a request that neither completed nor was rejected.
    records["surge-800rps"]["rejected"] -= 1
    problems = check_serve({"records": records}, 3, baseline)
    assert len(problems) == 1 and "surge-800rps" in problems[0]


def test_tune_check_holds_analytic_to_simulated_within_1e_9():
    def outputs(analytic, simulated):
        return {"validated": [{"label": "tp1.f1.d32.mb4",
                               "analytic_step_time_s": analytic,
                               "simulated": {"step_time_s": simulated}}]}

    assert check_tune(outputs(9.0, 9.0)) == []
    assert check_tune(outputs(9.0 * (1 + 5e-10), 9.0)) == []
    assert check_tune(outputs(9.0 * (1 + 2e-9), 9.0))
    assert check_tune({"validated": []})


def test_replan_check_needs_one_switch_and_no_unrecovered_fault():
    switch = {"kind": "replan", "category": "switch"}
    decision = {"kind": "replan", "category": "decision"}
    good = {"journal": [decision, switch], "report": {"unrecovered": []}}
    assert check_replan(good) == []
    assert check_replan(dict(good, journal=[decision]))
    assert check_replan(dict(good, journal=[switch, switch]))
    assert check_replan(dict(good, report={"unrecovered": ["crash@3"]}))


# -- tracing -----------------------------------------------------------------
def _scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_on_hand_built_nested_tree():
    # workload [0, 10]
    #   a [1, 4]
    #     b [2, 3]
    #   a [5, 9]
    #     c [6, 6.5]
    #     c [7, 8]
    recorder = Recorder(clock=_scripted_clock(
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 8.0, 9.0, 10.0]))
    a = recorder.span("a", lambda children: [child() for child in children])
    b = recorder.span("b", lambda: None)
    c = recorder.span("c", lambda: None, keep=False)
    with recorder.root("workload"):
        a([b])
        a([c, c])
    totals = {name: (calls, own) for name, (calls, own) in recorder.totals.items()}
    assert totals == {
        "workload": (1, pytest.approx(10.0 - 3.0 - 4.0)),
        "a": (2, pytest.approx((3.0 - 1.0) + (4.0 - 0.5 - 1.0))),
        "b": (1, pytest.approx(1.0)),
        "c": (2, pytest.approx(1.5)),
    }
    # Fine-grained spans are timed but not kept one by one.
    assert sorted(recorder.spans) == [
        ("a", 1.0, 4.0), ("a", 5.0, 9.0), ("b", 2.0, 3.0),
        ("workload", 0.0, 10.0)]


def test_recorder_counters_tallies_and_same_name_passthrough():
    recorder = Recorder()

    def leaf(n):
        return n

    def tally(counts, args, kwargs, result):
        counts["leaf.total"] += result

    leaf_span = recorder.span("leaf", leaf, tally)
    hot = recorder.counter("hot.calls", leaf)

    def outer(n):
        return sum(leaf_span(i) + hot(0) for i in range(n))

    reentrant = recorder.span("outer", recorder.span("outer", outer))
    with recorder.root("workload"):
        assert reentrant(4) == 6
    assert recorder.totals["outer"][0] == 1
    assert recorder.totals["leaf"][0] == 4
    assert recorder.counts["hot.calls"] == 4
    assert recorder.counts["leaf.total"] == 6
    own = sum(total[1] for total in recorder.totals.values())
    ((_, start, end),) = [s for s in recorder.spans if s[0] == "workload"]
    assert own == pytest.approx(end - start)


def test_chrome_trace_is_valid_json(tmp_path):
    from tracing import write_chrome_trace

    spans = [("cluster.cost", 1.25, 1.5), ("workload", 1.0, 2.0)]
    path = write_chrome_trace(spans, tmp_path / "t.json", "hostbench test")
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in complete] == [
        ("workload", 0.0, 1e6), ("cluster.cost", 2.5e5, 2.5e5)]


def test_every_probe_resolves_against_the_program():
    code = ("import layers, tracing; layers.install(tracing.Recorder()); "
            "print('ok')")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# -- metric names and units --------------------------------------------------
def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = _load("BENCHMARK.json")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    listed = [name for layer in LAYERS for name in layer.metrics]
    assert len(listed) == len(set(listed))


def test_every_metric_name_is_well_formed_and_printed_with_a_unit():
    spec = _load("BENCHMARK.json")
    for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for metric in metrics:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric
        summary = {"values": {m["name"]: [1.0, 2.0] for m in metrics},
                   "problems": []}
        out = io.StringIO()
        with redirect_stdout(out):
            printed = run.report(summary, traced)
        lines = out.getvalue().splitlines()
        assert len(lines) == len(metrics)
        for metric, line in zip(metrics, lines):
            assert line.split()[:3] == [metric["name"], "1.500000", metric["unit"]]
            assert "n=2" in line
            assert printed[metric["name"]] == {"value": 1.5, "unit": metric["unit"]}


def test_outside_a_checkout_it_fails_without_printing_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing" in proc.stderr


def test_an_iteration_past_the_workload_deadline_is_killed_and_fails():
    launcher = run.Launcher(ROOT)
    launcher.deadline = 0.0
    sample = launcher.iteration("serve-matrix", 0, "run")
    assert sample.duration < 30
    assert not sample.passed
    assert "workload deadline" in sample.problems[-1]
