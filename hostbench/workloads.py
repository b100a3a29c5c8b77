"""The four benchmark workloads: set-up, one iteration, output checks.

Each workload has three parts, all run inside one iteration process:

* ``setup(seed)`` imports what the workload's entry point needs and
  builds its inputs; the benchmark's ``setup_s`` ends when it returns;
* ``run(inputs, workdir)`` is the timed iteration.  It returns the
  simulated outputs (plain JSON data, digested and checked) and the
  output-derived per-layer counts;
* ``check(outputs, seed, root)`` lists every way the outputs are wrong.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

#: The seed at which outputs must equal the committed baseline files.
DEFAULT_SEED = 0

#: ``tests/tune/test_estimator.py`` holds analytic == simulated to this.
ESTIMATE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


def _differences(name: str, got, expected) -> list[str]:
    if got == expected:
        return []
    if isinstance(got, dict) and isinstance(expected, dict):
        keys = sorted(set(got) | set(expected))
        return [
            f"{name}.{key}: {got.get(key)!r} != expected {expected.get(key)!r}"
            for key in keys if got.get(key) != expected.get(key)
        ]
    return [f"{name}: {got!r} != expected {expected!r}"]


# -- frontier-step -----------------------------------------------------------
FRONTIER_CASE = "orbit-113b-6144n"


def _frontier_setup(seed: int):
    from repro.bench.harness import FRONTIER_MATRIX, run_case

    (case,) = [c for c in FRONTIER_MATRIX if c.name == FRONTIER_CASE]
    return run_case, case


def _frontier_run(inputs, workdir: Path):
    run_case, case = inputs
    return {"record": run_case(case).as_dict()}, {}


def check_frontier(outputs: dict, baseline: dict) -> list[str]:
    """The record must equal the committed ``BENCH_obs.json`` entry."""
    expected = baseline["cases"].get(FRONTIER_CASE)
    if expected is None:
        return [f"{FRONTIER_CASE} missing from BENCH_obs.json"]
    return _differences(FRONTIER_CASE, outputs["record"], expected)


def _frontier_check(outputs, seed, root: Path):
    return check_frontier(outputs, json.loads((root / "BENCH_obs.json").read_text()))


# -- tune-sweep --------------------------------------------------------------
def _tune_setup(seed: int):
    from repro.models import PAPER_MODELS
    from repro.tune import TuneRequest, run_search

    request = TuneRequest(PAPER_MODELS["orbit-1b"], num_gpus=32,
                          micro_batches=(1, 2, 4), pp_sizes=(1, 2, 4))
    return run_search, request


def _tune_run(inputs, workdir: Path):
    run_search, request = inputs
    # No cache file: every iteration pays for its own validation steps.
    result = run_search(request, top_k=3, cache=None)
    outputs = {
        "candidates": len(result.space.candidates),
        "rejections": len(result.space.rejections),
        "ranked": [
            [s.candidate.label(), s.estimate.step_time_s,
             s.estimate.peak_memory_bytes]
            for s in result.ranked
        ],
        "oom_pruned": [s.candidate.label() for s in result.oom_pruned],
        "validated": [
            {"label": s.candidate.label(),
             "analytic_step_time_s": s.estimate.step_time_s,
             "simulated": s.simulated}
            for s in result.validated
        ],
        "winner": result.winner.candidate.label(),
    }
    return outputs, {}


def check_tune(outputs: dict) -> list[str]:
    """Validated candidates: analytic step time == simulated (rel 1e-9)."""
    problems = []
    if not outputs["validated"]:
        problems.append("tune-sweep validated no candidate")
    for entry in outputs["validated"]:
        analytic = entry["analytic_step_time_s"]
        simulated = entry["simulated"]["step_time_s"]
        if abs(analytic - simulated) > ESTIMATE_REL_TOL * abs(simulated):
            problems.append(
                f"{entry['label']}: analytic {analytic!r} != simulated "
                f"{simulated!r} (rel tol {ESTIMATE_REL_TOL})"
            )
    return problems


def _tune_check(outputs, seed, root: Path):
    return check_tune(outputs)


# -- replan-demo -------------------------------------------------------------
def _replan_setup(seed: int):
    from repro.faults import Supervisor
    from repro.obs import RunMonitor
    from repro.replan.scenario import demo_config, demo_plan
    from repro.runtime import RunSpec

    # The `repro replan` defaults, as cli.py builds them.
    spec = RunSpec(
        config=demo_config(), num_gpus=16, gpus_per_node=8, tp_size=4,
        fsdp_size=2, ddp_size=2, micro_batch=8, recompute=True, meta=True,
        monitor="on", replan="on", num_steps=16, track_device_memory=False,
    )
    return Supervisor, RunMonitor, spec, demo_plan()


def _replan_run(inputs, workdir: Path):
    Supervisor, RunMonitor, spec, plan = inputs
    monitor = RunMonitor()
    supervisor = Supervisor(
        spec, plan, checkpoint_every=4, checkpoint_dir=workdir,
        degradation_aware=True, checkpoint_cost_s=0.005,
        restart_latency_s=0.01, replan_warmup_s=0.005,
        replan_hysteresis=0.25, session_kwargs={"monitor": monitor},
    )
    report = supervisor.run(16)
    events = [event.as_dict() for event in monitor.journal.events]
    outputs = {"report": report.as_dict(), "journal": events}
    switches = sum(1 for e in events
                   if e["kind"] == "replan" and e["category"] == "switch")
    facts = {
        "replan.switches": switches,
        "faults.recovered": sum(1 for e in report.events
                                if e.action != "unrecovered"),
        "faults.unrecovered": len(report.unrecovered),
    }
    return outputs, facts


def check_replan(outputs: dict) -> list[str]:
    """Exactly one plan switch is journaled and no fault is unrecovered."""
    problems = []
    switches = [e for e in outputs["journal"]
                if e["kind"] == "replan" and e["category"] == "switch"]
    if len(switches) != 1:
        problems.append(f"replan-demo journaled {len(switches)} switches, expected 1")
    if outputs["report"]["unrecovered"]:
        problems.append(f"unrecovered faults: {outputs['report']['unrecovered']}")
    return problems


def _replan_check(outputs, seed, root: Path):
    return check_replan(outputs)


# -- serve-matrix ------------------------------------------------------------
def _serve_setup(seed: int):
    from repro.serve.bench import DEFAULT_MATRIX, run_serve_matrix

    cases = tuple(replace(case, load=replace(case.load, seed=seed))
                  for case in DEFAULT_MATRIX)
    return run_serve_matrix, cases


def _serve_run(inputs, workdir: Path):
    run_serve_matrix, cases = inputs
    records = run_serve_matrix(cases)
    facts = {
        f"serve.requests.{key}": sum(r[key] for r in records.values())
        for key in ("offered", "completed", "rejected")
    }
    return {"records": records}, facts


def check_serve(outputs: dict, seed: int, baseline: dict) -> list[str]:
    """Every request completes or is rejected; at the default seed the
    records equal the committed ``BENCH_serve.json`` cases."""
    problems = []
    for name, record in sorted(outputs["records"].items()):
        if record["completed"] + record["rejected"] != record["offered"]:
            problems.append(
                f"{name}: completed {record['completed']} + rejected "
                f"{record['rejected']} != offered {record['offered']}"
            )
    if seed == DEFAULT_SEED:
        # JSON round trip: the committed file holds lists, not tuples.
        got = json.loads(json.dumps(outputs["records"]))
        expected = baseline["cases"]
        for name in sorted(set(got) | set(expected)):
            problems += _differences(name, got.get(name), expected.get(name))
    return problems


def _serve_check(outputs, seed, root: Path):
    return check_serve(outputs, seed,
                       json.loads((root / "BENCH_serve.json").read_text()))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("frontier-step", _frontier_setup, _frontier_run, _frontier_check),
        Workload("tune-sweep", _tune_setup, _tune_run, _tune_check),
        Workload("replan-demo", _replan_setup, _replan_run, _replan_check),
        Workload("serve-matrix", _serve_setup, _serve_run, _serve_check),
    )
}
