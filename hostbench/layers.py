"""Which entry points of each layer the traced run wraps, and the
per-layer metrics it reports.

Every probe is installed from outside the program, by replacing a class
attribute or a module-level function (and each ``from ... import``
binding of it) with a wrapper from :mod:`tracing`.  Nothing under
``src/`` knows it is being traced.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

#: Probe kinds: a kept span, a timed span not kept one by one, a counter.
SPAN, FINE, COUNT = "span", "fine", "count"


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["runtime.checkpoint_save.bytes"] += Path(result).stat().st_size


def _concat_parts(counts, args, kwargs, result):
    parts = args[0] if args else kwargs["parts"]
    counts["nn.concat.parts"] += len(parts)


def _candidates(counts, args, kwargs, result):
    counts["tune.candidates"] += len(result.candidates)


def _cache_lookup(counts, args, kwargs, result):
    counts["serve.cache.lookups"] += 1
    counts["serve.cache.hits"] += bool(result[2])


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``module:Class.attr`` or ``module:func``."""

    name: str
    target: str
    kind: str = SPAN
    tally: object = None


_COST = "repro.cluster.costmodel:CollectiveCostModel."
_TIMELINE = "repro.cluster.timeline:Timeline."
_MONITOR = "repro.obs.monitor:RunMonitor."
_SESSION = "repro.runtime.session:Session."
_ENGINE = "repro.parallel.engine:HybridSTOPEngine."

PROBES: tuple[Probe, ...] = (
    Probe("runtime.session_build", _SESSION + "__init__"),
    Probe("runtime.step", _SESSION + "meta_step"),
    Probe("runtime.step", _SESSION + "numeric_step"),
    Probe("runtime.checkpoint_save", _SESSION + "save_meta", tally=_checkpoint_bytes),
    Probe("runtime.checkpoint_save", _SESSION + "save", tally=_checkpoint_bytes),
    Probe("runtime.checkpoint_resume", _SESSION + "resume_meta"),
    Probe("runtime.checkpoint_resume", _SESSION + "resume"),
    Probe("runtime.checkpoint_resume", _SESSION + "resume_elastic"),
    Probe("parallel.engine_build", _ENGINE + "__init__"),
    Probe("parallel.forward", _ENGINE + "forward"),
    Probe("parallel.backward", _ENGINE + "backward"),
    Probe("parallel.grad_sync", _ENGINE + "allreduce_gradients"),
    Probe("core.sharded_param", "repro.core.sharding:ShardedParameter.__init__"),
    Probe("core.gather_param", "repro.core.fsdp_ops:gather_param"),
    Probe("core.reduce_scatter_grads", "repro.core.fsdp_ops:reduce_scatter_grads"),
    Probe("nn.concat", "repro.nn.ops:concat", FINE, _concat_parts),
    Probe("meta.array.constructed", "repro.meta:MetaArray.__init__", COUNT),
    Probe("cluster.effective_bandwidth",
          "repro.cluster.topology:FrontierTopology.effective_bandwidth", FINE),
    Probe("cluster.node_of.calls", "repro.cluster.topology:FrontierTopology.node_of",
          COUNT),
    *(Probe("cluster.cost", _COST + op, FINE) for op in (
        "all_gather", "reduce_scatter", "all_reduce", "broadcast", "gather",
        "scatter", "all_to_all", "hierarchical_all_reduce", "point_to_point")),
    *(Probe("cluster.timeline", _TIMELINE + op, FINE)
      for op in ("record_compute", "record_comm", "record_free")),
    Probe("memory.allocate.calls", "repro.memory.tracker:MemoryTracker.allocate", COUNT),
    Probe("obs.critical_path", "repro.obs.critical_path:analyze_trace"),
    Probe("obs.spans", "repro.obs.tracer:Tracer.span", COUNT),
    *(Probe("obs.monitor", _MONITOR + hook) for hook in (
        "attach_session", "on_step_start", "on_step_end", "on_loss",
        "on_checkpoint", "on_health", "observe_gauges", "record_fold",
        "record_checkpoint", "record_recovery", "record_replan", "record_run")),
    Probe("obs.journal.events", "repro.obs.journal:EventJournal.append", COUNT),
    Probe("tune.enumerate", "repro.tune.space:enumerate_space", tally=_candidates),
    Probe("tune.estimate", "repro.tune.estimator:AnalyticEstimator.estimate"),
    Probe("tune.validate", "repro.tune.search:simulate_candidate"),
    Probe("replan.evaluate", "repro.replan.controller:ReplanController.evaluate"),
    Probe("faults.supervisor", "repro.faults.supervisor:Supervisor.run"),
    Probe("serve.cache.forecast", "repro.serve.cache:RolloutPrefixCache.forecast",
          tally=_cache_lookup),
    Probe("serve.rollout.advance", "repro.eval.rollout:RolloutForecaster.advance"),
    Probe("serve.rollout.initial_state",
          "repro.eval.rollout:RolloutForecaster.initial_state"),
    Probe("serve.loop", "repro.serve.clock:EventLoop.run_next"),
    Probe("serve.replica.batches", "repro.serve.replica:Replica.begin_batch", COUNT),
)


def _subclasses(cls):
    stack, seen = [cls], []
    while stack:
        klass = stack.pop()
        seen.append(klass)
        stack.extend(klass.__subclasses__())
    return seen


def install(recorder) -> None:
    """Wrap every probe's entry point in ``recorder`` spans or counters.

    Class attributes are wrapped on the class and on every subclass that
    overrides them.  Module functions are replaced in their module and in
    every loaded ``repro`` module that bound them by ``from ... import``;
    modules imported later bind the wrapper.
    """
    for probe in PROBES:
        module_name, path = probe.target.split(":")
        module = importlib.import_module(module_name)

        def wrap(fn, probe=probe):
            if probe.kind == COUNT:
                return recorder.counter(probe.name, fn)
            return recorder.span(probe.name, fn, probe.tally,
                                 keep=probe.kind == SPAN)

        if "." in path:
            class_name, attr = path.split(".")
            base = getattr(module, class_name)
            if attr not in vars(base):
                raise AttributeError(f"probe {probe.name}: {probe.target} not found")
            for klass in _subclasses(base):
                if attr in vars(klass):
                    setattr(klass, attr, wrap(vars(klass)[attr]))
        else:
            original = getattr(module, path)
            wrapped = wrap(original)
            for name, loaded in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)


@dataclass(frozen=True)
class Layer:
    """One row of the prediction table: a layer's metrics, the workloads
    where a faster layer should move ``wall_s``, and where it should not."""

    name: str
    metrics: tuple[str, ...]
    moves: str
    unchanged: str


LAYERS: tuple[Layer, ...] = (
    Layer("runtime", (
        "runtime.session_build.calls", "runtime.session_build.self_s",
        "runtime.step.calls", "runtime.step.self_s",
        "runtime.checkpoint_save.calls", "runtime.checkpoint_save.self_s",
        "runtime.checkpoint_save.bytes",
        "runtime.checkpoint_resume.calls", "runtime.checkpoint_resume.self_s",
    ), "frontier-step (build); replan-demo (rebuild, checkpoint I/O)",
        "serve-matrix"),
    Layer("parallel", (
        "parallel.engine_build.self_s", "parallel.forward.self_s",
        "parallel.backward.self_s", "parallel.grad_sync.self_s",
    ), "frontier-step, replan-demo", "serve-matrix"),
    Layer("core", (
        "core.sharded_param.calls", "core.sharded_param.self_s",
        "core.gather_param.calls", "core.gather_param.self_s",
        "core.reduce_scatter_grads.calls", "core.reduce_scatter_grads.self_s",
    ), "frontier-step (engine construction), tune-sweep", "serve-matrix"),
    Layer("nn / meta", (
        "nn.concat.calls", "nn.concat.parts", "nn.concat.self_s",
        "meta.array.constructed",
    ), "tune-sweep, then frontier-step", "serve-matrix"),
    Layer("cluster", (
        "cluster.effective_bandwidth.calls", "cluster.effective_bandwidth.self_s",
        "cluster.node_of.calls", "cluster.cost.calls", "cluster.cost.self_s",
        "cluster.timeline.events", "cluster.timeline.self_s",
        "cluster.host_us_per_event",
    ), "frontier-step (large groups)",
        "tune-sweep and replan-demo (at most 32-rank groups), serve-matrix"),
    Layer("memory", ("memory.allocate.calls",), "frontier-step", "serve-matrix"),
    Layer("obs", (
        "obs.critical_path.self_s", "obs.spans", "obs.monitor.self_s",
        "obs.journal.events",
    ), "frontier-step (analysis), replan-demo (monitor)", "serve-matrix"),
    Layer("tune", (
        "tune.candidates", "tune.enumerate.self_s",
        "tune.estimate.calls", "tune.estimate.self_s",
        "tune.validate.calls", "tune.validate.self_s",
    ), "tune-sweep; replan-demo (re-pricing)", "frontier-step, serve-matrix"),
    Layer("replan / faults", (
        "replan.evaluate.calls", "replan.evaluate.self_s", "replan.switches",
        "faults.supervisor.self_s", "faults.recovered", "faults.unrecovered",
    ), "replan-demo", "all others"),
    Layer("serve / eval", (
        "serve.requests.offered", "serve.requests.completed",
        "serve.requests.rejected", "serve.cache.hit_ratio",
        "serve.cache.forecast.calls", "serve.cache.forecast.self_s",
        "serve.rollout.advance.calls", "serve.rollout.advance.self_s",
        "serve.rollout.initial_state.calls", "serve.rollout.initial_state.self_s",
        "serve.loop.events", "serve.loop.self_s", "serve.replica.batches",
    ), "serve-matrix", "all meta workloads"),
    Layer("trace", ("trace.unattributed_s", "trace.overhead_s"),
          "every workload (top-level self time; tracing cost)", "-"),
)

#: Metrics whose raw value has another name in the recorder.
_SOURCES = {
    "cluster.timeline.events": "cluster.timeline.calls",
    "serve.loop.events": "serve.loop.calls",
}
_UNITS = {
    "runtime.checkpoint_save.bytes": "B",
    "cluster.host_us_per_event": "us",
    "serve.cache.hit_ratio": "ratio",
}
_HIGHER = {
    "serve.cache.hit_ratio", "serve.requests.offered",
    "serve.requests.completed", "faults.recovered",
}


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    out = []
    for layer in LAYERS:
        for name in layer.metrics:
            unit = _UNITS.get(name, "s" if name.endswith("_s") else "count")
            better = "higher" if name in _HIGHER else "lower"
            out.append({"name": name, "unit": unit, "better": better})
    return out


def layer_values(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the traced iteration's raw tallies.

    ``trace.overhead_s`` and ``cluster.host_us_per_event`` need the
    untraced iteration too and are filled in by the caller.
    """
    values = {}
    for metric in per_layer_metrics():
        name = metric["name"]
        values[name] = raw.get(_SOURCES.get(name, name), 0)
    lookups = raw.get("serve.cache.lookups", 0)
    values["serve.cache.hit_ratio"] = (
        raw.get("serve.cache.hits", 0) / lookups if lookups else 0.0
    )
    return values
