"""Run one fully-traced Hybrid-STOP training step.

The driver behind the ``repro trace`` CLI subcommand and the invariant
test suite: it stands up a traced virtual cluster (default two
Frontier nodes, 16 GCDs), runs a single optimizer step of a tiny ORBIT
model under the full hierarchical engine, folds the cluster state into
the metrics registry, and optionally writes the Chrome trace and the
plain-text step report.

Everything is seeded, so two captures with the same arguments produce
identical span lists — the traces are test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.obs.export import write_chrome_trace, write_step_report, write_trace_events
from repro.obs.tracer import Tracer
from repro.obs import analysis

#: Tiny model used for traced demo steps (runs real numerics in ~seconds).
TRACE_CONFIG_KWARGS = dict(
    embed_dim=16,
    depth=2,
    num_heads=4,
    in_vars=3,
    out_vars=2,
    img_height=8,
    img_width=8,
    patch_size=4,
)


@dataclass
class TraceRun:
    """Everything a caller needs to inspect a traced step."""

    cluster: object
    plan: object
    tracer: Tracer
    loss: float
    walltime_s: float
    files: dict[str, Path] = field(default_factory=dict)
    #: The session's monitor handle (NULL_MONITOR when telemetry is off).
    monitor: object = None


def run_traced_step(
    num_gpus: int = 16,
    gpus_per_node: int = 8,
    tp_size: int = 4,
    fsdp_size: int = 2,
    ddp_size: int = 2,
    micro_batch: int = 2,
    seed: int = 0,
    prefetch: bool = True,
    layer_wrapping: bool = True,
    num_steps: int = 1,
    compute_skew: Mapping[int, float] | None = None,
    fold: str = "off",
    monitor: str = "off",
    out_dir=None,
) -> TraceRun:
    """``num_steps`` traced optimizer steps of the hierarchical engine.

    ``tp_size * fsdp_size * ddp_size`` must equal ``num_gpus``.  When
    ``out_dir`` is given, writes ``trace.json`` (Chrome trace),
    ``trace_events.json`` (raw spans, loadable by
    :func:`~repro.obs.export.load_trace_events`) and ``report.txt``
    (per-step report) into it.  ``compute_skew`` maps ranks to
    slowdown multipliers (straggler injection via
    :class:`~repro.faults.degradation.SkewedCompute`).  ``fold`` is the
    rank-symmetry policy; traced steps run real numerics, so folding
    silently stays in exact mode — the knob is threaded through for
    spec fidelity.
    """
    # Deferred: repro.obs's package __init__ imports this module.
    from repro.models import OrbitConfig
    from repro.runtime import RunSpec

    spec = RunSpec(
        config=OrbitConfig("trace-tiny", **TRACE_CONFIG_KWARGS),
        num_gpus=num_gpus,
        gpus_per_node=gpus_per_node,
        tp_size=tp_size,
        fsdp_size=fsdp_size,
        ddp_size=ddp_size,
        micro_batch=micro_batch,
        prefetch=prefetch,
        layer_wrapping=layer_wrapping,
        meta=False,
        seed=seed,
        num_steps=num_steps,
        compute_skew=dict(compute_skew or {}),
        fold=fold,
        monitor=monitor,
    )
    return trace_spec(spec, out_dir)


def trace_spec(spec, out_dir=None) -> TraceRun:
    """``spec.num_steps`` traced numeric steps of a validated RunSpec
    (the body of :func:`run_traced_step`; ``repro trace`` calls it with
    the spec it built from its flags)."""
    from repro.runtime import Session, StepLoop

    session = Session(spec)
    result = StepLoop(
        session.numeric_step, hooks=session.loop_hooks()
    ).run(spec.num_steps)
    loss = result.final_loss

    # The trainer already recorded step.walltime_s / train.loss /
    # optimizer.steps; fold in the cluster-level state it cannot see.
    cluster, tracer = session.cluster, session.tracer
    walltime = cluster.timeline.walltime_s()
    metrics = tracer.metrics
    metrics.gauge("step.exposed_comm_ratio").set(
        analysis.exposed_comm_ratio(tracer.spans)
    )
    metrics.gauge("step.loss").set(loss)
    for rank in range(cluster.world_size):
        metrics.gauge(f"memory.peak_bytes.rank{rank}").max(
            cluster.device(rank).memory.peak_bytes
        )

    run = TraceRun(
        cluster=cluster, plan=session.plan, tracer=tracer, loss=loss,
        walltime_s=walltime, monitor=session.monitor,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        run.files["trace"] = write_chrome_trace(tracer, out_dir / "trace.json")
        run.files["events"] = write_trace_events(tracer, out_dir / "trace_events.json")
        run.files["report"] = write_step_report(
            tracer, out_dir / "report.txt", cluster=cluster
        )
    return run
