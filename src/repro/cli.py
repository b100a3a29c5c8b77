"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro fig5                 # max model size per parallelism
    python -m repro table1               # optimization ablation
    python -m repro fig6                 # (FSDP, TP) configuration sweep
    python -m repro fig7 --channels 91   # strong scaling
    python -m repro fig8 --steps 80      # pre-training loss (real training)
    python -m repro fig9                 # wACC comparison (real training)
    python -m repro fig10                # fine-tuning data efficiency
    python -m repro trace                # traced step: Chrome trace + report
    python -m repro analyze              # critical-path + health analysis
    python -m repro bench --check        # performance-regression gate
    python -m repro tune                 # automatic parallelism planner
    python -m repro faults --plan p.json # replay a fault plan, print recovery
    python -m repro monitor              # live telemetry: alerts + event journal
    python -m repro replan               # adaptive re-planning demo scenario

Exit status: 0 ok; 1 a failed check (regression-gate drift, a failed
serving invariant, an unrecovered fault, a critical alert, no replan
decision or win); 2 invalid input, reported on stderr as
``repro <command>: <message>``.  Each subcommand is one ``_<name>``
handler registered next to its parser; handlers raise
:class:`UsageError` for invalid input and :func:`main` alone turns it
into exit 2.  Anything else that escapes is a bug and keeps its
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys


class UsageError(Exception):
    """Invalid command-line input; :func:`main` prints it and exits 2."""


#: RunSpec / TuneRequest field names as the CLI spells them.
_FLAG_NAMES = {
    "num_gpus": "--gpus", "gpus_per_node": "--gpus-per-node", "num_steps": "--steps",
    "micro_batch": "--micro-batch", "compute_skew": "--skew", "pp_sizes": "--pp",
}


def _flag_names(message: str) -> str:
    for name, flag in _FLAG_NAMES.items():
        message = message.replace(name, flag)
    return message


# -- shared flag groups ---------------------------------------------------------
def _grid_args(parser: argparse.ArgumentParser, **defaults) -> None:
    """Simulated-cluster grid flags; ``defaults`` overrides their defaults."""
    parser.add_argument(
        "--gpus", type=int, default=16, help="world size (default: 2 nodes)"
    )
    parser.add_argument("--gpus-per-node", type=int, default=8)
    parser.add_argument("--tp", type=int, default=4, help="tensor-parallel group size")
    parser.add_argument("--fsdp", type=int, default=2, help="FSDP group size")
    parser.add_argument("--ddp", type=int, default=2, help="DDP replica count")
    parser.add_argument("--micro-batch", type=int, default=2)
    parser.add_argument(
        "--steps", type=int, default=1, help="number of optimizer steps to run"
    )
    parser.set_defaults(**defaults)


def _run_args(parser: argparse.ArgumentParser) -> None:
    """Seed, prefetch and straggler flags of the trained-step commands."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-prefetch", action="store_true", help="disable gather prefetch"
    )
    parser.add_argument(
        "--skew",
        action="append",
        default=[],
        metavar="RANK=FACTOR",
        help="slow down RANK's compute by FACTOR (straggler injection; repeatable)",
    )


def _fault_args(parser: argparse.ArgumentParser) -> None:
    """Fault-plan and supervisor-checkpoint flags (``faults`` / ``monitor``)."""
    parser.add_argument(
        "--plan", default=None, metavar="JSON",
        help="fault-plan document to replay (see repro.faults.plan)",
    )
    parser.add_argument(
        "--random", type=int, default=None, metavar="SEED",
        help="generate a seeded random plan instead of reading one",
    )
    parser.add_argument(
        "--count", type=int, default=3,
        help="number of injections for --random (default: 3)",
    )
    parser.add_argument(
        "--numeric", action="store_true",
        help="run real numeric training instead of meta (shape-only) mode",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=2, metavar="STEPS",
        help="periodic checkpoint cadence for rollback recovery (default: 2)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="where periodic checkpoints land (default: a temp directory)",
    )
    parser.set_defaults(steps=8)


def _gate_args(parser: argparse.ArgumentParser, baseline: str) -> None:
    """Regression-gate flags (``bench`` / ``serve``)."""
    parser.add_argument(
        "--out", default=None, help=f"write the bench document ({baseline}) here"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit 1 on drift beyond --tolerance",
    )
    parser.add_argument("--baseline", default=baseline)
    parser.add_argument("--tolerance", type=float, default=0.05)
    parser.add_argument(
        "--quick", action="store_true", help="run only the quick bench subset"
    )


# -- shared helpers -------------------------------------------------------------
def _spec(args: argparse.Namespace, config=None, **policy):
    """The validated RunSpec of the grid flags (default: the tiny trace
    model), with field names in diagnostics rewritten to flag spellings."""
    from repro.runtime import RunSpec, RunSpecError

    if config is None:
        from repro.models import OrbitConfig
        from repro.obs.capture import TRACE_CONFIG_KWARGS

        config = OrbitConfig("trace-tiny", **TRACE_CONFIG_KWARGS)
    try:
        return RunSpec(
            config=config,
            num_gpus=args.gpus,
            gpus_per_node=args.gpus_per_node,
            tp_size=args.tp,
            fsdp_size=args.fsdp,
            ddp_size=args.ddp,
            micro_batch=args.micro_batch,
            num_steps=args.steps,
            **policy,
        )
    except RunSpecError as error:
        raise UsageError(_flag_names(str(error))) from None


def _run_spec(args: argparse.Namespace, **policy):
    """:func:`_spec` with the :func:`_run_args` flags applied."""
    return _spec(args, seed=args.seed, prefetch=not args.no_prefetch,
                 compute_skew=_parse_skew(args.skew), **policy)


def _parse_skew(pairs: list[str]) -> dict[int, float]:
    skew: dict[int, float] = {}
    for pair in pairs:
        try:
            rank_text, factor_text = pair.split("=", 1)
            skew[int(rank_text)] = float(factor_text)
        except ValueError:
            raise UsageError(f"invalid --skew {pair!r}: expected RANK=FACTOR") from None
    return skew


def _ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(",") if token)
    except ValueError:
        raise UsageError(
            f"invalid request: {flag} {text!r} is not a comma-separated "
            "list of integers"
        ) from None


@contextlib.contextmanager
def _planning():
    """Map the planner's typed input errors to usage errors."""
    from repro.tune import InfeasibleRequest, InvalidRequest

    try:
        yield
    except InvalidRequest as error:
        raise UsageError(f"invalid request: {_flag_names(str(error))}") from None
    except InfeasibleRequest as error:
        reasons = sorted(error.space.rejection_reasons().items())
        raise UsageError("\n".join(
            [str(error)] + [f"  - {reason} (x{count})" for reason, count in reasons]
        )) from None


def _fault_plan(args: argparse.Namespace, required: bool):
    """The ``--plan`` / ``--random`` fault plan; None if neither is given
    and none is ``required``."""
    from repro.faults import FaultPlan

    seed = getattr(args, "random", None)  # replan reads --plan only
    if args.plan is not None and seed is not None:
        raise UsageError("invalid plan: --plan and --random are mutually exclusive")
    try:
        if args.plan is not None:
            return FaultPlan.from_json(args.plan)
        if seed is not None:
            return FaultPlan.random(seed, args.steps, args.gpus, count=args.count)
    except (OSError, ValueError) as error:
        raise UsageError(f"invalid plan: {error}") from None
    if required:
        raise UsageError("invalid plan: one of --plan or --random is required")
    return None


def _checkpoint_dir(args: argparse.Namespace, prefix: str):
    """A context manager yielding where supervised checkpoints land.

    None under ``--checkpoint-every 0``, else ``--checkpoint-dir``, else
    a temporary directory removed when the ``with`` block exits.
    """
    import tempfile

    if not args.checkpoint_every:
        return contextlib.nullcontext()
    if args.checkpoint_dir:
        return contextlib.nullcontext(args.checkpoint_dir)
    return tempfile.TemporaryDirectory(prefix=prefix)


def _supervisor(spec, plan, checkpoint_every: int, checkpoint_dir, **options):
    """A fault Supervisor; its argument checks are usage errors."""
    from repro.faults import Supervisor

    try:
        return Supervisor(
            spec, plan, checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir, **options,
        )
    except ValueError as error:
        raise UsageError(str(error)) from None


def _baseline(module, args: argparse.Namespace):
    """The ``--check`` baseline, read before the matrix runs so a bad
    ``--baseline`` fails fast; None without ``--check``."""
    if not args.check:
        return None
    try:
        return module.load_baseline(args.baseline)
    except (OSError, ValueError) as error:
        raise UsageError(f"invalid --baseline: {error}") from None


def _gate(name: str, module, doc: dict, baseline, args: argparse.Namespace) -> int:
    """Print the drift report of ``doc`` against ``baseline``; 1 on drift."""
    if baseline is None:
        return 0
    problems = module.compare(
        doc, baseline, tolerance=args.tolerance, require_all=not args.quick
    )
    if problems:
        for problem in problems:
            print(f"DRIFT: {problem}", file=sys.stderr)
        print(
            f"{name} regression gate FAILED: {len(problems)} metric(s) "
            f"beyond the {args.tolerance:.0%} tolerance vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"{name} regression gate OK (tolerance {args.tolerance:.0%})")
    return 0


# -- handlers (imports deferred so `--help` stays instant) ------------------------
def _fig5(args: argparse.Namespace) -> int:
    from repro.experiments import fig5_max_model_size

    counts = tuple(n for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512) if n <= args.max_gpus)
    print(fig5_max_model_size.run(gpu_counts=counts).format())
    return 0


def _table1(args: argparse.Namespace) -> int:
    from repro.experiments import table1_optimizations

    print(table1_optimizations.run().format())
    return 0


def _fig6(args: argparse.Namespace) -> int:
    from repro.experiments import fig6_parallelism_config

    with _planning():
        result = fig6_parallelism_config.run(num_gpus=args.gpus)
    print(result.format())
    return 0


def _fig7(args: argparse.Namespace) -> int:
    from repro.experiments import fig7_strong_scaling

    print(fig7_strong_scaling.run(channels=args.channels).format())
    return 0


def _fig8(args: argparse.Namespace) -> int:
    from repro.experiments import fig8_pretraining_loss

    print(fig8_pretraining_loss.run(num_steps=args.steps, seed=args.seed).format())
    return 0


def _fig9(args: argparse.Namespace) -> int:
    from repro.experiments import fig9_wacc

    result = fig9_wacc.run(
        pretrain_steps=args.pretrain_steps,
        finetune_steps=args.finetune_steps,
        seed=args.seed,
    )
    print(result.format())
    return 0


def _fig10(args: argparse.Namespace) -> int:
    from repro.experiments import fig10_data_efficiency

    print(fig10_data_efficiency.run(seed=args.seed).format())
    return 0


def _crossover(args: argparse.Namespace) -> int:
    from repro.experiments import pipeline_crossover

    pp_sizes = _ints(args.pp, "--pp")
    with _planning():
        result = pipeline_crossover.run(
            num_gpus=args.gpus,
            gpus_per_node=args.gpus_per_node,
            micro_batch=args.micro_batch,
            pp_sizes=pp_sizes,
            validate=not args.no_validate,
        )
    print(result.format())
    return 0


def _all(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import (
        fig5_max_model_size,
        fig6_parallelism_config,
        fig7_strong_scaling,
        table1_optimizations,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "fig5.txt": fig5_max_model_size.run().format(),
        "table1.txt": table1_optimizations.run().format(),
        "fig6.txt": fig6_parallelism_config.run().format(),
        "fig7_48ch.txt": fig7_strong_scaling.run(channels=48).format(),
        "fig7_91ch.txt": fig7_strong_scaling.run(channels=91).format(),
    }
    for filename, text in tables.items():
        (out / filename).write_text(text + "\n")
        print(f"wrote {out / filename}")
    print("(training figures: run fig8/fig9/fig10 subcommands separately)")
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.obs import step_report
    from repro.obs.capture import trace_spec

    run = trace_spec(_run_spec(args, meta=False), out_dir=args.out)
    print(step_report(run.tracer, cluster=run.cluster))
    for label, written in sorted(run.files.items()):
        print(f"wrote {written} ({label})")
    return 0


def _analyze(args: argparse.Namespace) -> int:
    from repro.obs import (
        analyze_trace,
        check_run,
        critical_path_report,
        health_report,
        load_trace_events,
    )
    from repro.obs.capture import trace_spec

    if args.trace is not None:
        # Offline mode: span-level checks only (no cluster/plan).
        try:
            spans = load_trace_events(args.trace)
        except (OSError, ValueError, KeyError) as error:
            raise UsageError(f"invalid --trace: {error}") from None
        analysis = analyze_trace(spans)
        findings = check_run(spans, analysis=analysis)
    else:
        run = trace_spec(_run_spec(args, meta=False))
        analysis = analyze_trace(run.tracer)
        findings = check_run(
            run.tracer, cluster=run.cluster, plan=run.plan, analysis=analysis
        )
    print(critical_path_report(analysis))
    print()
    print(health_report(findings))
    return 0


def _bench(args: argparse.Namespace) -> int:
    from repro import bench

    baseline = _baseline(bench, args)
    records = bench.run_matrix(quick=args.quick, timeseries_dir=args.timeseries)
    doc = bench.to_document(records)
    print(bench.summary_table(doc))
    if args.timeseries:
        print(f"wrote per-case timeseries under {args.timeseries}/")
    if args.out:
        print(f"wrote {bench.write_baseline(records, args.out)}")
    status = _gate("bench", bench, doc, baseline, args)
    if status or args.mtbf is None:
        return status
    from repro.faults.goodput import bench_goodput, goodput_table

    goodput = bench_goodput(doc, args.mtbf, checkpoint_cost_s=args.checkpoint_cost,
                            restart_latency_s=args.restart_latency)
    print()
    print(goodput_table(goodput))
    return 0


def _tune(args: argparse.Namespace) -> int:
    from repro.models import PAPER_MODELS
    from repro.tune import TuneCache, TuneRequest, render_report, run_search, write_report

    micro_batches = _ints(args.micro_batches, "--micro-batches")
    pp_sizes = _ints(args.pp, "--pp")
    if args.top_k < 1:
        raise UsageError(f"invalid request: --top-k {args.top_k} must be at least 1")
    cache = TuneCache(args.cache) if args.cache else None
    with _planning():
        request = TuneRequest(
            PAPER_MODELS[args.model],
            num_gpus=args.gpus,
            gpus_per_node=args.gpus_per_node,
            micro_batches=micro_batches,
            pp_sizes=pp_sizes,
        )
        result = run_search(request, top_k=args.top_k, cache=cache)
    print(render_report(result))
    if args.mtbf is not None:
        from repro.tune.report import recovery_recommendation, render_recovery

        print()
        print(render_recovery(recovery_recommendation(
            result, args.mtbf, checkpoint_cost_s=args.checkpoint_cost
        )))
    if args.out:
        print(f"wrote {write_report(result, args.out)}")
    return 0


def _faults(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    spec = _run_spec(args, meta=not args.numeric, track_device_memory=False)
    plan = _fault_plan(args, required=True)
    with _checkpoint_dir(args, "repro-faults-") as checkpoint_dir:
        supervisor = _supervisor(spec, plan, args.checkpoint_every, checkpoint_dir)
        report = supervisor.run(args.steps)
    print(report.render())
    if args.out:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.as_dict(), indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if report.recovered else 1


def _serve(args: argparse.Namespace) -> int:
    from repro.models import OrbitConfig
    from repro.serve import bench

    spec = _spec(
        args,
        OrbitConfig("serve-tiny", **bench.SERVE_CONFIG_KWARGS),
        serve_max_batch=args.max_batch,
        serve_window_s=args.window_ms / 1e3,
        serve_queue_limit=args.queue_limit,
        serve_cache_entries=args.cache_entries,
        serve_min_replicas=args.min_replicas,
        serve_max_replicas=args.max_replicas,
        meta=False,
        seed=args.seed,
    )
    legality = spec.legality_reason()
    if legality is not None:
        raise UsageError(f"illegal topology for the serving model: {legality}")
    if args.smoke:
        return _serve_smoke(spec, args)
    baseline = _baseline(bench, args)
    records = bench.run_serve_matrix(quick=args.quick)
    doc = bench.to_document(records)
    print(bench.summary_table(doc))
    if args.out:
        print(f"wrote {bench.write_baseline(records, args.out)}")
    return _gate("serve", bench, doc, baseline, args)


def _serve_smoke(spec, args: argparse.Namespace) -> int:
    """Seeded load through the Session hand-off, checking bitwise parity
    with direct rollouts and a byte-identical replay journal."""
    from pathlib import Path

    from repro.runtime import Session
    from repro.serve import ForecastServer, LoadSpec, generate_requests
    from repro.serve.bench import build_serve_world

    try:
        load = LoadSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            seed=args.load_seed,
            num_windows=48,
            num_hot=4,
            hot_fraction=args.hot_fraction,
        )
    except ValueError as error:
        raise UsageError(f"invalid load: {error}") from None
    # The full hand-off: sharded Session weights gathered into
    # one serial model, served through the async front-end.
    session = Session(spec)
    dataset, forecaster = build_serve_world(model=session.serving_model())
    policy = session.serve_policy()
    requests = generate_requests(load)
    server = ForecastServer(forecaster, dataset, policy)
    report = server.serve(requests)
    stats = report.stats()
    print(
        f"serve smoke: {stats['completed']}/{stats['offered']} ok, "
        f"{stats['rejected']} rejected, p50 "
        f"{stats['latency_p50_s'] * 1e3:.2f} ms, p99 "
        f"{stats['latency_p99_s'] * 1e3:.2f} ms, cache hit "
        f"{stats['cache_hit_ratio']:.2f}, replicas peak "
        f"{stats['replicas_peak']}"
    )
    failures = []
    names = list(dataset.out_names)
    for response in report.completed:
        request = response.request
        direct = forecaster.forecast(
            dataset, request.init_index, request.lead_steps
        )[[names.index(v) for v in request.out_vars]]
        if not (response.result == direct).all():
            failures.append(
                f"request {request.request_id}: served forecast is "
                "not bitwise-equal to the direct rollout"
            )
            break
    replay = ForecastServer(forecaster, dataset, policy)
    replay.serve(requests)
    if server.journal.to_jsonl() != replay.journal.to_jsonl():
        failures.append("seeded replay journal is not byte-identical")
    if args.artifacts:
        out = Path(args.artifacts)
        out.mkdir(parents=True, exist_ok=True)
        print(f"wrote {server.journal.write_jsonl(out / 'journal.jsonl')}")
        hist = out / "latency_histogram.json"
        hist.write_text(report.histogram_json())
        print(f"wrote {hist}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "serve invariants OK: bitwise parity with direct rollout, "
        "byte-identical seeded replay"
    )
    return 0


def _monitor(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import RunMonitor
    from repro.runtime import Session, StepLoop

    spec = _run_spec(args, meta=not args.numeric, monitor="on")
    plan = _fault_plan(args, required=False)
    tail = None if (args.quiet or args.json) else (
        lambda event: print(event.render())
    )
    run_monitor = RunMonitor(on_event=tail)
    recovered = True
    if plan is not None:
        with _checkpoint_dir(args, "repro-monitor-") as checkpoint_dir:
            supervisor = _supervisor(
                spec, plan, args.checkpoint_every, checkpoint_dir,
                session_kwargs={"monitor": run_monitor},
            )
            recovered = supervisor.run(args.steps).recovered
    else:
        session = Session(spec, monitor=run_monitor)
        run_monitor.record_run(
            0, "start", f"monitored run: {args.steps} step(s), no faults"
        )
        step_fn = session.meta_step if spec.meta else session.numeric_step
        StepLoop(step_fn, hooks=session.loop_hooks()).run(args.steps)
        run_monitor.record_run(
            args.steps, "end", f"run complete: {args.steps} step(s)"
        )
    if args.json:
        print(run_monitor.to_json())
    else:
        if tail is not None:
            print()
        print(run_monitor.summary_table())
    if args.out:
        out = Path(args.out)
        print(f"wrote {run_monitor.journal.write_jsonl(out / 'journal.jsonl')}")
        print(f"wrote {run_monitor.store.write_jsonl(out / 'timeseries.jsonl')}")
    return 1 if run_monitor.critical_alerts or not recovered else 0


def _replan(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.obs import RunMonitor
    from repro.replan.scenario import demo_config, demo_plan

    spec = _spec(
        args, demo_config(), recompute=not args.no_recompute, meta=True,
        monitor="on", replan="on", track_device_memory=False,
    )
    plan = demo_plan() if args.plan is None else _fault_plan(args, required=True)

    def supervise(spec, run_monitor, checkpoint_dir):
        supervisor = _supervisor(
            spec, plan, args.checkpoint_every, checkpoint_dir,
            degradation_aware=True,
            checkpoint_cost_s=args.checkpoint_cost,
            restart_latency_s=args.restart_latency,
            replan_warmup_s=args.warmup,
            replan_hysteresis=args.hysteresis,
            session_kwargs={"monitor": run_monitor},
        )
        return supervisor, supervisor.run(args.steps)

    tail = None if args.quiet else (
        lambda event: print(event.render()) if event.kind == "replan" else None
    )
    run_monitor = RunMonitor(on_event=tail)
    # The runs are sequential, so they share one checkpoint directory.
    with tempfile.TemporaryDirectory(prefix="repro-replan-") as checkpoint_dir:
        supervisor, report = supervise(spec, run_monitor, checkpoint_dir)
        if args.compare:
            off_supervisor, off_report = supervise(
                spec.replace(replan="off"), RunMonitor(), checkpoint_dir
            )
    decisions = [
        event for event in run_monitor.journal.events
        if event.kind == "replan"
    ]
    switches = [e for e in decisions if e.category == "switch"]
    fraction = supervisor.ledger.goodput_fraction
    print(
        f"replan=on : {report.steps_completed} step(s), "
        f"{len(decisions)} replan event(s), {len(switches)} switch(es), "
        f"goodput {fraction:.4f}, final plan "
        f"{'x'.join(str(n) for n in report.final_spec['grid'])}"
        f".mb{report.final_spec['micro_batch']}"
    )
    status = 0
    if args.compare:
        off_fraction = off_supervisor.ledger.goodput_fraction
        print(
            f"replan=off: {off_report.steps_completed} step(s), "
            f"goodput {off_fraction:.4f}, walltime "
            f"{off_supervisor.ledger.total_s:.4f} s "
            f"(vs {supervisor.ledger.total_s:.4f} s with replan=on)"
        )
        if fraction <= off_fraction:
            print("repro replan: no goodput win over replan=off",
                  file=sys.stderr)
            status = 1
    if args.out:
        out = Path(args.out)
        print(f"wrote {run_monitor.journal.write_jsonl(out / 'journal.jsonl')}")
        doc = {
            "goodput_fraction": fraction,
            "goodput": supervisor.ledger.as_dict(),
            "decisions": [event.as_dict() for event in decisions],
        }
        report_path = out / "replan_report.json"
        report_path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {report_path}")
    if not decisions:
        print("repro replan: no replan decision was journaled "
              "(scenario never degraded?)", file=sys.stderr)
        return 1
    return status if report.recovered else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ORBIT paper's tables and figures.",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs (rank/step/phase fields)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="enable library logging at this level (e.g. INFO, DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig5 = sub.add_parser("fig5", help="maximal model size per parallelism (Fig 5)")
    fig5.add_argument("--max-gpus", type=int, default=512)
    fig5.set_defaults(handler=_fig5)

    table1 = sub.add_parser("table1", help="optimization ablation (Table I)")
    table1.set_defaults(handler=_table1)

    fig6 = sub.add_parser("fig6", help="(FSDP, TP) group-size sweep (Fig 6)")
    fig6.add_argument("--gpus", type=int, default=512)
    fig6.set_defaults(handler=_fig6)

    fig7 = sub.add_parser("fig7", help="strong scaling (Fig 7)")
    fig7.add_argument("--channels", type=int, default=48, choices=(48, 91))
    fig7.set_defaults(handler=_fig7)

    fig8 = sub.add_parser("fig8", help="pre-training loss by size (Fig 8; trains)")
    fig8.add_argument("--steps", type=int, default=80)
    fig8.add_argument("--seed", type=int, default=0)
    fig8.set_defaults(handler=_fig8)

    fig9 = sub.add_parser("fig9", help="wACC lead-time comparison (Fig 9; trains)")
    fig9.add_argument("--pretrain-steps", type=int, default=400)
    fig9.add_argument("--finetune-steps", type=int, default=250)
    fig9.add_argument("--seed", type=int, default=0)
    fig9.set_defaults(handler=_fig9)

    fig10 = sub.add_parser("fig10", help="fine-tuning data efficiency (Fig 10; trains)")
    fig10.add_argument("--seed", type=int, default=0)
    fig10.set_defaults(handler=_fig10)

    crossover = sub.add_parser(
        "crossover",
        help="pipeline-vs-FSDP crossover at a fixed GCD count (4D tuner study)",
    )
    crossover.add_argument("--gpus", type=int, default=16)
    crossover.add_argument("--gpus-per-node", type=int, default=8)
    crossover.add_argument(
        "--micro-batch", type=int, default=32,
        help="pinned micro-batch (the crossover is a batch-regime statement)",
    )
    crossover.add_argument(
        "--pp", default="1,2", metavar="S[,S...]",
        help="comma-separated pipeline depths to rank (default: 1,2)",
    )
    crossover.add_argument(
        "--no-validate", action="store_true",
        help="skip the simulated engine step for the two front-runners",
    )
    crossover.set_defaults(handler=_crossover)

    everything = sub.add_parser(
        "all", help="run every analytic table/figure and write them to a directory"
    )
    everything.add_argument("--out", default="results")
    everything.set_defaults(handler=_all)

    trace = sub.add_parser(
        "trace",
        help="run traced Hybrid-STOP steps; write a Chrome trace and step report",
    )
    _grid_args(trace)
    _run_args(trace)
    trace.add_argument("--out", default="results/trace", help="output directory")
    trace.set_defaults(handler=_trace)

    analyze = sub.add_parser(
        "analyze",
        help="critical-path attribution and run-health findings for a traced run",
    )
    _grid_args(analyze)
    _run_args(analyze)
    analyze.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_EVENTS_JSON",
        help="re-analyze a trace_events.json written by `repro trace` "
        "instead of running a fresh simulated step",
    )
    analyze.set_defaults(handler=_analyze)

    bench = sub.add_parser(
        "bench",
        help="run the performance-regression matrix (trace-derived metrics)",
    )
    _gate_args(bench, "BENCH_obs.json")
    bench.add_argument(
        "--mtbf", type=float, default=None, metavar="SECONDS",
        help="also report expected goodput under this mean time between failures",
    )
    bench.add_argument(
        "--checkpoint-cost", type=float, default=30.0, metavar="SECONDS",
        help="checkpoint write cost for the goodput model (default: 30)",
    )
    bench.add_argument(
        "--restart-latency", type=float, default=120.0, metavar="SECONDS",
        help="restart latency for the goodput model (default: 120)",
    )
    bench.add_argument(
        "--timeseries", default=None, metavar="DIR",
        help="also monitor each case and write per-case timeseries JSONL here",
    )
    bench.set_defaults(handler=_bench)

    tune = sub.add_parser(
        "tune",
        help="search PPxTPxFSDPxDDP configurations; validate winners in simulation",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro tune                                # ORBIT-115M on 2 nodes\n"
            "  repro tune --model orbit-1b --gpus 32     # ORBIT-1B on 4 nodes\n"
            "  repro tune --micro-batches 2 --top-k 5    # pin mb, validate 5\n"
            "  repro tune --pp 1,2,4                     # widen to the 4D space\n"
            "  repro tune --cache tune_cache.json --out tune_report.json\n"
            "\n"
            "exits 2 when no configuration is both legal and memory-feasible."
        ),
    )
    tune.add_argument(
        "--model",
        default="orbit-115m",
        choices=("orbit-115m", "orbit-1b", "orbit-10b", "orbit-113b"),
        help="paper model to plan for",
    )
    tune.add_argument("--gpus", type=int, default=16, help="world size (default: 2 nodes)")
    tune.add_argument("--gpus-per-node", type=int, default=8)
    tune.add_argument(
        "--micro-batches",
        default="1,2,4",
        metavar="N[,N...]",
        help="comma-separated micro-batch sizes to sweep (default: 1,2,4)",
    )
    tune.add_argument(
        "--pp",
        default="1",
        metavar="S[,S...]",
        help=(
            "comma-separated pipeline depths to sweep (default: 1, the 3D "
            "space); depths beyond the model's layer count are rejected"
        ),
    )
    tune.add_argument(
        "--top-k", type=int, default=3,
        help="how many leaders to validate with real simulated steps",
    )
    tune.add_argument(
        "--cache", default=None, metavar="JSON",
        help="JSON file caching simulated validations across runs",
    )
    tune.add_argument(
        "--out", default=None, metavar="JSON", help="write the full report here"
    )
    tune.add_argument(
        "--mtbf", type=float, default=None, metavar="SECONDS",
        help="also print a recovery-aware checkpoint-interval recommendation",
    )
    tune.add_argument(
        "--checkpoint-cost", type=float, default=30.0, metavar="SECONDS",
        help="checkpoint write cost for the --mtbf recommendation (default: 30)",
    )
    tune.set_defaults(handler=_tune)

    faults = sub.add_parser(
        "faults",
        help="replay a fault plan under the self-healing supervisor",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro faults --plan examples/fault_plan.json\n"
            "  repro faults --random 7 --count 4 --steps 12\n"
            "  repro faults --plan p.json --numeric --checkpoint-every 2\n"
            "\n"
            "exits 1 when any injected fault goes unrecovered, 2 on an\n"
            "invalid topology or plan."
        ),
    )
    _grid_args(faults)
    _run_args(faults)
    _fault_args(faults)
    faults.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the recovery report document here",
    )
    faults.set_defaults(handler=_faults)

    serve = sub.add_parser(
        "serve",
        help="serve forecasts: micro-batching, prefix caching, autoscaling",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro serve --smoke                       # full-stack smoke + invariant checks\n"
            "  repro serve --smoke --artifacts results/serve\n"
            "  repro serve --out BENCH_serve.json        # regenerate the bench baseline\n"
            "  repro serve --check                       # serving regression gate\n"
            "\n"
            "exits 1 when --check finds drift or a smoke invariant fails,\n"
            "2 on an invalid topology or serving policy."
        ),
    )
    # The served model is tiny (4 channels, 8x16); default to one node
    # with a legal (tp=2, fsdp=2, ddp=2) factorization for it.
    _grid_args(serve, gpus=8, tp=2, fsdp=2, ddp=2, micro_batch=1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--smoke", action="store_true",
        help="run a small seeded workload through the Session hand-off and "
        "verify the serving invariants (bitwise parity, replay determinism)",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="--smoke offered load in requests/s (default: 50)",
    )
    serve.add_argument(
        "--duration", type=float, default=1.0,
        help="--smoke workload duration in simulated seconds (default: 1)",
    )
    serve.add_argument(
        "--load-seed", type=int, default=0,
        help="--smoke workload seed (default: 0)",
    )
    serve.add_argument(
        "--hot-fraction", type=float, default=0.8,
        help="--smoke fraction of requests hitting the hot windows",
    )
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument(
        "--window-ms", type=float, default=5.0,
        help="micro-batch coalescing window in milliseconds (default: 5)",
    )
    serve.add_argument("--queue-limit", type=int, default=256)
    serve.add_argument("--cache-entries", type=int, default=32)
    serve.add_argument("--min-replicas", type=int, default=1)
    serve.add_argument("--max-replicas", type=int, default=4)
    _gate_args(serve, "BENCH_serve.json")
    serve.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write journal.jsonl and latency_histogram.json artifacts here",
    )
    serve.set_defaults(handler=_serve)

    monitor = sub.add_parser(
        "monitor",
        help="run with streaming telemetry: live alerts, timeseries, event journal",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro monitor --steps 12\n"
            "  repro monitor --plan examples/fault_plan.json\n"
            "  repro monitor --random 7 --count 4 --json\n"
            "  repro monitor --steps 8 --out results/monitor\n"
            "\n"
            "tails the event journal live, then prints an end-of-run summary\n"
            "table.  exits 1 when any critical alert fired (or an injected\n"
            "fault went unrecovered), 2 on an invalid topology or plan."
        ),
    )
    _grid_args(monitor)
    _run_args(monitor)
    _fault_args(monitor)
    monitor.add_argument(
        "--quiet", action="store_true",
        help="suppress the live journal tail (summary still prints)",
    )
    monitor.add_argument(
        "--json", action="store_true",
        help="print the machine-readable monitor document instead of tables",
    )
    monitor.add_argument(
        "--out", default=None, metavar="DIR",
        help="write journal.jsonl and timeseries.jsonl artifacts here",
    )
    monitor.set_defaults(handler=_monitor)

    replan = sub.add_parser(
        "replan",
        help="replay a degradation scenario under the adaptive re-planner",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro replan                                 # built-in straggler demo\n"
            "  repro replan --plan examples/replan_straggler.json\n"
            "  repro replan --compare                       # replan on-vs-off goodput\n"
            "  repro replan --out results/replan            # journal + report artifacts\n"
            "\n"
            "runs the seeded demo model (compute ~ comm, so degraded plan\n"
            "rankings actually differ) under the self-healing supervisor with\n"
            "spec.replan='on'.  exits 1 when no replan decision was journaled,\n"
            "a fault went unrecovered, or --compare finds no goodput win;\n"
            "2 on an invalid topology or plan."
        ),
    )
    replan.add_argument(
        "--plan", default=None, metavar="JSON",
        help="fault plan to replay (default: the built-in x8 lead-rank "
        "straggler, examples/replan_straggler.json)",
    )
    _grid_args(replan, steps=16, micro_batch=8)
    replan.add_argument(
        "--no-recompute", action="store_true",
        help="start without activation checkpointing (the demo starts with it)",
    )
    replan.add_argument(
        "--hysteresis", type=float, default=0.25, metavar="FRACTION",
        help="break-even margin the projected gain must clear (default: 0.25)",
    )
    replan.add_argument(
        "--checkpoint-cost", type=float, default=0.005, metavar="SECONDS",
        help="checkpoint write charge (default scaled to the demo model)",
    )
    replan.add_argument(
        "--restart-latency", type=float, default=0.01, metavar="SECONDS",
        help="session rebuild charge (default scaled to the demo model)",
    )
    replan.add_argument(
        "--warmup", type=float, default=0.005, metavar="SECONDS",
        help="new-plan warm-up surcharge of the migration cost model",
    )
    replan.add_argument(
        "--checkpoint-every", type=int, default=4, metavar="STEPS",
        help="periodic durable checkpoint cadence (default: 4)",
    )
    replan.add_argument(
        "--compare", action="store_true",
        help="also run the identical scenario with replan='off' and compare "
        "goodput fractions (both runs use degradation-aware accounting)",
    )
    replan.add_argument(
        "--quiet", action="store_true",
        help="suppress the live replan-event tail",
    )
    replan.add_argument(
        "--out", default=None, metavar="DIR",
        help="write journal.jsonl and replan_report.json artifacts here",
    )
    replan.set_defaults(handler=_replan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_json or args.log_level is not None:
        from repro.utils.logging import configure_logging

        configure_logging(
            json_lines=args.log_json, level=args.log_level or "INFO", stream=sys.stderr
        )
    try:
        return args.handler(args)
    except UsageError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
