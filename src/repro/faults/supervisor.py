"""The self-healing supervisor: detect, classify, recover, account.

Wraps a :class:`~repro.runtime.session.Session` /
:class:`~repro.runtime.steploop.StepLoop` pair and drives a step budget
to completion *through* the faults a
:class:`~repro.faults.plan.FaultPlan` injects:

* **transient** faults (collective timeouts) are retried in place with
  exponential backoff — the step's RNG state is rewound first, so the
  retried step consumes the exact batch the failed attempt did;
* **crashes** (GPU loss) trigger checkpoint-rollback restart: a fresh
  incarnation of the session resumes from the latest sharded archive
  and replays the lost steps, reproducing the fault-free trajectory
  bitwise (the fire-once injector never re-kills a replayed step);
* **node loss** is permanent: the supervisor rebuilds the
  :class:`~repro.runtime.spec.RunSpec` with a shrunken DDP axis
  (micro-batch rescaled so the global batch — and therefore the data
  stream — is preserved), remaps surviving ranks, and resumes
  elastically from the archive;
* **gradient corruption** never reaches the parameters: the numeric
  trainer's grad scaler backs off and skips the step, and the skip is
  charged to the goodput ledger.

Every recovery path is charged to a :class:`~repro.faults.goodput.
GoodputLedger`, so the final :class:`~repro.faults.report.
RecoveryReport` attributes exactly where the walltime went.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.faults.errors import (
    ElasticRecoveryError,
    FatalFaultError,
    NodeLossError,
    TransientFaultError,
)
from repro.faults.goodput import GoodputLedger
from repro.faults.injector import FaultInjector
from repro.faults.plan import DEGRADATION_KINDS, FaultPlan
from repro.faults.report import RecoveryEvent, RecoveryReport
from repro.utils.logging import get_logger

_LOG = get_logger("faults.supervisor")


class Supervisor:
    """Drive a spec through a fault plan to completion.

    Parameters
    ----------
    spec:
        The run to protect (meta or numeric mode).
    plan:
        The deterministic fault schedule (may be empty).
    checkpoint_every / checkpoint_dir:
        Periodic durable checkpoints — the rollback target for crash
        and node-loss recovery.  ``checkpoint_every=0`` disables them;
        recovery then restarts from step 0 (still bitwise-correct,
        just expensive).
    retry_budget / backoff_base_s / detect_timeout_s:
        Transient recovery: at most ``retry_budget`` in-place retries,
        with backoff delays ``base * 2**attempt`` charged to the
        ledger; each failed attempt also pays the detection window.
    restart_latency_s / checkpoint_cost_s:
        Simulated cost-model charges for an incarnation restart and
        for writing one checkpoint.
    max_restarts:
        Hard cap on incarnations (defense against a plan that kills
        every replay; a fire-once plan never hits it).
    health_every:
        Run :meth:`~repro.runtime.session.Session.check_health` every
        N steps and record straggler findings as ``observed`` events —
        the detection channel for non-crash degradations.
    degradation_aware:
        Opt-in goodput accounting for degradation windows: the excess
        of a degraded step over the plan's best observed clean step is
        charged to the ledger's ``lost_degraded_s`` bucket instead of
        counting as useful work.  Off by default — the historical
        accounting (and its journal bytes) treats every committed
        second as useful.
    replan_hysteresis / replan_warmup_s / replan_micro_batches:
        Controller tuning for ``spec.replan == "on"`` runs: the
        break-even margin, the configured warm-up surcharge of the
        migration cost model, and the micro-batch axis of the
        alternative space.
    session_kwargs:
        Extra keyword arguments for every ``Session`` construction
        (``lr``, ``precision``, ...).
    """

    def __init__(
        self,
        spec,
        plan: FaultPlan | None = None,
        *,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        retry_budget: int = 3,
        backoff_base_s: float = 0.05,
        detect_timeout_s: float = 0.5,
        restart_latency_s: float = 2.0,
        checkpoint_cost_s: float = 0.25,
        max_restarts: int = 8,
        health_every: int = 0,
        degradation_aware: bool = False,
        replan_hysteresis: float = 0.25,
        replan_warmup_s: float = 0.0,
        replan_micro_batches: tuple[int, ...] = (1, 2, 4, 8),
        grad_scaler=None,
        session_kwargs: dict | None = None,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("periodic checkpoints need a checkpoint_dir")
        if retry_budget < 1:
            raise ValueError("retry_budget must be at least 1")
        if spec.replan == "on" and checkpoint_dir is None:
            raise ValueError(
                "replan='on' needs a checkpoint_dir: a live plan switch "
                "migrates through a durable checkpoint"
            )
        self.spec = spec
        self.plan = plan if plan is not None else FaultPlan()
        if self.plan.faults and self.plan.max_rank() >= spec.num_gpus:
            raise ValueError(
                f"fault plan targets rank {self.plan.max_rank()}, outside "
                f"the {spec.num_gpus}-GPU world"
            )
        self.injector = FaultInjector(self.plan, gpus_per_node=spec.gpus_per_node)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.retry_budget = retry_budget
        self.backoff_base_s = backoff_base_s
        self.detect_timeout_s = detect_timeout_s
        self.restart_latency_s = restart_latency_s
        self.checkpoint_cost_s = checkpoint_cost_s
        self.max_restarts = max_restarts
        self.health_every = health_every
        self._grad_scaler = grad_scaler
        self.session_kwargs = dict(session_kwargs or {})
        # One monitor instance across every incarnation: the session is
        # rebuilt after crashes/regroups, so the telemetry stream must
        # be owned here (the injector pattern) and passed through.
        if self.session_kwargs.get("monitor") is None:
            from repro.obs.monitor import monitor_for

            self.session_kwargs["monitor"] = monitor_for(spec)
        self.monitor = self.session_kwargs["monitor"]
        self.ledger = GoodputLedger()
        self.session = None
        self.loop = None
        self._last_checkpoint: dict | None = None
        self._reported_degradations: set[int] = set()
        # -- adaptive re-planning state ------------------------------------
        self.degradation_aware = bool(degradation_aware)
        self.replan_hysteresis = replan_hysteresis
        self.replan_warmup_s = replan_warmup_s
        self.replan_micro_batches = tuple(replan_micro_batches)
        #: Best observed clean-step seconds per plan shape — the
        #: degradation-aware baseline a degraded step is charged against.
        self._clean_baselines: dict[tuple, float] = {}
        self._controller = None
        self._last_replan_signature = None
        #: Realized post-switch accounting for the outcome journal event.
        self._switch_info: dict | None = None
        self._num_steps = 0

    # -- construction ----------------------------------------------------------
    def _make_grad_scaler(self):
        if self.spec.meta or self._grad_scaler is False:
            return None
        from repro.nn.grad_scaler import DynamicGradScaler

        if self._grad_scaler is None or self._grad_scaler is True:
            return DynamicGradScaler()
        # A template instance: fresh copy per incarnation, state restored
        # from the checkpoint (never shared across incarnations).
        template = self._grad_scaler
        return DynamicGradScaler(
            init_scale=template.scale,
            growth_factor=template.growth_factor,
            backoff_factor=template.backoff_factor,
            growth_interval=template.growth_interval,
            min_scale=template.min_scale,
        )

    def _rebuild(self, spec, *, elastic: bool = False) -> None:
        """Build a fresh incarnation on ``spec`` at the last durable archive.

        The one rebuild-and-resume path of the first build, crash
        restart, elastic regroup and plan switch.  ``elastic`` resumes
        numeric state through ``resume_elastic`` (the DDP extent may
        have changed) instead of the strict ``resume``.
        """
        from repro.runtime import Session, StepLoop

        self.spec = spec
        self.session = Session(
            spec, grad_scaler=self._make_grad_scaler(), **self.session_kwargs
        )
        self.session.cluster.attach_injector(self.injector)
        position = {}
        if self._last_checkpoint is not None:
            path = self._last_checkpoint["path"]
            if spec.meta:
                state = self.session.resume_meta(path)
            elif elastic:
                state = self.session.resume_elastic(path)["loop"]
            else:
                state = self.session.resume(path)["loop"]
            position = {
                "start_step": state["step"],
                "observations_seen": state["observations_seen"],
                "history": [tuple(pair) for pair in state["history"]],
            }
        self.loop = StepLoop(
            self.session.step_fn(), hooks=self.session.loop_hooks(), **position
        )

    def _save(self, path: Path) -> None:
        """Write the durable checkpoint the next rebuild resumes from."""
        if self.spec.meta:
            self.session.save_meta(path, loop_state=self.loop.state())
        else:
            self.session.save(path, loop=self.loop)
        self._last_checkpoint = {"path": path, "step": self.loop.step}

    def _wall(self) -> float:
        return self.session.cluster.timeline.walltime_s()

    def _record(self, report: RecoveryReport, event: RecoveryEvent) -> None:
        """Append to the report and mirror into the monitor's journal."""
        report.events.append(event)
        self.monitor.record_recovery(event)

    # -- the supervised loop ----------------------------------------------------
    def run(self, num_steps: int) -> RecoveryReport:
        """Drive ``num_steps`` steps through the plan; never raises for
        scheduled faults — failures land in ``report.unrecovered``."""
        if num_steps < 1:
            raise ValueError("num_steps must be positive")
        self._num_steps = num_steps
        report = RecoveryReport(ledger=self.ledger)
        if self.session is None:
            self._rebuild(self.spec)
        self.monitor.record_run(
            self.loop.step, "start",
            f"supervised run: {num_steps} step(s), "
            f"{len(self.plan.faults)} scheduled fault(s)",
        )
        while self.loop.step < num_steps and not report.unrecovered:
            step = self.loop.step
            self.injector.begin_step(step)
            rng_state = self.session.data_rng.bit_generator.state
            t0 = self._wall()
            try:
                event = self.loop.run_step()
            except TransientFaultError as err:
                self._recover_transient(err, step, t0, rng_state, report)
                continue
            except FatalFaultError as err:
                self._recover_fatal(err, step, t0, report)
                continue
            self._commit(event, self._wall() - t0, report)
        report.steps_completed = self.loop.step
        report.history = list(self.loop.history)
        report.pending = self.injector.pending()
        report.moot = self.injector.moot()
        report.final_spec = self.spec.identity()
        self._report_switch_outcome()
        outcome = "recovered" if report.recovered else "unrecovered"
        self.monitor.record_run(
            self.loop.step, "end",
            f"run {outcome}: {report.steps_completed} step(s) committed, "
            f"goodput {self.ledger.goodput_fraction:.4f}",
        )
        return report

    # -- commit + periodic work -------------------------------------------------
    def _commit(self, event, seconds: float, report: RecoveryReport) -> None:
        step = event.step
        if self.spec.meta:
            grad_fault = self.injector.grad_fault(step, fire=True)
            skipped = grad_fault is not None
        else:
            grad_fault = self.injector.grad_fault(step)
            skipped = bool(
                getattr(self.session.trainer, "last_step_skipped", False)
            )
        degraded_s = self._degraded_excess(step, seconds, skipped)
        self.ledger.commit_step(step, seconds, skipped=skipped,
                                degraded_s=degraded_s)
        if self._switch_info is not None:
            self._switch_info["steps"] += 1
            self._switch_info["seconds"] += seconds
            if self.injector.active_degradations(step):
                self._switch_info["degraded"] += 1
        # Goodput fractions land on the session's metrics and in the
        # monitor's timeseries every committed step (the goodput_decay
        # detector watches goodput.fraction).
        fractions = self.ledger.publish_gauges(self.session.tracer.metrics)
        self.monitor.observe_gauges(step, fractions)
        if skipped:
            kind = grad_fault.kind.value if grad_fault else "grad_overflow"
            self._record(
                report,
                RecoveryEvent(
                    step=step,
                    kind=kind,
                    action="skip_step",
                    rank=grad_fault.rank if grad_fault else None,
                    lost_s=seconds,
                    detail="grad scaler backed off; optimizer step skipped",
                )
            )
            _LOG.warning("step %d skipped (%s)", step, kind)
        for spec in self.injector.fired_at(step):
            if spec.kind in DEGRADATION_KINDS and id(spec) not in self._reported_degradations:
                self._reported_degradations.add(id(spec))
                self._record(
                    report,
                    RecoveryEvent(
                        step=step,
                        kind=spec.kind.value,
                        action="observed",
                        rank=spec.rank,
                        detail=(
                            f"x{spec.factor:.2f} slowdown for "
                            f"{spec.duration_steps} step(s)"
                        ),
                    )
                )
        self._maybe_checkpoint()
        self._maybe_health(report)
        self._maybe_replan(report)

    def _degraded_excess(self, step: int, seconds: float, skipped: bool) -> float:
        """Degradation-aware accounting: a degraded step's excess over
        the plan's best observed clean step; clean steps feed the
        baseline instead.  Returns 0.0 unless ``degradation_aware``."""
        if not self.degradation_aware or skipped:
            return 0.0
        key = self._plan_key(self.spec)
        baseline = self._clean_baselines.get(key)
        if self.injector.active_degradations(step):
            if baseline is None:
                return 0.0
            return max(0.0, seconds - baseline)
        if baseline is None or seconds < baseline:
            self._clean_baselines[key] = seconds
        return 0.0

    @staticmethod
    def _plan_key(spec) -> tuple:
        return (spec.pp_size, spec.tp_size, spec.fsdp_size, spec.ddp_size,
                spec.micro_batch, spec.recompute, spec.prefetch,
                spec.tp_innermost)

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_every or self.loop.step % self.checkpoint_every:
            return
        path = self.checkpoint_dir / f"ckpt_step{self.loop.step}.npz"
        self._save(path)
        self.ledger.checkpoint(self.checkpoint_cost_s)
        self.monitor.record_checkpoint(
            self.loop.step, "save", detail=f"durable checkpoint at {path.name}"
        )

    def _maybe_health(self, report: RecoveryReport) -> None:
        if not self.health_every or self.loop.step % self.health_every:
            return
        findings = self.session.check_health()
        for finding in findings:
            if finding.category == "straggler":
                self._record(
                    report,
                    RecoveryEvent(
                        step=self.loop.step - 1,
                        kind="health." + finding.category,
                        action="observed",
                        rank=finding.ranks[0] if finding.ranks else None,
                        detail=finding.message,
                    )
                )

    # -- online adaptive re-planning ----------------------------------------------
    def _replan_controller(self):
        """The controller for the current world (rebuilt after regroups)."""
        from repro.replan import ReplanController

        if (self._controller is None
                or self._controller.spec.num_gpus != self.spec.num_gpus):
            self._controller = ReplanController(
                self.spec,
                hysteresis=self.replan_hysteresis,
                micro_batches=self.replan_micro_batches,
            )
        return self._controller

    def _maybe_replan(self, report: RecoveryReport) -> None:
        """Consult the controller when degradation evidence is live.

        One evaluation per distinct evidence signature (the factor maps,
        not the shrinking window): re-pricing the same sickness every
        step would only journal noise, and a shrinking horizon can turn
        a switch into a stay but never the reverse.
        """
        if self.spec.replan != "on":
            return
        from repro.replan import DegradationProfile, MigrationCostModel

        step = self.loop.step
        profile = DegradationProfile.from_injector(self.injector, step)
        if profile.is_clean:
            self._last_replan_signature = None
            return
        signature = (profile.compute, profile.links, profile.lost_ranks)
        if signature == self._last_replan_signature:
            return
        self._last_replan_signature = signature
        cost = MigrationCostModel.from_ledger(
            self.ledger, self.checkpoint_cost_s, self.restart_latency_s,
            warmup_s=self.replan_warmup_s,
        )
        decision = self._replan_controller().evaluate(
            self.spec, step, self._num_steps, profile, cost
        )
        self.monitor.record_replan(
            step, "decision", message=decision.reason,
            data=decision.as_dict(),
        )
        if decision.switch:
            self._execute_switch(decision, report)

    def _execute_switch(self, decision, report: RecoveryReport) -> None:
        """Live plan migration: checkpoint -> rebuild -> bitwise resume."""
        old = self.spec
        candidate = decision.best_candidate
        step = self.loop.step
        new_spec = old.replace(**dataclasses.asdict(candidate))
        path = self.checkpoint_dir / f"replan_step{step}.npz"
        self._save(path)
        self.ledger.replan(decision.migration_cost_s)
        # Seed the new plan's clean baseline from the old plan's by the
        # projected clean-step ratio, so degradation-aware accounting
        # keeps charging post-switch degraded steps honestly even
        # before the new plan commits its first clean step.
        old_base = self._clean_baselines.get(self._plan_key(old))
        if old_base is not None and decision.current_clean_step_s > 0:
            self._clean_baselines.setdefault(
                self._plan_key(new_spec),
                old_base * decision.best_clean_step_s
                / decision.current_clean_step_s,
            )
        self._rebuild(new_spec, elastic=True)
        self._controller = None
        self._switch_info = {
            "decision": decision, "steps": 0, "seconds": 0.0, "degraded": 0,
        }
        detail = f"{decision.current_label} -> {decision.best_label}"
        report.events.append(RecoveryEvent(
            step=step,
            kind="replan",
            action="plan_switch",
            lost_s=decision.migration_cost_s,
            detail=detail + f": {decision.reason}",
        ))
        self.monitor.record_replan(
            step, "switch", message=detail,
            data={
                "from": decision.current_label,
                "to": decision.best_label,
                "migration_cost_s": decision.migration_cost_s,
                "projected_gain_s": decision.projected_gain_s,
                "checkpoint": path.name,
            },
        )
        _LOG.warning("replan at step %d: %s (projected gain %.6f s)",
                     step, detail, decision.projected_gain_s)

    def _report_switch_outcome(self) -> None:
        """Journal projected vs realized gain once the run ends."""
        if self._switch_info is None or not self._switch_info["steps"]:
            return
        info = self._switch_info
        decision = info["decision"]
        degraded = info["degraded"]
        clean = info["steps"] - degraded
        counterfactual = (degraded * decision.current_step_s
                          + clean * decision.current_clean_step_s)
        realized = (counterfactual - info["seconds"]
                    - decision.migration_cost_s)
        self.monitor.record_replan(
            self.loop.step, "outcome",
            message=(
                f"switch at step {decision.step}: projected "
                f"{decision.projected_gain_s:.6f} s gain, realized "
                f"{realized:.6f} s over {info['steps']} step(s)"
            ),
            data={
                "switch_step": decision.step,
                "steps_on_new_plan": info["steps"],
                "degraded_steps_on_new_plan": degraded,
                "seconds_on_new_plan": info["seconds"],
                "counterfactual_s": counterfactual,
                "projected_gain_s": decision.projected_gain_s,
                "realized_gain_s": realized,
            },
        )

    # -- transient recovery -------------------------------------------------------
    def _recover_transient(self, err, step, t0, rng_state, report) -> None:
        fault = err
        wasted = (self._wall() - t0) + self.detect_timeout_s
        lost_total = 0.0
        for attempt in range(1, self.retry_budget + 1):
            backoff = self.backoff_base_s * 2 ** (attempt - 1)
            self.ledger.retry(wasted, backoff)
            lost_total += wasted + backoff
            self.session.data_rng.bit_generator.state = rng_state
            t0 = self._wall()
            try:
                event = self.loop.run_step()
            except TransientFaultError as again:
                fault = again
                wasted = (self._wall() - t0) + self.detect_timeout_s
                continue
            except FatalFaultError as fatal:
                self._recover_fatal(fatal, step, t0, report)
                return
            self._record(
                report,
                RecoveryEvent(
                    step=step,
                    kind=self._kind_of(fault),
                    action="retry",
                    rank=self._rank_of(fault),
                    attempts=attempt,
                    lost_s=lost_total,
                    detail=f"recovered after {attempt} retry attempt(s)",
                )
            )
            _LOG.info("step %d recovered after %d retry(ies)", step, attempt)
            self._commit(event, self._wall() - t0, report)
            return
        # Retry budget exhausted: escalate to rollback-restart.
        self._record(
            report,
            RecoveryEvent(
                step=step,
                kind=self._kind_of(fault),
                action="retry_exhausted",
                rank=self._rank_of(fault),
                attempts=self.retry_budget,
                lost_s=lost_total,
                detail="escalating to rollback restart",
            )
        )
        self._restart(fault, step, t0, report, self.spec)

    # -- fatal recovery: rollback restart, elastic on node loss -------------------
    def _recover_fatal(self, err, step, t0, report) -> None:
        """Restart a crash on the same spec; regroup a node loss elastically
        onto the DDP-shrunken spec."""
        if not isinstance(err, NodeLossError):
            self._restart(err, step, t0, report, self.spec)
            return
        old = self.spec
        gpn = old.gpus_per_node
        rank = self._rank_of(err)
        node = (rank if rank is not None else 0) // gpn
        lost_ranks = set(range(node * gpn, (node + 1) * gpn))
        mapping = {
            r: (r if r < node * gpn else r - gpn)
            for r in range(old.num_gpus)
            if r not in lost_ranks
        }
        try:
            new_spec = self._shrunken_spec(old, mapping)
        except ElasticRecoveryError as impossible:
            self._give_up(report, step, err, str(impossible), str(impossible))
            return
        self._restart(
            err, step, t0, report, new_spec, remap=mapping,
            note=(
                f"node {node} lost: ddp {old.ddp_size}->{new_spec.ddp_size}, "
                f"micro-batch {old.micro_batch}->{new_spec.micro_batch}, "
            ),
        )

    def _restart(self, err, step, t0, report, spec, *, remap=None,
                 note: str = "") -> None:
        """Roll back to the last durable checkpoint and resume on ``spec``.

        Past the restart budget the fault is journaled as
        ``unrecovered`` instead.  ``remap`` (node loss only) renumbers
        the surviving ranks; ``note`` prefixes the event's detail.
        """
        if self.ledger.restarts >= self.max_restarts:
            self._give_up(
                report, step, err,
                f"restart budget ({self.max_restarts}) exhausted at step "
                f"{step}: {err}",
                str(err),
            )
            return
        elastic = remap is not None
        attempt_s = (self._wall() - t0) + self.detect_timeout_s
        lost_steps, lost_s = self.ledger.rollback(attempt_s)
        self.ledger.restart(self.restart_latency_s, elastic=elastic)
        if elastic:
            self.injector.remap_ranks(remap)
        resume_from = (
            self._last_checkpoint["step"] if self._last_checkpoint else 0
        )
        self.monitor.record_checkpoint(
            step, "rollback",
            detail=f"rolling back from step {step} to step {resume_from}"
                   + (" (elastic regroup)" if elastic else ""),
        )
        self._rebuild(spec, elastic=elastic)
        self._record(
            report,
            RecoveryEvent(
                step=step,
                kind=self._kind_of(err),
                action="elastic_regroup" if elastic else "rollback_restart",
                rank=self._rank_of(err),
                lost_s=lost_s + self.restart_latency_s,
                lost_steps=lost_steps,
                detail=f"{note}resumed from step {resume_from}",
            )
        )
        _LOG.warning(
            "%s at step %d: %srolled back to step %d (%d step(s) to replay)",
            self._kind_of(err), step, note, resume_from, lost_steps,
        )

    def _give_up(self, report, step, err, reason: str, detail: str) -> None:
        """Record an unrecoverable fault in the report and the journal."""
        report.unrecovered.append(reason)
        self._record(
            report,
            RecoveryEvent(
                step=step, kind=self._kind_of(err), action="unrecovered",
                rank=self._rank_of(err), detail=detail,
            )
        )

    @staticmethod
    def _shrunken_spec(old, mapping: dict[int, int]):
        """The legal DDP-shrunken RunSpec on the surviving ranks
        (``mapping``: old rank -> new rank), preserving the global batch
        and moving each straggler skew with its GPU; raises
        ElasticRecoveryError."""
        from repro.runtime import RunSpecError

        surviving = len(mapping)
        per_replica = old.pp_size * old.tp_size * old.fsdp_size
        if surviving < per_replica or surviving % per_replica:
            raise ElasticRecoveryError(
                f"surviving world of {surviving} GPUs cannot host whole "
                f"pp x tp x fsdp = {per_replica} replicas"
            )
        new_ddp = surviving // per_replica
        global_batch = old.micro_batch * old.fsdp_size * old.ddp_size
        if global_batch % (new_ddp * old.fsdp_size):
            raise ElasticRecoveryError(
                f"global batch {global_batch} cannot be preserved over "
                f"ddp={new_ddp} x fsdp={old.fsdp_size} micro-batches"
            )
        new_micro = global_batch // (new_ddp * old.fsdp_size)
        try:
            new_spec = old.replace(
                num_gpus=surviving, ddp_size=new_ddp, micro_batch=new_micro,
                compute_skew={
                    mapping[rank]: factor
                    for rank, factor in old.compute_skew if rank in mapping
                },
            )
        except RunSpecError as invalid:
            raise ElasticRecoveryError(
                f"no legal shrunken topology: {invalid}"
            ) from invalid
        reason = new_spec.legality_reason()
        if reason is not None:
            raise ElasticRecoveryError(
                f"shrunken topology rejected by engine legality: {reason}"
            )
        return new_spec

    # -- fault attribute helpers -----------------------------------------------------
    @staticmethod
    def _kind_of(err) -> str:
        fault = getattr(err, "fault", None)
        return fault.kind.value if fault is not None else type(err).__name__

    @staticmethod
    def _rank_of(err):
        fault = getattr(err, "fault", None)
        return fault.rank if fault is not None else None


def run_supervised(
    spec,
    plan: FaultPlan | None = None,
    num_steps: int = 8,
    **supervisor_kwargs,
) -> RecoveryReport:
    """One-call convenience: supervise ``spec`` through ``plan``."""
    return Supervisor(spec, plan, **supervisor_kwargs).run(num_steps)
