"""Deterministic, seeded fault schedules.

A :class:`FaultPlan` is a frozen list of :class:`FaultSpec` injections,
each pinned to a step index (and optionally to a named compute or
collective event within that step).  Because the simulated stack is
fully deterministic, a plan replayed against the same
:class:`~repro.runtime.spec.RunSpec` fires each fault at *exactly* the
same event every time — fault runs are test fixtures, the same way
traces are.

Plans serialize to JSON (``repro faults --plan plan.json``) and can be
generated from a seed (:meth:`FaultPlan.random`), so an MTBF-style
soak can be reproduced from ``(seed, world, steps)`` alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

#: Format version of the plan JSON document.
PLAN_SCHEMA = 1


class FaultKind(str, Enum):
    """Every injectable fault, mirroring Frontier's observed failure modes."""

    #: A collective stalls past its timeout once; a retry succeeds.
    COLLECTIVE_TIMEOUT = "collective_timeout"
    #: One GCD dies; the incarnation is lost but the world shape survives.
    GPU_CRASH = "gpu_crash"
    #: A whole node is permanently gone; the world must shrink.
    NODE_LOSS = "node_loss"
    #: A link's bandwidth degrades (collectives touching ``rank`` slow
    #: down by ``factor``) for ``duration_steps`` steps.
    LINK_DEGRADE = "link_degrade"
    #: ``rank``'s compute slows down by ``factor`` for
    #: ``duration_steps`` steps (the windowed form of
    #: :class:`~repro.faults.degradation.SkewedCompute`).
    STRAGGLER = "straggler"
    #: A NaN/inf lands in the reduced gradient at ``step``; the grad
    #: scaler must skip the update.
    GRAD_CORRUPTION = "grad_corruption"


#: Kinds the supervisor retries in place.
TRANSIENT_KINDS = frozenset({FaultKind.COLLECTIVE_TIMEOUT})
#: Kinds that kill the current incarnation.
FATAL_KINDS = frozenset({FaultKind.GPU_CRASH, FaultKind.NODE_LOSS})
#: Kinds that only slow events down (never raise).
DEGRADATION_KINDS = frozenset({FaultKind.LINK_DEGRADE, FaultKind.STRAGGLER})
#: Kinds that corrupt numerics (handled by the grad-scaler path).
NUMERICAL_KINDS = frozenset({FaultKind.GRAD_CORRUPTION})


def classify(kind: FaultKind) -> str:
    """Supervisor-facing class: transient / fatal / degradation / numerical."""
    if kind in TRANSIENT_KINDS:
        return "transient"
    if kind in FATAL_KINDS:
        return "fatal"
    if kind in DEGRADATION_KINDS:
        return "degradation"
    return "numerical"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled injection.

    Parameters
    ----------
    kind:
        What breaks.
    step:
        0-based step index at which the fault arms.
    rank:
        Target global rank (for :data:`FaultKind.NODE_LOSS`, any rank
        on the doomed node).
    op:
        Event name to fire at (``"all_gather"``, ``"all_reduce"``, a
        compute op, ...).  ``None`` fires at the first matching event
        of the step the target rank participates in.
    factor:
        Slowdown multiplier for degradations (must exceed 1).
    duration_steps:
        How many steps a degradation persists.
    """

    kind: FaultKind
    step: int
    rank: int = 0
    op: str | None = None
    factor: float = 1.0
    duration_steps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.step < 0:
            raise ValueError(f"fault step {self.step} must be non-negative")
        if self.rank < 0:
            raise ValueError(f"fault rank {self.rank} must be non-negative")
        if self.duration_steps < 1:
            raise ValueError(
                f"duration_steps {self.duration_steps} must be at least 1"
            )
        if self.kind in DEGRADATION_KINDS and self.factor <= 1.0:
            raise ValueError(
                f"{self.kind.value} factor {self.factor} must exceed 1 "
                "(a slowdown multiplier)"
            )

    @property
    def classification(self) -> str:
        return classify(self.kind)

    def as_dict(self) -> dict:
        out = {"kind": self.kind.value, "step": self.step, "rank": self.rank}
        if self.op is not None:
            out["op"] = self.op
        if self.kind in DEGRADATION_KINDS:
            out["factor"] = self.factor
            out["duration_steps"] = self.duration_steps
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injections for one supervised run."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "faults",
            tuple(
                f if isinstance(f, FaultSpec) else FaultSpec(**f)
                for f in self.faults
            ),
        )

    def __len__(self) -> int:
        return len(self.faults)

    def faults_at(self, step: int) -> tuple[FaultSpec, ...]:
        """Injections arming at ``step`` (degradations: their first step)."""
        return tuple(f for f in self.faults if f.step == step)

    def max_rank(self) -> int:
        """Highest rank any fault targets (plan/world compatibility check)."""
        return max((f.rank for f in self.faults), default=0)

    # -- serialization -------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "faults": [f.as_dict() for f in self.faults],
        }

    def to_json(self, path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=1) + "\n")
        return path

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if doc.get("schema") != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported fault-plan schema {doc.get('schema')!r} "
                f"(this build reads {PLAN_SCHEMA})"
            )
        return cls(
            faults=tuple(FaultSpec(**entry) for entry in doc.get("faults", ())),
            seed=int(doc.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- generation ----------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_steps: int,
        world_size: int,
        count: int = 3,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.COLLECTIVE_TIMEOUT,
            FaultKind.GPU_CRASH,
            FaultKind.STRAGGLER,
            FaultKind.LINK_DEGRADE,
            FaultKind.GRAD_CORRUPTION,
        ),
        max_factor: float = 4.0,
    ) -> "FaultPlan":
        """A seeded schedule: same arguments, same plan, bit for bit."""
        import numpy as np

        if num_steps < 1 or world_size < 1:
            raise ValueError("num_steps and world_size must be positive")
        if count < 0:
            raise ValueError(f"count {count} must be non-negative")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(count):
            kind = kinds[int(rng.integers(len(kinds)))]
            spec = FaultSpec(
                kind=kind,
                step=int(rng.integers(num_steps)),
                rank=int(rng.integers(world_size)),
                factor=(
                    1.0 + float(rng.uniform(0.5, max_factor - 1.0))
                    if kind in DEGRADATION_KINDS
                    else 1.0
                ),
                duration_steps=(
                    int(rng.integers(1, max(2, num_steps // 2)))
                    if kind in DEGRADATION_KINDS
                    else 1
                ),
            )
            faults.append(spec)
        return cls(faults=tuple(faults), seed=seed)

    def remapped(self, mapping: dict[int, int]) -> "FaultPlan":
        """A copy with fault ranks renumbered (elastic-regroup helper);
        faults whose rank is absent from ``mapping`` are dropped."""
        kept = tuple(
            replace(f, rank=mapping[f.rank])
            for f in self.faults
            if f.rank in mapping
        )
        return FaultPlan(faults=kept, seed=self.seed)
