"""Hierarchical parallel group layout (paper Fig 4).

The three orthogonal axes and their placement on the machine:

* **tensor-parallel** groups communicate per-layer activations
  (fine-grained, latency-sensitive) and are therefore mapped to
  *consecutive ranks inside one node* to ride the Infinity Fabric;
* **FSDP** groups communicate parameter shards (coarser) and are
  mapped *across nodes* — with the default layout, members of an FSDP
  group sit at the same slot of different tensor-parallel groups;
* **DDP** groups communicate once per step (gradient reduction) and
  span sub-clusters.

Global rank layout (default, ``tp_innermost=True``)::

    rank(d, f, k) = d * F * K + f * K + k

so the K members of a tensor-parallel group are consecutive (in-node
whenever K <= gpus_per_node), and FSDP members are strided by K.
``tp_innermost=False`` swaps the two — the pessimal mapping used by the
hierarchy ablation.

With a pipeline axis (``pp_size > 1``) the stage coordinate is
*outermost*::

    rank(s, d, f, k) = s * D * F * K + rank(d, f, k)

Each stage is a self-similar 3D sub-grid, so the per-stage sub-plans
returned by :meth:`HybridParallelPlan.stage_plan` keep the DDP/FSDP
rank strides of the 3D layout — which is what lets symmetry folding
(:mod:`repro.cluster.timeline`) reuse its stride arithmetic unchanged
on 4D runs.
"""

from __future__ import annotations

from repro.cluster.cluster import VirtualCluster
from repro.cluster.process_group import ProcessGroup


class HybridParallelPlan:
    """Factorize a cluster into (PP, DDP, FSDP, tensor-parallel) groups.

    Parameters
    ----------
    cluster:
        The virtual cluster; its world size must equal
        ``pp_size * ddp_size * fsdp_size * tp_size``.
    tp_size / fsdp_size / ddp_size:
        Sizes of the three orthogonal sharding axes (K, F, D in the
        paper's notation).
    pp_size:
        Pipeline depth S (stage-outermost; default 1 reproduces the
        paper's pure 3D Hybrid-STOP layout bit-for-bit).
    tp_innermost:
        Default True: tensor-parallel ranks consecutive (in-node).
        False places FSDP innermost instead (ablation of Fig 4).

    ``rank``/``coords``/the group accessors all speak *stage-local* 3D
    coordinates: on the top-level plan they address stage 0 (which is
    the whole machine when ``pp_size == 1``); :meth:`stage_plan`
    returns the offset sub-plan addressing stage ``s``.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        tp_size: int = 1,
        fsdp_size: int = 1,
        ddp_size: int = 1,
        tp_innermost: bool = True,
        pp_size: int = 1,
        _rank_offset: int | None = None,
    ):
        if min(tp_size, fsdp_size, ddp_size, pp_size) < 1:
            raise ValueError("group sizes must be positive")
        stage_size = tp_size * fsdp_size * ddp_size
        if _rank_offset is None:
            _rank_offset = 0
            if stage_size * pp_size != cluster.world_size:
                raise ValueError(
                    f"pp({pp_size}) * tp({tp_size}) * fsdp({fsdp_size}) * "
                    f"ddp({ddp_size}) = {stage_size * pp_size} != world size "
                    f"{cluster.world_size}"
                )
        elif _rank_offset + stage_size > cluster.world_size:
            raise ValueError(
                f"stage sub-plan at offset {_rank_offset} exceeds world size "
                f"{cluster.world_size}"
            )
        self.cluster = cluster
        self.tp_size = tp_size
        self.fsdp_size = fsdp_size
        self.ddp_size = ddp_size
        self.pp_size = pp_size
        self.tp_innermost = tp_innermost
        self.rank_offset = _rank_offset
        self._tp_groups: dict[tuple[int, int], ProcessGroup] = {}
        self._fsdp_groups: dict[tuple[int, int], ProcessGroup] = {}
        self._ddp_groups: dict[tuple[int, int], ProcessGroup] = {}
        self._stage_plans: dict[int, "HybridParallelPlan"] = {}

    # -- rank arithmetic -----------------------------------------------------
    @property
    def stage_size(self) -> int:
        """Ranks per pipeline stage (the 3D sub-grid size)."""
        return self.tp_size * self.fsdp_size * self.ddp_size

    def rank(self, ddp: int, fsdp: int, tp: int) -> int:
        """Global rank of stage-local grid coordinate ``(d, f, k)``."""
        self._check(ddp, fsdp, tp)
        per_replica = self.tp_size * self.fsdp_size
        if self.tp_innermost:
            return self.rank_offset + ddp * per_replica + fsdp * self.tp_size + tp
        return self.rank_offset + ddp * per_replica + tp * self.fsdp_size + fsdp

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Inverse of :meth:`rank`: ``(ddp, fsdp, tp)`` of a global rank."""
        per_replica = self.tp_size * self.fsdp_size
        ddp, rem = divmod(rank - self.rank_offset, per_replica)
        if self.tp_innermost:
            fsdp, tp = divmod(rem, self.tp_size)
        else:
            tp, fsdp = divmod(rem, self.fsdp_size)
        return ddp, fsdp, tp

    def stage_plan(self, stage: int) -> "HybridParallelPlan":
        """3D sub-plan addressing pipeline stage ``stage``.

        ``stage_plan(0)`` *is* this plan when ``pp_size == 1``, so the
        non-pipelined path keeps its group caches (and therefore its
        event stream) byte-identical to the pre-4D layout.
        """
        if not 0 <= stage < self.pp_size:
            raise ValueError(f"stage {stage} outside pp_size {self.pp_size}")
        if self.pp_size == 1 and stage == 0:
            return self
        if stage not in self._stage_plans:
            self._stage_plans[stage] = HybridParallelPlan(
                self.cluster,
                tp_size=self.tp_size,
                fsdp_size=self.fsdp_size,
                ddp_size=self.ddp_size,
                tp_innermost=self.tp_innermost,
                pp_size=1,
                _rank_offset=self.rank_offset + stage * self.stage_size,
            )
        return self._stage_plans[stage]

    def _check(self, ddp: int, fsdp: int, tp: int) -> None:
        if not (0 <= ddp < self.ddp_size and 0 <= fsdp < self.fsdp_size and 0 <= tp < self.tp_size):
            raise ValueError(
                f"grid coordinate ({ddp}, {fsdp}, {tp}) outside "
                f"({self.ddp_size}, {self.fsdp_size}, {self.tp_size})"
            )

    # -- groups ---------------------------------------------------------------
    def tp_group(self, ddp: int, fsdp: int) -> ProcessGroup:
        """Tensor-parallel group: fixed (d, f), all k."""
        key = (ddp, fsdp)
        if key not in self._tp_groups:
            ranks = [self.rank(ddp, fsdp, k) for k in range(self.tp_size)]
            self._tp_groups[key] = self.cluster.new_group(ranks)
        return self._tp_groups[key]

    def fsdp_group(self, ddp: int, tp: int) -> ProcessGroup:
        """FSDP group: fixed (d, k), all f."""
        key = (ddp, tp)
        if key not in self._fsdp_groups:
            ranks = [self.rank(ddp, f, tp) for f in range(self.fsdp_size)]
            self._fsdp_groups[key] = self.cluster.new_group(ranks)
        return self._fsdp_groups[key]

    def ddp_group(self, fsdp: int, tp: int) -> ProcessGroup:
        """DDP group: fixed (f, k), all d."""
        key = (fsdp, tp)
        if key not in self._ddp_groups:
            ranks = [self.rank(d, fsdp, tp) for d in range(self.ddp_size)]
            self._ddp_groups[key] = self.cluster.new_group(ranks)
        return self._ddp_groups[key]

    def fsdp_devices(self, ddp: int, tp: int) -> list:
        """Devices hosting one FSDP group, in group order."""
        return [self.cluster.device(r) for r in self.fsdp_group(ddp, tp).ranks]

    def __repr__(self) -> str:
        pp = f"pp={self.pp_size}, " if self.pp_size > 1 else ""
        return (
            f"HybridParallelPlan({pp}ddp={self.ddp_size}, fsdp={self.fsdp_size}, "
            f"tp={self.tp_size}, tp_innermost={self.tp_innermost})"
        )
