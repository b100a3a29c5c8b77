"""Parallelism engines over the virtual cluster.

* :mod:`repro.parallel.plan` — the hierarchical group layout of paper
  Fig 4 (tensor-parallel in-node, FSDP across nodes, DDP across
  sub-clusters);
* :mod:`repro.parallel.fsdp` — Fully Sharded Data Parallelism
  (paper Fig 2), including the no-layer-wrapping full-model gather that
  causes its peak-memory problem;
* :mod:`repro.parallel.tensor_parallel` — Megatron-style tensor
  parallelism, scalability capped by the attention head count;
* :mod:`repro.parallel.ddp` — replica data parallelism with one
  gradient all-reduce per step;
* :mod:`repro.parallel.stages` — pipeline-stage machinery: the
  contiguous partition (capped by the layer count — the paper's Sec II
  point), 1F1B schedule arithmetic and boundary sends;
* :mod:`repro.parallel.engine` — the Hybrid-STOP training engine
  combining all four axes (PP x TP x FSDP x DDP);
* :mod:`repro.core` — the sharded sublayer modules the engine is
  built from.
"""

from repro.parallel.compute import ComputeTimeModel, PeakFractionCompute
from repro.parallel.ddp import DDPEngine
from repro.parallel.engine import HybridSTOPEngine
from repro.parallel.fsdp import FSDPModule
from repro.parallel.plan import HybridParallelPlan
from repro.parallel.stages import PipelineLimitError
from repro.parallel.tensor_parallel import TensorParallelBlock

__all__ = [
    "ComputeTimeModel",
    "DDPEngine",
    "FSDPModule",
    "HybridParallelPlan",
    "HybridSTOPEngine",
    "PeakFractionCompute",
    "PipelineLimitError",
    "TensorParallelBlock",
]
