"""Automatic parallelism planner (``repro tune``).

Answers "what is the fastest legal Hybrid-STOP configuration for this
model on N nodes that fits in device memory?" with a two-stage search:

1. :mod:`repro.tune.space` enumerates every legal
   (tensor-parallel, FSDP, DDP) factorization of the world size crossed
   with micro-batch size, activation checkpointing, prefetch, and rank
   layout, recording a reason for every rejected combination;
2. :mod:`repro.tune.estimator` scores each candidate analytically —
   per-step time from FLOP counts plus alpha-beta collective costs
   along the plan's group layout, peak memory from
   :mod:`repro.memory.estimator` — and prunes configurations that do
   not fit;
3. :mod:`repro.tune.search` ranks the survivors and validates the
   top-k with real meta-mode engine steps (the same harness the bench
   gate runs), with a result cache keyed by (model, topology, config);
4. :mod:`repro.tune.report` renders the ranked table, the why-pruned
   explanations, and a critical-path explanation of the winner.
"""

from repro.tune.estimator import AnalyticEstimator, Estimate
from repro.tune.report import render_report, result_document, write_report
from repro.tune.search import (
    InfeasibleRequest,
    ScoredCandidate,
    TuneCache,
    TuneResult,
    run_search,
    simulate_candidate,
)
from repro.tune.space import (
    Candidate,
    InvalidRequest,
    Rejection,
    SearchSpace,
    TuneRequest,
    enumerate_space,
)

__all__ = [
    "AnalyticEstimator",
    "Candidate",
    "Estimate",
    "InfeasibleRequest",
    "InvalidRequest",
    "Rejection",
    "ScoredCandidate",
    "SearchSpace",
    "TuneCache",
    "TuneRequest",
    "TuneResult",
    "enumerate_space",
    "render_report",
    "result_document",
    "run_search",
    "simulate_candidate",
    "write_report",
]
