"""Pipeline parallelism (the Sec II comparison) on the engine's pp axis.

The paper's claims about pipelining — stages cannot exceed layers, the
uneven contiguous partition, the ``(S-1)/(M+S-1)`` bubble, a makespan
above the ideal, point-to-point boundary traffic and per-stage resident
parameters — checked on the stage helpers of
:mod:`repro.parallel.stages` and on :class:`HybridSTOPEngine` at
``pp = S, tp = fsdp = ddp = 1``.  Bitwise 4D parity lives in
``test_pipeline_parity.py``.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.models import OrbitConfig, build_model
from repro.obs.tracer import Tracer
from repro.parallel import HybridParallelPlan, HybridSTOPEngine, PeakFractionCompute
from repro.parallel.stages import (
    PipelineLimitError,
    bubble_fraction,
    partition_blocks,
    schedule_walltime,
)


def _config(depth):
    return OrbitConfig(
        "pipe-tiny", embed_dim=8, depth=depth, num_heads=2,
        in_vars=3, out_vars=2, img_height=8, img_width=8, patch_size=4,
    )


def make_setup(num_stages=2, depth=4, micro_batch=3, seed=0, compute=False):
    """A pure-pipeline engine (one stage per rank), its serial twin, and
    one step's ``[1][1]``-nested inputs and output gradients."""
    cluster = VirtualCluster(num_gpus=num_stages, gpus_per_node=8)
    cluster.timeline.tracer = Tracer()
    plan = HybridParallelPlan(
        cluster, tp_size=1, fsdp_size=1, ddp_size=1, pp_size=num_stages
    )
    engine = HybridSTOPEngine(
        build_model(_config(depth), rng=seed, dtype=np.float64), plan,
        compute_model=PeakFractionCompute(cluster) if compute else None,
    )
    reference = build_model(_config(depth), rng=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(micro_batch, 3, 8, 8))
    lead = np.full((micro_batch,), 24.0)
    grad = rng.normal(size=(micro_batch, 2, 8, 8))
    return reference, engine, (x, lead, grad), cluster


def run_step(engine, batch):
    x, lead, grad = batch
    y = engine.forward([[x]], [[lead]])[0][0]
    grad_x = engine.backward([[grad]])[0][0]
    return y, grad_x


class TestEquivalence:
    @pytest.mark.parametrize("num_stages", [1, 2, 4])
    def test_forward_matches_serial(self, num_stages):
        reference, engine, (x, lead, _), _ = make_setup(num_stages=num_stages)
        y = engine.forward([[x]], [[lead]])[0][0]
        assert np.array_equal(y, reference(x, lead))

    def test_backward_matches_serial(self):
        reference, engine, batch, _ = make_setup(num_stages=2, seed=1)
        x, lead, grad = batch
        _, grad_x = run_step(engine, batch)
        reference(x, lead)
        reference.zero_grad()
        assert np.array_equal(grad_x, reference.backward(grad))
        ref_grads = {n: p.grad for n, p in reference.named_parameters()}
        grads = engine.trunks[0].gathered_grads()
        assert grads
        for name, value in grads.items():
            assert np.array_equal(value, ref_grads[name]), name


class TestLimitsAndLayout:
    def test_layer_count_limit(self):
        """The paper's Sec II point: stages cannot exceed layers."""
        with pytest.raises(PipelineLimitError, match="limited by the number"):
            partition_blocks(2, 3)
        with pytest.raises(PipelineLimitError):
            make_setup(num_stages=3, depth=2)

    def test_needs_enough_ranks(self):
        with pytest.raises(ValueError, match="world size 2"):
            HybridParallelPlan(
                VirtualCluster(num_gpus=2), tp_size=1, fsdp_size=1,
                ddp_size=1, pp_size=4,
            )

    def test_uneven_partition(self):
        assert partition_blocks(4, 3) == [(0, 2), (2, 3), (3, 4)]
        _, engine, _, _ = make_setup(num_stages=3, depth=4)
        sizes = [len(stage.blocks) for stage in engine.trunks[0].stage_trunks]
        assert sizes == [2, 1, 1]
        assert sum(sizes) == 4

    def test_parameters_distributed_across_devices(self):
        _, engine, _, cluster = make_setup(num_stages=2, depth=4)
        for stage, trunk in enumerate(engine.trunks[0].stage_trunks):
            params = trunk.sharded_parameters()
            assert {d.rank for p in params for d in p.devices} == {stage}
            stage_bytes = sum(p.shard_nbytes for p in params)
            memory = cluster.device(stage).memory
            assert memory.category_current("params.trunk") == stage_bytes

    def test_boundary_traffic_recorded(self):
        _, engine, batch, cluster = make_setup(num_stages=2)
        run_step(engine, batch)
        assert cluster.timeline.ledger(0).comm_bytes > 0
        assert cluster.timeline.ledger(1).comm_bytes > 0
        sends = {
            (span.name, span.rank) for span in cluster.timeline.tracer.spans
            if span.name in ("pipeline.send", "pipeline.grad_send")
        }
        assert sends == {
            (op, rank) for op in ("pipeline.send", "pipeline.grad_send")
            for rank in (0, 1)
        }


class TestSchedule:
    def test_bubble_fraction(self):
        assert bubble_fraction(4, 1) == pytest.approx(3 / 4)
        assert bubble_fraction(4, 12) == pytest.approx(3 / 15)
        with pytest.raises(ValueError):
            bubble_fraction(4, 0)

    def test_more_micro_batches_amortize_the_bubble(self):
        assert bubble_fraction(4, 16) < bubble_fraction(4, 2)

    def test_schedule_walltime_exceeds_ideal(self):
        """The engine's 1F1B makespan exceeds the busiest stage's own
        work: the bubble costs something."""
        _, engine, batch, cluster = make_setup(num_stages=2, compute=True)
        run_step(engine, batch)
        stall = [0.0, 0.0]
        for span in cluster.timeline.tracer.spans:
            if span.name == "pipeline.stall":
                stall[span.rank] += span.dur
        busy = [cluster.timeline.ledger(r).walltime_s - stall[r] for r in (0, 1)]
        assert cluster.timeline.walltime_s() > max(busy)
        assert schedule_walltime(busy, 3) > max(busy)


class TestErrors:
    def test_backward_without_forward(self):
        _, engine, (_, _, grad), _ = make_setup()
        with pytest.raises(RuntimeError, match="without a cached forward"):
            engine.backward([[grad]])

    def test_empty_micro_batches(self):
        _, engine, _, _ = make_setup()
        with pytest.raises(ValueError, match="nested"):
            engine.forward([], [])
