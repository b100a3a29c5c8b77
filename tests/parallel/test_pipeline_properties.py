"""Property-based tests for the engine's pipeline axis (random partitions)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster
from repro.models import OrbitConfig, build_model
from repro.parallel import HybridParallelPlan, HybridSTOPEngine
from repro.parallel.stages import bubble_fraction, partition_blocks


@st.composite
def pipeline_cases(draw):
    depth = draw(st.integers(1, 5))
    num_stages = draw(st.integers(1, depth))
    micro = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**16))
    return depth, num_stages, micro, dim, seed


@settings(max_examples=20, deadline=None)
@given(case=pipeline_cases())
def test_property_pipeline_equals_serial(case):
    """A pure pipeline (one stage per rank) is bitwise the serial model:
    outputs, input gradients and every parameter gradient."""
    depth, num_stages, micro, dim, seed = case
    config = OrbitConfig(
        "pipe-prop", embed_dim=dim, depth=depth, num_heads=2,
        in_vars=3, out_vars=2, img_height=8, img_width=8, patch_size=4,
    )
    cluster = VirtualCluster(num_gpus=num_stages, gpus_per_node=8)
    plan = HybridParallelPlan(
        cluster, tp_size=1, fsdp_size=1, ddp_size=1, pp_size=num_stages
    )
    engine = HybridSTOPEngine(build_model(config, rng=seed, dtype=np.float64), plan)
    reference = build_model(config, rng=seed, dtype=np.float64)

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(micro, 3, 8, 8))
    lead = np.full((micro,), 24.0)
    grad = rng.normal(size=(micro, 2, 8, 8))

    y = engine.forward([[x]], [[lead]])[0][0]
    grad_x = engine.backward([[grad]])[0][0]
    trunk = engine.trunks[0]
    stages = getattr(trunk, "stage_trunks", [trunk])  # pp=1: one plain trunk
    sizes = [len(stage.blocks) for stage in stages]
    assert sizes == [end - start for start, end in partition_blocks(depth, num_stages)]

    assert np.array_equal(y, reference(x, lead))
    reference.zero_grad()
    assert np.array_equal(grad_x, reference.backward(grad))
    ref_grads = {n: p.grad for n, p in reference.named_parameters()}
    for name, value in engine.trunks[0].gathered_grads().items():
        assert np.array_equal(value, ref_grads[name]), name


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 6),
    stages=st.integers(1, 6),
    micro=st.integers(1, 16),
)
def test_property_bubble_fraction_bounds(depth, stages, micro):
    """The GPipe bubble is always in [0, 1) and vanishes as M grows."""
    if stages > depth:
        return
    assert len(partition_blocks(depth, stages)) == stages
    bubble = bubble_fraction(stages, micro)
    assert 0.0 <= bubble < 1.0
    assert bubble_fraction(stages, micro + 8) <= bubble
    if stages == 1:
        assert bubble == 0.0
