"""Ablation: pipeline parallelism's layer-count limit (paper Sec II).

The paper dismisses pipeline parallelism because "the scalability for
pipeline parallelism is limited by the number of model layers".  This
benchmark makes that executable on the stage machinery of the engine's
pipeline axis: the partition refuses more stages than layers, the
maximal pipelined model size plateaus once GPUs exceed the 56-layer
depth, while Hybrid-STOP keeps scaling; and the 1F1B bubble shrinks
only with more micro-batches — i.e. more memory.
"""

import pytest

from repro.memory.estimator import MemoryModel, Parallelism
from repro.models import ORBIT_113B
from repro.parallel import PipelineLimitError
from repro.parallel.stages import bubble_fraction, partition_blocks


def _max_sizes():
    model = MemoryModel()
    return {
        gpus: {
            "pipeline": model.max_model_size(Parallelism.PIPELINE, gpus, ORBIT_113B)[0],
            "hybrid": model.max_model_size(Parallelism.HYBRID_STOP, gpus, ORBIT_113B)[0],
        }
        for gpus in (8, 64, 512)
    }


def test_pipeline_layer_limit(once):
    sizes = once(_max_sizes)
    rows = "\n".join(
        f"  {gpus:>4d} GPUs: pipeline {v['pipeline'] / 1e9:.1f}B, "
        f"hybrid-stop {v['hybrid'] / 1e9:.1f}B"
        for gpus, v in sizes.items()
    )
    print(f"\nmax model size, pipeline vs Hybrid-STOP:\n{rows}")

    # The executable limit: stages cannot exceed layers.
    with pytest.raises(PipelineLimitError):
        partition_blocks(2, 3)

    # The scaling consequence: pipeline plateaus at depth (56 layers for
    # the 113B template), Hybrid-STOP keeps growing.
    assert sizes[64]["pipeline"] == sizes[512]["pipeline"]
    assert sizes[512]["hybrid"] > 1.5 * sizes[512]["pipeline"]

    # And the bubble: halving it requires ~doubling in-flight micro-batches.
    assert len(partition_blocks(8, 8)) == 8
    assert bubble_fraction(8, 4) > 2.5 * bubble_fraction(8, 32)
