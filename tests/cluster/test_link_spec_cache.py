"""The memoized link specs of :class:`CollectiveCostModel`.

The cost model keeps one :class:`LinkSpec` per distinct rank set.  The
cache must be invisible: for any group, passed as a list, a tuple or a
``range``, every collective costs exactly what the uncached
:meth:`FrontierTopology.effective_bandwidth` and the vectorized
:func:`repro.cluster.symmetry._effective_specs` give, float for float,
on the first call and on every repeat.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CollectiveCostModel, FrontierTopology
from repro.cluster.symmetry import _effective_specs

WORLDS = (8, 16, 64)

#: One model per world, shared across examples, so lookups also run
#: against a cache already filled by other groups.
MODELS = {n: CollectiveCostModel(FrontierTopology(num_gpus=n, gpus_per_node=8))
          for n in WORLDS}

#: (collective, ring steps for a group of g, bytes per step for S bytes)
COLLECTIVES = (
    ("all_gather", lambda g: g - 1, lambda s, g: s / g),
    ("reduce_scatter", lambda g: g - 1, lambda s, g: s / g),
    ("all_reduce", lambda g: 2 * (g - 1), lambda s, g: s / g),
    ("broadcast", lambda g: math.ceil(math.log2(g)), lambda s, g: s),
    ("all_to_all", lambda g: g - 1, lambda s, g: s / g),
)


@st.composite
def groups(draw):
    """A world size and a rank group in it, as a list, tuple or range."""
    world = draw(st.sampled_from(WORLDS))
    form = draw(st.sampled_from(("list", "tuple", "range")))
    if form == "range":
        start = draw(st.integers(0, world - 1))
        step = draw(st.integers(1, world))
        stop = draw(st.integers(start + 1, world))
        return world, range(start, stop, step)
    ranks = draw(st.lists(st.integers(0, world - 1), min_size=1,
                          max_size=world, unique=True))
    return world, ranks if form == "list" else tuple(ranks)


def _uncached_cost(topology, ranks, steps, per_step, nbytes):
    g = len(ranks)
    if g <= 1:
        return 0.0
    spec = topology.effective_bandwidth(list(ranks))
    return CollectiveCostModel._steps(
        spec.latency_s, spec.bandwidth_Bps, steps(g), per_step(nbytes, g))


class TestMemoizedLinkSpecs:
    @given(group=groups(), nbytes=st.integers(0, 2**34))
    @settings(max_examples=120, deadline=None)
    def test_costs_equal_uncached_and_vectorized_specs(self, group, nbytes):
        world, ranks = group
        model = MODELS[world]
        topology = model.topology
        spec = model._spec(ranks)
        assert spec == topology.effective_bandwidth(list(ranks))
        lat, bw = _effective_specs(topology, np.array([list(ranks)]))
        assert (spec.latency_s, spec.bandwidth_Bps) == (lat[0], bw[0])
        for op, steps, per_step in COLLECTIVES:
            first = getattr(model, op)(ranks, nbytes)
            assert first == _uncached_cost(topology, ranks, steps, per_step, nbytes), op
            assert getattr(model, op)(ranks, nbytes) == first, op
        assert model._spec(ranks) == spec

    @pytest.mark.parametrize("world", WORLDS)
    def test_list_tuple_and_range_share_one_entry(self, world):
        model = CollectiveCostModel(FrontierTopology(num_gpus=world))
        ranks = range(0, world, 2)
        spec = model._spec(ranks)
        assert model._spec(list(ranks)) is spec
        assert model._spec(tuple(ranks)) is spec
        assert len(model._specs) == 1

    def test_cache_is_not_part_of_equality(self):
        topology = FrontierTopology(num_gpus=16)
        warm, cold = CollectiveCostModel(topology), CollectiveCostModel(topology)
        warm.all_reduce(range(16), 1 << 20)
        assert warm == cold
        assert hash(warm) == hash(cold)

    def test_invalid_rank_still_raises_and_is_not_cached(self):
        model = CollectiveCostModel(FrontierTopology(num_gpus=16))
        with pytest.raises(ValueError, match="out of range"):
            model.all_reduce([0, 16], 1024)
        assert not model._specs
