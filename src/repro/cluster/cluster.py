"""The virtual cluster: devices + topology + timeline + groups."""

from __future__ import annotations

from typing import Sequence

from repro.cluster.costmodel import CollectiveCostModel
from repro.cluster.device import VirtualGPU
from repro.cluster.process_group import ProcessGroup
from repro.cluster.timeline import NULL_INJECTOR, Timeline
from repro.cluster.topology import FrontierTopology, LinkSpec
from repro.obs.tracer import NULL_TRACER


class VirtualCluster:
    """A single-process stand-in for a Frontier partition.

    Parameters
    ----------
    num_gpus:
        World size (number of GCDs).
    gpus_per_node:
        GCDs per node (8 on Frontier).
    gpu_memory_bytes:
        HBM per GCD; ``None`` keeps the 64 GB default.
    track_device_memory:
        When False, devices get unlimited trackers (analytic what-if runs).
    intra_node / inter_node:
        Optional :class:`~repro.cluster.topology.LinkSpec` overrides.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` receiving one span
        per recorded compute/communication event.  Defaults to the
        no-op tracer (zero events, no overhead).

    Examples
    --------
    >>> cluster = VirtualCluster(num_gpus=16)
    >>> tp_group = cluster.new_group(range(8))          # one node
    >>> cluster.topology.group_link_kind(tp_group.ranks).value
    'intra_node'
    """

    def __init__(
        self,
        num_gpus: int,
        gpus_per_node: int = 8,
        gpu_memory_bytes: int | None = None,
        track_device_memory: bool = True,
        intra_node: LinkSpec | None = None,
        inter_node: LinkSpec | None = None,
        tracer=None,
    ):
        topo_kwargs = {}
        if intra_node is not None:
            topo_kwargs["intra_node"] = intra_node
        if inter_node is not None:
            topo_kwargs["inter_node"] = inter_node
        self.topology = FrontierTopology(num_gpus, gpus_per_node, **topo_kwargs)
        self.cost_model = CollectiveCostModel(self.topology)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timeline = Timeline(num_gpus, tracer=self.tracer)
        self.injector = NULL_INJECTOR
        device_kwargs = {}
        if gpu_memory_bytes is not None:
            device_kwargs["memory_capacity"] = gpu_memory_bytes
        self.devices = [VirtualGPU(rank, **device_kwargs) for rank in range(num_gpus)]
        if not track_device_memory:
            for device in self.devices:
                device.memory.capacity_bytes = None
        self._groups: dict[tuple, ProcessGroup] = {}
        self.world = self.new_group(range(num_gpus))

    @property
    def world_size(self) -> int:
        """Total number of GPUs."""
        return self.topology.num_gpus

    def device(self, rank: int) -> VirtualGPU:
        """Device hosting ``rank``."""
        return self.devices[rank]

    def new_group(self, ranks: Sequence[int]) -> ProcessGroup:
        """The process group over the given global ranks, in this order.

        Groups are immutable, so one object serves every request for
        the same rank sequence; a different order is a different group.
        """
        key = tuple(ranks)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = ProcessGroup(self, key)
        return group

    def install_timeline(self, timeline: Timeline) -> None:
        """Replace the timeline (e.g. with a
        :class:`~repro.cluster.timeline.FoldedTimeline`), preserving the
        attached tracer and fault injector."""
        timeline.tracer = self.tracer
        timeline.injector = self.injector
        self.timeline = timeline

    def attach_tracer(self, tracer) -> None:
        """Install (or replace) the tracer receiving timeline events."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timeline.tracer = self.tracer

    def attach_injector(self, injector) -> None:
        """Install (or replace) the fault injector consulted by the
        timeline before every compute/communication event."""
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.timeline.injector = self.injector

    def reset(self) -> None:
        """Clear the timeline, trace, and device memory (between runs)."""
        self.timeline.reset()
        self.tracer.clear()
        for device in self.devices:
            device.memory.free_all()
            device.memory.reset_peak()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VirtualCluster(num_gpus={self.world_size}, "
            f"nodes={self.topology.num_nodes})"
        )
