"""Discrete-event network simulation substrate.

This package provides the event engine, packet/link/node primitives,
traffic generators, measurement probes and empirical WAN models on which
the LTE/EPC, SDN and ACACIA layers are built.

The engine is deliberately small and deterministic: one event queue (a
tuple heap plus a zero-delay FIFO now lane, see :mod:`repro.sim.engine`)
dispatches timestamped callbacks in exact ``(time, priority, seq)``
order, with optional generator-based processes on top.  All
randomness is injected through :class:`numpy.random.Generator`
instances so every experiment in the repository is reproducible from a
seed.
"""

from repro.sim.context import SimContext, derive_seed
from repro.sim.engine import Event, Process, Simulator
from repro.sim.fluid import FluidDomain, FluidFlow, FluidLink, FluidQueue
from repro.sim.hooks import (HookBus, PacketDelivered, PacketDropped,
                             Subscription)
from repro.sim.link import Link
from repro.sim.monitor import FlowStats, LatencyProbe, ThroughputMeter
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Header, Packet
from repro.sim.shard import (Conduit, ShardPort, ShardSpec,
                             ShardedSimulator, run_isolated)
from repro.sim.tcp import TcpSink, TcpSource
from repro.sim.traffic import CBRSource, GreedySource, PoissonSource
from repro.sim.wan import LTE_WAN_PROFILES, WANProfile

__all__ = [
    "CBRSource",
    "Conduit",
    "Event",
    "FlowStats",
    "FluidDomain",
    "FluidFlow",
    "FluidLink",
    "FluidQueue",
    "GreedySource",
    "Header",
    "HookBus",
    "LatencyProbe",
    "Link",
    "LTE_WAN_PROFILES",
    "Node",
    "Packet",
    "PacketDelivered",
    "PacketDropped",
    "PacketSink",
    "PoissonSource",
    "Process",
    "ShardPort",
    "ShardSpec",
    "ShardedSimulator",
    "SimContext",
    "Simulator",
    "Subscription",
    "TcpSink",
    "TcpSource",
    "ThroughputMeter",
    "WANProfile",
    "derive_seed",
    "run_isolated",
]
