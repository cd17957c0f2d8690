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

The package re-exports the engine and the data path only.  Traffic
generators (:mod:`repro.sim.traffic`), probes (:mod:`repro.sim.monitor`),
TCP (:mod:`repro.sim.tcp`) and the WAN models (:mod:`repro.sim.wan`)
are imported by module name, so a run that uses none of them does not
load them.
"""

from repro.sim.context import SimContext, derive_seed
from repro.sim.engine import Event, Process, Simulator
from repro.sim.fluid import FluidDomain, FluidFlow, FluidLink, FluidQueue
from repro.sim.hooks import (HookBus, PacketDelivered, PacketDropped,
                             Subscription)
from repro.sim.link import Link
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Packet

__all__ = [
    "Event",
    "FluidDomain",
    "FluidFlow",
    "FluidLink",
    "FluidQueue",
    "HookBus",
    "Link",
    "Node",
    "Packet",
    "PacketDelivered",
    "PacketDropped",
    "PacketSink",
    "Process",
    "SimContext",
    "Simulator",
    "Subscription",
    "derive_seed",
]
