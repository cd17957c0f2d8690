"""Typed control- and data-plane events published on the hook bus.

Every EPC procedure announces its outcome as an immutable
``NamedTuple`` record on ``sim.hooks`` (see :mod:`repro.sim.hooks`).
Probes, pagers and application sessions subscribe to these instead of
rebinding each other's methods, which keeps observation composable:
any number of listeners can watch the same UE without a hand-rolled
handler chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.bearer import Bearer
    from repro.epc.enodeb import ENodeB
    from repro.epc.messages import ControlMessage
    from repro.epc.ue import UEDevice
    from repro.sim.packet import Packet


class ProcedureStarted(NamedTuple):
    """A signalling procedure began executing as a simulator process.

    ``subject`` is the UE (or other principal) the procedure acts on;
    ``time`` is the simulated start time.  Paired with
    :class:`ProcedureCompleted` this gives tracing tools per-phase
    visibility into concurrent control-plane activity.
    """

    name: str
    subject: Any
    time: float


class ProcedureCompleted(NamedTuple):
    """A signalling procedure finished; ``result`` carries its
    per-protocol message and byte counters and its measured elapsed
    simulated time."""

    name: str
    subject: Any
    result: Any


class ControlMessageDelivered(NamedTuple):
    """A control message reached its receiver over the signalling fabric.

    Emitted once per logical message (a suppressed duplicate is not
    delivered again), after ``message.timestamp`` is set to the arrival
    time and before the receiver's handler runs.  The fabric keeps no
    archive of delivered messages: a listener that wants the sequence
    records it.
    """

    message: ControlMessage


class UeIpAssigned(NamedTuple):
    """A PGW-C allocated an IP for a UE during attach.

    Emitted *before* bearer/tunnel setup so subscribers (e.g. the
    network fabric registering the UE's radio port) can react while the
    attach procedure is still wiring the data path.  Keyed by ``ue``,
    so each pending attach subscribes for its own UE only.
    """

    hook_key = "ue"

    ue: UEDevice
    address: str


class UeAttached(NamedTuple):
    """The attach procedure completed; default bearer is active."""

    ue: UEDevice
    enb: ENodeB
    result: Any


class BearerActivated(NamedTuple):
    """A dedicated bearer finished activating."""

    ue: UEDevice
    bearer: Bearer
    result: Any


class BearerDeactivated(NamedTuple):
    """A dedicated bearer was torn down."""

    ue: UEDevice
    ebi: int
    result: Any


class HandoverCompleted(NamedTuple):
    """X2 handover finished; the UE is served by ``target``."""

    ue: UEDevice
    source: ENodeB
    target: ENodeB
    result: Any


class UeReleasedToIdle(NamedTuple):
    """The UE's RRC connection was released (S1 release)."""

    ue: UEDevice
    result: Any


class ServiceRequestCompleted(NamedTuple):
    """An idle UE re-established its radio connection."""

    ue: UEDevice
    result: Any


class DownlinkDelivered(NamedTuple):
    """A packet reached a UE over the radio interface.

    Keyed by ``ue``: per-UE listeners subscribe with ``key=ue`` and see
    only their own UE's downlink.
    """

    hook_key = "ue"

    ue: UEDevice
    packet: Packet
