"""Typed control- and data-plane events published on the hook bus.

Every EPC procedure announces its outcome as a frozen dataclass on
``sim.hooks`` (see :mod:`repro.sim.hooks`).  Probes, pagers and
application sessions subscribe to these instead of rebinding each
other's methods, which keeps observation composable: any number of
listeners can watch the same UE without a hand-rolled handler chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.bearer import Bearer
    from repro.epc.enodeb import ENodeB
    from repro.epc.ue import UEDevice
    from repro.sim.packet import Packet


@dataclass(frozen=True)
class ProcedureStarted:
    """A signalling procedure began executing as a simulator process.

    ``subject`` is the UE (or other principal) the procedure acts on;
    ``time`` is the simulated start time.  Paired with
    :class:`ProcedureCompleted` this gives tracing tools per-phase
    visibility into concurrent control-plane activity.
    """

    name: str
    subject: Any
    time: float


@dataclass(frozen=True)
class ProcedureCompleted:
    """A signalling procedure finished; ``result`` carries its
    messages and measured elapsed simulated time."""

    name: str
    subject: Any
    result: Any


@dataclass(frozen=True)
class UeIpAssigned:
    """A PGW-C allocated an IP for a UE during attach.

    Emitted *before* bearer/tunnel setup so subscribers (e.g. the
    network fabric registering the UE's radio port) can react while the
    attach procedure is still wiring the data path.
    """

    ue: "UEDevice"
    address: str


@dataclass(frozen=True)
class UeAttached:
    """The attach procedure completed; default bearer is active."""

    ue: "UEDevice"
    enb: "ENodeB"
    result: Any


@dataclass(frozen=True)
class BearerActivated:
    """A dedicated bearer finished activating."""

    ue: "UEDevice"
    bearer: "Bearer"
    result: Any


@dataclass(frozen=True)
class BearerDeactivated:
    """A dedicated bearer was torn down."""

    ue: "UEDevice"
    ebi: int
    result: Any


@dataclass(frozen=True)
class HandoverCompleted:
    """X2 or S1 handover finished; the UE is served by ``target``."""

    ue: "UEDevice"
    source: "ENodeB"
    target: "ENodeB"
    result: Any


@dataclass(frozen=True)
class UeReleasedToIdle:
    """The UE's RRC connection was released (S1 release)."""

    ue: "UEDevice"
    result: Any


@dataclass(frozen=True)
class ServiceRequestCompleted:
    """An idle UE re-established its radio connection."""

    ue: "UEDevice"
    result: Any


@dataclass(frozen=True)
class DownlinkDelivered:
    """A packet reached a UE over the radio interface.

    Keyed by ``ue``: per-UE listeners subscribe with ``key=ue`` and see
    only their own UE's downlink.
    """

    hook_key: ClassVar[str] = "ue"

    ue: "UEDevice"
    packet: "Packet"
