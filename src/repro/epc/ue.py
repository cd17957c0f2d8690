"""User equipment (UE) data-plane model.

The UE holds the uplink half of the bearer machinery: its "LTE modem"
evaluates UL TFTs to classify every outgoing packet onto a bearer (this
is ACACIA's source-side traffic classification), tags the packet with
the bearer's QCI, and transmits on the radio link.  It also models the
RRC connected/idle cycle: after ``idle_timeout`` seconds without
traffic the radio connection is released, and the next packet pays the
``promotion_delay`` of an RRC service request, triggering the
release/re-establish control sequences whose overhead Section 4
quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.epc.bearer import Bearer, BearerRegistry
from repro.epc.events import DownlinkDelivered
from repro.epc.overhead import LTE_IDLE_TIMEOUT
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

#: Median LTE idle->connected promotion latency (Huang et al., MobiSys'12).
DEFAULT_PROMOTION_DELAY = 0.26

RADIO_PORT = "radio"


class UEDevice(Node):
    """A smartphone attached to the LTE network."""

    def __init__(self, sim: "Simulator", name: str, imsi: str,
                 idle_timeout: float = LTE_IDLE_TIMEOUT,
                 promotion_delay: float = DEFAULT_PROMOTION_DELAY,
                 manage_idle: bool = False) -> None:
        super().__init__(sim, name, ip=None)
        self.imsi = imsi
        self.bearers = BearerRegistry()
        self.rrc_connected = False
        self.attached = False
        self.idle_timeout = idle_timeout
        self.promotion_delay = promotion_delay
        self.manage_idle = manage_idle
        self.control_plane = None       # set by the network builder
        self.on_downlink: Optional[Callable[[Packet], None]] = None
        self.unrouted_uplink = 0
        self.promotions = 0
        self._idle_timer = None

    # -- attach-time configuration ---------------------------------------

    def assign_ip(self, address: str) -> None:
        self.ip = address

    def add_bearer(self, bearer: Bearer) -> None:
        self.bearers.add(bearer)

    def remove_bearer(self, ebi: int) -> Bearer:
        return self.bearers.remove(ebi)

    # -- uplink ------------------------------------------------------------

    def send_app(self, packet: Packet) -> Optional[Bearer]:
        """Classify and transmit an application packet.

        Returns the bearer the packet was mapped to (None if unrouted).
        The UL TFT lookup happens here, in the "modem", exactly as the
        paper's design places it.
        """
        if not self.attached:
            raise RuntimeError(f"{self.name} is not attached to the network")
        delay = 0.0
        if not self.rrc_connected:
            # promote first: the service request reactivates the bearers,
            # which the TFT classification below depends on
            delay = self._promote()
        bearer = self.bearers.classify_uplink(packet)
        if bearer is None:
            self.unrouted_uplink += 1
            return None
        packet.qci = bearer.qci
        packet.meta["ebi"] = bearer.ebi
        packet.meta["imsi"] = self.imsi
        self._touch()
        if delay > 0:
            self.sim.post(delay, self.send, RADIO_PORT, packet)
        else:
            self.send(RADIO_PORT, packet)
        return bearer

    def _promote(self) -> float:
        """RRC idle -> connected transition (service request)."""
        self.rrc_connected = True
        self.promotions += 1
        if self.control_plane is not None:
            self.control_plane.service_request(self)
        return self.promotion_delay

    # -- downlink ------------------------------------------------------------

    def on_receive(self, packet: Packet, link: "Link") -> None:
        self._touch()
        hooks = self.sim.hooks
        if hooks.has(DownlinkDelivered):
            hooks.emit(DownlinkDelivered(ue=self, packet=packet))
        if self.on_downlink is not None:
            self.on_downlink(packet)

    # -- RRC idle cycle ------------------------------------------------------

    def _touch(self) -> None:
        if not self.manage_idle:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self._idle_timer = self.sim.schedule(self.idle_timeout, self._go_idle)

    def _go_idle(self) -> None:
        if not self.rrc_connected:
            return
        self.rrc_connected = False
        if self.control_plane is not None:
            self.control_plane.release_to_idle(self)
