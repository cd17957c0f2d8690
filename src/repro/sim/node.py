"""Base network-node abstractions.

A :class:`Node` owns a set of named ports, each attached to a
:class:`~repro.sim.link.Link`.  Subclasses implement :meth:`on_receive`
to process arriving packets; forwarding is done by writing to a port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.hooks import PacketDelivered
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link


class Node:
    """A device attached to the simulated network."""

    def __init__(self, sim: "Simulator", name: str,
                 ip: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip or name
        self.ports: dict[str, "Link"] = {}
        # link -> its port name, kept by attach/detach for the reverse
        # lookup every echoed or replied packet makes
        self._link_ports: dict["Link", str] = {}
        self.rx_count = 0
        self.tx_count = 0

    def attach(self, port: str, link: "Link") -> None:
        """Bind a named port to a link endpoint (re-binding the port if
        it was bound to another link)."""
        old = self.ports.get(port)
        self.ports[port] = link
        if old is not None and old is not link:
            self._unbind(old, port)
        self._link_ports.setdefault(link, port)
        link.register_endpoint(self)

    def detach(self, port: str) -> None:
        """Unbind a named port (no-op if it is not bound).  The link
        keeps its endpoint: packets already in flight still arrive."""
        link = self.ports.pop(port, None)
        if link is not None:
            self._unbind(link, port)

    def _unbind(self, link: "Link", port: str) -> None:
        if self._link_ports.get(link) == port:
            del self._link_ports[link]

    def send(self, port: str, packet: Packet) -> None:
        """Transmit a packet out of a named port."""
        link = self.ports.get(port)
        if link is None:
            raise KeyError(f"{self.name}: no port named {port!r}")
        self.tx_count += 1
        link.transmit(self, packet)

    def receive(self, packet: Packet, link: "Link") -> None:
        """Entry point called by links; dispatches to :meth:`on_receive`."""
        self.rx_count += 1
        self.on_receive(packet, link)

    def on_receive(self, packet: Packet, link: "Link") -> None:
        """Process an arriving packet.  Default: drop silently."""

    def port_for_link(self, link: "Link") -> Optional[str]:
        """Reverse lookup: the port name a link is attached to, or
        ``None``."""
        return self._link_ports.get(link)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PacketSink(Node):
    """Terminal node that counts arrivals and can auto-reply.

    Useful both as a traffic sink (throughput measurements) and as a
    ping/echo responder (RTT measurements) when ``echo=True``.  It keeps
    counters only (``rx_count``, ``bytes_received``), not the packets:
    a caller that wants each packet passes ``on_packet``.
    """

    def __init__(self, sim: "Simulator", name: str, ip: Optional[str] = None,
                 echo: bool = False,
                 on_packet: Optional[Callable[[Packet], None]] = None):
        super().__init__(sim, name, ip)
        self.echo = echo
        self.on_packet = on_packet
        self.bytes_received = 0
        # delivered-hook verdict cached against the bus subscription
        # generation -- this runs once per delivered packet
        self._delivered_hook_gen = -1
        self._delivered_hook_hot = False

    def on_receive(self, packet: Packet, link: "Link") -> None:
        self.bytes_received += packet.wire_size
        hooks = self.sim.hooks
        if hooks.generation != self._delivered_hook_gen:
            self._delivered_hook_gen = hooks.generation
            self._delivered_hook_hot = hooks.has(PacketDelivered)
        if self._delivered_hook_hot:
            hooks.emit(PacketDelivered(node=self, packet=packet, link=link))
        if self.on_packet is not None:
            self.on_packet(packet)
        if self.echo:
            reply = packet.copy()
            reply.src, reply.dst = packet.dst, packet.src
            reply.src_port, reply.dst_port = packet.dst_port, packet.src_port
            reply.meta["echo_of"] = packet.packet_id
            port = self.port_for_link(link)
            if port is not None:
                self.send(port, reply)
