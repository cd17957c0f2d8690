"""OpenFlow-style flow matches, actions and rules (GTP-extended).

The match structure covers the fields the GW user planes need: the outer
GTP-U TEID for tunnelled traffic and the inner five-tuple for bare IP
traffic (downlink classification at the PGW-U).  Actions mirror the
paper's OVS extension: GTP decap, GTP encap toward a given F-TEID, and
output to a logical port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.epc.gtp import gtp_decapsulate, gtp_encapsulate, gtp_teid
from repro.sim.packet import Packet


@dataclass(frozen=True)
class FlowMatch:
    """Wildcard-capable match over outer TEID and inner five-tuple."""

    teid: Optional[int] = None
    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    protocol: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def matches(self, packet: Packet) -> bool:
        return self.matches_teid(packet, gtp_teid(packet))

    def matches_teid(self, packet: Packet, teid: Optional[int]) -> bool:
        """:meth:`matches` given the packet's outer TEID (``None`` for a
        bare packet), so a classifier trying several rules reads the
        headers once."""
        if self.teid is not None and teid != self.teid:
            return False
        if self.src_ip is not None and packet.src != self.src_ip:
            return False
        if self.dst_ip is not None and packet.dst != self.dst_ip:
            return False
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.src_port is not None and packet.src_port != self.src_port:
            return False
        if self.dst_port is not None and packet.dst_port != self.dst_port:
            return False
        return True

    def describe(self) -> str:
        parts = []
        for name in ("teid", "src_ip", "dst_ip", "protocol",
                     "src_port", "dst_port"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return ",".join(parts) or "any"


@dataclass(frozen=True)
class GtpDecap:
    """Pop the outer GTP-U/UDP/IP stack."""

    def apply(self, packet: Packet) -> Packet:
        packet, _ = gtp_decapsulate(packet)
        return packet


@dataclass(frozen=True)
class GtpEncap:
    """Push a GTP-U/UDP/IP stack toward a tunnel endpoint."""

    teid: int
    src: str
    dst: str

    def apply(self, packet: Packet) -> Packet:
        return gtp_encapsulate(packet, self.teid, self.src, self.dst)


@dataclass(frozen=True)
class Output:
    """Forward out a named switch port (terminal action)."""

    port: str

    def apply(self, packet: Packet) -> Packet:  # pragma: no cover - marker
        return packet


Action = Union[GtpDecap, GtpEncap, Output]


@dataclass
class FlowRule:
    """A prioritized flow-table entry."""

    match: FlowMatch
    actions: list[Action]
    priority: int = 100
    cookie: str = ""
    packets: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        outputs = [a for a in self.actions if isinstance(a, Output)]
        if len(outputs) != 1 or not isinstance(self.actions[-1], Output):
            raise ValueError(
                "a flow rule needs exactly one Output action, last")

    @property
    def output_port(self) -> str:
        return self.actions[-1].port  # type: ignore[union-attr]

    def record(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.wire_size
