"""GTP-U user-plane encapsulation helpers.

Data bearers are carried over GTP/UDP/IP tunnels differentiated by TEID.
A tunnel is modelled as what the user plane matches on, its TEID, pushed
onto the packet's tunnel stack (:attr:`Packet.teids`), plus its bytes:
GTP-U 8 B + UDP 8 B + IPv4 20 B = 36 B of overhead per packet, which the
link layer charges to serialization time -- the per-packet tunnelling
tax Figure 8 exposes.  The outer addresses are not kept: nothing reads
them.
"""

from __future__ import annotations

from typing import Optional

# GTP_TUNNEL_OVERHEAD is re-exported: the packet model charges it per
# tunnel on the stack
from repro.sim.packet import GTP_TUNNEL_OVERHEAD, Packet  # noqa: F401


def gtp_encapsulate(packet: Packet, teid: int, src: str, dst: str) -> Packet:
    """Push a GTP-U tunnel from ``src`` to ``dst`` onto a packet
    (mutates and returns it)."""
    packet.push_teid(teid)
    return packet


def gtp_decapsulate(packet: Packet) -> tuple[Packet, int]:
    """Pop one GTP-U tunnel; returns ``(packet, teid)``.

    Raises ``ValueError`` if the packet is not GTP-encapsulated.
    """
    return packet, packet.pop_teid()


def gtp_teid(packet: Packet) -> Optional[int]:
    """The TEID of the packet's (innermost) tunnel, without mutating;
    ``None`` for a bare packet."""
    teids = packet.teids
    return teids[0] if teids else None


def is_gtp(packet: Packet) -> bool:
    return bool(packet.teids)
