"""Packet model with a GTP tunnel stack.

A :class:`Packet` carries an application payload size plus a stack of
tunnel endpoint identifiers (TEIDs), innermost first.  Encapsulation
(GTP-U over UDP/IPv4) pushes a TEID; the wire size used for
serialization delay is the payload plus :data:`GTP_TUNNEL_OVERHEAD`
bytes per tunnel, which is how the simulator charges tunnelling
overhead.  Only the TEID of a tunnel is ever read -- switches match on
it as a field -- so the outer headers are not modelled beyond their
bytes.

The class is slotted and constructs lazily: a packet-flood's packets
never touch metadata or encapsulation, so ``meta`` and ``teids`` only
materialise their dict/list on first use.  This is the hot allocation
path of every figure-scale experiment -- millions of packets per run --
which is why the class is hand-rolled rather than a dataclass.
"""

from __future__ import annotations

import itertools
from typing import Optional

_packet_ids = itertools.count(1)

#: Wire bytes one GTP-U tunnel adds: GTP-U 8 B + UDP 8 B + IPv4 20 B.
GTP_TUNNEL_OVERHEAD = 36


class Packet:
    """A simulated packet.

    ``src``/``dst`` are endpoint IP addresses (strings); ``src_port`` and
    ``dst_port`` complete the classic five-tuple together with ``protocol``.
    """

    __slots__ = ("src", "dst", "size", "protocol", "src_port", "dst_port",
                 "flow_id", "qci", "created_at", "packet_id",
                 "_meta", "teids")

    def __init__(self, src: str, dst: str, size: int,
                 protocol: str = "UDP", src_port: int = 0, dst_port: int = 0,
                 flow_id: str = "", qci: Optional[int] = None,
                 created_at: float = 0.0,
                 meta: Optional[dict] = None,
                 packet_id: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self.size = size                # payload bytes (tunnels add on top)
        self.protocol = protocol
        self.src_port = src_port
        self.dst_port = dst_port
        self.flow_id = flow_id
        self.qci = qci                  # QoS class set once mapped to a bearer
        self.created_at = created_at
        self._meta = meta
        #: tunnel stack, innermost first; None until the first push
        self.teids: Optional[list[int]] = None
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)

    # meta materialises on first touch and teids on first push; most
    # packets need neither, and empty containers dominated construction

    @property
    def meta(self) -> dict:
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @meta.setter
    def meta(self, value: dict) -> None:
        self._meta = value

    @property
    def wire_size(self) -> int:
        """Bytes on the wire: payload plus every tunnel's overhead."""
        teids = self.teids
        if not teids:
            return self.size
        return self.size + GTP_TUNNEL_OVERHEAD * len(teids)

    @property
    def five_tuple(self) -> tuple[str, str, str, int, int]:
        return (self.src, self.dst, self.protocol,
                self.src_port, self.dst_port)

    # -- encapsulation ----------------------------------------------------

    def push_teid(self, teid: int) -> None:
        """Encapsulate: the new tunnel becomes the outermost."""
        teids = self.teids
        if teids is None:
            self.teids = [teid]
        else:
            teids.append(teid)

    def pop_teid(self) -> int:
        """Decapsulate the outermost tunnel and return its TEID.

        Raises ``ValueError`` on a bare packet (mis-wired tunnel).
        """
        if not self.teids:
            raise ValueError("packet carries no tunnel to pop")
        return self.teids.pop()

    def copy(self) -> "Packet":
        """Deep-ish copy with a fresh packet id (the tunnel stack and
        meta are duplicated)."""
        clone = Packet(
            src=self.src, dst=self.dst, size=self.size,
            protocol=self.protocol, src_port=self.src_port,
            dst_port=self.dst_port, flow_id=self.flow_id, qci=self.qci,
            created_at=self.created_at,
            meta=dict(self._meta) if self._meta else None,
        )
        if self.teids:
            clone.teids = list(self.teids)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        encap = (" [" + "/".join(f"GTP:{t:#x}" for t in reversed(self.teids))
                 + "]") if self.teids else ""
        return (f"<Packet #{self.packet_id} {self.src}:{self.src_port}->"
                f"{self.dst}:{self.dst_port} {self.protocol} "
                f"{self.size}B{encap}>")
