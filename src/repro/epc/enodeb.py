"""eNodeB (LTE base station) data-plane model.

The eNodeB maps each radio bearer onto an S1 GTP-U tunnel.  Uplink
packets arrive bare from the UE (tagged with their EPS bearer identity
by the modem) and are GTP-encapsulated toward the serving SGW-U --
*which SGW-U* is bearer state installed by the MME during setup, and is
exactly the hook ACACIA uses to point MEC bearers at the local edge
gateways.  Downlink GTP packets are decapsulated and forwarded onto the
right UE's radio link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.epc.gtp import gtp_decapsulate, gtp_encapsulate, is_gtp
from repro.epc.identifiers import FTeid, TeidAllocator
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link


@dataclass
class S1UplinkEntry:
    """Where uplink traffic of one bearer goes: SGW-U F-TEID + local port."""

    sgw_fteid: FTeid
    port: str


class ENodeB(Node):
    """Base station bridging radio bearers and S1 GTP tunnels."""

    def __init__(self, sim: "Simulator", name: str,
                 ip: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        self.teids = TeidAllocator(start=0x100)
        #: (ue_ip, ebi) -> S1UplinkEntry
        self.ul_map: dict[tuple[str, int], S1UplinkEntry] = {}
        #: downlink TEID (allocated here) -> ue_ip
        self.dl_map: dict[int, str] = {}
        #: (ue_ip, ebi) -> downlink TEID, for precise release
        self.dl_by_bearer: dict[tuple[str, int], int] = {}
        #: ue_ip -> radio port name
        self.radio_ports: dict[str, str] = {}
        self.unrouted = 0

    # -- configuration (driven by the MME during procedures) --------------

    def register_ue(self, ue_ip: str, port: str) -> None:
        self.radio_ports[ue_ip] = port

    def setup_bearer(self, ue_ip: str, ebi: int, sgw_fteid: FTeid,
                     port: str) -> FTeid:
        """Install both directions of a bearer's S1 mapping.

        Returns the eNB's downlink F-TEID, which the MME relays to the
        SGW-C so the SGW-U knows where to tunnel downlink traffic.
        """
        if ue_ip not in self.radio_ports:
            raise KeyError(f"UE {ue_ip} is not registered at {self.name}")
        self.ul_map[(ue_ip, ebi)] = S1UplinkEntry(sgw_fteid, port)
        dl_teid = self.teids.allocate()
        self.dl_map[dl_teid] = ue_ip
        self.dl_by_bearer[(ue_ip, ebi)] = dl_teid
        return FTeid(dl_teid, self.ip)

    def release_bearer(self, ue_ip: str, ebi: int) -> None:
        self.ul_map.pop((ue_ip, ebi), None)
        dl_teid = self.dl_by_bearer.pop((ue_ip, ebi), None)
        if dl_teid is not None:
            del self.dl_map[dl_teid]
            self.teids.release(dl_teid)

    # -- data path ----------------------------------------------------------

    def on_receive(self, packet: Packet, link: "Link") -> None:
        if is_gtp(packet):
            self._downlink(packet)
        else:
            self._uplink(packet)

    def _uplink(self, packet: Packet) -> None:
        ebi = packet.meta.get("ebi")
        entry = self.ul_map.get((packet.src, ebi)) if ebi is not None else None
        if entry is None:
            self.unrouted += 1
            return
        gtp_encapsulate(packet, entry.sgw_fteid.teid, self.ip,
                        entry.sgw_fteid.address)
        self.send(entry.port, packet)

    def _downlink(self, packet: Packet) -> None:
        packet, teid = gtp_decapsulate(packet)
        ue_ip = self.dl_map.get(teid)
        if ue_ip is None:
            self.unrouted += 1
            return
        port = self.radio_ports.get(ue_ip)
        if port is None:
            self.unrouted += 1
            return
        self.send(port, packet)
