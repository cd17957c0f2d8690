"""Testbed builder: assembles the full simulated mobile network.

:class:`MobileNetwork` wires the pieces the paper's testbeds provide:
one eNodeB, a central gateway site (the conventional EPC data path to
the internet), optional MEC sites with local split GW-Us next to CI
servers, the control-plane entities, the SDN controller and the
signalling fabric.  Experiments then attach UEs, servers and background
load, and use :class:`Pinger` for RTT measurements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import NetworkConfig
from repro.epc.entities import (GatewaySite, HSS, MME, PCRF, PGWC, SGWC,
                                SubscriberProfile)
from repro.epc.enodeb import ENodeB
from repro.epc.events import DownlinkDelivered, UeIpAssigned
from repro.sim.hooks import PacketDropped
from repro.epc.identifiers import ImsiAllocator
from repro.epc.paging import PagingManager
from repro.epc.procedures import EPCControlPlane, ProcedureResult
from repro.epc.qos import apply_qci_priorities
from repro.epc.signalling import SignallingFabric
from repro.epc.ue import UEDevice
from repro.sdn.controller import SdnController
from repro.sdn.dataplane import DataPlaneProfile
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.context import SimContext
from repro.sim.engine import Future
from repro.sim.fluid import FluidDomain, FluidFlow, FluidLink
from repro.sim.link import Link
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Packet
from repro.sim.traffic import PoissonSource


def wan_link_name(site_a: str, site_b: str) -> str:
    """Canonical (order-independent) name of an inter-site WAN link."""
    first, second = sorted((site_a, site_b))
    return f"wan.{first}.{second}"


@dataclass
class EdgeSite:
    """One deployment site of the multi-site edge fabric.

    Wraps the :class:`~repro.epc.entities.GatewaySite` (local split
    SGW-U/PGW-U pair plus MEC server pods behind the shared SDN
    controller) with the fabric-level state the continuity machinery
    needs: which eNodeBs call this site *home* (drive auto-relocation
    on handover), the site's MEC I/O endpoint for application-context
    transfer, and its ports onto the inter-site WAN mesh.
    """

    name: str
    site: GatewaySite
    #: eNodeBs whose UEs are served from this site by default
    home_enbs: set[str] = field(default_factory=set)
    #: context-transfer endpoint (one per site, on the WAN mesh)
    transfer: Optional[PacketSink] = None
    #: peer site name -> this site's transfer-node port toward it
    wan_ports: dict[str, str] = field(default_factory=dict)


class MobileNetwork:
    """A complete LTE/EPC network with optional MEC sites.

    The network draws all of its randomness from a
    :class:`~repro.sim.context.SimContext` (one may be passed in to
    share streams with a larger experiment; otherwise a private context
    is derived from ``config.seed``).
    """

    def __init__(self, config: Optional[NetworkConfig] = None,
                 ctx: Optional[SimContext] = None) -> None:
        self.config = config or NetworkConfig()
        self.ctx = ctx if ctx is not None else SimContext(self.config.seed)
        self.sim = self.ctx.sim
        self.hooks = self.ctx.hooks
        self.rng = self.ctx.rng("net.jitter")
        #: fluid-flow domain; present only in the "fluid-bg" data plane
        #: (see :mod:`repro.sim.fluid`), where background load becomes
        #: aggregated rates instead of per-packet traffic
        self.fluid: Optional[FluidDomain] = (
            FluidDomain(self.ctx.sim)
            if self.config.sim.data_plane == "fluid-bg" else None)
        self.controller = SdnController()
        self.mme = MME()
        self.hss = HSS()
        self.pcrf = PCRF()
        self.sgwc = SGWC()
        self.pgwc = PGWC()
        # the signalling fabric carries every control message as a
        # simulated packet; its transports come from config.signalling
        self.fabric = SignallingFabric(
            self.sim, specs=self.config.signalling.transports())
        self.control_plane = EPCControlPlane(
            self.sim, self.mme, self.hss, self.pcrf, self.sgwc, self.pgwc,
            self.controller, fabric=self.fabric,
            retry_policy=self.config.resilience.policy())
        self.paging = PagingManager(self.control_plane)
        self.imsis = ImsiAllocator()
        self.enbs: dict[str, ENodeB] = {}
        self.ues: dict[str, UEDevice] = {}
        self.servers: dict[str, Node] = {}
        self.sites: dict[str, GatewaySite] = {}
        #: first-class edge-fabric sites by name (see :meth:`add_edge_site`)
        self.edge_sites: dict[str, EdgeSite] = {}
        #: eNodeB name -> its home edge site (drives auto-relocation)
        self._enb_home: dict[str, str] = {}
        self._edge_site_count = itertools.count(0)
        #: every data-plane link by name (the fault layer targets these)
        self.links: dict[str, Link] = {}
        #: inter-site WAN routing table: (src site, dst site) -> the
        #: mesh link, resolved once at :meth:`add_edge_site` time (both
        #: orders present) so the per-transfer/per-packet hot path is a
        #: single tuple lookup instead of a sorted-string build
        self.wan_links: dict[tuple[str, str], Link] = {}
        #: per-site S1 wiring parameters, for attaching later eNodeBs
        self._site_params: dict[str, tuple[float, float, int]] = {}
        self._ue_count = itertools.count(1)
        self._enb_count = itertools.count(0)
        self._server_ips = itertools.count(10)
        self._bg_count = itertools.count(1)
        self.enb = self.add_enb("enb0")     # the default base station
        self._build_central_site()

    # -- topology construction -------------------------------------------

    def _make_link(self, name: str, bandwidth: float, delay: float,
                   queue_bytes: int, jitter: float = 0.0,
                   qos: bool = True) -> Link:
        # each jittered link draws from its own named stream, so one
        # link's traffic volume cannot perturb another link's jitter
        link_cls = Link if self.fluid is None else FluidLink
        link = link_cls(self.sim, name, bandwidth=bandwidth, delay=delay,
                        queue_bytes=queue_bytes, qos_priority=qos,
                        jitter=jitter,
                        rng=self.ctx.rng(f"net.link.{name}") if jitter > 0
                        else None)
        if qos:
            apply_qci_priorities(link)
        self.links[name] = link
        return link

    def add_enb(self, name: Optional[str] = None) -> ENodeB:
        """Deploy another base station, wired to every gateway site."""
        index = next(self._enb_count)
        name = name or f"enb{index}"
        if name in self.enbs:
            raise ValueError(f"eNodeB {name!r} already exists")
        enb = ENodeB(self.sim, name, ip=f"192.168.1.{index + 1}")
        self.enbs[name] = enb
        self.control_plane.register_enb(enb.name)
        for site in self.sites.values():
            self._wire_enb_to_site(enb, site)
        return enb

    def _wire_enb_to_site(self, enb: ENodeB, site: GatewaySite) -> None:
        backhaul_delay, bandwidth, queue_bytes = self._site_params[site.name]
        s1 = self._make_link(f"s1.{site.name}.{enb.name}", bandwidth,
                             backhaul_delay, queue_bytes)
        enb_port = f"s1:{site.name}"
        sgw_port = f"s1:{enb.name}"
        enb.attach(enb_port, s1)
        site.sgw_u.attach(sgw_port, s1)
        site.enb_ports[enb.name] = enb_port
        site.sgw_dl_ports[enb.name] = sgw_port

    def _build_site(self, name: str, backhaul_delay: float,
                    core_delay: float, bandwidth: float, queue_bytes: int,
                    profile: DataPlaneProfile) -> GatewaySite:
        sgw_u = FlowSwitch(self.sim, f"sgw-u.{name}", profile=profile,
                           ip=f"172.16.{len(self.sites)}.1")
        pgw_u = FlowSwitch(self.sim, f"pgw-u.{name}", profile=profile,
                           ip=f"172.16.{len(self.sites)}.2")
        s5 = self._make_link(f"s5.{name}", bandwidth, core_delay,
                             queue_bytes)
        sgw_u.attach("s5", s5)
        pgw_u.attach("s5", s5)
        site = GatewaySite(
            name=name, sgw_u=sgw_u, pgw_u=pgw_u, enb_ports={},
            sgw_dl_ports={}, sgw_ul_port="s5", pgw_dl_port="s5",
            pgw_ul_port="")      # set when the first server attaches
        self.sites[name] = site
        self._site_params[name] = (backhaul_delay, bandwidth, queue_bytes)
        for enb in self.enbs.values():
            self._wire_enb_to_site(enb, site)
        self.control_plane.add_site(site)
        self.paging.attach_to_site(site)
        return site

    def _build_central_site(self) -> None:
        cfg = self.config
        self._build_site("central", cfg.backhaul_delay, cfg.core_delay,
                         cfg.core_bandwidth, cfg.core_queue_bytes,
                         cfg.central_profile)
        self.add_server("internet", site_name="central",
                        delay=cfg.internet_delay, echo=True)

    def add_mec_site(self, name: str = "mec",
                     profile: Optional[DataPlaneProfile] = None,
                     ) -> GatewaySite:
        """Deploy local split GW-Us one hop from the eNodeB."""
        cfg = self.config
        return self._build_site(
            name, cfg.mec_backhaul_delay, cfg.mec_core_delay,
            cfg.mec_bandwidth, cfg.mec_queue_bytes,
            profile or cfg.mec_profile)

    # -- edge fabric (multi-site session continuity) -----------------------

    def add_edge_site(self, name: str,
                      home_enbs: tuple[str, ...] = (),
                      profile: Optional[DataPlaneProfile] = None,
                      ) -> EdgeSite:
        """Deploy a first-class edge-fabric site.

        Builds the local split GW-Us (exactly like :meth:`add_mec_site`)
        plus the continuity machinery: a MEC I/O endpoint for
        application-context transfer and one inter-site WAN link to
        every existing edge site (a full mesh, parameters from
        ``config.continuity``).  ``home_enbs`` maps eNodeBs to this
        site; a handover onto one of them makes the MRS consider this
        site the session's natural anchor.
        """
        if name in self.edge_sites:
            raise ValueError(f"edge site {name!r} already exists")
        site = self.add_mec_site(name, profile=profile)
        cfg = self.config.continuity
        index = next(self._edge_site_count)
        transfer = PacketSink(self.sim, f"mecio.{name}",
                              ip=f"10.200.{index}.1",
                              on_packet=self._on_context_chunk)
        edge = EdgeSite(name=name, site=site, transfer=transfer)
        for peer_name, peer in self.edge_sites.items():
            wan = self._make_link(wan_link_name(name, peer_name),
                                  cfg.wan_bandwidth, cfg.wan_delay,
                                  cfg.wan_queue_bytes)
            transfer.attach(f"wan:{peer_name}", wan)
            peer.transfer.attach(f"wan:{name}", wan)
            edge.wan_ports[peer_name] = f"wan:{peer_name}"
            peer.wan_ports[name] = f"wan:{name}"
            self.wan_links[(name, peer_name)] = wan
            self.wan_links[(peer_name, name)] = wan
        self.edge_sites[name] = edge
        for enb_name in home_enbs:
            self.set_home_site(enb_name, name)
        return edge

    def set_home_site(self, enb_name: str, site_name: str) -> None:
        """Declare an eNodeB's home edge site (re-homing is allowed)."""
        if enb_name not in self.enbs:
            raise ValueError(f"unknown eNodeB {enb_name!r}; known: "
                             f"{sorted(self.enbs)}")
        if site_name not in self.edge_sites:
            raise ValueError(f"unknown edge site {site_name!r}; known: "
                             f"{sorted(self.edge_sites)}")
        previous = self._enb_home.get(enb_name)
        if previous is not None:
            self.edge_sites[previous].home_enbs.discard(enb_name)
        self._enb_home[enb_name] = site_name
        self.edge_sites[site_name].home_enbs.add(enb_name)

    def home_site_of(self, enb_name: str) -> Optional[str]:
        """The edge site an eNodeB is homed to (None outside the fabric)."""
        return self._enb_home.get(enb_name)

    def context_transfer_async(self, src_site: str, dst_site: str,
                               nbytes: int,
                               chunk_bytes: Optional[int] = None) -> Future:
        """Move application context between edge sites as real traffic.

        The state-transfer cost model: ``nbytes`` of context cross the
        inter-site WAN link as chunked packets paced at the link rate,
        so the transfer takes (roughly) ``size / throughput`` plus the
        propagation delay -- and genuinely contends with anything else
        riding the same link.  Returns a
        :class:`~repro.sim.engine.Future` resolving to the transferred
        byte count when the last chunk arrives at the target site.
        """
        for site_name in (src_site, dst_site):
            if site_name not in self.edge_sites:
                raise ValueError(f"unknown edge site {site_name!r}; known: "
                                 f"{sorted(self.edge_sites)}")
        src = self.edge_sites[src_site]
        dst = self.edge_sites[dst_site]
        future = Future(self.sim)
        if nbytes <= 0:
            future.resolve(0)
            return future
        port = src.wan_ports.get(dst_site)
        if port is None:
            raise ValueError(f"no WAN link between {src_site!r} and "
                             f"{dst_site!r}")
        wan = self.wan_links[(src_site, dst_site)]
        chunk = chunk_bytes or self.config.continuity.chunk_bytes
        remaining = int(nbytes)
        offset = 0.0
        while remaining > 0:
            size = min(chunk, remaining)
            remaining -= size
            packet = Packet(src=src.transfer.ip, dst=dst.transfer.ip,
                            size=size, protocol="MECIO",
                            created_at=self.sim.now)
            if remaining <= 0:
                packet.meta["transfer_future"] = future
                packet.meta["transfer_bytes"] = int(nbytes)
            # source-paced at the link rate: the queue never builds
            # beyond a chunk, so deep bursts cannot overflow the WAN
            self.sim.post(offset, src.transfer.send, port, packet)
            offset += packet.wire_size * 8.0 / wan.bandwidth
        return future

    @staticmethod
    def _on_context_chunk(packet: Packet) -> None:
        future = packet.meta.get("transfer_future")
        if future is not None:
            future.resolve(packet.meta.get("transfer_bytes", 0))

    def add_server(self, name: str, site_name: str = "central",
                   delay: Optional[float] = None, echo: bool = False,
                   node: Optional[Node] = None,
                   on_packet: Optional[Callable[[Packet], None]] = None,
                   ) -> Node:
        """Attach a server to a site's PGW-U (its SGi network).

        The first server attached to a site becomes the site's default
        uplink destination port.
        """
        if name in self.servers:
            raise ValueError(f"server {name!r} already exists")
        site = self.sgwc.site(site_name)
        cfg = self.config
        if delay is None:
            delay = (cfg.mec_server_delay if site_name != "central"
                     else cfg.internet_delay)
        ip = f"203.0.{113 if site_name == 'central' else 114}.{next(self._server_ips)}"
        if node is None:
            node = PacketSink(self.sim, name, ip=ip, echo=echo,
                              on_packet=on_packet)
        elif node.ip is None or node.ip == node.name:
            # custom nodes built without an address get one here
            node.ip = ip
        bandwidth = (cfg.core_bandwidth if site_name == "central"
                     else cfg.mec_bandwidth)
        queue = (cfg.core_queue_bytes if site_name == "central"
                 else cfg.mec_queue_bytes)
        link = self._make_link(f"sgi.{name}", bandwidth, delay, queue)
        port = f"sgi:{name}"
        site.pgw_u.attach(port, link)
        node.attach("net", link)
        if not site.pgw_ul_port:
            site.pgw_ul_port = port
        self.servers[name] = node
        return node

    def add_ue(self, name: Optional[str] = None,
               manage_idle: bool = False,
               ul_bandwidth: Optional[float] = None,
               enb_name: Optional[str] = None) -> UEDevice:
        """Create a UE, wire its radio link, provision it and attach it."""
        return self.sim.run_until_complete(
            self.add_ue_async(name, manage_idle, ul_bandwidth, enb_name))

    def add_ue_async(self, name: Optional[str] = None,
                     manage_idle: bool = False,
                     ul_bandwidth: Optional[float] = None,
                     enb_name: Optional[str] = None):
        """Create a UE and start its attach as a process.

        Returns the :class:`~repro.sim.engine.Process`; its value is
        the attached :class:`UEDevice`.  Many UEs can attach
        concurrently, contending on the cell's shared RRC channel and
        the core signalling paths.
        """
        index = next(self._ue_count)
        name = name or f"ue{index}"
        if name in self.ues:
            raise ValueError(f"UE {name!r} already exists")
        enb = self.enbs[enb_name] if enb_name is not None else self.enb
        ue = UEDevice(self.sim, name, imsi=self.imsis.allocate(),
                      manage_idle=manage_idle)
        port = self._wire_radio(ue, enb, ul_bandwidth)
        self.hss.provision(SubscriberProfile(imsi=ue.imsi))
        self.ues[name] = ue
        return self.sim.spawn(self._attach_proc(ue, enb, port),
                              name=f"add-ue:{name}")

    def _attach_proc(self, ue: UEDevice, enb: ENodeB, radio_port: str):
        # IP allocation happens inside the procedure; the control plane
        # announces it (synchronously) as UeIpAssigned before validating
        # the bearer, so a transient subscription keyed by this UE
        # registers the radio port at exactly the right moment
        def register(event: UeIpAssigned) -> None:
            enb.register_ue(event.address, radio_port)

        subscription = self.hooks.on(UeIpAssigned, register, key=ue)
        try:
            result = yield self.control_plane.attach_async(ue, enb)
        finally:
            subscription.close()
        ue.attach_result = result
        if ue.attached:
            self.paging.track(ue)
        return ue

    @staticmethod
    def _radio_port(ue: UEDevice) -> str:
        """The eNB port a UE's radio link attaches to."""
        return f"radio:{ue.name}"

    def _wire_radio(self, ue: UEDevice, enb: ENodeB,
                    ul_bandwidth: Optional[float] = None) -> str:
        cfg = self.config
        radio = Link(
            self.sim, f"radio.{ue.name}.{enb.name}",
            bandwidth=ul_bandwidth or cfg.radio_ul_bandwidth,
            bandwidth_reverse=cfg.radio_dl_bandwidth,
            delay=cfg.radio_delay, queue_bytes=cfg.radio_queue_bytes,
            qos_priority=True, jitter=cfg.radio_jitter,
            rng=self.ctx.rng(f"net.radio.{ue.name}.{enb.name}"))
        apply_qci_priorities(radio)
        self.links[radio.name] = radio
        # the UE attaches first: its outbound direction is the uplink
        ue.detach("radio")              # drop any previous cell's link
        ue.attach("radio", radio)
        port = self._radio_port(ue)
        enb.attach(port, radio)
        # RRC signalling now contends on the (new) cell's shared channel
        self.control_plane.join_cell(ue.name, enb.name)
        return port

    def handover(self, ue: UEDevice, target_enb_name: str
                 ) -> ProcedureResult:
        """Move a UE to another base station (X2 handover).

        Wires a fresh radio link at the target cell, then runs the
        control-plane handover: the SGW-Us re-point each bearer's
        downlink at the target while the S5 legs (and any MEC-site
        anchoring) stay put.
        """
        return self.sim.run_until_complete(
            self.handover_async(ue, target_enb_name))

    def _target_enb(self, target_enb_name: str) -> ENodeB:
        """Resolve a handover target, failing loudly on unknown names."""
        enb = self.enbs.get(target_enb_name)
        if enb is None:
            raise ValueError(
                f"unknown target eNodeB {target_enb_name!r}; known "
                f"eNodeBs: {sorted(self.enbs)}")
        return enb

    def handover_async(self, ue: UEDevice, target_enb_name: str):
        """Start the X2 handover as a process (its value is the
        :class:`ProcedureResult`).

        Only a real handover -- a connected UE moving to another cell --
        wires the target-cell radio.  A handover to the serving cell is
        a no-op and one of an idle UE fails; both leave the radio as it
        is."""
        target = self._target_enb(target_enb_name)
        if (ue.rrc_connected
                and self.mme.context(ue.imsi).enb is not target):
            self._wire_radio(ue, target)
        return self.control_plane.handover_async(
            ue, target, radio_port=self._radio_port(ue))

    # -- ACACIA / baseline wiring ------------------------------------------

    def create_mec_bearer(self, ue: UEDevice, server_name: str,
                          service_id: str = "ar-retail",
                          site_name: str = "mec") -> ProcedureResult:
        """Dedicated bearer from a UE to a MEC server (the ACACIA path)."""
        server = self.servers[server_name]
        return self.control_plane.activate_dedicated_bearer(
            ue, service_id, server.ip, site_name)

    def route_via_default_bearer(self, ue: UEDevice,
                                 server_name: str) -> None:
        """SGi routing so the default bearer can reach a central-attached
        server (the CLOUD and non-split MEC baselines)."""
        server = self.servers[server_name]
        site = self.sgwc.site("central")
        bearer = ue.bearers.default_bearer()
        if bearer is None:
            raise RuntimeError(f"{ue.name} has no default bearer")
        port = f"sgi:{server_name}"
        if port not in site.pgw_u.ports:
            raise ValueError(f"{server_name!r} is not attached to the "
                             f"central PGW-U")
        if port == site.pgw_ul_port:
            return      # the catch-all uplink rule already goes there
        site.pgw_u.install(FlowRule(
            FlowMatch(teid=bearer.pgw_fteid.teid, dst_ip=server.ip),
            [GtpDecap(), Output(port)],
            priority=150, cookie=f"sgi-route:{ue.imsi}:{server_name}"))

    def add_background_load(self, rate: float, site_name: str = "central",
                            sink_server: str = "internet"):
        """Inject background traffic through a site's GW-Us.

        Models the competing traffic of other users sharing the central
        gateways (Figures 3(g) and 10(b)).  In the default ``"packet"``
        data plane this builds a per-packet :class:`PoissonSource`; in
        ``"fluid-bg"`` mode it builds an equivalent
        :class:`~repro.sim.fluid.FluidFlow` along the same path.  Both
        expose ``start()``/``stop()``/``name``.

        Each packet source draws from its own named RNG stream and
        installs rules under its own cookie.
        """
        site = self.sgwc.site(site_name)
        sink = self.servers[sink_server]
        index = next(self._bg_count)
        cfg = self.config
        if self.fluid is not None:
            return self._add_fluid_background(rate, site, sink,
                                              site_name, sink_server, index)
        cookie = f"bg:{index}"
        source = PoissonSource(self.sim, f"bg{index}", dst=sink.ip,
                               rate=rate, ctx=self.ctx,
                               stream=f"net.bg.{index}",
                               ip=f"198.18.0.{index}", qci=9)
        # fast ingress so the offered load fully reaches the shared GW-Us
        link = self._make_link(f"bg{index}", 10 * cfg.core_bandwidth, 0.001,
                               cfg.core_queue_bytes)
        source.attach("out", link)
        site.sgw_u.attach(cookie, link)
        site.sgw_u.install(FlowRule(
            FlowMatch(src_ip=source.ip),
            [Output(site.sgw_ul_port)], priority=50, cookie=cookie))
        site.pgw_u.install(FlowRule(
            FlowMatch(src_ip=source.ip),
            [Output(f"sgi:{sink_server}")], priority=50, cookie=cookie))
        return source

    def _fluid_cpu(self, switch) -> object:
        """The fluid CPU server for a gateway switch, wired on first use
        so per-packet arrivals at that switch wait behind it."""
        queue = self.fluid.cpu_queue(switch.name)
        switch.set_fluid_cpu(queue)
        return queue

    def _add_fluid_background(self, rate: float, site, sink: Node,
                              site_name: str, sink_server: str,
                              index: int) -> FluidFlow:
        """Fluid-mode twin of the packet background source: the same
        GW-U path, as an aggregated rate (no per-packet events).

        The hops mirror what every packet of the Poisson source pays in
        packet mode: the SGW-U CPU, the S5 link, the PGW-U CPU and the
        SGi link; when the sink echoes (the ``internet`` sink does),
        the replies load the SGi reverse direction too, then die at the
        PGW-U table miss -- which in packet mode costs no CPU, so the
        echo leg ends there.  Steady-state CPU cost per packet is the
        cached (fast-path) cost, since a long-lived flow's first packet
        is the only slow-path hit.
        """
        flow = FluidFlow(self.fluid, f"bg{index}", src_ip=f"198.18.0.{index}",
                         dst_ip=sink.ip, rate=rate, qci=9)
        sgw_cost = site.sgw_u.profile.cost_for(cached=True)
        if sgw_cost > 0.0:
            flow.add_server(self._fluid_cpu(site.sgw_u), sgw_cost)
        s5 = self.links[f"s5.{site_name}"]
        flow.add_link(s5, site.sgw_u)
        pgw_cost = site.pgw_u.profile.cost_for(cached=True)
        if pgw_cost > 0.0:
            flow.add_server(self._fluid_cpu(site.pgw_u), pgw_cost)
        sgi = self.links[f"sgi.{sink_server}"]
        flow.add_link(sgi, site.pgw_u)
        if getattr(sink, "echo", False):
            flow.add_link(sgi, sink)
        return flow


class Pinger:
    """ICMP-style RTT measurement from a UE to an echoing server.

    Subscribes to the UE's :class:`~repro.epc.events.DownlinkDelivered`
    events on the hook bus, keyed on the UE; any number of pingers (and
    other observers) can therefore watch the same UE concurrently.
    ``close()`` detaches the subscription and books still-outstanding
    pings as ``lost``.

    Mid-flight drops are counted *as they happen*: the pinger also
    watches :class:`~repro.sim.hooks.PacketDropped` and books a loss
    (with its reason, in ``lost_reasons``) the moment a ping -- or its
    echo -- dies on a link, instead of only discovering the gap at
    ``close()``.
    """

    def __init__(self, network: MobileNetwork, ue: UEDevice,
                 server_name: str, size: int = 64,
                 interval: float = 0.2) -> None:
        self.network = network
        self.ue = ue
        self.server = network.servers[server_name]
        self.size = size
        self.interval = interval
        self.rtts: list[float] = []
        self.lost = 0
        self.lost_reasons: dict[str, int] = {}
        self._sent: dict[int, float] = {}
        self._subscription = network.hooks.on(DownlinkDelivered,
                                              self._on_downlink, key=ue)
        self._drop_subscription = network.hooks.on(PacketDropped,
                                                   self._on_drop)

    def _on_downlink(self, event: DownlinkDelivered) -> None:
        original = event.packet.meta.get("echo_of")
        sent_at = self._sent.pop(original, None)
        if sent_at is not None:
            self.rtts.append(self.network.sim.now - sent_at)

    def _on_drop(self, event: PacketDropped) -> None:
        # the outbound ping itself, or the server's echo of it (GTP
        # encap/decap mutates the same Packet object, so packet_id
        # survives the tunnels)
        packet_id = event.packet.packet_id
        if packet_id not in self._sent:
            packet_id = event.packet.meta.get("echo_of")
            if packet_id not in self._sent:
                return
        self._sent.pop(packet_id)
        self.lost += 1
        self.lost_reasons[event.reason] = \
            self.lost_reasons.get(event.reason, 0) + 1

    def close(self) -> None:
        """Detach from the bus; unanswered pings count as lost.

        Idempotent: a second close neither re-counts losses nor
        touches the bus again.
        """
        if self._subscription is None:
            return
        self._subscription.close()
        self._subscription = None
        self._drop_subscription.close()
        if self._sent:
            self.lost += len(self._sent)
            self.lost_reasons["unanswered"] = \
                self.lost_reasons.get("unanswered", 0) + len(self._sent)
            self._sent.clear()

    def run(self, count: int, start: float = 0.0) -> None:
        """Schedule ``count`` pings starting at absolute sim time
        ``start`` (or now, if that is already past); call ``sim.run()``
        afterwards."""
        now = self.network.sim.now
        for i in range(count):
            at = max(now, start) + i * self.interval
            self.network.sim.post(at - now, self._send_one)

    def _send_one(self) -> None:
        packet = Packet(src=self.ue.ip, dst=self.server.ip, size=self.size,
                        protocol="ICMP", created_at=self.network.sim.now)
        self._sent[packet.packet_id] = self.network.sim.now
        self.ue.send_app(packet)
