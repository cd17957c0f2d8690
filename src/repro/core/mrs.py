"""MEC Registration Server (MRS).

The MRS is ACACIA's core-network component (an Application Function in
3GPP terms, Section 5.3): it manages CI services and creates/deletes
the network connectivity between CI applications and their CI servers
in the mobile edge clouds.  The first service discovery message a
device manager forwards is used to locate the closest CI server; the
MRS then drives the PCRF to trigger the network-initiated dedicated
bearer (Section 5.4, step 1-2).

Graceful degradation: the MRS watches the fault layer's
:class:`~repro.faults.events.FaultInjected` / ``FaultCleared`` events.
When a :class:`~repro.faults.plan.McServerOutage` (or a
``LinkDown`` of a site's S5 core link) kills the server behind a live
session, the MRS tears the dedicated bearer down and either
*relocates* the session to a surviving instance or *falls back* to
the central gateway path (default bearer only), emitting
:class:`~repro.core.events.SessionDegraded`; when the fault clears,
degraded sessions get their dedicated MEC path rebuilt and
:class:`~repro.core.events.SessionRestored` fires.

Session continuity: on an edge fabric (multiple
:meth:`~repro.core.network.MobileNetwork.add_edge_site` sites) the MRS
also watches :class:`~repro.epc.events.HandoverCompleted`.  A handover
into a cell homed on a different site triggers application-context
relocation -- the context is shipped over the inter-site WAN and the
dedicated bearer re-steered to the target site's gateways -- under the
make-before-break or break-before-make policy selected by
:class:`~repro.core.config.ContinuityConfig`, emitting
``SessionRelocating`` / ``SessionRelocated`` with the measured
CI-session interruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.events import (SessionDegraded, SessionRelocated,
                               SessionRelocating, SessionRestored)
from repro.core.service import CIServerInstance, CIService, ServiceRegistry
from repro.epc.entities import ServicePolicy
from repro.epc.events import HandoverCompleted
from repro.epc.procedures import ProcedureResult
from repro.faults.events import FaultCleared, FaultInjected
from repro.faults.plan import LinkDown, McServerOutage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import MobileNetwork
    from repro.epc.ue import UEDevice
    from repro.sim.engine import Process


@dataclass
class ActiveSession:
    """One UE's live connectivity to a CI service."""

    imsi: str
    service_id: str
    instance: CIServerInstance
    ebi: int
    setup_result: ProcedureResult


@dataclass
class DegradedSession:
    """Bookkeeping for a session knocked off its CI server by a fault."""

    imsi: str
    service_id: str
    mode: str                   # "relocated" | "central-fallback"


class MecRegistrationServer:
    """Manages CI services and on-demand MEC connectivity."""

    def __init__(self, network: "MobileNetwork", name: str = "mrs") -> None:
        self.network = network
        self.name = name
        self.registry = ServiceRegistry()
        self.sessions: dict[tuple[str, str], ActiveSession] = {}
        self.requests_served = 0
        #: sessions currently running degraded, by (imsi, service_id)
        self.degraded: dict[tuple[str, str], DegradedSession] = {}
        self._down_servers: set[str] = set()
        self._down_sites: set[str] = set()
        #: sessions with an application-context relocation in flight
        self._relocating: set[tuple[str, str]] = set()
        self.relocations_started = 0
        self.relocations_completed = 0
        self.relocations_skipped_fault = 0
        network.hooks.on(FaultInjected, self._on_fault)
        network.hooks.on(FaultCleared, self._on_fault_cleared)
        network.hooks.on(HandoverCompleted, self._on_handover)

    # -- service management (operator-facing) ------------------------------

    def register_service(self, service: CIService) -> None:
        """Register a CI service and configure its PCRF policy."""
        self.registry.register(service)
        self.network.pcrf.configure(ServicePolicy(
            service_id=service.service_id, qci=service.qci))

    def deploy_instance(self, service_id: str, server_name: str,
                        site_name: str,
                        serves_enbs: Optional[set[str]] = None) -> None:
        """Record a CI server deployment on an edge site."""
        service = self.registry.get(service_id)
        server = self.network.servers[server_name]
        service.add_instance(CIServerInstance(
            server_name=server_name, site_name=site_name,
            server_ip=server.ip,
            serves_enbs=frozenset(serves_enbs or {self.network.enb.name})))

    # -- connectivity lifecycle (device-manager-facing) ----------------------

    def request_connectivity(self, ue: "UEDevice", service_id: str,
                             discovery_payload: str = "") -> ActiveSession:
        """Create the dedicated bearer to the closest CI server.

        Idempotent per (UE, service): repeated interest matches while a
        session is live do not create extra bearers -- this is exactly
        the control-overhead saving of Section 5.3.  Blocks (drives the
        shared event queue) until :meth:`request_connectivity_async`
        finishes.
        """
        session = self.sessions.get((ue.imsi, service_id))
        if session is not None:
            return session
        return self.network.sim.run_until_complete(
            self.request_connectivity_async(ue, service_id))

    def request_connectivity_async(self, ue: "UEDevice",
                                   service_id: str) -> "Process":
        """Start a session request as a simulator process.

        The closest *healthy* instance to the UE's current cell is
        picked at the call, so a service with none raises
        :class:`LookupError` here.  The bearer activation and the
        session registration then run as one process whose value is
        the :class:`ActiveSession` (the live one, if the UE already
        holds a session).  Use this form to start many sessions from
        event callbacks: the blocking form nests an event loop per call.
        """
        instance = None
        if (ue.imsi, service_id) not in self.sessions:
            service = self.registry.get(service_id)
            enb_name = self.network.mme.context(ue.imsi).enb.name
            instance = self._select_instance(service, enb_name)
            if instance is None:
                raise LookupError(
                    f"service {service_id!r} has no healthy instances")
        return self.network.sim.spawn(
            self._connect(ue, service_id, instance),
            name=f"connect:{ue.name}:{service_id}")

    def _connect(self, ue: "UEDevice", service_id: str,
                 instance: Optional[CIServerInstance]) -> Generator:
        key = (ue.imsi, service_id)
        if instance is None:        # the UE already holds this session
            return self.sessions[key]
        result = yield from (
            self.network.control_plane.activate_dedicated_bearer_procedure(
                ue, service_id, instance.server_ip, instance.site_name,
                requested_by=self.name))
        session = ActiveSession(
            imsi=ue.imsi, service_id=service_id, instance=instance,
            ebi=result.bearer.ebi, setup_result=result)
        self.sessions[key] = session
        self.requests_served += 1
        return session

    def release_connectivity(self, ue: "UEDevice",
                             service_id: str) -> Optional[ProcedureResult]:
        """Tear down the dedicated bearer when the CI app finishes."""
        session = self.sessions.pop((ue.imsi, service_id), None)
        if session is None:
            return None
        return self.network.control_plane.deactivate_dedicated_bearer(
            ue, session.ebi, requested_by=self.name)

    def session_for(self, ue: "UEDevice",
                    service_id: str) -> Optional[ActiveSession]:
        return self.sessions.get((ue.imsi, service_id))

    def relocate_session(self, ue: "UEDevice",
                         service_id: str) -> Optional[ActiveSession]:
        """Re-anchor a session onto the closest CI server instance.

        After a handover, the UE's eNodeB may be served by a different
        edge site.  The SGW anchor keeps the old bearer working, but
        latency-wise the session should move: this tears the old
        dedicated bearer down and builds a new one to the instance
        closest to the current cell.  No-op when the current instance
        is already the best one.  Returns the (possibly new) session.
        """
        session = self.sessions.get((ue.imsi, service_id))
        if session is None:
            return None
        service = self.registry.get(service_id)
        enb_name = self.network.mme.context(ue.imsi).enb.name
        best = self._select_instance(service, enb_name)
        if best is session.instance:
            return session
        self.release_connectivity(ue, service_id)
        return self.request_connectivity(ue, service_id)

    # -- application-context relocation (edge-fabric mobility) -------------

    def _on_handover(self, event: HandoverCompleted) -> None:
        """Follow the UE across a site boundary.

        When the target cell's home edge site differs from the site
        anchoring a live session, start an application-context
        relocation per the configured
        :class:`~repro.core.config.ContinuityConfig` policy.  Cells
        without a home site (single-site deployments) never trigger
        this, so existing topologies behave exactly as before.
        """
        to_site = self.network.home_site_of(event.target.name)
        if to_site is None:
            return
        for session in list(self.sessions.values()):
            if session.imsi == event.ue.imsi:
                self._maybe_relocate(event.ue, session, to_site)

    def _maybe_relocate(self, ue: "UEDevice", session: ActiveSession,
                        to_site: str) -> None:
        key = (session.imsi, session.service_id)
        if key in self._relocating:
            return          # a relocation for this session is in flight
        from_site = session.instance.site_name
        if from_site == to_site:
            return
        service = self.registry.get(session.service_id)
        target = next(
            (i for i in service.instances
             if i.site_name == to_site
             and i.server_name not in self._down_servers
             and i.site_name not in self._down_sites), None)
        if target is None:
            # the target site has no healthy instance: stay anchored at
            # the current site (the SGW keeps the old bearer working)
            # rather than stranding the session mid-move
            self.relocations_skipped_fault += 1
            return
        self._relocating.add(key)
        self.relocations_started += 1
        self.network.sim.spawn(
            self._relocate_proc(ue, session, target),
            name=f"relocate:{session.imsi}:{session.service_id}")

    def _relocate_proc(self, ue: "UEDevice", session: ActiveSession,
                       target: CIServerInstance):
        """Move a session's application context between edge sites.

        *make-before-break*: pre-copy the bulk of the context while the
        old path still serves traffic, re-steer the bearer, then
        delta-sync what changed during the pre-copy -- the session is
        only interrupted for the re-steer plus the delta.

        *break-before-make*: withdraw the bearer's flow rules first,
        transfer the whole context, then re-steer -- simpler, but the
        session is down for the entire transfer.

        The measured interruption (and the bytes actually moved over
        the inter-site WAN) are published on
        :class:`~repro.core.events.SessionRelocated`.
        """
        key = (session.imsi, session.service_id)
        net = self.network
        cfg = net.config.continuity
        cp = net.control_plane
        from_site = session.instance.site_name
        started_at = net.sim.now
        self._emit(SessionRelocating, imsi=session.imsi,
                   service_id=session.service_id, from_site=from_site,
                   to_site=target.site_name, policy=cfg.policy,
                   time=started_at)
        try:
            if cfg.policy == "make-before-break":
                delta = int(cfg.context_size_bytes * cfg.delta_fraction)
                precopy = cfg.context_size_bytes - delta
                yield net.context_transfer_async(from_site, target.site_name,
                                                 precopy)
                break_at = net.sim.now
                yield cp.resteer_bearer_async(ue, session.ebi,
                                              target.site_name,
                                              target.server_ip)
                yield net.context_transfer_async(from_site, target.site_name,
                                                 delta)
            else:   # break-before-make
                break_at = net.sim.now
                yield cp.suspend_bearer_flows_async(ue, session.ebi)
                yield net.context_transfer_async(from_site, target.site_name,
                                                 cfg.context_size_bytes)
                yield cp.resteer_bearer_async(ue, session.ebi,
                                              target.site_name,
                                              target.server_ip)
            session.instance = target
            self.relocations_completed += 1
            self._emit(SessionRelocated, imsi=session.imsi,
                       service_id=session.service_id, from_site=from_site,
                       to_site=target.site_name, policy=cfg.policy,
                       interruption=net.sim.now - break_at,
                       transferred_bytes=cfg.context_size_bytes,
                       duration=net.sim.now - started_at,
                       time=net.sim.now)
        finally:
            self._relocating.discard(key)

    # -- graceful degradation (fault-layer driven) -------------------------

    def _select_instance(self, service: CIService,
                         enb_name: str) -> Optional[CIServerInstance]:
        """Closest instance among those not behind a known fault."""
        alive = [i for i in service.instances
                 if i.server_name not in self._down_servers
                 and i.site_name not in self._down_sites]
        if not alive:
            return None
        for instance in alive:
            if enb_name in instance.serves_enbs:
                return instance
        return alive[0]

    def _on_fault(self, event: FaultInjected) -> None:
        spec = event.spec
        if isinstance(spec, McServerOutage):
            self._down_servers.add(spec.server)
            self._degrade_where(
                lambda s: s.instance.server_name == spec.server)
        elif isinstance(spec, LinkDown) and spec.link.startswith("s5."):
            site = spec.link[len("s5."):]
            self._down_sites.add(site)
            self._degrade_where(lambda s: s.instance.site_name == site)

    def _on_fault_cleared(self, event: FaultCleared) -> None:
        spec = event.spec
        if isinstance(spec, McServerOutage):
            self._down_servers.discard(spec.server)
        elif isinstance(spec, LinkDown) and spec.link.startswith("s5."):
            self._down_sites.discard(spec.link[len("s5."):])
        else:
            return
        self._restore_degraded()

    def _degrade_where(self, affected) -> None:
        """Move every session matching ``affected`` off its dead path.

        Relocation reuses the ordinary release + request cycle, so the
        dedicated bearer is properly torn down (flow rules deleted)
        before the fallback takes over.
        """
        for session in [s for s in self.sessions.values() if affected(s)]:
            key = (session.imsi, session.service_id)
            ue = self.network.mme.context(session.imsi).ue
            service = self.registry.get(session.service_id)
            enb_name = self.network.mme.context(session.imsi).enb.name
            self.release_connectivity(ue, session.service_id)
            if self._select_instance(service, enb_name) is not None:
                self.request_connectivity(ue, session.service_id)
                mode = "relocated"
            else:
                # no healthy instance anywhere: the default bearer
                # through the central gateways carries the service
                # until the fault clears
                mode = "central-fallback"
            self.degraded[key] = DegradedSession(
                imsi=session.imsi, service_id=session.service_id, mode=mode)
            self._emit(SessionDegraded, imsi=session.imsi,
                       service_id=session.service_id, mode=mode,
                       time=self.network.sim.now)

    def _restore_degraded(self) -> None:
        """Rebuild the dedicated MEC path for recoverable sessions."""
        for key, degraded in list(self.degraded.items()):
            imsi, service_id = key
            ue = self.network.mme.context(imsi).ue
            service = self.registry.get(service_id)
            enb_name = self.network.mme.context(imsi).enb.name
            if self._select_instance(service, enb_name) is None:
                continue        # still nothing healthy to return to
            if degraded.mode == "central-fallback":
                self.request_connectivity(ue, service_id)
            else:
                self.relocate_session(ue, service_id)
            del self.degraded[key]
            self._emit(SessionRestored, imsi=imsi, service_id=service_id,
                       time=self.network.sim.now)

    def _emit(self, event_type, **fields) -> None:
        hooks = self.network.hooks
        if hooks.has(event_type):
            hooks.emit(event_type(**fields))
