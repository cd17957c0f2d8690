"""EPC signalling procedures, run as simulator processes.

Implements the control-plane choreography the paper relies on:

* **attach** -- default bearer establishment through the central
  gateways (always-on internet connectivity);
* **network-initiated dedicated bearer activation** -- the Section 5.4
  sequence (Request -> Create -> Set-up -> Route): MRS -> PCRF -> PCEF/
  PGW-C -> SGW-C -> MME -> eNB -> UE, with the GW-Cs placing *local*
  GW-U addresses in the F-TEIDs so the bearer's data plane lands on the
  MEC-site switches, then OpenFlow rules pushed by the controller;
* **dedicated bearer deactivation**;
* **release to idle / service request** -- the RRC inactivity cycle
  whose message counts and byte totals are calibrated to the paper's
  measured 15 messages / 2914 bytes (Section 4).

Each procedure is a generator driven by the
:class:`~repro.sim.engine.Simulator`: every control message is a packet
on the :class:`~repro.epc.signalling.SignallingFabric` and the
procedure suspends until it is delivered, so
``ProcedureResult.elapsed`` is *measured simulated time* and any number
of procedures run concurrently, contending on shared channels.  The
synchronous methods (``attach``, ``service_request``, ...) wrap the
``*_async`` variants with
:meth:`~repro.sim.engine.Simulator.run_until_complete`, so existing
call sites keep working -- including calls made from inside event
callbacks while the simulation is running.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.epc import messages as m
from repro.epc.bearer import Bearer, PacketFilter, TrafficFlowTemplate
from repro.epc.entities import (GatewaySite, HSS, MME, PCRF, PGWC, SGWC,
                                UeContext)
from repro.epc.events import (BearerActivated, BearerDeactivated,
                              HandoverCompleted, ProcedureCompleted,
                              ProcedureStarted, ServiceRequestCompleted,
                              UeAttached, UeIpAssigned, UeReleasedToIdle)
from repro.epc.identifiers import FTeid
from repro.epc.messages import ControlMessage
from repro.epc.signalling import (RetryPolicy, SignallingFabric,
                                  SignallingTimeout)
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, GtpEncap, Output

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.enodeb import ENodeB
    from repro.epc.ue import UEDevice
    from repro.sdn.controller import SdnController
    from repro.sim.engine import Process, Simulator

#: Flow-rule priorities: dedicated-bearer DL classification must beat the
#: default bearer's catch-all at the PGW-U.
PRIORITY_DEFAULT = 100
PRIORITY_DEDICATED = 200


@dataclass
class ProcedureResult:
    """Outcome of one signalling procedure.

    ``by_protocol`` maps each protocol to the ``[messages, bytes]``
    totals of this procedure's own delivered control messages, flow-mods
    included; the messages themselves are not kept (subscribe to
    :class:`~repro.epc.events.ControlMessageDelivered` to see them).
    ``elapsed`` is the measured simulated time between ``started_at``
    and ``completed_at``.

    ``outcome`` is terminal and one of:

    * ``"ok"`` -- completed, no retransmissions needed;
    * ``"retried-ok"`` -- completed, but >= 1 message was retransmitted;
    * ``"timeout"`` -- a message exhausted its retransmission budget
      (the procedure stopped at that hop instead of hanging).

    ``retries`` / ``timer_expiries`` count retransmissions and timer
    firings across the procedure's hops (including its flow-mods).
    """

    name: str
    by_protocol: dict[str, list[int]] = field(default_factory=dict)
    elapsed: float = 0.0
    bearer: Optional[Bearer] = None
    started_at: float = 0.0
    completed_at: float = 0.0
    outcome: str = "ok"
    retries: int = 0
    timer_expiries: int = 0
    failure: Optional[str] = None
    subject: Any = None

    def count_message(self, message: ControlMessage) -> None:
        """Add one delivered message to the per-protocol totals."""
        entry = self.by_protocol.get(message.protocol)
        if entry is None:
            self.by_protocol[message.protocol] = [1, message.size]
        else:
            entry[0] += 1
            entry[1] += message.size

    @property
    def message_count(self) -> int:
        return sum(count for count, _ in self.by_protocol.values())

    @property
    def byte_count(self) -> int:
        return sum(size for _, size in self.by_protocol.values())


class EPCControlPlane:
    """Binds the control entities together and runs the procedures.

    Procedures execute as simulator processes over the given
    :class:`~repro.epc.signalling.SignallingFabric`, every hop guarded
    by ``retry_policy``.  The SDN controller is bound to the same
    fabric and policy so flow-mods traverse the OpenFlow channel like
    every other control message.
    """

    def __init__(self, sim: "Simulator", mme: MME, hss: HSS, pcrf: PCRF,
                 sgwc: SGWC, pgwc: PGWC, controller: "SdnController",
                 fabric: SignallingFabric,
                 retry_policy: RetryPolicy) -> None:
        self.sim = sim
        #: retransmission policy for every hop
        self.retry_policy = retry_policy
        self.mme = mme
        self.hss = hss
        self.pcrf = pcrf
        self.sgwc = sgwc
        self.pgwc = pgwc
        self.controller = controller
        self.fabric = fabric
        self._open_core_channels()
        controller.bind_fabric(self.fabric, retry_policy)
        #: in-flight service requests by IMSI (concurrent triggers join)
        self._service_requests: dict[str, "Process"] = {}

    # -- plumbing ---------------------------------------------------------

    def _open_core_channels(self) -> None:
        """Open the fixed core-network signalling channels."""
        fab = self.fabric
        fab.open_channel("s11", "GTPv2", [self.mme.name], [self.sgwc.name])
        fab.open_channel("s5c", "GTPv2", [self.sgwc.name], [self.pgwc.name])
        fab.open_channel("gx", "Diameter", ["pcrf"], [self.pgwc.name])
        fab.open_channel("rx.mrs", "Diameter", ["mrs"], ["pcrf"])

    def register_enb(self, enb_name: str) -> None:
        """Open the eNodeB's S1-MME association and its cell's shared
        RRC channel (UEs join the cell via :meth:`join_cell`)."""
        self.fabric.open_channel(f"s1mme.{enb_name}", "SCTP",
                                 [enb_name], [self.mme.name])
        self.fabric.open_channel(f"rrc.{enb_name}", "RRC", [enb_name], [])

    def join_cell(self, ue_name: str, enb_name: str) -> None:
        """Put a UE on its serving cell's shared RRC channel.

        All UEs of a cell contend on the one air-interface channel; at
        handover, joining the target cell re-routes the UE's RRC
        signalling there.
        """
        channel_id = f"rrc.{enb_name}"
        if channel_id not in self.fabric.channels:  # direct-use fallback
            self.register_enb(enb_name)
        self.fabric.add_party(channel_id, ue_name, side="b")

    def add_site(self, site: GatewaySite) -> None:
        self.sgwc.add_site(site)
        self.pgwc.add_site(site)
        self.controller.register(site.sgw_u)
        self.controller.register(site.pgw_u)

    def _hop(self, result: ProcedureResult, mtype: m.MessageType,
             sender: str, receiver: str) -> Generator:
        """Send one control message and suspend until delivery, counting
        it in ``result``.

        The hop retransmits on timer expiry; exhausting the budget raises
        :class:`~repro.epc.signalling.SignallingTimeout` into the
        procedure, which the ``_guarded`` wrapper turns into a
        terminal ``timeout`` outcome.
        """
        message = yield self.fabric.send_reliable(
            mtype, sender, receiver, policy=self.retry_policy,
            telemetry=result)
        result.count_message(message)

    def _begin(self, name: str, subject) -> ProcedureResult:
        result = ProcedureResult(name, started_at=self.sim.now,
                                 subject=subject)
        self._signal(ProcedureStarted, name=name, subject=subject,
                     time=self.sim.now)
        return result

    def _complete(self, result: ProcedureResult, subject) -> None:
        result.completed_at = self.sim.now
        result.elapsed = result.completed_at - result.started_at
        if result.outcome == "ok" and result.retries:
            result.outcome = "retried-ok"
        self._signal(ProcedureCompleted, name=result.name, subject=subject,
                     result=result)

    def _guarded(self, gen: Generator) -> Generator:
        """Run a procedure generator to a *terminal* result.

        A hop that exhausts its retransmission budget raises
        :class:`~repro.epc.signalling.SignallingTimeout`; instead of
        propagating (which would fail the process and abort
        ``run_until_complete`` with a deadlock-style error), the
        procedure completes with ``outcome="timeout"`` and returns its
        partial result, so callers can always inspect what happened.
        """
        try:
            return (yield from gen)
        except SignallingTimeout as exc:
            result = exc.result
            if not isinstance(result, ProcedureResult):
                raise
            result.outcome = "timeout"
            result.failure = str(exc)
            self._complete(result, result.subject)
            return result

    def _signal(self, event_type, **fields) -> None:
        """Publish a procedure event, skipping construction if unheard."""
        hooks = self.sim.hooks
        if hooks.has(event_type):
            hooks.emit(event_type(**fields))

    # -- flow-rule helpers --------------------------------------------------

    @staticmethod
    def _ul_cookie(bearer: Bearer) -> str:
        return f"{bearer.imsi}:ebi{bearer.ebi}:ul"

    @staticmethod
    def _dl_cookie(bearer: Bearer) -> str:
        return f"{bearer.imsi}:ebi{bearer.ebi}:dl"

    def _flow_add(self, result: ProcedureResult, switch_name: str,
                  rule: FlowRule) -> Generator:
        message = yield self.controller.install_rule(switch_name, rule,
                                                     telemetry=result)
        result.count_message(message)

    def _flow_del(self, result: ProcedureResult, switch_name: str,
                  cookie: str) -> Generator:
        message = yield self.controller.remove_rules(switch_name, cookie,
                                                     telemetry=result)
        result.count_message(message)

    def _sgw_ul_rule(self, bearer: Bearer, site: GatewaySite) -> FlowRule:
        return FlowRule(
            FlowMatch(teid=bearer.sgw_s1_fteid.teid),
            [GtpDecap(),
             GtpEncap(bearer.pgw_fteid.teid, site.sgw_u.ip, site.pgw_u.ip),
             Output(site.sgw_ul_port)],
            priority=PRIORITY_DEFAULT, cookie=self._ul_cookie(bearer))

    def _pgw_ul_rule(self, bearer: Bearer, site: GatewaySite) -> FlowRule:
        return FlowRule(
            FlowMatch(teid=bearer.pgw_fteid.teid),
            [GtpDecap(), Output(site.pgw_ul_port)],
            priority=PRIORITY_DEFAULT, cookie=self._ul_cookie(bearer))

    def _pgw_dl_rule(self, bearer: Bearer, site: GatewaySite,
                     server_ip: Optional[str] = None) -> FlowRule:
        if server_ip is None:
            match = FlowMatch(dst_ip=bearer.ue_ip)
            priority = PRIORITY_DEFAULT
        else:
            match = FlowMatch(src_ip=server_ip, dst_ip=bearer.ue_ip)
            priority = PRIORITY_DEDICATED
        return FlowRule(
            match,
            [GtpEncap(bearer.sgw_s5_fteid.teid, site.pgw_u.ip, site.sgw_u.ip),
             Output(site.pgw_dl_port)],
            priority=priority, cookie=self._dl_cookie(bearer))

    def _sgw_dl_rule(self, bearer: Bearer, site: GatewaySite,
                     enb: "ENodeB") -> FlowRule:
        priority = (PRIORITY_DEFAULT if bearer.default
                    else PRIORITY_DEDICATED)
        return FlowRule(
            FlowMatch(teid=bearer.sgw_s5_fteid.teid),
            [GtpDecap(),
             GtpEncap(bearer.enb_fteid.teid, site.sgw_u.ip,
                      bearer.enb_fteid.address),
             Output(site.sgw_dl_port(enb.name))],
            priority=priority, cookie=self._dl_cookie(bearer))

    def _install_uplink_flows(self, result: ProcedureResult, bearer: Bearer,
                              site: GatewaySite) -> Generator:
        if not site.pgw_ul_port:
            raise RuntimeError(
                f"site {site.name!r} has no SGi destination; attach a "
                f"server to it before establishing bearers")
        yield from self._install_sgw_ul_rule(result, bearer, site)
        yield from self._flow_add(result, site.pgw_u.name,
                                  self._pgw_ul_rule(bearer, site))

    def _install_sgw_ul_rule(self, result: ProcedureResult, bearer: Bearer,
                             site: GatewaySite) -> Generator:
        yield from self._flow_add(result, site.sgw_u.name,
                                  self._sgw_ul_rule(bearer, site))

    def _install_downlink_flows(self, result: ProcedureResult, bearer: Bearer,
                                site: GatewaySite, enb: "ENodeB",
                                server_ip: Optional[str] = None) -> Generator:
        yield from self._install_pgw_dl_rule(result, bearer, site, server_ip)
        yield from self._install_sgw_dl_rule(result, bearer, site, enb)

    def _install_pgw_dl_rule(self, result: ProcedureResult, bearer: Bearer,
                             site: GatewaySite,
                             server_ip: Optional[str] = None) -> Generator:
        yield from self._flow_add(result, site.pgw_u.name,
                                  self._pgw_dl_rule(bearer, site, server_ip))

    def _install_sgw_dl_rule(self, result: ProcedureResult, bearer: Bearer,
                             site: GatewaySite, enb: "ENodeB") -> Generator:
        yield from self._flow_add(result, site.sgw_u.name,
                                  self._sgw_dl_rule(bearer, site, enb))

    def _allocate_tunnel_endpoints(self, bearer: Bearer, site: GatewaySite,
                                   enb: "ENodeB") -> None:
        bearer.sgw_s1_fteid = FTeid(site.sgw_teids.allocate(), site.sgw_u.ip)
        bearer.sgw_s5_fteid = FTeid(site.sgw_teids.allocate(), site.sgw_u.ip)
        bearer.pgw_fteid = FTeid(site.pgw_teids.allocate(), site.pgw_u.ip)
        bearer.enb_fteid = enb.setup_bearer(
            bearer.ue_ip, bearer.ebi, bearer.sgw_s1_fteid,
            site.enb_port(enb.name))
        bearer.gateway_site = site.name

    # -- procedures -----------------------------------------------------------

    def attach(self, ue: "UEDevice", enb: "ENodeB",
               site_name: str = "central") -> ProcedureResult:
        """Attach a UE: authentication + default bearer establishment."""
        return self.sim.run_until_complete(
            self.attach_async(ue, enb, site_name))

    def attach_async(self, ue: "UEDevice", enb: "ENodeB",
                     site_name: str = "central") -> "Process":
        """Start an attach as a process; returns immediately."""
        return self.sim.spawn(self._guarded(self._attach_proc(ue, enb, site_name)),
                              name=f"attach:{ue.name}")

    def _attach_proc(self, ue: "UEDevice", enb: "ENodeB",
                     site_name: str) -> Generator:
        if ue.attached:
            raise RuntimeError(f"{ue.name} is already attached")
        profile = self.hss.lookup(ue.imsi)     # raises for unknown IMSI
        site = self.sgwc.site(site_name)
        result = self._begin("attach", ue)

        yield from self._hop(result, m.RRC_CONNECTION_REQUEST, ue.name,
                             enb.name)
        yield from self._hop(result, m.RRC_CONNECTION_SETUP, enb.name,
                             ue.name)
        yield from self._hop(result, m.RRC_CONNECTION_SETUP_COMPLETE,
                             ue.name, enb.name)
        yield from self._hop(result, m.ATTACH_INITIAL_UE_MESSAGE, enb.name,
                             self.mme.name)
        yield from self._hop(result, m.CREATE_SESSION_REQUEST, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.CREATE_SESSION_REQUEST, self.sgwc.name,
                             self.pgwc.name)

        ue.assign_ip(self.pgwc.allocate_ue_ip())
        # announced synchronously so fabric-level subscribers (radio-port
        # registration) run before the eNodeB validates the bearer below
        self._signal(UeIpAssigned, ue=ue, address=ue.ip)
        bearer = Bearer(ebi=ue.bearers.allocate_ebi(), qci=profile.default_qci,
                        imsi=ue.imsi, ue_ip=ue.ip, default=True)
        self._allocate_tunnel_endpoints(bearer, site, enb)

        yield from self._hop(result, m.CREATE_SESSION_RESPONSE, self.pgwc.name,
                             self.sgwc.name)
        yield from self._hop(result, m.CREATE_SESSION_RESPONSE, self.sgwc.name,
                             self.mme.name)
        yield from self._hop(result, m.INITIAL_CONTEXT_SETUP_REQUEST,
                             self.mme.name, enb.name)
        yield from self._hop(result, m.RRC_CONNECTION_RECONFIGURATION,
                             enb.name, ue.name)
        yield from self._hop(result,
                             m.RRC_CONNECTION_RECONFIGURATION_COMPLETE,
                             ue.name, enb.name)
        yield from self._hop(result, m.INITIAL_CONTEXT_SETUP_RESPONSE,
                             enb.name, self.mme.name)
        yield from self._hop(result, m.ATTACH_COMPLETE_UPLINK, enb.name,
                             self.mme.name)
        yield from self._hop(result, m.MODIFY_BEARER_REQUEST, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.MODIFY_BEARER_RESPONSE, self.sgwc.name,
                             self.mme.name)

        yield from self._install_uplink_flows(result, bearer, site)
        yield from self._install_downlink_flows(result, bearer, site, enb)

        ue.add_bearer(bearer)
        ue.attached = True
        ue.rrc_connected = True
        ue.control_plane = self
        self.mme.register(UeContext(imsi=ue.imsi, ue=ue, enb=enb))

        result.bearer = bearer
        self._complete(result, ue)
        self._signal(UeAttached, ue=ue, enb=enb, result=result)
        return result

    def activate_dedicated_bearer(
            self, ue: "UEDevice", service_id: str, server_ip: str,
            site_name: str, server_port: Optional[int] = None,
            requested_by: str = "mrs") -> ProcedureResult:
        """Network-initiated dedicated bearer to a CI server (Section 5.4)."""
        return self.sim.run_until_complete(
            self.activate_dedicated_bearer_async(
                ue, service_id, server_ip, site_name, server_port,
                requested_by))

    def activate_dedicated_bearer_async(
            self, ue: "UEDevice", service_id: str, server_ip: str,
            site_name: str, server_port: Optional[int] = None,
            requested_by: str = "mrs") -> "Process":
        return self.sim.spawn(
            self.activate_dedicated_bearer_procedure(
                ue, service_id, server_ip, site_name, server_port,
                requested_by),
            name=f"activate:{ue.name}:{service_id}")

    def activate_dedicated_bearer_procedure(
            self, ue: "UEDevice", service_id: str, server_ip: str,
            site_name: str, server_port: Optional[int] = None,
            requested_by: str = "mrs") -> Generator:
        """The dedicated-bearer activation as a bare generator.

        For a caller that runs it inside a process of its own
        (``yield from``) and acts on the result in that same process.
        """
        return self._guarded(
            self._activate_proc(ue, service_id, server_ip, site_name,
                                server_port, requested_by))

    def _activate_proc(self, ue: "UEDevice", service_id: str, server_ip: str,
                       site_name: str, server_port: Optional[int],
                       requested_by: str) -> Generator:
        context = self.mme.context(ue.imsi)
        enb = context.enb
        site = self.sgwc.site(site_name)
        result = self._begin("activate-dedicated-bearer", ue)

        # (1) Request + (2) Create: MRS -> PCRF -> PCEF in PGW-C
        yield from self._hop(result, m.AA_REQUEST, requested_by, "pcrf")
        rule = self.pcrf.generate_rule(service_id, ue.ip, server_ip,
                                       server_port)
        yield from self._hop(result, m.RE_AUTH_REQUEST, "pcrf", self.pgwc.name)
        self.pgwc.pcef_install(ue.imsi, rule)
        yield from self._hop(result, m.RE_AUTH_ANSWER, self.pgwc.name, "pcrf")

        ebi = ue.bearers.allocate_ebi()

        # (3) Set-up: GW-Cs place *local* GW-U addresses in the F-TEIDs
        bearer = Bearer(ebi=ebi, qci=rule.qci,
                        imsi=ue.imsi, ue_ip=ue.ip, default=False)
        bearer.tft = TrafficFlowTemplate([PacketFilter(
            precedence=rule.precedence, direction="bidirectional",
            remote_address=server_ip, remote_port=server_port)])
        self._allocate_tunnel_endpoints(bearer, site, enb)

        yield from self._hop(result, m.CREATE_BEARER_REQUEST, self.pgwc.name,
                             self.sgwc.name)
        yield from self._hop(result, m.CREATE_BEARER_REQUEST, self.sgwc.name,
                             self.mme.name)
        yield from self._hop(result, m.ERAB_SETUP_REQUEST, self.mme.name,
                             enb.name)
        yield from self._hop(result, m.RRC_CONNECTION_RECONFIGURATION,
                             enb.name, ue.name)
        yield from self._hop(result,
                             m.RRC_CONNECTION_RECONFIGURATION_COMPLETE,
                             ue.name, enb.name)
        yield from self._hop(result, m.ERAB_SETUP_RESPONSE, enb.name,
                             self.mme.name)
        yield from self._hop(result, m.CREATE_BEARER_RESPONSE, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.CREATE_BEARER_RESPONSE, self.sgwc.name,
                             self.pgwc.name)
        yield from self._hop(result, m.AA_ANSWER, "pcrf", requested_by)

        # (4) Route: OpenFlow rules onto the local GW-Us
        yield from self._install_uplink_flows(result, bearer, site)
        yield from self._install_downlink_flows(result, bearer, site, enb,
                                                server_ip=server_ip)

        ue.add_bearer(bearer)

        result.bearer = bearer
        self._complete(result, ue)
        self._signal(BearerActivated, ue=ue, bearer=bearer, result=result)
        return result

    def deactivate_dedicated_bearer(self, ue: "UEDevice", ebi: int,
                                    requested_by: str = "mrs"
                                    ) -> ProcedureResult:
        """Tear down a dedicated bearer and its flow state."""
        return self.sim.run_until_complete(
            self.deactivate_dedicated_bearer_async(ue, ebi, requested_by))

    def deactivate_dedicated_bearer_async(self, ue: "UEDevice", ebi: int,
                                          requested_by: str = "mrs"
                                          ) -> "Process":
        return self.sim.spawn(self._guarded(self._deactivate_proc(ue, ebi, requested_by)),
                              name=f"deactivate:{ue.name}:ebi{ebi}")

    def _deactivate_proc(self, ue: "UEDevice", ebi: int,
                         requested_by: str) -> Generator:
        context = self.mme.context(ue.imsi)
        enb = context.enb
        bearer = ue.bearers.bearers.get(ebi)
        if bearer is None or bearer.default:
            raise ValueError(f"EBI {ebi} is not a dedicated bearer of "
                             f"{ue.name}")
        site = self.sgwc.site(bearer.gateway_site)
        result = self._begin("deactivate-dedicated-bearer", ue)

        yield from self._hop(result, m.SESSION_TERMINATION_REQUEST,
                             requested_by, "pcrf")
        yield from self._hop(result, m.RE_AUTH_REQUEST, "pcrf",
                             self.pgwc.name)
        yield from self._hop(result, m.DELETE_BEARER_REQUEST, self.pgwc.name,
                             self.sgwc.name)
        yield from self._hop(result, m.DELETE_BEARER_REQUEST, self.sgwc.name,
                             self.mme.name)
        yield from self._hop(result, m.ERAB_RELEASE_COMMAND, self.mme.name,
                             enb.name)
        yield from self._hop(result, m.RRC_CONNECTION_RECONFIGURATION,
                             enb.name, ue.name)
        yield from self._hop(result,
                             m.RRC_CONNECTION_RECONFIGURATION_COMPLETE,
                             ue.name, enb.name)
        yield from self._hop(result, m.ERAB_RELEASE_RESPONSE, enb.name,
                             self.mme.name)
        yield from self._hop(result, m.DELETE_BEARER_RESPONSE, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.DELETE_BEARER_RESPONSE, self.sgwc.name,
                             self.pgwc.name)
        yield from self._hop(result, m.RE_AUTH_ANSWER, self.pgwc.name,
                             "pcrf")
        yield from self._hop(result, m.SESSION_TERMINATION_ANSWER, "pcrf",
                             requested_by)

        service_ids = [sid for (imsi, sid) in self.pgwc.pcef_rules
                       if imsi == ue.imsi]
        for sid in service_ids:
            self.pgwc.pcef_remove(ue.imsi, sid)

        yield from self._flow_del(result, site.sgw_u.name,
                                  self._ul_cookie(bearer))
        yield from self._flow_del(result, site.pgw_u.name,
                                  self._ul_cookie(bearer))
        yield from self._flow_del(result, site.sgw_u.name,
                                  self._dl_cookie(bearer))
        yield from self._flow_del(result, site.pgw_u.name,
                                  self._dl_cookie(bearer))

        site.sgw_teids.release(bearer.sgw_s1_fteid.teid)
        site.sgw_teids.release(bearer.sgw_s5_fteid.teid)
        site.pgw_teids.release(bearer.pgw_fteid.teid)
        enb.release_bearer(ue.ip, ebi)
        ue.remove_bearer(ebi)

        result.bearer = bearer
        self._complete(result, ue)
        self._signal(BearerDeactivated, ue=ue, ebi=ebi, result=result)
        return result

    def release_to_idle(self, ue: "UEDevice") -> ProcedureResult:
        """RRC-inactivity release: the calibrated 7-message sequence
        (3 SCTP + 2 GTPv2 + 2 OpenFlow) for a single-bearer UE."""
        return self.sim.run_until_complete(self.release_to_idle_async(ue))

    def release_to_idle_async(self, ue: "UEDevice") -> "Process":
        return self.sim.spawn(self._guarded(self._release_proc(ue)),
                              name=f"release:{ue.name}")

    def _release_proc(self, ue: "UEDevice") -> Generator:
        context = self.mme.context(ue.imsi)
        enb = context.enb
        result = self._begin("release-to-idle", ue)

        yield from self._hop(result, m.UE_CONTEXT_RELEASE_REQUEST, enb.name,
                             self.mme.name)
        yield from self._hop(result, m.RELEASE_ACCESS_BEARERS_REQUEST,
                             self.mme.name, self.sgwc.name)
        yield from self._hop(result, m.RELEASE_ACCESS_BEARERS_RESPONSE,
                             self.sgwc.name, self.mme.name)
        yield from self._hop(result, m.UE_CONTEXT_RELEASE_COMMAND,
                             self.mme.name, enb.name)
        yield from self._hop(result, m.UE_CONTEXT_RELEASE_COMPLETE, enb.name,
                             self.mme.name)

        # only the S1 leg is torn down: the SGW-U's rules go, but the
        # PGW-U keeps tunnelling downlink toward the SGW-U, where
        # misses feed the paging buffer (see repro.epc.paging)
        for bearer in list(ue.bearers):
            if not bearer.active:
                continue
            site = self.sgwc.site(bearer.gateway_site)
            yield from self._flow_del(result, site.sgw_u.name,
                                      self._ul_cookie(bearer))
            yield from self._flow_del(result, site.sgw_u.name,
                                      self._dl_cookie(bearer))
            bearer.active = False

        ue.rrc_connected = False
        context.state = "idle"
        self._complete(result, ue)
        self._signal(UeReleasedToIdle, ue=ue, result=result)
        return result

    def service_request(self, ue: "UEDevice") -> ProcedureResult:
        """Idle -> connected re-establishment: the calibrated 8-message
        sequence (4 SCTP + 2 GTPv2 + 2 OpenFlow) for a single-bearer UE."""
        context = self.mme.context(ue.imsi)
        if (context.state == "connected"
                and ue.imsi not in self._service_requests):
            return ProcedureResult("service-request(noop)")
        return self.sim.run_until_complete(self.service_request_async(ue))

    def service_request_async(self, ue: "UEDevice") -> "Process":
        """Start (or join) the UE's service request.

        Concurrent triggers -- paging and an uplink promotion racing,
        say -- share one in-flight procedure instead of double-signalling.
        """
        proc = self._service_requests.get(ue.imsi)
        if proc is not None and not proc.finished:
            return proc
        proc = self.sim.spawn(self._guarded(self._service_request_proc(ue)),
                              name=f"service-request:{ue.name}")
        self._service_requests[ue.imsi] = proc
        return proc

    def _service_request_proc(self, ue: "UEDevice") -> Generator:
        try:
            context = self.mme.context(ue.imsi)
            enb = context.enb
            if context.state == "connected":
                return ProcedureResult("service-request(noop)")
            result = self._begin("service-request", ue)

            yield from self._hop(result, m.INITIAL_UE_MESSAGE, enb.name,
                                 self.mme.name)
            yield from self._hop(result, m.INITIAL_CONTEXT_SETUP_REQUEST,
                                 self.mme.name, enb.name)
            yield from self._hop(result, m.INITIAL_CONTEXT_SETUP_RESPONSE,
                                 enb.name, self.mme.name)
            yield from self._hop(result, m.UPLINK_NAS_TRANSPORT, enb.name,
                                 self.mme.name)
            yield from self._hop(result, m.MODIFY_BEARER_REQUEST,
                                 self.mme.name, self.sgwc.name)
            yield from self._hop(result, m.MODIFY_BEARER_RESPONSE,
                                 self.sgwc.name, self.mme.name)

            for bearer in list(ue.bearers):
                if bearer.active:
                    continue
                site = self.sgwc.site(bearer.gateway_site)
                yield from self._install_sgw_ul_rule(result, bearer, site)
                yield from self._install_sgw_dl_rule(result, bearer, site,
                                                     enb)
                bearer.active = True

            ue.rrc_connected = True
            context.state = "connected"
            self._complete(result, ue)
            self._signal(ServiceRequestCompleted, ue=ue, result=result)
            return result
        finally:
            self._service_requests.pop(ue.imsi, None)

    def handover(self, ue: "UEDevice", target_enb: "ENodeB",
                 radio_port: str) -> ProcedureResult:
        """X2-based handover with S1 path switch.

        The SGW-U is the mobility anchor: every bearer keeps its S5
        segment and its serving gateway site; only the S1 leg moves --
        the target eNodeB allocates fresh downlink TEIDs and the SGW-C
        re-points the SGW-U's downlink flow rules at the target.  A
        dedicated MEC bearer therefore survives the handover with its
        local gateways intact (the CI server does not change).

        ``radio_port`` is the target eNodeB's port name for the UE's
        (re-attached) radio link; the network builder wires the link
        before invoking the procedure.
        """
        return self.sim.run_until_complete(
            self.handover_async(ue, target_enb, radio_port))

    def handover_async(self, ue: "UEDevice", target_enb: "ENodeB",
                       radio_port: str) -> "Process":
        return self.sim.spawn(self._guarded(self._handover_proc(ue, target_enb, radio_port)),
                              name=f"handover:{ue.name}")

    def _handover_proc(self, ue: "UEDevice", target_enb: "ENodeB",
                       radio_port: str) -> Generator:
        context = self.mme.context(ue.imsi)
        source = context.enb
        if source is target_enb:
            return ProcedureResult("handover(noop)")
        if not ue.rrc_connected:
            raise RuntimeError(
                f"{ue.name} is idle; handover needs RRC connected")
        result = self._begin("handover", ue)

        # preparation over X2: target admits the UE and all its bearers
        yield from self._hop(result, m.X2_HANDOVER_REQUEST, source.name,
                             target_enb.name)
        target_enb.register_ue(ue.ip, radio_port)
        active = [b for b in ue.bearers if b.active]
        for bearer in active:
            site = self.sgwc.site(bearer.gateway_site)
            bearer.enb_fteid = target_enb.setup_bearer(
                ue.ip, bearer.ebi, bearer.sgw_s1_fteid,
                site.enb_port(target_enb.name))
        yield from self._hop(result, m.X2_HANDOVER_REQUEST_ACK,
                             target_enb.name, source.name)

        # execution: the UE is commanded over and syncs to the target
        yield from self._hop(result, m.RRC_CONNECTION_RECONFIGURATION,
                             source.name, ue.name)
        yield from self._hop(result, m.X2_SN_STATUS_TRANSFER, source.name,
                             target_enb.name)
        yield from self._hop(result,
                             m.RRC_CONNECTION_RECONFIGURATION_COMPLETE,
                             ue.name, target_enb.name)

        # completion: S1 path switch re-anchors the downlink at the SGW-Us
        yield from self._hop(result, m.PATH_SWITCH_REQUEST, target_enb.name,
                             self.mme.name)
        yield from self._hop(result, m.MODIFY_BEARER_REQUEST, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.MODIFY_BEARER_RESPONSE, self.sgwc.name,
                             self.mme.name)
        for bearer in active:
            site = self.sgwc.site(bearer.gateway_site)
            yield from self._flow_del(result, site.sgw_u.name,
                                      self._dl_cookie(bearer))
            yield from self._install_sgw_dl_rule(result, bearer, site,
                                                 target_enb)
        yield from self._hop(result, m.PATH_SWITCH_REQUEST_ACK, self.mme.name,
                             target_enb.name)
        yield from self._hop(result, m.X2_UE_CONTEXT_RELEASE,
                             target_enb.name, source.name)
        for bearer in active:
            source.release_bearer(ue.ip, bearer.ebi)
        source.radio_ports.pop(ue.ip, None)
        context.enb = target_enb

        self._complete(result, ue)
        self._signal(HandoverCompleted, ue=ue, source=source,
                     target=target_enb, result=result)
        return result

    def resteer_bearer(self, ue: "UEDevice", ebi: int,
                       target_site_name: str,
                       server_ip: Optional[str] = None) -> ProcedureResult:
        """Move a dedicated bearer's gateway anchor to another site."""
        return self.sim.run_until_complete(
            self.resteer_bearer_async(ue, ebi, target_site_name, server_ip))

    def resteer_bearer_async(self, ue: "UEDevice", ebi: int,
                             target_site_name: str,
                             server_ip: Optional[str] = None) -> "Process":
        return self.sim.spawn(
            self._guarded(self._resteer_proc(ue, ebi, target_site_name,
                                             server_ip)),
            name=f"resteer:{ue.name}:ebi{ebi}")

    def _resteer_proc(self, ue: "UEDevice", ebi: int, target_site_name: str,
                      server_ip: Optional[str] = None) -> Generator:
        """Re-anchor a dedicated bearer at the gateway set of another
        edge site (the SDN half of MEC application-context relocation).

        The GW-Cs allocate fresh tunnel endpoints on the target site,
        the eNodeB's S1 leg is re-pointed and the controller programs
        the target-site switches while withdrawing the source-site
        rules -- all eight flow-mods issued as one concurrent batch, so
        the programming window is the slowest OpenFlow channel rather
        than the sum.  ``server_ip`` (when given) rewrites the bearer's
        UL TFT and the PGW-U downlink classifier at the new server
        instance; omitted, the existing TFT remote address is kept.
        Idempotent under retries: duplicate flow-mod deliveries are
        suppressed, re-installs replace in place and deletes of absent
        cookies are no-ops.
        """
        context = self.mme.context(ue.imsi)
        enb = context.enb
        bearer = ue.bearers.bearers.get(ebi)
        if bearer is None or bearer.default:
            raise ValueError(f"EBI {ebi} is not a dedicated bearer of "
                             f"{ue.name}")
        old_site_name = bearer.gateway_site
        if old_site_name == target_site_name:
            return ProcedureResult("resteer-bearer(noop)", bearer=bearer)
        old_site = self.sgwc.site(old_site_name)
        new_site = self.sgwc.site(target_site_name)
        if server_ip is None:
            for pf in bearer.tft.filters:
                if pf.remote_address is not None:
                    server_ip = pf.remote_address
                    break
        result = self._begin("resteer-bearer", ue)

        # GW-C coordination: the anchor move is a bearer modification
        yield from self._hop(result, m.MODIFY_BEARER_REQUEST, self.mme.name,
                             self.sgwc.name)
        yield from self._hop(result, m.MODIFY_BEARER_REQUEST, self.sgwc.name,
                             self.pgwc.name)

        old_sgw_s1 = bearer.sgw_s1_fteid
        old_sgw_s5 = bearer.sgw_s5_fteid
        old_pgw = bearer.pgw_fteid

        # repoint the S1 leg and rewrite the UL TFT synchronously --
        # from here until the target-site flow-mods land, uplink CI
        # packets miss in the target switches (counted, dropped); the
        # paging manager ignores misses for a connected UE, so this
        # window is pure measured interruption, not spurious paging.
        enb.release_bearer(ue.ip, ebi)
        self._allocate_tunnel_endpoints(bearer, new_site, enb)
        if server_ip is not None and bearer.tft.filters:
            bearer.tft = TrafficFlowTemplate(
                [replace(pf, remote_address=server_ip)
                 for pf in bearer.tft.filters])

        ops = [
            ("add", new_site.sgw_u.name, self._sgw_ul_rule(bearer, new_site)),
            ("add", new_site.pgw_u.name, self._pgw_ul_rule(bearer, new_site)),
            ("add", new_site.pgw_u.name,
             self._pgw_dl_rule(bearer, new_site, server_ip)),
            ("add", new_site.sgw_u.name,
             self._sgw_dl_rule(bearer, new_site, enb)),
            ("delete", old_site.sgw_u.name, self._ul_cookie(bearer)),
            ("delete", old_site.pgw_u.name, self._ul_cookie(bearer)),
            ("delete", old_site.pgw_u.name, self._dl_cookie(bearer)),
            ("delete", old_site.sgw_u.name, self._dl_cookie(bearer)),
        ]
        for future in self.controller.apply_batch(ops, telemetry=result):
            message = yield future
            result.count_message(message)
        bearer.active = True

        yield from self._hop(result, m.MODIFY_BEARER_RESPONSE,
                             self.pgwc.name, self.sgwc.name)
        yield from self._hop(result, m.MODIFY_BEARER_RESPONSE,
                             self.sgwc.name, self.mme.name)

        old_site.sgw_teids.release(old_sgw_s1.teid)
        old_site.sgw_teids.release(old_sgw_s5.teid)
        old_site.pgw_teids.release(old_pgw.teid)

        result.bearer = bearer
        self._complete(result, ue)
        return result

    def suspend_bearer_flows(self, ue: "UEDevice",
                             ebi: int) -> ProcedureResult:
        """Withdraw a dedicated bearer's flow rules without tearing it
        down (the break half of break-before-make relocation)."""
        return self.sim.run_until_complete(
            self.suspend_bearer_flows_async(ue, ebi))

    def suspend_bearer_flows_async(self, ue: "UEDevice",
                                   ebi: int) -> "Process":
        return self.sim.spawn(
            self._guarded(self._suspend_proc(ue, ebi)),
            name=f"suspend:{ue.name}:ebi{ebi}")

    def _suspend_proc(self, ue: "UEDevice", ebi: int) -> Generator:
        """Delete a dedicated bearer's four flow rules at its current
        site and deactivate its UL TFT, leaving the bearer context and
        tunnel endpoints intact.  Traffic falls back to the default
        bearer until a subsequent :meth:`resteer_bearer` reinstalls a
        path; the bearer records keep their site so the re-steer knows
        where the stale state lives.
        """
        bearer = ue.bearers.bearers.get(ebi)
        if bearer is None or bearer.default:
            raise ValueError(f"EBI {ebi} is not a dedicated bearer of "
                             f"{ue.name}")
        site = self.sgwc.site(bearer.gateway_site)
        result = self._begin("suspend-bearer-flows", ue)
        bearer.active = False
        ops = [
            ("delete", site.sgw_u.name, self._ul_cookie(bearer)),
            ("delete", site.pgw_u.name, self._ul_cookie(bearer)),
            ("delete", site.pgw_u.name, self._dl_cookie(bearer)),
            ("delete", site.sgw_u.name, self._dl_cookie(bearer)),
        ]
        for future in self.controller.apply_batch(ops, telemetry=result):
            message = yield future
            result.count_message(message)
        result.bearer = bearer
        self._complete(result, ue)
        return result
