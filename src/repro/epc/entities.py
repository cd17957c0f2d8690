"""EPC control-plane entities: HSS, MME, PCRF/PCEF, split GW-Cs.

These are thin, testable state holders; the message choreography that
ties them together lives in :mod:`repro.epc.procedures`.  The split
gateway architecture (GW-C control entities programming GW-U switches
through the SDN controller) follows Section 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.epc.identifiers import IpPool, TeidAllocator
from repro.epc.qos import DEFAULT_BEARER_QCI, qos_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.enodeb import ENodeB
    from repro.epc.ue import UEDevice
    from repro.sdn.switch import FlowSwitch


# --------------------------------------------------------------------------
# HSS
# --------------------------------------------------------------------------

@dataclass
class SubscriberProfile:
    """Subscription record stored in the HSS."""

    imsi: str
    apn: str = "internet"
    default_qci: int = DEFAULT_BEARER_QCI
    ambr_ul: float = 50e6       # aggregate maximum bit rate, bits/sec
    ambr_dl: float = 100e6


class HSS:
    """Home Subscriber Server: the subscription database."""

    def __init__(self) -> None:
        self._subscribers: dict[str, SubscriberProfile] = {}

    def provision(self, profile: SubscriberProfile) -> None:
        self._subscribers[profile.imsi] = profile

    def lookup(self, imsi: str) -> SubscriberProfile:
        try:
            return self._subscribers[imsi]
        except KeyError:
            raise KeyError(f"IMSI {imsi} is not provisioned") from None

    def __contains__(self, imsi: str) -> bool:
        return imsi in self._subscribers

    def __len__(self) -> int:
        return len(self._subscribers)


# --------------------------------------------------------------------------
# MME
# --------------------------------------------------------------------------

@dataclass
class UeContext:
    """MME-side state for one attached UE."""

    imsi: str
    ue: "UEDevice"
    enb: "ENodeB"
    state: str = "connected"        # "connected" | "idle"


class MME:
    """Mobility Management Entity: tracks attached UEs and their state."""

    def __init__(self, name: str = "mme") -> None:
        self.name = name
        self.contexts: dict[str, UeContext] = {}

    def register(self, context: UeContext) -> None:
        self.contexts[context.imsi] = context

    def deregister(self, imsi: str) -> UeContext:
        return self.contexts.pop(imsi)

    def context(self, imsi: str) -> UeContext:
        try:
            return self.contexts[imsi]
        except KeyError:
            raise KeyError(f"no MME context for IMSI {imsi}") from None

    def connected_count(self) -> int:
        return sum(1 for c in self.contexts.values() if c.state == "connected")


# --------------------------------------------------------------------------
# PCRF + PCEF
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ServicePolicy:
    """Operator-configured policy for one CI service (PCRF database row)."""

    service_id: str
    qci: int
    precedence: int = 10

    def __post_init__(self) -> None:
        qos_for(self.qci)


@dataclass
class PolicyRule:
    """A dynamically generated PCC rule pushed to the PCEF.

    Carries the service id, QCI and the flow information (UE and CI
    server addresses) exactly as Section 5.4 step (2) describes.
    """

    service_id: str
    qci: int
    precedence: int
    ue_ip: str
    server_ip: str
    server_port: Optional[int] = None


class PCRF:
    """Policy and Charging Rules Function."""

    def __init__(self) -> None:
        self._policies: dict[str, ServicePolicy] = {}
        self.rules_generated: list[PolicyRule] = []

    def configure(self, policy: ServicePolicy) -> None:
        self._policies[policy.service_id] = policy

    def policy_for(self, service_id: str) -> ServicePolicy:
        try:
            return self._policies[service_id]
        except KeyError:
            raise KeyError(
                f"no PCRF policy configured for service {service_id!r}"
            ) from None

    def generate_rule(self, service_id: str, ue_ip: str, server_ip: str,
                      server_port: Optional[int] = None) -> PolicyRule:
        policy = self.policy_for(service_id)
        rule = PolicyRule(service_id=service_id, qci=policy.qci,
                          precedence=policy.precedence, ue_ip=ue_ip,
                          server_ip=server_ip, server_port=server_port)
        self.rules_generated.append(rule)
        return rule


# --------------------------------------------------------------------------
# Gateway sites and GW-Cs
# --------------------------------------------------------------------------

@dataclass
class GatewaySite:
    """One deployment site of a (SGW-U, PGW-U) pair plus its wiring.

    ``central`` is the conventional core site; ACACIA adds MEC sites
    whose GW-Us live next to the CI servers.  The port maps record the
    topology the network builder wired so procedures can emit correct
    flow rules without re-discovering the graph; a site may serve
    several eNodeBs, each over its own S1 link (which is what makes the
    SGW-U the mobility anchor during handover).
    """

    name: str
    sgw_u: "FlowSwitch"
    pgw_u: "FlowSwitch"
    #: eNB name -> that eNB's port toward this site's SGW-U
    enb_ports: dict[str, str]
    #: eNB name -> SGW-U port toward that eNB
    sgw_dl_ports: dict[str, str]
    sgw_ul_port: str            # SGW-U port toward the PGW-U
    pgw_dl_port: str            # PGW-U port toward the SGW-U
    pgw_ul_port: str            # PGW-U port toward the SGi network
    sgw_teids: TeidAllocator = field(
        default_factory=lambda: TeidAllocator(start=0x1000))
    pgw_teids: TeidAllocator = field(
        default_factory=lambda: TeidAllocator(start=0x8000))

    @property
    def is_central(self) -> bool:
        return self.name == "central"

    def enb_port(self, enb_name: str) -> str:
        try:
            return self.enb_ports[enb_name]
        except KeyError:
            raise KeyError(f"site {self.name!r} has no S1 link to "
                           f"{enb_name!r}") from None

    def sgw_dl_port(self, enb_name: str) -> str:
        try:
            return self.sgw_dl_ports[enb_name]
        except KeyError:
            raise KeyError(f"site {self.name!r} has no S1 link to "
                           f"{enb_name!r}") from None


class SGWC:
    """Serving-gateway control plane: manages SGW-U TEIDs per site."""

    def __init__(self, name: str = "sgw-c") -> None:
        self.name = name
        self.sites: dict[str, GatewaySite] = {}

    def add_site(self, site: GatewaySite) -> None:
        self.sites[site.name] = site

    def site(self, name: str) -> GatewaySite:
        try:
            return self.sites[name]
        except KeyError:
            raise KeyError(f"SGW-C knows no gateway site {name!r}") from None


class PGWC:
    """PDN-gateway control plane: owns the UE IP pool and the PCEF."""

    def __init__(self, name: str = "pgw-c",
                 ip_pool: Optional[IpPool] = None) -> None:
        self.name = name
        self.ip_pool = ip_pool if ip_pool is not None else IpPool()
        self.sites: dict[str, GatewaySite] = {}
        #: PCEF state: rules installed by the PCRF, by (imsi, service_id)
        self.pcef_rules: dict[tuple[str, str], PolicyRule] = {}

    def add_site(self, site: GatewaySite) -> None:
        self.sites[site.name] = site

    def site(self, name: str) -> GatewaySite:
        try:
            return self.sites[name]
        except KeyError:
            raise KeyError(f"PGW-C knows no gateway site {name!r}") from None

    def allocate_ue_ip(self) -> str:
        return self.ip_pool.allocate()

    def pcef_install(self, imsi: str, rule: PolicyRule) -> None:
        self.pcef_rules[(imsi, rule.service_id)] = rule

    def pcef_remove(self, imsi: str, service_id: str) -> PolicyRule:
        return self.pcef_rules.pop((imsi, service_id))
