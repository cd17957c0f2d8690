"""Control-plane message definitions with calibrated wire sizes.

Section 4 of the paper measures a "release and re-establish" sequence in
an NFV/SDN LTE deployment at **15 messages / 2914 bytes**, broken down as
SCTP(S1AP) 7 messages (1138 B), GTPv2 4 (352 B) and OpenFlow 4 (1424 B).
The byte sizes below are calibrated so those exact totals fall out of the
procedure implementations in :mod:`repro.epc.procedures`; other messages
(dedicated-bearer activation, Diameter policy signalling) carry plausible
sizes taken from typical captures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MessageType:
    """A control message type: transport protocol, name and wire size."""

    protocol: str   # "SCTP" (S1AP over SCTP), "GTPv2", "OpenFlow", "Diameter", "RRC"
    name: str
    size: int       # bytes on the wire, including transport overhead


# --- S1AP over SCTP (MME <-> eNodeB) -- calibrated group: 7 msgs, 1138 B
UE_CONTEXT_RELEASE_REQUEST = MessageType("SCTP", "UEContextReleaseRequest", 118)
UE_CONTEXT_RELEASE_COMMAND = MessageType("SCTP", "UEContextReleaseCommand", 126)
UE_CONTEXT_RELEASE_COMPLETE = MessageType("SCTP", "UEContextReleaseComplete", 110)
INITIAL_UE_MESSAGE = MessageType("SCTP", "InitialUEMessage(ServiceRequest)", 172)
INITIAL_CONTEXT_SETUP_REQUEST = MessageType("SCTP", "InitialContextSetupRequest", 340)
INITIAL_CONTEXT_SETUP_RESPONSE = MessageType("SCTP", "InitialContextSetupResponse", 180)
UPLINK_NAS_TRANSPORT = MessageType("SCTP", "UplinkNASTransport(ServiceAccept)", 92)

# --- S1AP for attach / bearer management (not in the calibrated group)
S1_SETUP_REQUEST = MessageType("SCTP", "S1SetupRequest", 104)
S1_SETUP_RESPONSE = MessageType("SCTP", "S1SetupResponse", 88)
ATTACH_INITIAL_UE_MESSAGE = MessageType("SCTP", "InitialUEMessage(AttachRequest)", 244)
ATTACH_ACCEPT_DOWNLINK = MessageType("SCTP", "DownlinkNASTransport(AttachAccept)", 196)
ATTACH_COMPLETE_UPLINK = MessageType("SCTP", "UplinkNASTransport(AttachComplete)", 96)
ERAB_SETUP_REQUEST = MessageType("SCTP", "E-RABSetupRequest(BearerSetupRequest)", 248)
ERAB_SETUP_RESPONSE = MessageType("SCTP", "E-RABSetupResponse", 132)
ERAB_RELEASE_COMMAND = MessageType("SCTP", "E-RABReleaseCommand", 140)
ERAB_RELEASE_RESPONSE = MessageType("SCTP", "E-RABReleaseResponse", 112)

# --- GTPv2-C (MME <-> SGW-C <-> PGW-C) -- calibrated group: 4 msgs, 352 B
RELEASE_ACCESS_BEARERS_REQUEST = MessageType("GTPv2", "ReleaseAccessBearersRequest", 70)
RELEASE_ACCESS_BEARERS_RESPONSE = MessageType("GTPv2", "ReleaseAccessBearersResponse", 62)
MODIFY_BEARER_REQUEST = MessageType("GTPv2", "ModifyBearerRequest", 120)
MODIFY_BEARER_RESPONSE = MessageType("GTPv2", "ModifyBearerResponse", 100)

# --- GTPv2-C paging support
DOWNLINK_DATA_NOTIFICATION = MessageType("GTPv2",
                                         "DownlinkDataNotification", 70)
DOWNLINK_DATA_NOTIFICATION_ACK = MessageType(
    "GTPv2", "DownlinkDataNotificationAcknowledge", 62)

# --- GTPv2-C session / bearer management
CREATE_SESSION_REQUEST = MessageType("GTPv2", "CreateSessionRequest", 260)
CREATE_SESSION_RESPONSE = MessageType("GTPv2", "CreateSessionResponse", 220)
CREATE_BEARER_REQUEST = MessageType("GTPv2", "CreateBearerRequest", 156)
CREATE_BEARER_RESPONSE = MessageType("GTPv2", "CreateBearerResponse", 112)
DELETE_BEARER_REQUEST = MessageType("GTPv2", "DeleteBearerRequest", 84)
DELETE_BEARER_RESPONSE = MessageType("GTPv2", "DeleteBearerResponse", 76)

# --- OpenFlow (controller <-> GW-U) -- calibrated group: 4 msgs, 1424 B
FLOW_MOD_DELETE_SGWU = MessageType("OpenFlow", "FlowMod(delete,SGW-U)", 344)
FLOW_MOD_DELETE_PGWU = MessageType("OpenFlow", "FlowMod(delete,PGW-U)", 344)
FLOW_MOD_ADD_SGWU = MessageType("OpenFlow", "FlowMod(add,SGW-U)", 368)
FLOW_MOD_ADD_PGWU = MessageType("OpenFlow", "FlowMod(add,PGW-U)", 368)

# --- X2AP (eNodeB <-> eNodeB) and S1 path switch, for handover
X2_HANDOVER_REQUEST = MessageType("X2AP", "HandoverRequest", 184)
X2_HANDOVER_REQUEST_ACK = MessageType("X2AP", "HandoverRequestAcknowledge",
                                      148)
X2_SN_STATUS_TRANSFER = MessageType("X2AP", "SNStatusTransfer", 72)
X2_UE_CONTEXT_RELEASE = MessageType("X2AP", "UEContextRelease", 56)
PATH_SWITCH_REQUEST = MessageType("SCTP", "PathSwitchRequest", 172)
PATH_SWITCH_REQUEST_ACK = MessageType("SCTP",
                                      "PathSwitchRequestAcknowledge", 124)

# --- Diameter (Rx: MRS/AF <-> PCRF; Gx: PCRF <-> PCEF/PGW-C)
AA_REQUEST = MessageType("Diameter", "AA-Request(Rx)", 412)
AA_ANSWER = MessageType("Diameter", "AA-Answer(Rx)", 220)
RE_AUTH_REQUEST = MessageType("Diameter", "Re-Auth-Request(Gx)", 388)
RE_AUTH_ANSWER = MessageType("Diameter", "Re-Auth-Answer(Gx)", 204)
SESSION_TERMINATION_REQUEST = MessageType("Diameter", "Session-Termination-Request(Rx)", 240)
SESSION_TERMINATION_ANSWER = MessageType("Diameter", "Session-Termination-Answer(Rx)", 180)

# --- RRC (eNodeB <-> UE, over the air)
RRC_CONNECTION_RECONFIGURATION = MessageType("RRC", "RRCConnectionReconfiguration", 164)
RRC_CONNECTION_RECONFIGURATION_COMPLETE = MessageType(
    "RRC", "RRCConnectionReconfigurationComplete", 44)
RRC_CONNECTION_RELEASE = MessageType("RRC", "RRCConnectionRelease", 52)
RRC_CONNECTION_REQUEST = MessageType("RRC", "RRCConnectionRequest", 48)
RRC_CONNECTION_SETUP = MessageType("RRC", "RRCConnectionSetup", 120)
RRC_CONNECTION_SETUP_COMPLETE = MessageType("RRC", "RRCConnectionSetupComplete", 84)


@dataclass
class ControlMessage:
    """One control message of a procedure: its type and endpoints, and
    the simulated time it was delivered."""

    mtype: MessageType
    sender: str
    receiver: str
    timestamp: float = 0.0

    @property
    def protocol(self) -> str:
        return self.mtype.protocol

    @property
    def name(self) -> str:
        return self.mtype.name

    @property
    def size(self) -> int:
        return self.mtype.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{self.protocol}:{self.name} {self.sender}->"
                f"{self.receiver} {self.size}B>")


#: Message groups whose byte totals are calibrated to the paper's
#: measured release + re-establish sequence (Section 4).
RELEASE_SEQUENCE = [
    UE_CONTEXT_RELEASE_REQUEST, UE_CONTEXT_RELEASE_COMMAND,
    UE_CONTEXT_RELEASE_COMPLETE,
    RELEASE_ACCESS_BEARERS_REQUEST, RELEASE_ACCESS_BEARERS_RESPONSE,
    FLOW_MOD_DELETE_SGWU, FLOW_MOD_DELETE_PGWU,
]

REESTABLISH_SEQUENCE = [
    INITIAL_UE_MESSAGE, INITIAL_CONTEXT_SETUP_REQUEST,
    INITIAL_CONTEXT_SETUP_RESPONSE, UPLINK_NAS_TRANSPORT,
    MODIFY_BEARER_REQUEST, MODIFY_BEARER_RESPONSE,
    FLOW_MOD_ADD_SGWU, FLOW_MOD_ADD_PGWU,
]
