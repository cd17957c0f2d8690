"""LTE/EPC substrate.

Models the mobile-network pieces ACACIA builds on: identifiers and
address pools, the 3GPP QCI QoS table, default/dedicated EPS bearers with
traffic-flow-template (TFT) classification, GTP-C/GTP-U messaging, the
control-plane entities (MME, HSS, PCRF/PCEF, split SGW-C/PGW-C), the
data-plane nodes (UE, eNodeB) and the signalling procedures (attach,
network-initiated dedicated-bearer activation, idle release and service
request, X2 handover with S1 path switch) whose message counts/bytes
reproduce the paper's control overhead analysis (Section 4), plus
downlink paging for idle UEs.
"""

from repro.epc.bearer import Bearer, PacketFilter, TrafficFlowTemplate
from repro.epc.events import (BearerActivated, BearerDeactivated,
                              ControlMessageDelivered, DownlinkDelivered,
                              HandoverCompleted, ServiceRequestCompleted,
                              UeAttached, UeIpAssigned, UeReleasedToIdle)
from repro.epc.identifiers import (FTeid, ImsiAllocator, IpPool,
                                   TeidAllocator)
from repro.epc.overhead import daily_overhead_bytes
from repro.epc.paging import PagingManager
from repro.epc.qos import QCI_TABLE, QosClass

__all__ = [
    "Bearer",
    "BearerActivated",
    "BearerDeactivated",
    "ControlMessageDelivered",
    "DownlinkDelivered",
    "FTeid",
    "HandoverCompleted",
    "ImsiAllocator",
    "IpPool",
    "PacketFilter",
    "PagingManager",
    "QCI_TABLE",
    "QosClass",
    "ServiceRequestCompleted",
    "TeidAllocator",
    "TrafficFlowTemplate",
    "UeAttached",
    "UeIpAssigned",
    "UeReleasedToIdle",
    "daily_overhead_bytes",
]
