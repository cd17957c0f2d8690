"""3GPP QoS Class Identifier (QCI) table.

Standardised characteristics from TS 23.203 Table 6.1.7.  Each bearer is
associated with one QCI; the priority column drives the strict-priority
scheduler on simulated links (Figure 10(a) measures RTT per QCI).
"""

from __future__ import annotations

from typing import NamedTuple


class QosClass(NamedTuple):
    """One row of the standardised QCI table."""

    qci: int
    resource_type: str          # "GBR" or "Non-GBR"
    priority: int               # lower value = higher scheduling priority
    packet_delay_budget: float  # seconds
    packet_error_loss_rate: float
    example_service: str

    @property
    def is_gbr(self) -> bool:
        return self.resource_type == "GBR"


#: TS 23.203 standardised QCI characteristics (Release 12).
QCI_TABLE: dict[int, QosClass] = {
    1: QosClass(1, "GBR", 2, 0.100, 1e-2, "conversational voice"),
    2: QosClass(2, "GBR", 4, 0.150, 1e-3, "conversational video"),
    3: QosClass(3, "GBR", 3, 0.050, 1e-3, "real-time gaming"),
    4: QosClass(4, "GBR", 5, 0.300, 1e-6, "buffered streaming"),
    5: QosClass(5, "Non-GBR", 1, 0.100, 1e-6, "IMS signalling"),
    6: QosClass(6, "Non-GBR", 6, 0.300, 1e-6, "buffered streaming / TCP"),
    7: QosClass(7, "Non-GBR", 7, 0.100, 1e-3, "voice / interactive gaming"),
    8: QosClass(8, "Non-GBR", 8, 0.300, 1e-6, "TCP premium"),
    9: QosClass(9, "Non-GBR", 9, 0.300, 1e-6, "TCP default / best effort"),
}

#: QCI used for default bearers (best effort internet access).
DEFAULT_BEARER_QCI = 9

#: QCI the paper provisions for the MEC dedicated bearer (low delay).
MEC_BEARER_QCI = 7


def qos_for(qci: int) -> QosClass:
    """Look up a QCI row; raises ``KeyError`` with a helpful message."""
    try:
        return QCI_TABLE[qci]
    except KeyError:
        raise KeyError(f"unknown QCI {qci}; standard QCIs are 1-9") from None


def apply_qci_priorities(link) -> None:
    """Register every standard QCI's scheduling priority on a link."""
    for qci, row in QCI_TABLE.items():
        link.set_qci_priority(qci, row.priority)
