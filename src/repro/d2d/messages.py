"""Service discovery messages and receive-side observations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.d2d.expressions import ExpressionCode

#: LTE-direct discovery payloads are small (the PC5 discovery PDU is
#: 232 bits in Release 12); we cap the human-readable payload to keep
#: models honest.
MAX_PAYLOAD_BYTES = 29


@dataclass(frozen=True)
class DiscoveryMessage:
    """A broadcast service discovery message.

    ``service_name``/``payload`` are the application-level view (e.g.
    service "acme-retail", payload "section=laptops"); ``code`` is the
    on-air expression the modem actually filters on.
    """

    publisher_id: str
    service_name: str
    code: ExpressionCode
    payload: str = ""

    def __post_init__(self) -> None:
        if len(self.payload.encode()) > MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload exceeds {MAX_PAYLOAD_BYTES} bytes: {self.payload!r}")


class Observation(NamedTuple):
    """A received discovery message annotated with radio measurements.

    This is what the modem hands to the application on a filter match:
    the message plus rxPower (dBm) and SNR (dB) -- the auxiliary
    information ACACIA's localisation feeds on (Section 5.5).
    """

    message: DiscoveryMessage
    rx_power: float
    snr: float
    timestamp: float
    subscriber_id: str = ""

    @property
    def landmark(self) -> str:
        return self.message.publisher_id
