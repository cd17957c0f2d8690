"""LTE-direct device-to-device proximity service discovery.

Models the Release-12 LTE-direct machinery the paper builds on
(Section 3): publishers periodically broadcast service discovery
messages on uplink resource blocks allocated by the eNB; subscribers'
LTE modems filter the broadcasts against registered binary
code-and-mask expressions, and only matching messages (annotated with
received power and SNR) are handed up to applications.  A log-distance
path-loss radio model produces the rxPower/SNR statistics that drive
the localisation results of Figures 6 and 9.

The comparison with other proximity technologies
(:mod:`repro.d2d.beacons`) is imported by module name.
"""

from repro.d2d.channel import D2DChannel, Publisher, Subscriber
from repro.d2d.expressions import (ExpressionCode, ExpressionFilter,
                                   ExpressionNamespace)
from repro.d2d.messages import DiscoveryMessage, Observation
from repro.d2d.modem import LteDirectModem
from repro.d2d.radio import RadioModel

__all__ = [
    "D2DChannel",
    "DiscoveryMessage",
    "ExpressionCode",
    "ExpressionFilter",
    "ExpressionNamespace",
    "LteDirectModem",
    "Observation",
    "Publisher",
    "RadioModel",
    "Subscriber",
]
