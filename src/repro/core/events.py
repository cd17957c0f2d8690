"""Hook-bus events published by the core orchestration layer.

Currently the MRS's graceful-degradation signals: emitted when a MEC
outage forces a session off its CI server instance and when the
session later returns to a healthy dedicated path.
"""

from __future__ import annotations

from typing import NamedTuple


class SessionDegraded(NamedTuple):
    """A session lost its CI server instance to a fault.

    ``mode`` is ``"relocated"`` (moved to a surviving instance on
    another site) or ``"central-fallback"`` (dedicated bearer torn
    down; traffic rides the default bearer through the central
    gateways until recovery).
    """

    imsi: str
    service_id: str
    mode: str
    time: float


class SessionRestored(NamedTuple):
    """A degraded session got a healthy dedicated MEC path back."""

    imsi: str
    service_id: str
    time: float


class SessionRelocating(NamedTuple):
    """A CI session started moving to another edge site.

    Emitted by the MRS when a handover carries the UE across a site
    boundary (or relocation is requested explicitly) and the
    application-context transfer begins.  ``policy`` is the
    :class:`~repro.core.config.ContinuityConfig` relocation policy in
    force (``"make-before-break"`` / ``"break-before-make"``).
    """

    imsi: str
    service_id: str
    from_site: str
    to_site: str
    policy: str
    time: float


class SessionRelocated(NamedTuple):
    """A CI session finished moving to another edge site.

    ``interruption`` is the measured CI-session interruption in
    simulated seconds: for make-before-break, the bearer switchover
    plus the delta-sync; for break-before-make, the whole
    withdraw-transfer-reinstall window.  ``transferred_bytes`` is the
    application context actually moved over the inter-site WAN and
    ``duration`` the end-to-end relocation time including any
    pre-copy.
    """

    imsi: str
    service_id: str
    from_site: str
    to_site: str
    policy: str
    interruption: float
    transferred_bytes: int
    duration: float
    time: float
