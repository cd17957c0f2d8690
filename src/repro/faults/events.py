"""Hook-bus events published by the fault injector.

Kept dependency-free so any layer (``core.mrs`` included) can
subscribe without pulling the injector machinery in.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class FaultInjected(NamedTuple):
    """A fault just became active.  ``spec`` is the originating
    :class:`~repro.faults.plan.FaultSpec`."""

    spec: Any
    time: float


class FaultCleared(NamedTuple):
    """A previously injected fault was disarmed / recovered."""

    spec: Any
    time: float
