"""Typed SDN data-plane events published on the hook bus.

Emitted by :class:`~repro.sdn.switch.FlowSwitch` whenever its table
changes or a packet misses it.  The paging manager subscribes to
:class:`TableMiss` instead of planting a ``miss_handler`` callback on
each gateway, so several observers can watch the same switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdn.openflow import FlowRule
    from repro.sdn.switch import FlowSwitch
    from repro.sim.packet import Packet


class FlowRuleInstalled(NamedTuple):
    """A rule was added to a switch's table."""

    switch: FlowSwitch
    rule: FlowRule


class FlowRuleRemoved(NamedTuple):
    """Rules matching a cookie were removed from a switch's table."""

    switch: FlowSwitch
    cookie: str
    count: int


class TableMiss(NamedTuple):
    """A packet matched no rule and was dropped by the switch."""

    switch: FlowSwitch
    packet: Packet
