"""The SDN controller (Ryu analog).

GW-Cs program the GW user planes through this controller.  Every
flow-table change is an OpenFlow control message, counted in the owning
procedure's per-protocol totals, so the overhead analysis (Section 4)
sees SDN signalling alongside 3GPP signalling.

Flow-mods travel over the signalling fabric (see :meth:`bind_fabric`):
each one is a packet on the controller's per-switch OpenFlow channel,
the rule is applied to the switch *at delivery*, and the returned
:class:`~repro.sim.engine.Future` resolves to the delivered
:class:`ControlMessage`.  This is how flow-rule installation time
becomes part of measured procedure latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.epc.messages import ControlMessage, MessageType
from repro.sdn.openflow import FlowRule
from repro.sdn.switch import FlowSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.signalling import RetryPolicy, SignallingFabric
    from repro.sim.engine import Future

#: Fallback OpenFlow message sizes for switches outside the calibrated
#: release/re-establish groups.
_FLOW_MOD_ADD_SIZE = 368
_FLOW_MOD_DELETE_SIZE = 344


class SdnController:
    """Centralised OpenFlow controller managing a set of GW-U switches."""

    def __init__(self, name: str = "ryu") -> None:
        self.name = name
        self.switches: dict[str, FlowSwitch] = {}
        self.flow_mods_sent = 0
        self._fabric: Optional["SignallingFabric"] = None
        #: retransmission policy for fabric-bound flow-mods (set with
        #: the fabric).  Retried flow-mods are idempotent: the fabric
        #: suppresses duplicate deliveries, so a rule is applied to the
        #: switch exactly once.
        self.retry_policy: Optional["RetryPolicy"] = None
        #: switch name -> its (add, delete) flow-mod message types,
        #: built when the switch's channel opens
        self._flow_mod_types: dict[str, tuple[MessageType, MessageType]] = {}

    def bind_fabric(self, fabric: "SignallingFabric",
                    retry_policy: "RetryPolicy") -> None:
        """Route flow-mods over the signalling fabric from now on.

        Opens one OpenFlow channel per registered switch (and per
        switch registered later), so controller-to-switch latency and
        queueing are part of every procedure that programs the data
        plane; each flow-mod is retransmitted per ``retry_policy``.
        """
        self._fabric = fabric
        self.retry_policy = retry_policy
        for switch in self.switches.values():
            self._open_channel(switch)

    def register(self, switch: FlowSwitch) -> None:
        self.switches[switch.name] = switch
        if self._fabric is not None:
            self._open_channel(switch)

    def _open_channel(self, switch: FlowSwitch) -> None:
        self._fabric.open_channel(f"of.{switch.name}", "OpenFlow",
                                  [self.name], [switch.name])
        self._flow_mod_types[switch.name] = (
            MessageType("OpenFlow", f"FlowMod(add,{switch.name})",
                        _FLOW_MOD_ADD_SIZE),
            MessageType("OpenFlow", f"FlowMod(delete,{switch.name})",
                        _FLOW_MOD_DELETE_SIZE))

    def install_rule(self, switch_name: str, rule: FlowRule,
                     telemetry: Any = None) -> "Future":
        """Add a flow rule (one OpenFlow flow-mod message).

        Returns a future resolving to the delivered message once the
        flow-mod reaches the switch (which is when the rule takes
        effect).  Over a lossy channel the flow-mod is retransmitted
        per :attr:`retry_policy`; ``telemetry`` accumulates the retry
        counts (typically the owning procedure's result).
        """
        switch = self._switch(switch_name)
        mtype = self._flow_mod_types[switch_name][0]

        def apply(message: ControlMessage) -> None:
            switch.install(rule)
            self.flow_mods_sent += 1

        return self._fabric.send_reliable(mtype, self.name, switch.name,
                                          policy=self.retry_policy,
                                          on_deliver=apply,
                                          telemetry=telemetry)

    def remove_rules(self, switch_name: str, cookie: str,
                     telemetry: Any = None) -> "Future":
        """Delete all rules carrying a cookie (one flow-mod message).

        Returns a future resolving to the delivered message (the switch
        drops the rules at delivery).  Retransmitted like
        :meth:`install_rule`.
        """
        switch = self._switch(switch_name)
        mtype = self._flow_mod_types[switch_name][1]

        def apply(message: ControlMessage) -> None:
            switch.remove(cookie)
            self.flow_mods_sent += 1

        return self._fabric.send_reliable(mtype, self.name, switch.name,
                                          policy=self.retry_policy,
                                          on_deliver=apply,
                                          telemetry=telemetry)

    def apply_batch(self, ops: list[tuple], telemetry: Any = None) -> list:
        """Issue several flow-mods concurrently (one transaction).

        ``ops`` is a list of ``("add", switch_name, FlowRule)`` /
        ``("delete", switch_name, cookie)`` tuples.  All flow-mods are
        sent at once -- they contend on their per-switch OpenFlow
        channels in parallel, which is what makes a cross-site
        re-steer's programming window as short as the slowest channel
        rather than the sum of all of them -- and the returned futures
        (in ``ops`` order) resolve as each one reaches its switch.
        Each op is idempotent under retries: duplicate deliveries are
        suppressed by the fabric, installs replace identical rules, and
        deletes of absent cookies are no-ops.
        """
        futures = []
        for kind, switch_name, payload in ops:
            if kind == "add":
                futures.append(self.install_rule(switch_name, payload,
                                                 telemetry=telemetry))
            elif kind == "delete":
                futures.append(self.remove_rules(switch_name, payload,
                                                 telemetry=telemetry))
            else:
                raise ValueError(f"unknown flow-mod batch op {kind!r}")
        return futures

    def _switch(self, name: str) -> FlowSwitch:
        try:
            return self.switches[name]
        except KeyError:
            raise KeyError(
                f"switch {name!r} is not registered with {self.name}"
            ) from None
