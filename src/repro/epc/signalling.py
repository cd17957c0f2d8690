"""The signalling fabric: control messages as simulated traffic.

The paper's Section 4 argument is that EPC signalling *shares the
network with data*: release/re-establish cycles cost real messages on
real transports.  This module models those transports so control
procedures (see :mod:`repro.epc.procedures`) pay measured, load-
dependent latency instead of a fixed per-hop constant:

* each *channel* is a :class:`~repro.sim.link.Link` with propagation
  delay, finite bandwidth and a queue -- concurrent procedures sharing
  a channel contend exactly like data packets do;
* shared channels model the real topology: one RRC channel per cell
  (every UE in the cell serialises its air-interface signalling on
  it), one S1-MME SCTP association per eNodeB, one S11 and one S5-C
  GTP-C path, Gx/Rx Diameter legs and one OpenFlow channel per
  switch.

There is one delivery path.  :meth:`SignallingFabric.send_reliable`
starts a *transfer*: one :class:`ControlMessage` (its type and its
endpoints, nothing else) and a :class:`~repro.sim.engine.Future` that
resolves to it.  Each *attempt* of the transfer is one packet,
transmitted by :meth:`SignallingFabric.send`, with a per-protocol
retransmission timer (see :class:`RetryPolicy`); expiry retransmits
with exponential backoff, and exhausting the retry cap rejects the
future with :class:`SignallingTimeout`, so the waiting procedure ends
with a ``timeout`` outcome instead of deadlocking.  The first attempt
to arrive stamps the message with its arrival time, announces it as a
:class:`~repro.epc.events.ControlMessageDelivered` event, runs the
sender's ``on_deliver`` (the SDN controller applies a flow-mod to its
switch there) and resolves the future.  A later copy (a retransmission
racing a delayed original) is counted as a duplicate and dropped,
which is what makes retried SDN flow-mods idempotent.

The fault layer (:mod:`repro.faults`) perturbs channels (probabilistic
loss / delay spikes) and marks parties down.  The fabric keeps no
archive of delivered messages: each procedure counts its own per
protocol (``ProcedureResult.by_protocol``), and a listener that wants
the sequence records it from the hook bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.epc.events import ControlMessageDelivered
from repro.epc.messages import ControlMessage, MessageType
from repro.sim.engine import Future
from repro.sim.hooks import PacketDropped
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ChannelSpec:
    """Transport parameters for one signalling channel.

    ``delay`` is the one-way propagation delay (seconds), ``bandwidth``
    the serialisation rate (bits/second) and ``queue_bytes`` the
    per-direction buffer.  Signalling transports are reliable, so the
    default buffer is deep enough that messages queue rather than drop.
    """

    delay: float
    bandwidth: float
    queue_bytes: int = 2_000_000


#: Spec used for messages whose protocol has no registered transport.
FALLBACK_SPEC = ChannelSpec(delay=0.0015, bandwidth=20e6)


@dataclass
class RetryPolicy:
    """Per-protocol retransmission timers for reliable signalling.

    Timer values are seconds and map *protocols* (``"RRC"``,
    ``"GTPv2"``, ...) to their initial retransmission timeout; attempt
    ``n`` waits ``timer * backoff**(n-1)``.  With ``enabled=False`` a
    single attempt is made but its timer still arms, so an undelivered
    message surfaces as a :class:`SignallingTimeout` (a terminal
    ``timeout`` outcome) rather than a simulator deadlock.

    Build one from :meth:`repro.core.config.ResilienceConfig.policy`.
    """

    enabled: bool = True
    timers: dict[str, float] = field(default_factory=dict)
    default_timer: float = 2.0
    backoff: float = 2.0
    max_retries: int = 4

    def timer_for(self, protocol: str) -> float:
        """Initial retransmission timeout for ``protocol`` (seconds)."""
        return self.timers.get(protocol, self.default_timer)

    @property
    def max_attempts(self) -> int:
        """Total transmission attempts (1 when retries are disabled)."""
        return (self.max_retries if self.enabled else 0) + 1


class SignallingTimeout(Exception):
    """A reliable transfer exhausted its retransmission attempts.

    Raised into the process waiting on the transfer's future.  Carries
    the procedure's telemetry object (``result``) when one was supplied
    to :meth:`SignallingFabric.send_reliable`, so the guard wrapping a
    procedure can finalise that result with ``outcome="timeout"``.
    """

    def __init__(self, mtype: MessageType, sender: str, receiver: str,
                 attempts: int, result: Any = None) -> None:
        super().__init__(f"{mtype.name} {sender}->{receiver} "
                         f"undelivered after {attempts} attempt(s)")
        self.mtype = mtype
        self.sender = sender
        self.receiver = receiver
        self.attempts = attempts
        self.result = result


@dataclass
class ChannelPerturbation:
    """An injected impairment applied to deliveries on a channel.

    ``kind`` is ``"loss"`` (drop with probability ``rate``) or
    ``"delay"`` (add ``extra_delay`` seconds with probability
    ``probability``).  Draws come from ``rng``, a named
    :class:`~repro.sim.context.SimContext` stream supplied by the
    fault injector, so perturbed runs stay deterministic per seed.
    """

    kind: str
    rate: float = 0.0
    probability: float = 0.0
    extra_delay: float = 0.0
    rng: Any = None

    def draw(self) -> Optional[str]:
        """Return ``"drop"``/``"delay"`` when the impairment fires."""
        if self.kind == "loss":
            if self.rate > 0 and self.rng.random() < self.rate:
                return "drop"
        elif self.kind == "delay":
            if self.probability > 0 and self.rng.random() < self.probability:
                return "delay"
        return None


class _ChannelEnd(Node):
    """One endpoint of a signalling channel; hands deliveries back to
    the fabric."""

    def __init__(self, sim: "Simulator", name: str,
                 fabric: "SignallingFabric") -> None:
        super().__init__(sim, name)
        self._fabric = fabric

    def on_receive(self, packet: Packet, link: Optional[Link]) -> None:
        self._fabric._deliver(packet)


class SignallingChannel:
    """A shared duplex transport between two *sides* of parties.

    Side ``a`` and side ``b`` each map onto one link endpoint; any
    number of named parties may sit on a side (all UEs of a cell share
    the RRC channel's UE side), which is what creates cross-procedure
    contention under concurrent signalling load.
    """

    def __init__(self, sim: "Simulator", fabric: "SignallingFabric",
                 channel_id: str, protocol: str, spec: ChannelSpec) -> None:
        self.channel_id = channel_id
        self.protocol = protocol
        self.spec = spec
        self.ends = {
            "a": _ChannelEnd(sim, f"{channel_id}.a", fabric),
            "b": _ChannelEnd(sim, f"{channel_id}.b", fabric),
        }
        self.parties: dict[str, set[str]] = {"a": set(), "b": set()}
        self.perturbations: list[ChannelPerturbation] = []
        self.link = Link(sim, f"sig.{channel_id}", bandwidth=spec.bandwidth,
                         delay=spec.delay, queue_bytes=spec.queue_bytes)
        self.ends["a"].attach("peer", self.link)
        self.ends["b"].attach("peer", self.link)

    def stats(self) -> dict:
        """Per-direction transmit/queue counters (a->b and b->a)."""
        return {"a": self.link.stats(self.ends["a"]),
                "b": self.link.stats(self.ends["b"])}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SignallingChannel {self.channel_id} {self.protocol} "
                f"{sorted(self.parties['a'])}<->{sorted(self.parties['b'])}>")


class SignallingFabric:
    """Routes control messages between named parties over channels.

    The network builder opens the topologically meaningful channels
    (per-cell RRC, per-eNodeB S1-MME, S11, S5-C, Gx, Rx, per-switch
    OpenFlow); unknown sender/receiver pairs fall back to a lazily
    created ad-hoc channel with that protocol's spec, so a
    procedure can always make progress.
    """

    def __init__(self, sim: "Simulator",
                 specs: dict[str, ChannelSpec]) -> None:
        self.sim = sim
        self.specs = specs
        self.channels: dict[str, SignallingChannel] = {}
        self.messages_sent = 0
        self.retransmissions = 0
        self.duplicates = 0
        self.drops: dict[str, int] = {}
        self.down_parties: set[str] = set()
        self._routes: dict[tuple[str, str], tuple[SignallingChannel, str]] = {}
        self._perturbations: list[tuple[str, ChannelPerturbation]] = []

    # -- topology -----------------------------------------------------------

    def spec_for(self, protocol: str) -> ChannelSpec:
        return self.specs.get(protocol, FALLBACK_SPEC)

    def open_channel(self, channel_id: str, protocol: str,
                     a_parties: Iterable[str] = (),
                     b_parties: Iterable[str] = ()) -> SignallingChannel:
        """Create (or fetch) a channel and route its parties over it."""
        channel = self.channels.get(channel_id)
        if channel is None:
            channel = SignallingChannel(self.sim, self, channel_id,
                                        protocol, self.spec_for(protocol))
            self.channels[channel_id] = channel
            for pattern, pert in self._perturbations:
                if fnmatch(channel_id, pattern):
                    channel.perturbations.append(pert)
        for name in a_parties:
            self.add_party(channel_id, name, side="a")
        for name in b_parties:
            self.add_party(channel_id, name, side="b")
        return channel

    def add_party(self, channel_id: str, name: str, side: str = "b") -> None:
        """Put ``name`` on one side of a channel and (re)route it.

        Routes to the parties on the *other* side are overwritten, which
        is how a UE moves to its target cell's RRC channel at handover.
        """
        channel = self.channels[channel_id]
        other = "a" if side == "b" else "b"
        channel.parties[side].add(name)
        for peer in channel.parties[other]:
            self._routes[(name, peer)] = (channel, side)
            self._routes[(peer, name)] = (channel, other)

    def _adhoc(self, protocol: str, sender: str,
               receiver: str) -> tuple[SignallingChannel, str]:
        lo, hi = sorted((sender, receiver))
        channel_id = f"adhoc.{protocol}.{lo}.{hi}"
        self.open_channel(channel_id, protocol, [lo], [hi])
        return self._routes[(sender, receiver)]

    # -- fault hooks --------------------------------------------------------

    def add_perturbation(self, pattern: str,
                         pert: ChannelPerturbation) -> tuple:
        """Attach an impairment to every channel matching ``pattern``.

        ``pattern`` is an :func:`fnmatch.fnmatch` glob over channel ids
        (``"*"`` hits everything, ``"s11"`` just the S11 path); the
        impairment also applies to channels opened later.  Returns a
        handle for :meth:`remove_perturbation`.
        """
        handle = (pattern, pert)
        self._perturbations.append(handle)
        for channel_id, channel in self.channels.items():
            if fnmatch(channel_id, pattern):
                channel.perturbations.append(pert)
        return handle

    def remove_perturbation(self, handle: tuple) -> None:
        """Detach an impairment previously added.  Idempotent."""
        if handle in self._perturbations:
            self._perturbations.remove(handle)
        _, pert = handle
        for channel in self.channels.values():
            if pert in channel.perturbations:
                channel.perturbations.remove(pert)

    def set_party_down(self, party: str, down: bool = True) -> None:
        """Mark a party crashed: messages addressed to it are dropped."""
        if down:
            self.down_parties.add(party)
        else:
            self.down_parties.discard(party)

    # -- the data path ------------------------------------------------------

    def send(self, transfer: "_ReliableTransfer") -> None:
        """Transmit one attempt of ``transfer`` as a packet on the
        channel routing its sender to its receiver."""
        message = transfer.message
        route = self._routes.get((message.sender, message.receiver))
        if route is None:
            route = self._adhoc(message.protocol, message.sender,
                                message.receiver)
        channel, side = route
        packet = Packet(src=message.sender, dst=message.receiver,
                        size=message.size, protocol=message.protocol,
                        created_at=self.sim.now,
                        meta={"transfer": transfer, "channel": channel,
                              "sender_end": channel.ends[side]})
        self.messages_sent += 1
        channel.ends[side].send("peer", packet)

    def send_reliable(self, mtype: MessageType, sender: str, receiver: str,
                      policy: RetryPolicy,
                      on_deliver: Optional[Callable[[ControlMessage],
                                                    None]] = None,
                      telemetry: Any = None) -> Future:
        """Start a transfer of one control message; always terminates.

        Resolves to the delivered :class:`ControlMessage`, timestamped
        with its arrival time; rejects with :class:`SignallingTimeout`
        once ``policy.max_attempts`` transmissions have all timed out.
        ``on_deliver`` runs at delivery before the future resolves.
        ``telemetry`` (typically a
        :class:`~repro.epc.procedures.ProcedureResult`) accumulates
        ``retries`` / ``timer_expiries`` counts and rides along in the
        timeout exception.
        """
        transfer = _ReliableTransfer(
            self, ControlMessage(mtype, sender, receiver), policy,
            on_deliver, telemetry)
        transfer.send_attempt()
        return transfer.future

    def _drop(self, packet: Packet, channel: SignallingChannel,
              reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1
        hooks = self.sim.hooks
        if hooks.has(PacketDropped):
            hooks.emit(PacketDropped(
                link=channel.link, packet=packet,
                sender=packet.meta["sender_end"], reason=reason))

    def _deliver(self, packet: Packet) -> None:
        meta = packet.meta
        channel: SignallingChannel = meta["channel"]
        if channel.perturbations and not meta.get("perturbed"):
            for pert in channel.perturbations:
                outcome = pert.draw()
                if outcome == "drop":
                    self._drop(packet, channel, "injected-loss")
                    return
                if outcome == "delay":
                    # re-deliver once after the spike; flagged so the
                    # delayed copy is not perturbed again
                    meta["perturbed"] = True
                    self.sim.post(pert.extra_delay, self._deliver, packet)
                    return
        transfer: _ReliableTransfer = meta["transfer"]
        message = transfer.message
        if message.receiver in self.down_parties:
            self._drop(packet, channel, "entity-down")
            return
        if transfer.done:
            # a retransmission raced a delayed original: the logical
            # message was already processed exactly once
            self.duplicates += 1
            return
        message.timestamp = self.sim.now
        hooks = self.sim.hooks
        if hooks.has(ControlMessageDelivered):
            hooks.emit(ControlMessageDelivered(message))
        if transfer.on_deliver is not None:
            transfer.on_deliver(message)
        transfer.delivered()


class _ReliableTransfer:
    """One logical message, delivered at most once over >= 1 attempts.

    Each attempt is one :meth:`SignallingFabric.send` plus a timer
    event; delivery of any copy cancels the pending timer and resolves
    the future, expiry of the last allowed attempt rejects it.
    """

    def __init__(self, fabric: SignallingFabric, message: ControlMessage,
                 policy: RetryPolicy,
                 on_deliver: Optional[Callable[[ControlMessage], None]],
                 telemetry: Any) -> None:
        self.fabric = fabric
        self.message = message
        self.policy = policy
        self.on_deliver = on_deliver
        self.telemetry = telemetry
        self.future = Future(fabric.sim)
        self.attempts = 0
        self.done = False
        self._timer = None

    def send_attempt(self) -> None:
        self.attempts += 1
        if self.attempts > 1:
            self.fabric.retransmissions += 1
            if self.telemetry is not None:
                self.telemetry.retries += 1
        self.fabric.send(self)
        timeout = (self.policy.timer_for(self.message.protocol)
                   * self.policy.backoff ** (self.attempts - 1))
        self._timer = self.fabric.sim.schedule(timeout, self._expired)

    def delivered(self) -> None:
        """The first copy arrived: stop the timer, resolve the future."""
        self.done = True
        if self._timer is not None:
            self._timer.cancel()
            # the timer's callback is our bound method: drop the spent
            # timer so no transfer <-> event cycle outlives delivery
            self._timer = None
        self.future.resolve(self.message)

    def _expired(self) -> None:
        self._timer = None      # spent: break the transfer <-> event cycle
        if self.done:
            return
        if self.telemetry is not None:
            self.telemetry.timer_expiries += 1
        if self.attempts >= self.policy.max_attempts:
            self.done = True
            message = self.message
            self.future.reject(SignallingTimeout(
                message.mtype, message.sender, message.receiver,
                self.attempts, result=self.telemetry))
        else:
            self.send_attempt()
