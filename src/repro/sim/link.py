"""Point-to-point duplex link with queueing.

Each direction of the link has its own transmitter and a finite drop-tail
queue.  Serialization delay is ``wire_size * 8 / bandwidth`` and
propagation delay is constant, so a congested direction builds queueing
delay exactly the way Figure 3(g)/10(b) of the paper measures it.

When ``qos_priority=True`` the queue is a strict-priority queue keyed by
the packet's QCI priority (see :mod:`repro.epc.qos`): this is what lets a
dedicated bearer with a better QCI overtake best-effort background
traffic on a shared link (Figure 10(a)).

A transmission costs one engine event, its arrival.  The tx-done that
frees the transmitter is only *reserved*: its key (``done_time``,
``done_seq``) is taken when the transmission starts, and it is pushed
under that key only if a packet waits behind it.  Until that key has
run the direction is busy; after it, idle.  The queue is non-empty only
while an armed tx-done is pending, so every event runs in the order the
eager two-event version gave it.

A send on an idle direction is one body, :meth:`Link.transmit`: it
looks the direction up once, reads ``wire_size`` once and posts the
arrival through :meth:`Simulator.post <repro.sim.engine.Simulator.post>`.
The armed tx-done (:meth:`Link._start_transmission`) is the same step
for a packet that waited.  A :class:`~repro.sim.fluid.FluidLink` adds
its part through two hooks called when a direction carries a fluid
queue, not through a copy of the body.

Radio jitter is drawn :data:`JITTER_BLOCK` values at a time from the
link's generator and handed out in draw order, so each packet gets the
value a scalar draw would have given it.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.sim.hooks import PacketDropped
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

#: Default queue capacity per direction (bytes); roughly 100 full-size
#: Ethernet frames, a typical shallow router buffer.
DEFAULT_QUEUE_BYTES = 150_000

#: QCI -> scheduling priority used when qos_priority is enabled.  Filled
#: lazily from repro.epc.qos to avoid a circular import; packets without
#: a QCI get the lowest priority.
_BEST_EFFORT_PRIORITY = 100

#: Jitter draws taken from a link's generator at a time.  Small on
#: purpose: a pending block is held per generator, and there is one
#: generator per radio link.
JITTER_BLOCK = 32


class _UnitDraws:
    """The standard-uniform draws of one generator, taken
    :data:`JITTER_BLOCK` at a time and handed out in draw order.

    ``Generator.random(n)`` gives the same values as ``n`` scalar calls,
    and ``uniform(0, j)`` is ``j * random()`` exactly, so a link
    reading ``jitter * next()`` gets the value a scalar
    ``uniform(0, jitter)`` draw would have given.  Links built on one
    generator share one instance (:func:`_unit_draws`): a radio link
    made again for a cell its UE had left goes on where the last one
    stopped, as scalar draws would.
    """

    __slots__ = ("rng", "_block", "__weakref__")

    def __init__(self, rng) -> None:
        self.rng = rng
        self._block: list[float] = []

    def next(self) -> float:
        block = self._block
        if not block:
            block = self._block = self.rng.random(JITTER_BLOCK).tolist()
            block.reverse()
        return block.pop()


#: id(generator) -> its draws, while some link holds them.  The entry
#: holds the generator itself, so the id cannot be reused under it.
_DRAWS: "weakref.WeakValueDictionary[int, _UnitDraws]" = \
    weakref.WeakValueDictionary()


def _unit_draws(rng) -> _UnitDraws:
    draws = _DRAWS.get(id(rng))
    if draws is None or draws.rng is not rng:
        draws = _DRAWS[id(rng)] = _UnitDraws(rng)
    return draws


class _Direction:
    """Transmitter + queue for one direction of a link."""

    def __init__(self, link: "Link") -> None:
        self.link = link
        self.bandwidth = link.bandwidth     # overridden per direction
        self.peer: Optional["Node"] = None  # set when both ends register
        # the last transmission's tx-done: reserved key, and whether it
        # was pushed (only when a packet waits behind it)
        self.done_time = float("-inf")
        self.done_seq = -1
        self.armed = False
        self.queued_bytes = 0
        self.drops = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        # the fluid queue sharing this direction (set by FluidLink)
        self._fluid = None
        self._fifo: deque[Packet] = deque()
        self._prio_heap: list[tuple[int, int, Packet]] = []
        self._seq = itertools.count()

    def enqueue(self, packet: Packet) -> bool:
        if self.queued_bytes + packet.wire_size > self.link.queue_bytes:
            self.drops += 1
            return False
        self.queued_bytes += packet.wire_size
        if self.link.qos_priority:
            heapq.heappush(
                self._prio_heap,
                (self.link.priority_of(packet), next(self._seq), packet))
        else:
            self._fifo.append(packet)
        return True

    def dequeue(self) -> Optional[Packet]:
        if self.link.qos_priority:
            if not self._prio_heap:
                return None
            _, _, packet = heapq.heappop(self._prio_heap)
        else:
            if not self._fifo:
                return None
            packet = self._fifo.popleft()
        self.queued_bytes -= packet.wire_size
        return packet

    @property
    def queue_depth(self) -> int:
        return len(self._fifo) + len(self._prio_heap)


class Link:
    """Duplex link between exactly two nodes.

    Parameters
    ----------
    bandwidth:
        Capacity per direction in bits/second.
    delay:
        One-way propagation delay in seconds.
    queue_bytes:
        Drop-tail buffer size per direction.
    qos_priority:
        Enable strict-priority scheduling by QCI priority.
    jitter:
        Optional per-packet propagation jitter: each packet's delay is
        ``delay + Uniform(0, jitter)`` drawn from ``rng``.  Models radio
        scheduling/HARQ variability.
    rng:
        The numpy ``Generator`` jitter is drawn from.  It must be the
        link's own stream (as ``net.link.<name>`` and
        ``net.radio.<ue>.<enb>`` are): draws are taken
        :data:`JITTER_BLOCK` at a time, ahead of use, so anything else
        drawing from it would see the stream moved on.  Links built on
        the same generator share its blocks.
    bandwidth_reverse:
        Optional capacity of the reverse direction (from the *second*
        attached endpoint toward the first).  Default: symmetric.  An
        LTE radio link is the canonical asymmetric case (uplink out of
        the UE is far slower than the downlink toward it).
    """

    def __init__(self, sim: "Simulator", name: str, bandwidth: float,
                 delay: float, queue_bytes: int = DEFAULT_QUEUE_BYTES,
                 qos_priority: bool = False, jitter: float = 0.0,
                 rng=None, bandwidth_reverse=None) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if bandwidth_reverse is not None and bandwidth_reverse <= 0:
            raise ValueError("reverse bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.bandwidth_reverse = (bandwidth_reverse
                                  if bandwidth_reverse is not None
                                  else bandwidth)
        self.delay = delay
        self.jitter = jitter
        self.rng = rng
        self.queue_bytes = queue_bytes
        self.qos_priority = qos_priority
        self.up = True
        self.drop_counts: dict[str, int] = {}
        self._endpoints: list["Node"] = []
        self._directions: dict[int, _Direction] = {}
        self._qci_priorities: dict[int, int] = {}
        # the jitter draw, pre-bound (None: a fixed delay)
        self._unit_draw = _unit_draws(rng).next if jitter > 0 else None
        # drop-hook verdict cached against the bus subscription
        # generation (a dict probe per drop became one int compare)
        self._drop_hook_gen = -1
        self._drop_hook_hot = False

    # -- failure injection --------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Bring the link up or down (fibre cut / radio loss).

        While down, transmissions are silently dropped and counted;
        packets already in flight still arrive (they left the wire
        before the cut).
        """
        self.up = up

    # -- wiring ---------------------------------------------------------

    def register_endpoint(self, node: "Node") -> None:
        if node in self._endpoints:
            return
        if len(self._endpoints) >= 2:
            raise ValueError(f"link {self.name} already has two endpoints")
        self._endpoints.append(node)
        direction = _Direction(self)
        # forward direction (out of the first endpoint) uses
        # ``bandwidth``; the reverse uses ``bandwidth_reverse``
        direction.bandwidth = (self.bandwidth if len(self._endpoints) == 1
                               else self.bandwidth_reverse)
        self._directions[id(node)] = direction
        if len(self._endpoints) == 2:
            first, second = self._endpoints
            self._directions[id(first)].peer = second
            self._directions[id(second)].peer = first

    def set_qci_priority(self, qci: int, priority: int) -> None:
        """Register the scheduling priority for a QCI (lower wins)."""
        self._qci_priorities[qci] = priority

    def priority_of(self, packet: Packet) -> int:
        if packet.qci is None:
            return _BEST_EFFORT_PRIORITY
        return self._qci_priorities.get(packet.qci, _BEST_EFFORT_PRIORITY)

    # -- data path --------------------------------------------------------

    def transmit(self, sender: "Node", packet: Packet) -> None:
        """Queue a packet for transmission from ``sender`` to the peer.

        On an idle direction the packet goes on the wire here: its
        arrival is posted and its tx-done key reserved.  On a busy one
        it queues, and the tx-done is armed to send it.  A direction
        carrying a fluid queue consults the ``_fluid_admits`` and
        ``_fluid_wait`` hooks of :class:`~repro.sim.fluid.FluidLink`.
        """
        direction = self._directions.get(id(sender))
        if direction is None:
            raise ValueError(
                f"{sender!r} is not attached to link {self.name}")
        if not self.up:
            self._signal_drop(packet, sender, "link-down")
            return
        wire_size = packet.wire_size
        fluid = direction._fluid
        if fluid is not None and not self._fluid_admits(
                direction, sender, packet, wire_size):
            return
        sim = self.sim
        now = sim.now
        done = direction.done_time
        if done < now or (done == now and sim._key_ran(direction.done_seq)):
            # idle direction (so its queue is empty): enqueue-then-
            # dequeue would hand back this same packet, so send it
            if wire_size > self.queue_bytes:
                direction.drops += 1
                self._signal_drop(packet, sender, "queue-overflow")
                return
            receiver = direction.peer
            if receiver is None:
                raise ValueError(f"link {self.name} is not fully wired")
            tx_time = wire_size * 8 / direction.bandwidth
            if fluid is not None:
                tx_time += self._fluid_wait(direction, packet)
            direction.tx_packets += 1
            direction.tx_bytes += wire_size
            draw = self._unit_draw
            sim.post(tx_time + (self.delay if draw is None
                                else self.delay + self.jitter * draw()),
                     receiver.receive, packet, self)
            # reserve the tx-done's key, taking the seq an eager push
            # would have taken; nothing waits behind it, so it stays
            # unarmed
            direction.done_time = now + tx_time
            direction.done_seq = next(sim._seq)
            return
        if not direction.enqueue(packet):
            self._signal_drop(packet, sender, "queue-overflow")
            return  # drop-tail
        if not direction.armed:
            direction.armed = True
            sim._schedule_reserved(done, direction.done_seq,
                                   self._start_transmission, direction)

    @property
    def dropped_while_down(self) -> int:
        """Packets dropped because the link was administratively down."""
        return self.drop_counts.get("link-down", 0)

    def _signal_drop(self, packet: Packet, sender: "Node",
                     reason: str) -> None:
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        hooks = self.sim.hooks
        if hooks.generation != self._drop_hook_gen:
            self._drop_hook_gen = hooks.generation
            self._drop_hook_hot = hooks.has(PacketDropped)
        if self._drop_hook_hot:
            hooks.emit(PacketDropped(link=self, packet=packet,
                                     sender=sender, reason=reason))

    def _start_transmission(self, direction: _Direction) -> None:
        """The armed tx-done: a packet waits, so send the next one (the
        idle send of :meth:`transmit`, for a packet that queued)."""
        packet = direction.dequeue()
        wire_size = packet.wire_size
        tx_time = wire_size * 8 / direction.bandwidth
        if direction._fluid is not None:
            tx_time += self._fluid_wait(direction, packet)
        direction.tx_packets += 1
        direction.tx_bytes += wire_size
        sim = self.sim
        draw = self._unit_draw
        sim.post(tx_time + (self.delay if draw is None
                            else self.delay + self.jitter * draw()),
                 direction.peer.receive, packet, self)
        done = direction.done_time = sim.now + tx_time
        seq = direction.done_seq = next(sim._seq)
        direction.armed = bool(direction._fifo or direction._prio_heap)
        if direction.armed:
            sim._schedule_reserved(done, seq, self._start_transmission,
                                   direction)

    # -- stats ------------------------------------------------------------

    def stats(self, node: "Node") -> dict:
        """Per-direction counters for the direction *out of* ``node``."""
        direction = self._directions[id(node)]
        return {
            "tx_packets": direction.tx_packets,
            "tx_bytes": direction.tx_bytes,
            "drops": direction.drops,
            "queued_bytes": direction.queued_bytes,
            "queue_depth": direction.queue_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.bandwidth/1e6:.1f}Mbps "
                f"{self.delay*1e3:.2f}ms>")
