"""Fluid-flow traffic aggregation: rate-based background load.

Per-packet simulation of heavy background traffic dominates the event
budget of the figure-scale experiments: a 90 Mbit/s Poisson load is
~8000 packets/s, each crossing four or five hops, for millions of
events per run.  This module replaces such flows with **fluid flows**
-- piecewise-constant rates integrated analytically -- in the style of
the classic fluid-simulation literature, while signalling and CI/AR
traffic stay per-packet on the very same links.

Model
-----

A :class:`FluidQueue` is one fluid server with a capacity ``C``
(units/second) and an optional finite buffer (units).  Two unit
conventions are used:

* a **link direction** serves *bits*: ``C`` is the direction's
  bandwidth and the buffer is the link's drop-tail queue in bits;
* a **gateway CPU** serves *CPU-seconds*: ``C = 1.0`` and a flow
  offering ``p`` packets/s at a per-packet cost ``c`` contributes
  ``p*c`` CPU-seconds/second of load (the buffer is unbounded, like
  the switch's serial-CPU busy-until clock).

Between re-solves every rate is constant, so the backlog ``b(t)`` is
piecewise linear (``db/dt = A - C`` clipped to ``[0, buffer]``, where
``A`` is the aggregate in-rate) and needs **no events** to evolve: it
is integrated lazily whenever somebody looks (a per-packet arrival, a
monitor, a fault).  The flow/rate system is re-solved only when the
flow set changes, a link goes up or down, or a rate changes; the only
recurring events a fluid system schedules are low-frequency flushes
that materialise accumulated byte drops as aggregate
:class:`~repro.sim.hooks.PacketDropped` events while a buffer is
overflowing.

Per-packet composition
----------------------

Per-packet traffic sharing a fluid queue sees the correct residual
service.  A packet of priority ``p`` arriving at time ``t`` is delayed
by the backlog ahead of it plus the stationary queue the fluid mean
hides:

* strict-priority link, blocking fluid in-rate ``A_b`` (flows with a
  priority at least as good): ``wait = b_b / (C - A_b)`` -- the
  backlog drains at ``C`` but better-priority fluid keeps overtaking,
  which is exactly the residual-bandwidth view (capped at the drain
  time of a full buffer when ``A_b >= C``);
* FIFO server (a gateway CPU, a non-QoS link): ``wait = b_b / C`` --
  later fluid arrivals queue *behind* the packet;
* plus an M/D/1-style stationary term
  ``rho/(2(1-rho)) * S`` (clamped) weighted by the blocking flows'
  arrival variability: Poisson at a flow's first hop, smoothed to
  deterministic once a flow has crossed a near-saturated hop (a
  saturated server's departure process carries no burstiness).

Only the backlog ``b`` moves between solves.  Everything else in the
wait -- ``A_b``, the blocking share ``A_b / A`` of the backlog, the
drain rate (``C``, ``C - A_b`` or starved), the stationary term and
the full-buffer cap -- is constant until the next solve or attach, so
each queue keeps a wait table keyed by packet priority (``None`` for
FIFO): an entry is filled the first time a priority is asked after a
solve, and the table is cleared by :meth:`FluidQueue.attach` and the
rate solve.  A per-packet wait is then one backlog integration, one
dict probe and a few float operations.

The deliberate limitation: a fluid flow's *mean* backlog below
saturation is zero, so the stationary term is a correction, not a
distribution -- percentiles of per-packet delay under near-critical
load (``rho -> 1``) are reproduced in magnitude, not in tail shape.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.sim.hooks import PacketDropped
from repro.sim.link import _BEST_EFFORT_PRIORITY, Link
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event, Simulator
    from repro.sim.link import _Direction
    from repro.sim.node import Node

_flow_ids = itertools.count(1)

#: Default fluid packet size (bytes), matching the traffic generators.
DEFAULT_FLUID_PACKET_SIZE = 1400

#: Clamp for the ``rho/(2(1-rho))`` stationary-queue factor: at
#: critical load the factor diverges while the real queue grows like a
#: random walk; the clamp keeps the correction a bounded number of
#: service times.
_STATIONARY_MAX = 25.0

#: Utilisation beyond which a server's departure process is treated as
#: smoothed (deterministic spacing): downstream hops then apply no
#: stationary correction for that flow.
_SMOOTHING_RHO = 0.95

#: Fixed-point passes for the rate solve (paths are feed-forward, so
#: this bounds the longest hop chain the solve converges over).
_SOLVE_PASSES = 8

#: Relative convergence tolerance on per-queue shares.
_SOLVE_EPS = 1e-9

#: How often an overflowing queue materialises its accumulated byte
#: drops as aggregate PacketDropped events (simulated seconds).
DROP_FLUSH_INTERVAL = 1.0


class _FlowEntry:
    """One flow's membership in one :class:`FluidQueue`.

    ``scale`` converts the flow's byte rate to queue units/second
    (``8`` for a link direction, ``cost/packet_size`` for a CPU);
    ``upp`` is the queue units one flow packet occupies, which the
    stationary correction uses as the per-packet service quantum.
    """

    __slots__ = ("flow", "scale", "priority", "upp", "rate", "var",
                 "pending_drops")

    def __init__(self, flow: "FluidFlow", scale: float,
                 priority: int) -> None:
        self.flow = flow
        self.scale = scale
        self.priority = priority
        self.upp = scale * flow.packet_size
        self.rate = 0.0             # units/s entering (last solve)
        self.var = 1.0              # arrival variability in [0, 1]
        self.pending_drops: dict[str, float] = {}   # reason -> bytes


class FluidQueue:
    """A fluid server: aggregate rates in, capped rate out, backlog.

    The queue never schedules per-byte work: its backlog is integrated
    lazily on access (:meth:`advance`) and the only events it arms are
    low-rate drop flushes while overflowing.  ``drop_emitter`` (set by
    the owning :class:`FluidLink`) turns accumulated dropped bytes
    into aggregate drop events; without one, drops are still counted
    on the flows.
    """

    def __init__(self, sim: "Simulator", capacity: float,
                 buffer: Optional[float] = None, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.buffer = buffer        # units; None -> unbounded
        self.up = True
        self.backlog = 0.0          # units
        self.in_rate = 0.0          # aggregate units/s (last solve)
        self.share = 1.0            # output scale passed downstream
        self.drop_emitter: Optional[Callable[["FluidFlow", str, float,
                                              int], None]] = None
        self._entries: list[_FlowEntry] = []
        self._rates = np.zeros(0)
        self._vars = np.zeros(0)
        self._priorities = np.zeros(0, dtype=int)
        self._upp = np.zeros(0)
        # priority (None: FIFO) -> (blocking, share, drain, stationary,
        # cap), valid until the next attach or solve
        self._waits: dict[Optional[int], tuple] = {}
        self._t = sim.now
        self._flush_event: Optional["Event"] = None

    # -- membership -------------------------------------------------------

    def attach(self, flow: "FluidFlow", scale: float,
               priority: int = _BEST_EFFORT_PRIORITY) -> _FlowEntry:
        entry = _FlowEntry(flow, scale, priority)
        self._entries.append(entry)
        self._priorities = np.array([e.priority for e in self._entries])
        self._upp = np.array([e.upp for e in self._entries])
        self._rates = np.zeros(len(self._entries))
        self._vars = np.ones(len(self._entries))
        self._waits.clear()
        return entry

    # -- piecewise-linear state -------------------------------------------

    def advance(self, now: float) -> None:
        """Integrate backlog (and drops) from the last solve to ``now``.

        Rates are constant between solves, so this is exact: the
        backlog moves linearly and clips at zero (drained) or at the
        buffer (dropping the overflow, attributed to flows in
        proportion to their in-rates).
        """
        dt = now - self._t
        if dt <= 0.0:
            return
        self._t = now
        if not self._entries:
            self.backlog = max(0.0, self.backlog - self.capacity * dt)
            return
        if not self.up:
            # arrivals die at the down link; the backlog keeps draining
            # (packets already queued still leave the wire)
            self._accrue_drops(self._rates * dt, "link-down")
            self.backlog = max(0.0, self.backlog - self.capacity * dt)
            return
        b = self.backlog + (self.in_rate - self.capacity) * dt
        if b < 0.0:
            b = 0.0
        if self.buffer is not None and b > self.buffer:
            overflow = b - self.buffer
            b = self.buffer
            if self.in_rate > 0.0:
                self._accrue_drops(
                    self._rates * (overflow / self.in_rate),
                    "queue-overflow")
        self.backlog = b

    def _accrue_drops(self, units: np.ndarray, reason: str) -> None:
        for entry, dropped in zip(self._entries, units):
            if dropped <= 0.0:
                continue
            dropped_bytes = dropped / entry.scale
            entry.flow.bytes_dropped += dropped_bytes
            entry.pending_drops[reason] = \
                entry.pending_drops.get(reason, 0.0) + dropped_bytes

    def flush_drops(self) -> None:
        """Materialise whole-packet multiples of accumulated drops."""
        emit = self.drop_emitter
        for entry in self._entries:
            for reason, pending in list(entry.pending_drops.items()):
                size = entry.flow.packet_size
                packets = int(pending // size)
                if packets <= 0:
                    continue
                entry.pending_drops[reason] = pending - packets * size
                if emit is not None:
                    emit(entry.flow, reason, packets * size, packets)

    # -- per-packet composition -------------------------------------------

    def packet_wait(self, now: float,
                    priority: Optional[int] = None) -> float:
        """Extra delay a per-packet arrival sees from the fluid load.

        ``priority=None`` models a FIFO server (a CPU, a non-QoS
        link); otherwise only fluid entries with a priority at least
        as good (``<=``) block the packet, and the blocking backlog
        drains at the residual rate left over by their arrivals.
        """
        self.advance(now)
        terms = self._waits.get(priority)
        if terms is None:
            terms = self._fill_waits(priority)
        blocking, share, drain, stationary, cap = terms
        backlog = self.backlog
        if blocking <= 0.0 and backlog <= 0.0:
            return 0.0
        if drain is None:
            wait = float("inf")         # starved; capped below
        else:
            wait = backlog * share / drain
        wait += stationary
        if cap is not None:
            wait = min(wait, cap)
        return wait

    def _fill_waits(self, priority: Optional[int]) -> tuple:
        """The solve-constant terms of :meth:`packet_wait` for one
        priority, stored in the wait table."""
        total = self.in_rate
        if priority is None:
            mask = None
            blocking = total
        else:
            mask = self._priorities <= priority
            blocking = float(self._rates[mask].sum())
        capacity = self.capacity
        share = blocking / total if total > 0.0 else 1.0
        if priority is None:
            drain = capacity
        else:
            residual = capacity - blocking
            drain = residual if residual > capacity * 1e-9 else None
        cap = self.buffer / capacity if self.buffer is not None else None
        terms = (blocking, share, drain,
                 self._stationary_wait(mask, blocking), cap)
        self._waits[priority] = terms
        return terms

    def _stationary_wait(self, mask, blocking: float) -> float:
        """M/D/1-style mean-queue correction for the fluid's hidden
        stationary backlog, weighted by arrival variability."""
        if blocking <= 0.0:
            return 0.0
        # a zero-cost server entry adds no work (and no packets to
        # serve): leaving it out also keeps its 0/0 out of the sum
        costed = self._upp > 0.0
        if mask is None:
            varying = float((self._rates * self._vars).sum())
        else:
            varying = float((self._rates * self._vars)[mask].sum())
            costed &= mask
        pps = float((self._rates[costed] / self._upp[costed]).sum())
        if varying <= 0.0 or pps <= 0.0:
            return 0.0
        rho = blocking / self.capacity
        if rho >= 1.0:
            factor = _STATIONARY_MAX
        else:
            factor = min(rho / (2.0 * (1.0 - rho)), _STATIONARY_MAX)
        service = blocking / self.capacity / pps  # mean packet service
        return (varying / blocking) * factor * service

    # -- drop-flush cadence -----------------------------------------------

    def _dropping(self) -> bool:
        if not self.up:
            return self.in_rate > 0.0
        return (self.buffer is not None
                and self.in_rate > self.capacity
                and self.backlog >= self.buffer * (1.0 - 1e-12))

    def _rearm_flush(self) -> None:
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        if not self._entries:
            return
        if self._dropping() or any(e.pending_drops for e in self._entries):
            delay = DROP_FLUSH_INTERVAL
        elif (self.up and self.buffer is not None
                and self.in_rate > self.capacity):
            fill = (self.buffer - self.backlog) \
                / (self.in_rate - self.capacity)
            delay = max(fill, 0.0) + DROP_FLUSH_INTERVAL * 1e-3
        else:
            return
        self._flush_event = self.sim.schedule(delay, self._on_flush)

    def _on_flush(self) -> None:
        self._flush_event = None
        self.advance(self.sim.now)
        self.flush_drops()
        self._rearm_flush()


class FluidDomain:
    """The set of fluid flows and queues solved together.

    One domain per simulated network: it re-solves the piecewise-
    constant rate system whenever membership, a rate, or a link state
    changes, and keeps per-flow byte accounting current at each solve.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.flows: list["FluidFlow"] = []
        self.queues: list[FluidQueue] = []
        self.resolves = 0
        self._cpu_queues: dict[str, FluidQueue] = {}

    def register_queue(self, queue: FluidQueue) -> FluidQueue:
        if queue not in self.queues:
            self.queues.append(queue)
        return queue

    def cpu_queue(self, name: str) -> FluidQueue:
        """The (unbounded, unit-capacity) fluid server for one gateway
        CPU: flows load it in CPU-seconds per second."""
        queue = self._cpu_queues.get(name)
        if queue is None:
            queue = FluidQueue(self.sim, capacity=1.0, buffer=None,
                               name=f"cpu.{name}")
            self._cpu_queues[name] = queue
            self.register_queue(queue)
        return queue

    # -- the solve --------------------------------------------------------

    def sync(self, flush: bool = True) -> None:
        """Bring accounting (flow bytes, queue backlogs) to ``now``."""
        now = self.sim.now
        for flow in self.flows:
            flow._account(now)
        for queue in self.queues:
            queue.advance(now)
            if flush:
                queue.flush_drops()

    def resolve(self) -> None:
        """Re-solve all rates after a membership/rate/state change."""
        self.sync(flush=False)
        self._solve_rates()
        for queue in self.queues:
            queue._rearm_flush()
        self.resolves += 1

    def _solve_rates(self) -> None:
        queues = self.queues
        shares = {id(q): q.share for q in queues}
        downs = {id(q): not q.up for q in queues}
        agg: dict[int, float] = {}
        for _ in range(_SOLVE_PASSES):
            agg = {id(q): 0.0 for q in queues}
            for flow in self.flows:
                rate = flow.rate / 8.0 if flow.active else 0.0  # bytes/s
                for queue, entry, _latency in flow._hops:
                    agg[id(queue)] += rate * entry.scale
                    if downs[id(queue)]:
                        rate = 0.0
                    else:
                        rate *= shares[id(queue)]
            drift = 0.0
            for queue in queues:
                a = agg[id(queue)]
                new = 1.0 if a <= queue.capacity else queue.capacity / a
                drift = max(drift, abs(new - shares[id(queue)]))
                shares[id(queue)] = new
            if drift <= _SOLVE_EPS:
                break
        # final pass: record per-entry rates/variability and per-flow
        # delivered rates under the converged shares
        for queue in queues:
            queue.in_rate = agg[id(queue)]
            queue.share = shares[id(queue)]
            queue._waits.clear()
        for flow in self.flows:
            rate = flow.rate / 8.0 if flow.active else 0.0
            var = 1.0
            for queue, entry, _latency in flow._hops:
                entry.rate = rate * entry.scale
                entry.var = var
                if downs[id(queue)]:
                    rate = 0.0
                else:
                    rate *= shares[id(queue)]
                    if queue.in_rate > _SMOOTHING_RHO * queue.capacity:
                        var = 0.0
            flow._delivered_Bps = rate
        for queue in queues:
            if queue._entries:
                queue._rates = np.array([e.rate for e in queue._entries])
                queue._vars = np.array([e.var for e in queue._entries])


class FluidFlow:
    """One aggregated traffic flow: a rate pushed along a hop path.

    The flow models what a per-packet source plus its forwarding path
    would do in aggregate: ``rate`` bits/s of ``packet_size``-byte
    packets entering at ``src_ip``, crossing link directions and
    gateway CPUs (:meth:`add_link` / :meth:`add_server`), delivering
    whatever survives to ``dst_ip``.  Byte counters
    (``bytes_offered``/``bytes_delivered``/``bytes_dropped``) are
    integrated at every re-solve.
    """

    def __init__(self, domain: FluidDomain, name: str, src_ip: str,
                 dst_ip: str, rate: float,
                 packet_size: int = DEFAULT_FLUID_PACKET_SIZE,
                 qci: Optional[int] = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive bits/sec")
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.domain = domain
        self.sim = domain.sim
        self.name = name
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.rate = rate            # offered bits/s
        self.packet_size = packet_size
        self.qci = qci
        self.flow_id = f"fluid-{next(_flow_ids)}"
        self.active = False
        self.bytes_offered = 0.0
        self.bytes_delivered = 0.0
        self.bytes_dropped = 0.0
        self._delivered_Bps = 0.0
        self._hops: list[tuple[FluidQueue, _FlowEntry, float]] = []
        self._acct_t = self.sim.now
        self._start_event: Optional["Event"] = None
        domain.flows.append(self)

    # -- path construction ------------------------------------------------

    def add_link(self, link: "FluidLink", sender: "Node") -> "FluidFlow":
        """Append the link direction out of ``sender`` to the path."""
        queue, priority = link._attach_fluid(self, sender)
        entry = queue.attach(self, scale=8.0, priority=priority)
        self._hops.append((queue, entry, link.delay))
        self.domain.register_queue(queue)
        return self

    def add_server(self, queue: FluidQueue,
                   cost_per_packet: float) -> "FluidFlow":
        """Append a serial server (a gateway CPU) to the path."""
        if cost_per_packet < 0:
            raise ValueError("cost_per_packet must be non-negative")
        entry = queue.attach(self, scale=cost_per_packet / self.packet_size)
        self._hops.append((queue, entry, 0.0))
        self.domain.register_queue(queue)
        return self

    # -- lifecycle --------------------------------------------------------

    def start(self, at: float = 0.0) -> "FluidFlow":
        if self._start_event is not None:
            self._start_event.cancel()
        if at <= 0.0:
            self._activate()
        else:
            self._start_event = self.sim.schedule(at, self._activate)
        return self

    def _activate(self) -> None:
        self._start_event = None
        if self.active:
            return
        self.active = True
        self.domain.resolve()

    def stop(self) -> None:
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None
        if not self.active:
            return
        self._account(self.sim.now)
        self.active = False
        self.domain.resolve()

    def set_rate(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive bits/sec")
        self._account(self.sim.now)
        self.rate = rate
        if self.active:
            self.domain.resolve()

    # -- accounting -------------------------------------------------------

    def _account(self, now: float) -> None:
        dt = now - self._acct_t
        if dt <= 0.0:
            return
        self._acct_t = now
        if not self.active:
            return
        self.bytes_offered += self.rate / 8.0 * dt
        self.bytes_delivered += self._delivered_Bps * dt

    def sync(self) -> "FluidFlow":
        """Bring accounting current (monitors call this): byte counters
        for every flow in the domain plus backlog/drop integration for
        every queue -- drop accrual lives on the queues, so a flow-only
        account would under-report ``bytes_dropped`` between events."""
        self.domain.sync()
        return self

    @property
    def delivered_rate(self) -> float:
        """Instantaneous delivery rate at the path exit (bits/s)."""
        return self._delivered_Bps * 8.0

    @property
    def packets_delivered(self) -> int:
        return int(self.bytes_delivered // self.packet_size)

    def __repr__(self) -> str:    # pragma: no cover - debugging aid
        state = "active" if self.active else "idle"
        return (f"<FluidFlow {self.name} {self.rate/1e6:.1f}Mbps "
                f"{len(self._hops)} hops {state}>")


class FluidLink(Link):
    """A :class:`Link` that carries fluid flows alongside packets.

    With no fluid flows attached the link behaves exactly like its
    base class (same schedules, same RNG draws).  With flows attached,
    per-packet arrivals on a fluid-loaded direction share its buffer
    with the fluid backlog and are delayed by the residual-bandwidth
    wait of :meth:`FluidQueue.packet_wait`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fluid_domain: Optional[FluidDomain] = None

    # -- fluid wiring -----------------------------------------------------

    def _attach_fluid(self, flow: FluidFlow,
                      sender: "Node") -> tuple[FluidQueue, int]:
        direction = self._directions.get(id(sender))
        if direction is None:
            raise ValueError(
                f"{sender!r} is not attached to link {self.name}")
        self._fluid_domain = flow.domain
        queue = direction._fluid
        if queue is None:
            queue = FluidQueue(
                self.sim, capacity=direction.bandwidth,
                buffer=float(self.queue_bytes) * 8.0,
                name=f"{self.name}:{sender.name}")
            queue.up = self.up
            queue.drop_emitter = self._make_drop_emitter(direction, sender)
            direction._fluid = queue
        priority = (self.priority_of_qci(flow.qci) if self.qos_priority
                    else _BEST_EFFORT_PRIORITY)
        return queue, priority

    def priority_of_qci(self, qci: Optional[int]) -> int:
        if qci is None:
            return _BEST_EFFORT_PRIORITY
        return self._qci_priorities.get(qci, _BEST_EFFORT_PRIORITY)

    def fluid_queues(self) -> tuple[FluidQueue, ...]:
        return tuple(d._fluid for d in self._directions.values()
                     if d._fluid is not None)

    def _make_drop_emitter(self, direction: "_Direction",
                           sender: "Node"):
        def emit(flow: FluidFlow, reason: str, nbytes: float,
                 packets: int) -> None:
            self.drop_counts[reason] = \
                self.drop_counts.get(reason, 0) + packets
            if reason == "queue-overflow":
                direction.drops += packets
            hooks = self.sim.hooks
            if hooks.has(PacketDropped):
                packet = Packet(
                    src=flow.src_ip, dst=flow.dst_ip,
                    size=flow.packet_size, protocol="UDP",
                    flow_id=flow.flow_id, qci=flow.qci,
                    created_at=self.sim.now,
                    meta={"fluid_packets": packets,
                          "fluid_bytes": nbytes})
                hooks.emit(PacketDropped(link=self, packet=packet,
                                         sender=sender, reason=reason))
        return emit

    # -- state changes ----------------------------------------------------

    def set_up(self, up: bool) -> None:
        if up == self.up or self._fluid_domain is None:
            super().set_up(up)
            return
        # integrate fluid state under the old link state first, then
        # flip and re-solve every rate that crosses this link
        now = self.sim.now
        queues = self.fluid_queues()
        for queue in queues:
            queue.advance(now)
        super().set_up(up)
        for queue in queues:
            queue.up = up
        self._fluid_domain.resolve()

    # -- per-packet data path ---------------------------------------------

    #: Link's send body, bound under this class's own name too, so
    #: ``FluidLink.transmit`` is an attribute of the class that per-class
    #: wrappers (profilers, tracers) find.  The fluid part of a send runs
    #: through the two hooks below, which the body calls on a direction
    #: that carries a fluid queue.
    transmit = Link.transmit

    def _fluid_admits(self, direction: "_Direction", sender: "Node",
                      packet: Packet, wire_size: int) -> bool:
        """Whether the packet fits the drop-tail buffer its direction
        shares with the fluid backlog; a packet that does not is
        dropped here."""
        queue = direction._fluid
        queue.advance(self.sim.now)
        occupied = queue.backlog / 8.0 + direction.queued_bytes
        if occupied + wire_size > self.queue_bytes:
            direction.drops += 1
            self._signal_drop(packet, sender, "queue-overflow")
            return False
        return True

    def _fluid_wait(self, direction: "_Direction", packet: Packet) -> float:
        """The wait behind the fluid backlog of a packet going on the
        wire now (added to its transmission time)."""
        priority = self.priority_of(packet) if self.qos_priority else None
        return direction._fluid.packet_wait(self.sim.now, priority=priority)
