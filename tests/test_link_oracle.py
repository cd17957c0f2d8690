"""Links against an eager two-event oracle.

A :class:`~repro.sim.link.Link` transmission pushes one event, the
arrival; its tx-done is only reserved and is pushed, under the key it
was reserved with, when a packet queues behind it.  :class:`EagerLink`
below is the plain design it replaces: every transmission pushes both
events.  The tests drive both through identical seeded worlds -- FIFO
and strict-priority links, jitter, fluid background switched on and
off, link flaps, and sends made between ``run(until=...)`` calls,
between ``step()`` calls, from a ``run_until_complete`` process and
after a ``max_events`` stop -- and require the same arrivals, drops and
transmit counters.

Sizes, bandwidths, delays and send times sit on a dyadic grid, so
tx-dones tie exactly with arrivals and sends: ties are where the
reserved key's sequence number decides the order.
"""

import random

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.fluid import FluidDomain, FluidFlow, FluidLink
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet

GRID = 2.0 ** -11           # seconds; every tx time is a multiple
BANDWIDTH = 2.0 ** 20       # bits/s: 64 B take one GRID
QUEUE_BYTES = 2048


class EagerLink(Link):
    """The two-event data path: every transmission pushes its tx-done,
    which frees the transmitter or starts the next queued packet."""

    def transmit(self, sender, packet):
        direction = self._directions.get(id(sender))
        if direction is None:
            raise ValueError(f"{sender!r} is not attached")
        if not self.up:
            self._signal_drop(packet, sender, "link-down")
            return
        busy = getattr(direction, "busy", False)
        if not busy and direction.queued_bytes == 0:
            wire_size = packet.wire_size
            if wire_size > self.queue_bytes:
                direction.drops += 1
                self._signal_drop(packet, sender, "queue-overflow")
                return
            self._transmit_packet(direction, packet, wire_size)
            return
        if not direction.enqueue(packet):
            self._signal_drop(packet, sender, "queue-overflow")
            return
        if not busy:
            self._start_transmission(direction)

    def _start_transmission(self, direction):
        packet = direction.dequeue()
        if packet is None:
            direction.busy = False
            return
        self._transmit_packet(direction, packet, packet.wire_size)

    def _transmit_packet(self, direction, packet, wire_size, wait=0.0):
        direction.busy = True
        tx_time = wait + wire_size * 8 / direction.bandwidth
        direction.tx_packets += 1
        direction.tx_bytes += wire_size
        sim = self.sim
        sim._schedule_internal(tx_time + self._propagation(),
                               direction.peer.receive, packet, self)
        sim._schedule_internal(tx_time, self._start_transmission, direction)


class EagerFluidLink(FluidLink, EagerLink):
    """FluidLink's buffer sharing and fluid wait on the eager path."""


class Relay(Node):
    """Logs every arrival and forwards it by ``meta["route"]``."""

    def __init__(self, sim, name, log):
        super().__init__(sim, name)
        self.log = log

    def on_receive(self, packet, link):
        self.log.append((self.sim.now, packet.packet_id, self.name))
        route = packet.meta.get("route")
        if route:
            self.send(route.pop(0), packet)


class World:
    """Six nodes, four of them around a relay ``r``::

        a --fifo-- r --qos-- b        c --jitter-- r
        d ==fluid (fifo or qos)== e   (fluid flow switched on and off)
    """

    def __init__(self, link_cls, fluid_cls, seed, qos_fluid):
        self.sim = sim = Simulator()
        self.log = []
        self.rng = random.Random(seed)
        self.next_id = 0
        nodes = {name: Relay(sim, name, self.log) for name in "abcder"}
        self.nodes = nodes
        jitter_rng = np.random.default_rng(seed)
        self.links = {
            "ar": link_cls(sim, "ar", BANDWIDTH, 4 * GRID,
                           queue_bytes=QUEUE_BYTES),
            "rb": link_cls(sim, "rb", BANDWIDTH / 2, 2 * GRID,
                           queue_bytes=QUEUE_BYTES, qos_priority=True),
            "cr": link_cls(sim, "cr", BANDWIDTH, GRID, jitter=3 * GRID,
                           rng=jitter_rng, queue_bytes=QUEUE_BYTES),
            "de": fluid_cls(sim, "de", BANDWIDTH, 2 * GRID,
                            queue_bytes=4 * QUEUE_BYTES,
                            qos_priority=qos_fluid),
        }
        for name, link in self.links.items():
            nodes[name[0]].attach(name[1], link)
            nodes[name[1]].attach(name[0], link)
            for qci, priority in ((1, 2), (9, 90)):
                link.set_qci_priority(qci, priority)
        self.flow = FluidFlow(FluidDomain(sim), "bg", "d", "e",
                              rate=0.6 * BANDWIDTH, qci=9)
        self.flow.add_link(self.links["de"], nodes["d"])

    # -- traffic ---------------------------------------------------------

    ROUTES = (("a", ["r"], ["b"]), ("b", ["r"], ["a"]), ("c", ["r"], ["b"]),
              ("a", ["r"], ["c"]), ("d", ["e"], []), ("e", ["d"], []))

    def packet(self):
        src, first, rest = self.rng.choice(self.ROUTES)
        self.next_id += 1
        packet = Packet(src=src, dst="x", size=64 * self.rng.randint(1, 12),
                        qci=self.rng.choice([None, 1, 9]),
                        meta={"route": list(rest)},
                        packet_id=self.next_id)
        return self.nodes[src], first[0], packet

    def send_now(self):
        node, port, packet = self.packet()
        node.send(port, packet)

    def burst(self, count, span):
        """Schedule ``count`` sends at grid times within ``span``."""
        steps = int(span / GRID)
        for _ in range(count):
            self.sim.schedule(self.rng.randint(0, steps) * GRID,
                              self.send_now)

    def flaps(self, span):
        for name in self.rng.sample(sorted(self.links), 2):
            link = self.links[name]
            down = self.rng.randint(0, int(span / GRID)) * GRID
            self.sim.schedule(down, link.set_up, False)
            self.sim.schedule(down + 8 * GRID, link.set_up, True)

    def toggle_fluid(self, at, on):
        self.sim.schedule(at, self.flow.start if on else self.flow.stop)

    def until_arrival(self, advance, limit=1000):
        """Call ``advance`` until a packet arrives; False if it reports
        the queue drained (or ``limit`` calls passed) first."""
        logged = len(self.log)
        for _ in range(limit):
            if len(self.log) != logged:
                return True
            if not advance():
                return False
        return False

    # -- the script ------------------------------------------------------

    def drive(self):
        sim, rng = self.sim, self.rng
        self.burst(200, 0.05)
        self.flaps(0.05)
        self.toggle_fluid(0.01, True)
        self.toggle_fluid(0.03, False)
        # run(until=...) on grid times that tie with tx-dones, with
        # sends from outside the loop at each stop
        for k in range(1, 9):
            sim.run(until=k * 4 * GRID)
            for _ in range(rng.randint(0, 3)):
                self.send_now()
        # single steps and one-event runs, sending right after arrivals
        # (the eager side runs more events, so both sides stop on the
        # same arrival rather than after the same number of events);
        # a max_events stop leaves later events at the same time pending
        for _ in range(60):
            if not self.until_arrival(sim.step):
                break
            if rng.random() < 0.5:
                self.send_now()
        for _ in range(60):
            self.until_arrival(lambda: sim.run(max_events=1) or sim.pending)
            if rng.random() < 0.5:
                self.send_now()
        sim.run(until=0.05)
        # a process blocking in run_until_complete sends as it goes
        self.burst(40, 0.02)
        self.toggle_fluid(0.005, True)

        def proc():
            for _ in range(25):
                self.send_now()
                yield rng.randint(0, 3) * GRID
            return "done"

        assert sim.run_until_complete(sim.spawn(proc())) == "done"

        def inside():
            # a callback that itself blocks on a process
            sim.run_until_complete(sim.spawn(proc()))

        sim.schedule(GRID, inside)
        # bounded runs: an active fluid flow keeps re-arming drop flushes
        sim.run(until=sim.now + 0.05)
        self.flow.stop()
        sim.run(until=sim.now + 0.05)

    def outcome(self):
        counters = {}
        for name, link in self.links.items():
            for end in name:
                stats = link.stats(self.nodes[end])
                counters[name, end] = (stats["tx_packets"], stats["tx_bytes"],
                                       stats["drops"], stats["queue_depth"])
            counters[name] = dict(sorted(link.drop_counts.items()))
        return self.log, counters, self.sim.now


def run_world(eager, seed, qos_fluid=False):
    classes = (EagerLink, EagerFluidLink) if eager else (Link, FluidLink)
    world = World(*classes, seed=seed, qos_fluid=qos_fluid)
    world.drive()
    return world.outcome(), world.sim.events_run


@pytest.mark.parametrize("qos_fluid", [False, True], ids=["fifo", "qos"])
@pytest.mark.parametrize("seed", range(6))
def test_same_arrivals_drops_and_counters_as_eager(seed, qos_fluid):
    lazy, lazy_events = run_world(False, seed, qos_fluid)
    eager, eager_events = run_world(True, seed, qos_fluid)
    assert lazy == eager
    log, counters, _ = lazy
    assert len(log) > 200
    # the world really queued, dropped and flapped
    assert any(c.get("queue-overflow") for c in counters.values()
               if isinstance(c, dict))
    assert any(c.get("link-down") for c in counters.values()
               if isinstance(c, dict))
    # and the lazy path ran fewer events: idle tx-dones were never pushed
    assert lazy_events < eager_events


def test_unarmed_tx_done_is_not_pending():
    sim = Simulator()
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, "l", bandwidth=BANDWIDTH, delay=GRID)
    a.attach("p", link)
    b.attach("p", link)
    a.send("p", Packet(src="a", dst="b", size=64))
    assert sim.pending == 1                  # the arrival only
    assert sim.next_event_time() == 2 * GRID
    a.send("p", Packet(src="a", dst="b", size=64))
    assert sim.pending == 2                  # arrival + armed tx-done
    assert sim.next_event_time() == GRID
    sim.run()
    assert sim.events_run == 3
    assert link.stats(a)["tx_packets"] == 2


def tied_sends(link_cls):
    """Sends at exactly a tx-done's time, before and after its key, on
    a strict-priority link: a send the tx-done has not freed the link
    for queues, so the high-priority packet overtakes the low one."""
    sim = Simulator()
    log = []
    a, b = Relay(sim, "a", log), Relay(sim, "b", log)
    link = link_cls(sim, "l", BANDWIDTH, GRID, qos_priority=True)
    a.attach("b", link)
    b.attach("a", link)
    link.set_qci_priority(1, 1)
    link.set_qci_priority(9, 9)
    ids = iter(range(1, 100))

    def send(qci):
        a.send("b", Packet(src="a", dst="b", size=64, qci=qci,
                           packet_id=next(ids)))

    def pair():
        send(9)
        send(1)

    # before the key: scheduled ahead of the send whose tx-done ties
    sim.schedule(GRID, pair)
    send(9)                             # tx-done at GRID
    sim.run(until=4 * GRID)
    # after the key: scheduled by the event that sends, so behind it
    start = sim.now

    def send_then_pair():
        send(9)
        sim.schedule(GRID, pair)

    sim.schedule(0.0, send_then_pair)
    sim.run(until=start + 8 * GRID)
    # from outside the loop, once run(until=...) stopped on the key
    send(9)
    sim.run(until=sim.now + GRID)
    pair()
    sim.run()
    return log


def test_sends_tied_with_a_tx_done_follow_its_key():
    lazy, eager = tied_sends(Link), tied_sends(EagerLink)
    assert lazy == eager
    arrivals = [packet_id for _, packet_id, _ in lazy]
    # before the key: busy, so 3 (qci 1) overtakes 2; after it and
    # from outside: idle, so the low-priority packet goes first
    assert arrivals == [1, 3, 2, 4, 5, 6, 7, 8, 9]
