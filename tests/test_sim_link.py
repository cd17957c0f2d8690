"""Unit tests for links: serialization, propagation, queueing, QoS."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.link import JITTER_BLOCK, Link
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Packet
from tests.recording import RecordingSink


def wire(sim, bandwidth=1e6, delay=0.01, **kw):
    src = Node(sim, "src", ip="10.0.0.1")
    sink = RecordingSink(sim, "dst", ip="10.0.0.2")
    link = Link(sim, "l0", bandwidth=bandwidth, delay=delay, **kw)
    src.attach("out", link)
    sink.attach("in", link)
    return src, sink, link


def pkt(size=1000, **kw):
    defaults = dict(src="10.0.0.1", dst="10.0.0.2", size=size)
    defaults.update(kw)
    return Packet(**defaults)


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    src, sink, _ = wire(sim, bandwidth=1e6, delay=0.01)
    src.send("out", pkt(size=1000))  # 8000 bits / 1e6 bps = 8 ms
    sim.run()
    assert sink.arrival_times == [pytest.approx(0.018)]


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    src, sink, _ = wire(sim, bandwidth=1e6, delay=0.0)
    src.send("out", pkt())
    src.send("out", pkt())
    sim.run()
    assert sink.arrival_times == [pytest.approx(0.008), pytest.approx(0.016)]


def test_queue_overflow_drops_tail():
    sim = Simulator()
    src, sink, link = wire(sim, bandwidth=1e6, delay=0.0, queue_bytes=2500)
    for _ in range(5):
        src.send("out", pkt(size=1000))
    sim.run()
    # first packet starts transmitting immediately; at most 2 more fit in
    # the 2500-byte queue, rest are dropped
    assert len(sink.received) == 3
    assert link.stats(src)["drops"] == 2


def test_duplex_directions_are_independent():
    sim = Simulator()
    a = RecordingSink(sim, "a", ip="10.0.0.1")
    b = RecordingSink(sim, "b", ip="10.0.0.2")
    link = Link(sim, "l", bandwidth=1e6, delay=0.001)
    a.attach("p", link)
    b.attach("p", link)
    a.send("p", pkt(src="10.0.0.1", dst="10.0.0.2"))
    b.send("p", pkt(src="10.0.0.2", dst="10.0.0.1"))
    sim.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_third_endpoint_rejected():
    sim = Simulator()
    link = Link(sim, "l", bandwidth=1e6, delay=0.0)
    Node(sim, "a").attach("p", link)
    Node(sim, "b").attach("p", link)
    with pytest.raises(ValueError):
        Node(sim, "c").attach("p", link)


def test_transmit_from_unattached_node_rejected():
    sim = Simulator()
    _, _, link = wire(sim)
    stranger = Node(sim, "stranger")
    with pytest.raises(ValueError):
        link.transmit(stranger, pkt())


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "l", bandwidth=0, delay=0.0)
    with pytest.raises(ValueError):
        Link(sim, "l", bandwidth=1e6, delay=-1.0)


def test_send_via_unknown_port_raises():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(KeyError):
        node.send("nope", pkt())


def test_qos_priority_queue_reorders_by_qci():
    sim = Simulator()
    src, sink, link = wire(sim, bandwidth=1e5, delay=0.0, qos_priority=True)
    link.set_qci_priority(5, 1)   # high priority
    link.set_qci_priority(9, 9)   # low priority
    # first packet occupies the transmitter; the rest queue up
    src.send("out", pkt(size=1000, qci=9))
    for _ in range(3):
        src.send("out", pkt(size=1000, qci=9))
    src.send("out", pkt(size=1000, qci=5))
    sim.run()
    qcis = [p.qci for p in sink.received]
    assert qcis[0] == 9           # already in flight
    assert qcis[1] == 5           # priority packet jumps the queue
    assert qcis[2:] == [9, 9, 9]


def test_packets_without_qci_are_best_effort():
    sim = Simulator()
    src, sink, link = wire(sim, bandwidth=1e5, delay=0.0, qos_priority=True)
    link.set_qci_priority(5, 1)
    src.send("out", pkt(size=1000))          # occupies transmitter
    src.send("out", pkt(size=1000))          # queued, best effort
    src.send("out", pkt(size=1000, qci=5))   # queued, high priority
    sim.run()
    assert [p.qci for p in sink.received] == [None, 5, None]


def test_echo_sink_returns_packet():
    sim = Simulator()
    src = RecordingSink(sim, "src", ip="10.0.0.1")
    echo = PacketSink(sim, "echo", ip="10.0.0.2", echo=True)
    link = Link(sim, "l", bandwidth=1e6, delay=0.005)
    src.attach("p", link)
    echo.attach("p", link)
    src.send("p", pkt())
    sim.run()
    assert len(src.received) == 1
    reply = src.received[0]
    assert reply.src == "10.0.0.2" and reply.dst == "10.0.0.1"
    # RTT = 2 * (serialization + propagation)
    assert sim.now == pytest.approx(2 * (0.008 + 0.005))


def test_link_stats_counts_tx():
    sim = Simulator()
    src, _, link = wire(sim)
    src.send("out", pkt(size=1000))
    sim.run()
    stats = link.stats(src)
    assert stats["tx_packets"] == 1
    assert stats["tx_bytes"] == 1000
    assert stats["queued_bytes"] == 0


def test_asymmetric_bandwidth_per_direction():
    """First-attached endpoint's outbound direction gets `bandwidth`,
    the reverse gets `bandwidth_reverse` (the LTE UL/DL split)."""
    sim = Simulator()
    ue = RecordingSink(sim, "ue", ip="10.0.0.1")
    enb = RecordingSink(sim, "enb", ip="10.0.0.2")
    link = Link(sim, "radio", bandwidth=1e6, bandwidth_reverse=4e6,
                delay=0.0)
    ue.attach("p", link)
    enb.attach("p", link)
    ue.send("p", pkt(src="10.0.0.1", dst="10.0.0.2", size=1000))
    sim.run()
    uplink_time = enb.arrival_times[0]
    enb.send("p", pkt(src="10.0.0.2", dst="10.0.0.1", size=1000))
    sim.run()
    downlink_time = ue.arrival_times[0] - uplink_time
    assert uplink_time == pytest.approx(0.008)      # 8000 b / 1 Mbps
    assert downlink_time == pytest.approx(0.002)    # 8000 b / 4 Mbps


def test_invalid_reverse_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "l", bandwidth=1e6, bandwidth_reverse=0.0, delay=0.0)


def test_jitter_blocks_hand_out_the_scalar_draws():
    """Jitter is drawn a block at a time; every packet still gets
    ``delay + uniform(0, jitter)`` of one scalar draw of the same seed,
    in order and across block boundaries, on both the idle send and the
    queued (tx-done) path."""
    bandwidth, delay, jitter = 1e6, 0.01, 0.003
    sim = Simulator()
    src, sink, _ = wire(sim, bandwidth=bandwidth, delay=delay,
                        jitter=jitter, rng=np.random.default_rng(11))
    tx = 100 * 8 / bandwidth
    spaced, burst = 40, 60          # 100 packets: over three blocks
    for i in range(spaced):
        sim.schedule(i * 0.05, src.send, "out", pkt(size=100, packet_id=i))
    start = spaced * 0.05
    sim.schedule(start, lambda: [src.send("out",
                                          pkt(size=100, packet_id=i))
                                 for i in range(spaced, spaced + burst)])
    sim.run()
    # jitter outlasts a transmission, so the burst arrives out of order
    arrivals = dict(zip((p.packet_id for p in sink.received),
                        sink.arrival_times))
    assert spaced + burst > 2 * JITTER_BLOCK + 1
    ref = np.random.default_rng(11)
    expected = [i * 0.05 + (tx + (delay + float(ref.uniform(0.0, jitter))))
                for i in range(spaced)]
    wire_free = start
    for _ in range(burst):
        expected.append(wire_free
                        + (tx + (delay + float(ref.uniform(0.0, jitter)))))
        wire_free = wire_free + tx
    assert [arrivals[i] for i in range(spaced + burst)] == expected


def test_links_on_one_generator_share_its_draws():
    """Two links built on one generator (a radio link made again for a
    cell the UE rejoins) draw from it in send order, as scalar draws
    would, whatever their jitter."""
    sim = Simulator()
    rng = np.random.default_rng(5)
    src = Node(sim, "src")
    sinks, links = [], []
    for k, jitter in enumerate((0.002, 0.005)):
        sink = RecordingSink(sim, f"dst{k}")
        link = Link(sim, f"l{k}", bandwidth=1e6, delay=0.0, jitter=jitter,
                    rng=rng)
        src.attach(f"out{k}", link)
        sink.attach("in", link)
        sinks.append(sink)
        links.append(link)
    order = [k for k in (0, 1, 1, 0, 1) * 15]
    for i, k in enumerate(order):
        sim.schedule(i * 0.01, src.send, f"out{k}", pkt(size=100))
    sim.run()
    ref = np.random.default_rng(5)
    expected = ([], [])
    for i, k in enumerate(order):
        draw = float(ref.uniform(0.0, links[k].jitter))
        expected[k].append(i * 0.01 + (100 * 8 / 1e6 + (0.0 + draw)))
    assert [sink.arrival_times for sink in sinks] == list(expected)


def test_port_for_link_follows_attach_and_detach():
    """The reverse port lookup is a map kept by attach/detach: it
    follows a port re-bound to a new link and a port unbound."""
    sim = Simulator()
    node = Node(sim, "n")
    peers = [Node(sim, f"p{k}") for k in range(3)]
    links = [Link(sim, f"l{k}", bandwidth=1e6, delay=0.0) for k in range(3)]
    for peer, link in zip(peers, links):
        peer.attach("up", link)
    node.attach("a", links[0])
    node.attach("b", links[1])
    assert node.port_for_link(links[0]) == "a"
    assert node.port_for_link(links[1]) == "b"
    assert node.port_for_link(links[2]) is None
    # re-bind "a" (a handover replacing the radio link)
    node.attach("a", links[2])
    assert node.port_for_link(links[2]) == "a"
    assert node.port_for_link(links[0]) is None
    node.detach("b")
    node.detach("b")                     # unbound: a no-op
    assert node.port_for_link(links[1]) is None
    assert node.ports == {"a": links[2]}
