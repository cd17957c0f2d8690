"""Fluid data-plane tests: identity, equivalence, faults, accounting.

The fluid-bg data plane must be a drop-in for per-packet background
load: with it *off* (the default) nothing changes byte-for-byte; with
it *on*, foreground CI traffic must land in the same RTT regimes the
per-packet plane produces, at a small fraction of the event count,
and fluid byte drops must surface through the normal
``PacketDropped``/``drop_counts`` taxonomy.
"""

import numpy as np
import pytest

from repro.core.config import NetworkConfig, SimConfig
from repro.core.network import MobileNetwork, Pinger
from repro.epc.entities import ServicePolicy
from repro.exp.spec import TrialSpec
from repro.exp.workloads import run_ping
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.sim.context import SimContext
from repro.sim.engine import Simulator
from repro.sim.fluid import (_STATIONARY_MAX, FluidDomain, FluidFlow,
                             FluidLink, FluidQueue)
from repro.sim.hooks import PacketDropped
from repro.sim.link import Link
from repro.sim.monitor import LatencyProbe
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Packet
from repro.sim.traffic import GreedySource, PoissonSource


def ping_trial(seed=17, **params):
    merged = {"system": "conventional", "rtt_ms": 70, "count": 4,
              "interval": 0.4, "warmup": 2.0, "tail": 3.0}
    merged.update(params)
    return TrialSpec(experiment="test-fluid", index=0, workload="ping",
                     base_seed=seed, seed=seed,
                     params=tuple(merged.items()))


# ---------------------------------------------------------------------------
# mode off: plumbing is a byte-identical no-op
# ---------------------------------------------------------------------------

def test_packet_mode_is_unchanged_by_the_plumbing():
    """data_plane="packet" (explicit or defaulted) gives identical
    results: the fluid wiring must be invisible when off."""
    base = run_ping(ping_trial(bg_mbps=2))
    explicit = run_ping(ping_trial(bg_mbps=2, data_plane="packet"))
    assert base == explicit


def test_fluid_mode_identical_without_background():
    """With zero background there are no fluid flows, so fluid-bg mode
    must reproduce packet mode exactly."""
    packet = run_ping(ping_trial(bg_mbps=0))
    fluid = run_ping(ping_trial(bg_mbps=0, data_plane="fluid-bg"))
    assert packet == fluid


def test_unknown_data_plane_rejected():
    with pytest.raises(ValueError, match="unknown data plane"):
        SimConfig(data_plane="quantum")


# ---------------------------------------------------------------------------
# fig 3(g): fluid vs packet equivalence across the load sweep
# ---------------------------------------------------------------------------

def _sweep_cell(bg_mbps, data_plane, system="conventional"):
    out = run_ping(ping_trial(bg_mbps=bg_mbps, data_plane=data_plane,
                              system=system))
    return out["median_rtt_ms"], out["answered"]


def test_fig3g_equivalence_below_saturation():
    """Under the CPU knee (80 of ~90 Mbit/s) both planes sit near the
    unloaded 70 ms RTT."""
    packet, _ = _sweep_cell(80, "packet")
    fluid, _ = _sweep_cell(80, "fluid-bg")
    assert packet < 150.0
    assert fluid < 150.0
    assert 0.25 < fluid / packet < 4.0


def test_fig3g_equivalence_beyond_saturation():
    """Past the knee both planes explode into the queue-bloat regime
    and agree within a small factor."""
    packet, answered_p = _sweep_cell(100, "packet")
    fluid, answered_f = _sweep_cell(100, "fluid-bg")
    assert packet > 300.0
    assert fluid > 300.0
    assert 0.25 < fluid / packet < 4.0
    assert answered_f == answered_p


def test_fig10b_acacia_isolated_from_fluid_background():
    """The MEC path doesn't share the central gateways: heavy fluid
    background must leave the ACACIA RTT at its ~14 ms floor, exactly
    as the per-packet plane shows."""
    packet, _ = _sweep_cell(80, "packet", system="acacia")
    fluid, _ = _sweep_cell(100, "fluid-bg", system="acacia")
    assert fluid < 20.0
    assert abs(fluid - packet) < 5.0


@pytest.mark.parametrize("bg_mbps", [40, 80, 100])
def test_fig3g_event_count_reduction(bg_mbps):
    """The fluid plane's reason to exist: >= 20x fewer events than the
    per-packet plane at every Figure 3(g) background load."""
    def events(data_plane):
        config = NetworkConfig(seed=17,
                               sim=SimConfig(data_plane=data_plane))
        network = MobileNetwork(config)
        ue = network.add_ue()
        network.add_background_load(rate=bg_mbps * 1e6).start()
        pinger = Pinger(network, ue, "internet", size=1000, interval=0.4)
        pinger.run(count=4, start=1.0)
        network.sim.run(until=4.0)
        pinger.close()
        return network.sim.events_run

    assert events("packet") / events("fluid-bg") >= 20.0


# ---------------------------------------------------------------------------
# faults: a flapping fluid link re-solves rates and books drops
# ---------------------------------------------------------------------------

def test_link_flap_over_fluid_background():
    network = MobileNetwork(NetworkConfig(
        seed=3, sim=SimConfig(data_plane="fluid-bg")))
    flow = network.add_background_load(rate=40e6).start()
    FaultInjector(network, FaultPlan((
        LinkFlap(link="s5.central", at=2.0, period=2.0, duty=0.5,
                 until=8.0),))).arm()
    network.sim.run(until=10.0)
    flow.sync()

    s5 = network.links["s5.central"]
    assert isinstance(s5, FluidLink)
    assert s5.up
    # 3 outage seconds out of 10: roughly 30% of the offered bytes die
    # on the down link, the rest are delivered
    offered = flow.bytes_offered
    assert offered == pytest.approx(40e6 / 8 * 10.0, rel=0.01)
    assert 0.2 * offered < flow.bytes_dropped < 0.4 * offered
    assert flow.bytes_delivered == pytest.approx(
        offered - flow.bytes_dropped, rel=0.01)
    # the aggregate drops surfaced in the packet-drop taxonomy
    assert s5.drop_counts.get("link-down", 0) > 0
    # back up: the re-solved delivery rate recovered to the full rate
    assert flow.delivered_rate == pytest.approx(40e6, rel=0.01)


def test_fluid_rates_resolve_on_link_state_change():
    sim = Simulator()
    a, b = Node(sim, "a", ip="10.0.0.1"), Node(sim, "b", ip="10.0.0.2")
    link = FluidLink(sim, "l", bandwidth=10e6, delay=0.001,
                     queue_bytes=100_000)
    a.attach("out", link)
    b.attach("in", link)
    domain = FluidDomain(sim)
    flow = FluidFlow(domain, "f", src_ip=a.ip, dst_ip=b.ip, rate=4e6)
    flow.add_link(link, a)
    flow.start()
    sim.run(until=1.0)
    assert flow.delivered_rate == pytest.approx(4e6)
    assert domain.resolves == 1
    link.set_up(False)
    assert flow.delivered_rate == 0.0
    sim.run(until=2.0)
    link.set_up(True)
    assert flow.delivered_rate == pytest.approx(4e6)
    flow.sync()
    # the down second's bytes died, the rest got through
    assert flow.bytes_dropped == pytest.approx(4e6 / 8, rel=0.01)


# ---------------------------------------------------------------------------
# drop taxonomy: fluid byte drops become aggregate PacketDropped events
# ---------------------------------------------------------------------------

def overloaded_link(rate=2e6, bandwidth=1e6, queue_bytes=50_000):
    sim = Simulator()
    a, b = Node(sim, "a", ip="10.0.0.1"), Node(sim, "b", ip="10.0.0.2")
    link = FluidLink(sim, "l", bandwidth=bandwidth, delay=0.001,
                     queue_bytes=queue_bytes)
    a.attach("out", link)
    b.attach("in", link)
    domain = FluidDomain(sim)
    flow = FluidFlow(domain, "f", src_ip=a.ip, dst_ip=b.ip, rate=rate)
    flow.add_link(link, a)
    return sim, link, flow


def test_fluid_overflow_drops_in_taxonomy():
    sim, link, flow = overloaded_link()
    drops = []
    sim.hooks.on(PacketDropped, drops.append)
    flow.start()
    sim.run(until=10.0)
    flow.sync()

    # 2 Mbit/s into 1 Mbit/s: after the 0.4 s buffer fill, half the
    # offered bytes overflow
    assert flow.bytes_dropped == pytest.approx(
        (10.0 - 0.4) * 1e6 / 8, rel=0.02)
    booked = link.drop_counts.get("queue-overflow", 0)
    assert booked * flow.packet_size == pytest.approx(
        flow.bytes_dropped, rel=0.02)
    assert drops, "aggregate PacketDropped events must be emitted"
    event = drops[0]
    assert event.reason == "queue-overflow"
    assert event.link is link
    assert event.packet.flow_id == flow.flow_id
    assert event.packet.meta["fluid_packets"] >= 1
    assert sum(e.packet.meta["fluid_packets"] for e in drops) == booked


def test_fluid_drop_events_weighted_in_latency_probe():
    sim, link, flow = overloaded_link()
    probe = LatencyProbe(sim).watch_drops()
    flow.start()
    sim.run(until=10.0)
    booked = link.drop_counts["queue-overflow"]
    assert probe.lost == booked
    assert probe.lost_reasons["queue-overflow"] == booked
    assert probe.flows[flow.flow_id].drops == booked


def test_per_packet_traffic_respects_fluid_occupancy():
    """A packet arriving at a fluid-saturated link shares its buffer
    with the fluid backlog: it is either delayed by the residual
    service or dropped at the full buffer."""
    sim, link, flow = overloaded_link()
    flow.start()
    sim.run(until=5.0)       # buffer is fluid-full by now
    a = link._endpoints[0]
    delivered = []
    sim.hooks.on(PacketDropped, delivered.append)
    link.transmit(a, Packet(src="10.0.0.1", dst="10.0.0.2", size=1400))
    assert delivered and delivered[0].reason == "queue-overflow"


def test_packet_wait_from_fluid_backlog():
    sim = Simulator()
    queue = FluidQueue(sim, capacity=1e6, buffer=8e6)   # units: bits
    domain = FluidDomain(sim)
    domain.register_queue(queue)
    flow = FluidFlow(domain, "f", src_ip="a", dst_ip="b", rate=2e6)
    entry = queue.attach(flow, scale=8.0, priority=9)
    flow._hops.append((queue, entry, 0.0))
    flow.start()
    sim.run(until=2.0)
    queue.advance(sim.now)
    # 2 s at +1 Mbit/s net: 2 Mbit of backlog
    assert queue.backlog == pytest.approx(2e6, rel=1e-6)
    # a better-priority packet (lower number) is not blocked by the
    # best-effort fluid; a FIFO arrival waits the full drain time
    assert queue.packet_wait(sim.now, priority=7) == pytest.approx(
        0.0, abs=1e-3)
    # FIFO arrival waits at least the backlog drain time (2 s), plus a
    # bounded stationary-queueing term for the overloaded server
    fifo_wait = queue.packet_wait(sim.now, priority=None)
    assert 2.0 <= fifo_wait <= 2.6
    # an equal-or-worse priority arrival is starved by the saturating
    # fluid: capped at the full-buffer drain time
    assert queue.packet_wait(sim.now, priority=100) == pytest.approx(
        8.0, rel=1e-6)


def reference_packet_wait(queue, now, priority=None):
    """The per-packet wait without the wait table: masked numpy
    reductions over the queue's entry arrays on every call."""
    queue.advance(now)
    if not queue._entries:
        return 0.0
    rates = queue._rates
    total = queue.in_rate
    if priority is None:
        mask = None
        blocking = total
    else:
        mask = queue._priorities <= priority
        blocking = float(rates[mask].sum())
    if blocking <= 0.0 and queue.backlog <= 0.0:
        return 0.0
    capacity = queue.capacity
    if total > 0.0:
        backlog = queue.backlog * (blocking / total)
    else:
        backlog = queue.backlog
    if priority is None:
        wait = backlog / capacity
    else:
        residual = capacity - blocking
        if residual > capacity * 1e-9:
            wait = backlog / residual
        else:
            wait = float("inf")
    wait += reference_stationary_wait(queue, mask, blocking)
    if queue.buffer is not None:
        wait = min(wait, queue.buffer / capacity)
    return wait


def reference_stationary_wait(queue, mask, blocking):
    if blocking <= 0.0:
        return 0.0
    if mask is None:
        varying = float((queue._rates * queue._vars).sum())
        pps = float((queue._rates / queue._upp).sum())
    else:
        varying = float((queue._rates * queue._vars)[mask].sum())
        pps = float((queue._rates / queue._upp)[mask].sum())
    if varying <= 0.0 or pps <= 0.0:
        return 0.0
    rho = blocking / queue.capacity
    if rho >= 1.0:
        factor = _STATIONARY_MAX
    else:
        factor = min(rho / (2.0 * (1.0 - rho)), _STATIONARY_MAX)
    service = blocking / queue.capacity / pps
    return (varying / blocking) * factor * service


#: Priorities a packet may ask with: FIFO, better than, equal to and
#: worse than the fluid entries' priorities (1, 5, 9, 100).
ORACLE_PRIORITIES = (None, 0, 1, 3, 5, 9, 100, 200)


def _oracle_world(rng):
    """A random fluid world: a strict-priority link, a FIFO link, a
    gateway CPU (unbounded FIFO) and an unbounded priority queue."""
    sim = Simulator()
    a, b, c = (Node(sim, n, ip=f"10.0.0.{i}")
               for i, n in enumerate("abc", 1))
    qos = FluidLink(sim, "qos", bandwidth=10e6, delay=0.001,
                    queue_bytes=int(rng.integers(20_000, 200_000)),
                    qos_priority=True)
    fifo = FluidLink(sim, "fifo", bandwidth=8e6, delay=0.001,
                     queue_bytes=int(rng.integers(20_000, 200_000)))
    a.attach("out", qos)
    b.attach("in", qos)
    b.attach("out", fifo)
    c.attach("in", fifo)
    for qci, priority in ((1, 1), (5, 5), (9, 9)):
        qos.set_qci_priority(qci, priority)
    domain = FluidDomain(sim)
    cpu = domain.cpu_queue("gw")
    open_queue = domain.register_queue(
        FluidQueue(sim, capacity=5e6, buffer=None, name="open"))
    return sim, domain, (qos, fifo), (cpu, open_queue), (a, b)


def _oracle_flow(rng, domain, links, servers, senders, index):
    qos, fifo = links
    cpu, open_queue = servers
    a, b = senders
    qci = [None, 1, 5, 9][int(rng.integers(4))]
    flow = FluidFlow(domain, f"f{index}", src_ip="10.0.0.1",
                     dst_ip="10.0.0.3", rate=float(rng.uniform(1e6, 8e6)),
                     qci=qci)
    flow.add_link(qos, a)
    if rng.random() < 0.7:
        flow.add_server(cpu, float(rng.uniform(1e-5, 5e-4)))
    if rng.random() < 0.7:
        flow.add_link(fifo, b)
    if rng.random() < 0.7:
        entry = open_queue.attach(flow, scale=8.0,
                                  priority=qos.priority_of_qci(qci))
        flow._hops.append((open_queue, entry, 0.0))
    return flow


def test_wait_table_matches_the_per_packet_formula():
    """Every wait the table gives equals the per-packet formula
    exactly, across start/stop/set_rate/link-flap resolves, flows
    attached after a solve, FIFO and priority queues, finite and
    unbounded buffers, and starved priorities."""
    kinds = set()
    for seed in range(8):
        _replay_against_reference(seed, kinds)
    # zero, finite and both starved outcomes (capped by a finite
    # buffer, or infinite without one) were all compared
    assert kinds == {"zero", "finite", "capped", "inf"}


def _replay_against_reference(seed, kinds):
    rng = np.random.default_rng(seed)
    sim, domain, links, servers, senders = _oracle_world(rng)
    flows = [_oracle_flow(rng, domain, links, servers, senders, i)
             for i in range(3)]
    flows[0].start()
    ops = ["start", "stop", "set_rate", "flap", "attach"] * 2
    ops += list(rng.choice(ops, size=6))
    rng.shuffle(ops)

    def check():
        queues = [q for link in links for q in link.fluid_queues()]
        for queue in queues + list(servers):
            for priority in ORACLE_PRIORITIES:
                expected = reference_packet_wait(queue, sim.now, priority)
                assert queue.packet_wait(sim.now, priority) == expected, \
                    (queue.name, priority)
                kinds.add("zero" if expected == 0.0
                          else "inf" if expected == float("inf")
                          else "capped" if queue.buffer is not None
                          and expected == queue.buffer / queue.capacity
                          else "finite")

    for op in ops:
        check()
        flow = flows[int(rng.integers(len(flows)))]
        if op == "start":
            flow.start()
        elif op == "stop":
            flow.stop()
        elif op == "set_rate":
            flow.set_rate(float(rng.uniform(1e6, 12e6)))
        elif op == "flap":
            link = links[int(rng.integers(2))]
            link.set_up(not link.up)
        else:
            flows.append(_oracle_flow(rng, domain, links, servers,
                                      senders, len(flows)))
        check()
        sim.run(until=sim.now + float(rng.uniform(0.05, 1.5)))
    check()


def _gateway_cpu(costs):
    """A gateway CPU serving one started flow per entry of ``costs``
    (CPU-seconds per packet)."""
    sim = Simulator()
    domain = FluidDomain(sim)
    cpu = domain.cpu_queue("gw")
    flows = []
    for i, cost in enumerate(costs):
        flow = FluidFlow(domain, f"f{i}", src_ip="10.0.0.1",
                         dst_ip="10.0.0.2", rate=8e6)
        flow.add_server(cpu, cost)
        flows.append(flow.start())
    sim.run(until=0.5)
    return sim, cpu, flows


def test_zero_cost_server_flow_leaves_the_cpu_wait_finite():
    """A flow that costs the CPU nothing adds no packets to serve: the
    wait equals the costed flow's alone, before and after it stops."""
    _, alone_cpu, _ = _gateway_cpu([1e-4])
    sim, cpu, flows = _gateway_cpu([1e-4, 0.0])
    with np.errstate(invalid="raise", divide="raise"):
        for priority in (None, 100):
            alone = alone_cpu.packet_wait(0.5, priority)
            assert 0.0 < alone < float("inf")
            assert cpu.packet_wait(sim.now, priority) == alone
        flows[1].stop()
        sim.run(until=1.0)
        for priority in (None, 100):
            alone = alone_cpu.packet_wait(0.5, priority)
            assert cpu.packet_wait(sim.now, priority) == alone


def test_fluid_queue_validation():
    sim = Simulator()
    with pytest.raises(ValueError, match="capacity"):
        FluidQueue(sim, capacity=0.0)
    domain = FluidDomain(sim)
    with pytest.raises(ValueError, match="rate"):
        FluidFlow(domain, "f", src_ip="a", dst_ip="b", rate=0.0)
    flow = FluidFlow(domain, "f", src_ip="a", dst_ip="b", rate=1.0)
    with pytest.raises(ValueError, match="rate"):
        flow.set_rate(-1.0)


# ---------------------------------------------------------------------------
# delivery accounting: byte and packet counters after sync()
# ---------------------------------------------------------------------------

def test_fluid_flow_delivered_bytes_track_rate():
    sim = Simulator()
    a = Node(sim, "a", ip="10.0.0.1")
    b = Node(sim, "b", ip="10.0.0.2")
    link = FluidLink(sim, "l", bandwidth=10e6, delay=0.001,
                     queue_bytes=100_000)
    a.attach("out", link)
    b.attach("in", link)
    domain = FluidDomain(sim)
    flow = FluidFlow(domain, "f", src_ip=a.ip, dst_ip=b.ip, rate=4e6)
    flow.add_link(link, a)
    flow.start()
    sim.run(until=4.0)

    flow.sync()
    assert flow.bytes_delivered == pytest.approx(4e6 / 8 * 4.0, rel=0.01)
    assert flow.delivered_rate == pytest.approx(4e6, rel=0.01)
    # syncing twice must not double-count
    flow.sync()
    assert flow.bytes_delivered == pytest.approx(4e6 / 8 * 4.0, rel=0.01)
    sim.run(until=6.0)
    flow.sync()
    assert flow.bytes_delivered == pytest.approx(4e6 / 8 * 6.0, rel=0.01)


def test_fluid_flow_counts_whole_packets_delivered():
    sim = Simulator()
    domain = FluidDomain(sim)
    queue = FluidQueue(sim, capacity=1e9)
    domain.register_queue(queue)
    flow = FluidFlow(domain, "f", src_ip="a", dst_ip="b", rate=8e6)
    entry = queue.attach(flow, scale=8.0)
    flow._hops.append((queue, entry, 0.0))
    flow.start()
    sim.run(until=3.0)

    flow.sync()
    # 1 MB/s for 3 s of 1400 B packets
    assert flow.packets_delivered == int(3e6 // 1400)
    assert flow.bytes_delivered == pytest.approx(3e6, rel=0.01)
    flow.sync()      # idempotent
    assert flow.packets_delivered == int(3e6 // 1400)


# ---------------------------------------------------------------------------
# RNG streams: sources draw from named SimContext streams
# ---------------------------------------------------------------------------

def test_poisson_source_uses_named_context_stream():
    def arrivals(source_ctx):
        ctx = SimContext(7)
        sim = ctx.sim
        sink = PacketSink(sim, "sink", ip="10.0.0.2")
        link = Link(sim, "l", bandwidth=1e9, delay=0.0)
        src = PoissonSource(sim, "src", dst=sink.ip, rate=8e6, ip="10.0.0.1",
                            **source_ctx(ctx))
        src.attach("out", link)
        sink.attach("in", link)
        src.start()
        sim.run(until=0.5)
        return src.packets_sent

    by_ctx = arrivals(lambda ctx: {"ctx": ctx})
    by_stream = arrivals(lambda ctx: {"ctx": ctx, "stream": "traffic.src"})
    by_rng = arrivals(lambda ctx: {"rng": ctx.rng("traffic.src")})
    assert by_ctx == by_stream == by_rng > 0


def test_poisson_source_rng_validation():
    ctx = SimContext(7)
    sim = ctx.sim
    with pytest.raises(ValueError, match="ctx"):
        PoissonSource(sim, "src", dst="d", rate=8e6)
    with pytest.raises(ValueError, match="not both"):
        PoissonSource(sim, "src", dst="d", rate=8e6, ctx=ctx,
                      rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="stream requires"):
        PoissonSource(sim, "src", dst="d", rate=8e6,
                      rng=np.random.default_rng(0), stream="traffic.x")


def test_greedy_source_deterministic_without_jitter():
    ctx = SimContext(7)
    sim = ctx.sim
    src = GreedySource(sim, "g", dst="d", ctx=ctx)
    assert src.rng is ctx.rng("traffic.g")
    with pytest.raises(ValueError, match="ack_jitter"):
        GreedySource(sim, "g2", dst="d", ack_jitter=0.001)
    with pytest.raises(ValueError, match="non-negative"):
        GreedySource(sim, "g3", dst="d", ctx=ctx, ack_jitter=-1.0)


def test_network_background_stream_names_unchanged():
    """The packet-mode bg source must keep drawing from net.bg.<i>:
    that stream identity is what the preset byte-identity gate pins."""
    network = MobileNetwork(NetworkConfig(seed=5))
    source = network.add_background_load(rate=1e6)
    assert source.rng is network.ctx.rng("net.bg.1")


# ---------------------------------------------------------------------------
# lifecycle: removal and re-addition in fluid mode
# ---------------------------------------------------------------------------

def test_fluid_background_add_remove():
    network = MobileNetwork(NetworkConfig(
        seed=11, sim=SimConfig(data_plane="fluid-bg")))
    flow = network.add_background_load(rate=20e6).start()
    assert flow.name == "bg1"
    network.sim.run(until=1.0)
    flow.stop()
    assert not flow.active
    network.sim.run(until=2.0)
    flow.sync()
    assert flow.bytes_offered == pytest.approx(20e6 / 8, rel=0.01)
    # a second load gets a fresh name and runs independently
    flow2 = network.add_background_load(rate=10e6).start()
    assert flow2.name == "bg2"
    network.sim.run(until=3.0)
    flow2.sync()
    assert flow2.bytes_offered == pytest.approx(10e6 / 8, rel=0.01)
