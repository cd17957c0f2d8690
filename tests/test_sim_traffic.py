"""Unit tests for traffic generators and measurement probes."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import LatencyProbe, ThroughputMeter
from repro.sim.node import PacketSink
from repro.sim.traffic import CBRSource, GreedySource, PoissonSource
from tests.recording import RecordingSink


def test_cbr_rate_is_accurate():
    sim = Simulator()
    src = CBRSource(sim, "cbr", dst="10.0.0.2", rate=8e6, packet_size=1000)
    sink = RecordingSink(sim, "sink", ip="10.0.0.2")
    link = Link(sim, "l", bandwidth=100e6, delay=0.0)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=1.0)
    src.stop()
    # 8 Mbps at 8000 bits/packet -> 1000 packets/sec
    assert 995 <= len(sink.received) <= 1005


def test_cbr_stop_halts_traffic():
    sim = Simulator()
    src = CBRSource(sim, "cbr", dst="d", rate=8e6, packet_size=1000)
    sink = RecordingSink(sim, "sink", ip="d")
    link = Link(sim, "l", bandwidth=100e6, delay=0.0)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=0.5)
    src.stop()
    count = len(sink.received)
    sim.run(until=1.0)
    assert len(sink.received) == count


def test_cbr_rejects_nonpositive_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        CBRSource(sim, "cbr", dst="d", rate=0)


def test_poisson_mean_rate():
    sim = Simulator()
    rng = np.random.default_rng(7)
    src = PoissonSource(sim, "poisson", dst="d", rate=8e6, rng=rng,
                        packet_size=1000)
    sink = PacketSink(sim, "sink", ip="d")
    link = Link(sim, "l", bandwidth=1e9, delay=0.0)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=5.0)
    src.stop()
    rate = sink.bytes_received * 8 / 5.0
    assert rate == pytest.approx(8e6, rel=0.1)


def test_greedy_source_saturates_bottleneck():
    sim = Simulator()
    src = GreedySource(sim, "greedy", dst="d", packet_size=1000, window=32,
                       ip="s")
    sink = PacketSink(sim, "sink", ip="d", echo=True)
    link = Link(sim, "l", bandwidth=10e6, delay=0.001,
                queue_bytes=64 * 1000)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=2.0)
    # payload goodput should be close to the 10 Mbps line rate
    assert src.goodput(2.0) == pytest.approx(10e6, rel=0.05)


def test_greedy_source_keeps_window_in_flight():
    sim = Simulator()
    src = GreedySource(sim, "greedy", dst="d", packet_size=1000, window=8,
                       ip="s")
    sink = PacketSink(sim, "sink", ip="d", echo=True)
    link = Link(sim, "l", bandwidth=10e6, delay=0.001, queue_bytes=10**6)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=1.0)
    in_flight = src.packets_sent - src.acks_received
    assert in_flight == 8


def test_latency_probe_collects_per_flow():
    sim = Simulator()
    probe = LatencyProbe(sim)
    src = CBRSource(sim, "cbr", dst="d", rate=1e6, packet_size=1000, ip="s")
    sink = PacketSink(sim, "sink", ip="d", on_packet=probe)
    link = Link(sim, "l", bandwidth=10e6, delay=0.005)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=0.1)
    src.stop()
    stats = probe.flow(src.flow_id)
    assert stats.packets > 0
    # one-way delay = 0.8 ms serialization + 5 ms propagation
    assert stats.mean_latency == pytest.approx(0.0058, rel=0.01)


def test_throughput_meter_series():
    sim = Simulator()
    meter = ThroughputMeter(sim, window=0.5)
    src = CBRSource(sim, "cbr", dst="d", rate=4e6, packet_size=1000, ip="s")
    sink = PacketSink(sim, "sink", ip="d", on_packet=meter)
    link = Link(sim, "l", bandwidth=100e6, delay=0.0)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.run(until=3.0)
    src.stop()
    _, bps = meter.series()
    assert len(bps) >= 5
    assert meter.mean_throughput() == pytest.approx(4e6, rel=0.05)


def test_throughput_meter_rejects_bad_window():
    sim = Simulator()
    with pytest.raises(ValueError):
        ThroughputMeter(sim, window=0.0)


def test_latency_probe_watch_drops_counts_per_flow():
    sim = Simulator()
    probe = LatencyProbe(sim).watch_drops()
    src = CBRSource(sim, "cbr", dst="d", rate=1e6, packet_size=1000, ip="s")
    sink = PacketSink(sim, "sink", ip="d", on_packet=probe)
    link = Link(sim, "l", bandwidth=10e6, delay=0.005)
    src.attach("out", link)
    sink.attach("in", link)
    src.start()
    sim.schedule(0.05, link.set_up, False)       # cut mid-run
    sim.run(until=0.1)
    src.stop()
    stats = probe.flow(src.flow_id)
    assert stats.packets > 0 and stats.drops > 0
    assert 0.0 < stats.loss_rate < 1.0
    assert probe.lost == stats.drops
    assert probe.lost_reasons == {"link-down": stats.drops}
    with pytest.raises(RuntimeError):
        probe.watch_drops()                      # double-watch is a bug
    probe.close()
    probe.close()                                # close is idempotent
