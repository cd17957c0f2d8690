"""Timing tests for the UE's RRC idle cycle through the simulator."""

import pytest

from repro.core.config import NetworkConfig
from repro.core.network import MobileNetwork
from repro.epc.overhead import LTE_IDLE_TIMEOUT
from repro.sim.packet import Packet
from tests.recording import MessageRecorder


def build(idle_timeout=None):
    network = MobileNetwork(NetworkConfig(seed=3))
    ue = network.add_ue(manage_idle=True)
    if idle_timeout is not None:
        ue.idle_timeout = idle_timeout
    return network, ue


def send_one(network, ue):
    internet = network.servers["internet"]
    ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                       created_at=network.sim.now))


def test_default_idle_timeout_matches_lte():
    network, ue = build()
    assert ue.idle_timeout == LTE_IDLE_TIMEOUT == 11.576


def test_ue_goes_idle_after_inactivity():
    network, ue = build(idle_timeout=2.0)
    send_one(network, ue)
    network.sim.run(until=1.0)
    assert ue.rrc_connected
    network.sim.run(until=5.0)
    assert not ue.rrc_connected
    assert network.mme.context(ue.imsi).state == "idle"


def test_activity_resets_idle_timer():
    network, ue = build(idle_timeout=2.0)
    # attach consumed measured signalling time, so offsets are from now
    t0 = network.sim.now
    for t in (0.0, 1.5, 3.0, 4.5):
        network.sim.schedule_at(t0 + t, send_one, network, ue)
    network.sim.run(until=t0 + 5.5)
    assert ue.rrc_connected          # gaps never exceeded 2 s
    network.sim.run(until=t0 + 9.0)
    assert not ue.rrc_connected


def test_downlink_traffic_keeps_ue_connected():
    network, ue = build(idle_timeout=3.0)
    # replies from the echo server arrive ~70 ms after each send; the
    # last reply restarts the timer too
    send_one(network, ue)
    network.sim.run(until=2.9)
    assert ue.rrc_connected


def test_idle_cycle_emits_calibrated_messages():
    network, ue = build(idle_timeout=2.0)
    send_one(network, ue)
    recorder = MessageRecorder(network.hooks)
    network.sim.run(until=20.0)          # goes idle
    release_msgs = list(recorder.messages)
    assert len(release_msgs) == 7        # the calibrated release set
    send_one(network, ue)                # promotion
    assert ue.promotions == 1
    total = recorder.messages
    assert len(total) == 15
    assert sum(m.size for m in total) == 2914


def test_repeated_cycles_accumulate_overhead():
    network, ue = build(idle_timeout=1.0)
    t = network.sim.now                   # attach already consumed time
    for _ in range(3):
        network.sim.schedule_at(t, send_one, network, ue)
        t += 5.0                          # long gap -> idle in between
    recorder = MessageRecorder(network.hooks)
    network.sim.run(until=20.0)
    cycle_msgs = recorder.messages
    # 3 releases (7 each) + 2 promotions (8 each) = 37
    assert len(cycle_msgs) == 3 * 7 + 2 * 8
    assert ue.promotions == 2


def test_promotion_latency_applied():
    network, ue = build(idle_timeout=1.0)
    send_one(network, ue)
    network.sim.run(until=10.0)
    assert not ue.rrc_connected
    replies = []
    ue.on_downlink = lambda p: replies.append(network.sim.now)
    t0 = network.sim.now
    send_one(network, ue)
    network.sim.run(until=t0 + 2.0)
    assert len(replies) == 1
    rtt = replies[0] - t0
    assert rtt > ue.promotion_delay
    assert rtt == pytest.approx(ue.promotion_delay + 0.07, abs=0.03)
