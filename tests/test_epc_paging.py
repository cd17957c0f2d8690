"""Tests for downlink paging of idle UEs."""

import pytest

from repro.core.network import MobileNetwork
from repro.epc.paging import PAGING_MESSAGE, PAGING_RRC
from repro.sim.packet import Packet
from tests.recording import MessageRecorder


@pytest.fixture()
def network():
    return MobileNetwork()


def go_idle(network, ue):
    network.control_plane.release_to_idle(ue)
    assert not ue.rrc_connected


def server_sends(network, ue, size=300):
    server = network.servers["internet"]
    packet = Packet(src=server.ip, dst=ue.ip, size=size,
                    created_at=network.sim.now)
    server.send("net", packet)


def test_downlink_to_idle_ue_triggers_page(network):
    ue = network.add_ue()
    go_idle(network, ue)
    server_sends(network, ue)
    network.sim.run(until=1.0)
    assert network.paging.pages_sent == 1
    assert network.paging.packets_buffered == 1


def test_paged_packet_is_delivered_after_service_request(network):
    ue = network.add_ue()
    go_idle(network, ue)
    replies = []
    ue.on_downlink = replies.append
    server_sends(network, ue)
    network.sim.run(until=2.0)
    assert len(replies) == 1
    assert ue.rrc_connected
    assert ue.promotions == 1


def test_paging_messages_recorded(network):
    ue = network.add_ue()
    go_idle(network, ue)
    recorder = MessageRecorder(network.hooks)
    server_sends(network, ue)
    network.sim.run(until=2.0)
    names = [msg.name for msg in recorder.messages]
    assert "DownlinkDataNotification" in names
    assert PAGING_MESSAGE.name in names
    assert PAGING_RRC.name in names


def test_burst_buffered_and_flushed_in_order(network):
    ue = network.add_ue()
    go_idle(network, ue)
    replies = []
    ue.on_downlink = lambda p: replies.append(p.meta.get("seq"))
    server = network.servers["internet"]
    for seq in range(5):
        packet = Packet(src=server.ip, dst=ue.ip, size=300,
                        created_at=network.sim.now, meta={"seq": seq})
        server.send("net", packet)
    network.sim.run(until=2.0)
    # all five arrive (radio jitter may reorder them, as real HARQ does)
    assert sorted(replies) == [0, 1, 2, 3, 4]
    assert network.paging.pages_sent == 1       # one page for the burst


def test_buffer_limit_drops_overflow(network):
    network.paging.buffer_packets = 3
    ue = network.add_ue()
    go_idle(network, ue)
    server = network.servers["internet"]
    for _ in range(6):
        server_sends(network, ue)
    network.sim.run(until=2.0)
    assert network.paging.packets_dropped == 3
    assert network.paging.packets_buffered == 3


def test_connected_ue_needs_no_paging(network):
    ue = network.add_ue()
    replies = []
    ue.on_downlink = replies.append
    server_sends(network, ue)
    network.sim.run(until=1.0)
    assert len(replies) == 1
    assert network.paging.pages_sent == 0


def test_paging_latency_dominates_first_packet(network):
    """First downlink packet after idle pays paging + service request."""
    ue = network.add_ue()
    go_idle(network, ue)
    arrival = []
    ue.on_downlink = lambda p: arrival.append(network.sim.now)
    t0 = network.sim.now
    server_sends(network, ue)
    network.sim.run(until=3.0)
    assert arrival
    first_delay = arrival[0] - t0
    assert first_delay > network.paging.paging_delay


def test_two_ues_paged_independently(network):
    ue1 = network.add_ue()
    ue2 = network.add_ue()
    go_idle(network, ue1)
    go_idle(network, ue2)
    server_sends(network, ue1)
    server_sends(network, ue2)
    network.sim.run(until=2.0)
    assert network.paging.pages_sent == 2
    assert ue1.rrc_connected and ue2.rrc_connected
