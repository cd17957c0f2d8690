"""Unit tests for the packet model and its tunnel (TEID) stack."""

import pytest

from repro.sim.packet import GTP_TUNNEL_OVERHEAD, Packet


def make_packet(**kw):
    defaults = dict(src="10.0.0.1", dst="10.0.0.2", size=1000,
                    protocol="UDP", src_port=1234, dst_port=80)
    defaults.update(kw)
    return Packet(**defaults)


def test_wire_size_is_payload_without_headers():
    assert make_packet(size=500).wire_size == 500


def test_push_header_adds_to_wire_size():
    pkt = make_packet(size=1000)
    pkt.push_teid(0x10)
    assert pkt.wire_size == 1036
    pkt.push_teid(0x20)
    assert pkt.wire_size == 1000 + 2 * GTP_TUNNEL_OVERHEAD == 1072
    pkt.pop_teid()
    assert pkt.wire_size == 1036


def test_pop_header_lifo_order():
    pkt = make_packet()
    pkt.push_teid(1)
    pkt.push_teid(2)
    pkt.push_teid(3)
    assert [pkt.pop_teid() for _ in range(3)] == [3, 2, 1]
    assert pkt.wire_size == 1000


def test_pop_empty_raises():
    with pytest.raises(ValueError):
        make_packet().pop_teid()
    pkt = make_packet()
    pkt.push_teid(7)
    pkt.pop_teid()
    with pytest.raises(ValueError):     # emptied stack: bare again
        pkt.pop_teid()


def test_outer_header():
    pkt = make_packet()
    assert not pkt.teids
    pkt.push_teid(0x10)
    pkt.push_teid(0x20)
    assert pkt.teids == [0x10, 0x20]    # innermost first
    assert pkt.teids[-1] == 0x20


def test_five_tuple():
    pkt = make_packet()
    assert pkt.five_tuple == ("10.0.0.1", "10.0.0.2", "UDP", 1234, 80)


def test_copy_is_independent():
    pkt = make_packet()
    pkt.push_teid(1)
    clone = pkt.copy()
    assert clone.packet_id != pkt.packet_id
    assert clone.teids == [1] and clone.wire_size == pkt.wire_size
    clone.push_teid(2)
    assert pkt.teids == [1]
    assert pkt.pop_teid() == 1
    assert clone.teids == [1, 2]
    clone.meta["x"] = 1
    assert "x" not in pkt.meta


def test_copy_of_bare_packet_stays_bare():
    clone = make_packet().copy()
    assert not clone.teids and clone.wire_size == 1000


def test_packet_ids_unique():
    ids = {make_packet().packet_id for _ in range(100)}
    assert len(ids) == 100
