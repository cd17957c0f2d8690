"""Unit tests for OpenFlow matches, actions and rules."""

import pytest

from repro.epc.gtp import gtp_encapsulate
from repro.sdn.openflow import (FlowMatch, FlowRule, GtpDecap, GtpEncap,
                                Output)
from repro.sim.packet import Packet


def bare_packet(**kw):
    defaults = dict(src="10.45.0.2", dst="203.0.113.10", size=500,
                    protocol="UDP", src_port=40000, dst_port=9000)
    defaults.update(kw)
    return Packet(**defaults)


def tunneled_packet(teid=0x1001):
    return gtp_encapsulate(bare_packet(), teid, "192.168.1.1", "172.16.0.1")


class TestFlowMatch:
    def test_empty_match_is_wildcard(self):
        assert FlowMatch().matches(bare_packet())
        assert FlowMatch().matches(tunneled_packet())

    def test_teid_match(self):
        match = FlowMatch(teid=0x1001)
        assert match.matches(tunneled_packet(0x1001))
        assert not match.matches(tunneled_packet(0x9999))
        assert not match.matches(bare_packet())

    def test_inner_fields_visible_through_tunnel(self):
        match = FlowMatch(teid=0x1001, dst_ip="203.0.113.10")
        assert match.matches(tunneled_packet())

    def test_five_tuple_fields(self):
        match = FlowMatch(src_ip="10.45.0.2", protocol="UDP", dst_port=9000)
        assert match.matches(bare_packet())
        assert not match.matches(bare_packet(protocol="TCP"))
        assert not match.matches(bare_packet(dst_port=80))
        assert not match.matches(bare_packet(src="1.2.3.4"))

    def test_src_port_match(self):
        assert FlowMatch(src_port=40000).matches(bare_packet())
        assert not FlowMatch(src_port=1).matches(bare_packet())


class TestActions:
    def test_encap_then_decap(self):
        pkt = bare_packet()
        pkt = GtpEncap(teid=5, src="a", dst="b").apply(pkt)
        assert pkt.wire_size == 536
        pkt = GtpDecap().apply(pkt)
        assert pkt.wire_size == 500


class TestFlowRule:
    def test_requires_terminal_output(self):
        with pytest.raises(ValueError):
            FlowRule(FlowMatch(), [GtpDecap()])

    def test_output_must_be_last(self):
        with pytest.raises(ValueError):
            FlowRule(FlowMatch(), [Output("a"), GtpDecap()])

    def test_single_output_only(self):
        with pytest.raises(ValueError):
            FlowRule(FlowMatch(), [Output("a"), Output("b")])

    def test_output_port_property(self):
        rule = FlowRule(FlowMatch(), [GtpDecap(), Output("s5")])
        assert rule.output_port == "s5"

    def test_counters(self):
        rule = FlowRule(FlowMatch(), [Output("p")])
        rule.record(bare_packet())
        assert rule.packets == 1
        assert rule.bytes == 500
