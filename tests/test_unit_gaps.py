"""Coverage fill: small units not exercised elsewhere."""

import pytest

from repro.core.config import NetworkConfig
from repro.epc import messages as m
from repro.epc.messages import (REESTABLISH_SEQUENCE, RELEASE_SEQUENCE,
                                ControlMessage)
from repro.epc.overhead import combined_by_protocol
from repro.epc.procedures import ProcedureResult
from repro.sim.engine import Simulator
from repro.sim.monitor import FlowStats
from repro.sim.packet import Packet


class TestMessageRegistry:
    def _all_message_types(self):
        return [value for value in vars(m).values()
                if isinstance(value, m.MessageType)]

    def test_all_sizes_positive(self):
        for mtype in self._all_message_types():
            assert mtype.size > 0, mtype.name

    def test_known_protocols_only(self):
        protocols = {mt.protocol for mt in self._all_message_types()}
        assert protocols <= {"SCTP", "GTPv2", "OpenFlow", "Diameter",
                             "RRC", "X2AP"}

    def test_release_sequence_calibration(self):
        assert len(RELEASE_SEQUENCE) == 7
        assert sum(mt.size for mt in RELEASE_SEQUENCE) == 1174

    def test_reestablish_sequence_calibration(self):
        assert len(REESTABLISH_SEQUENCE) == 8
        total = (sum(mt.size for mt in RELEASE_SEQUENCE)
                 + sum(mt.size for mt in REESTABLISH_SEQUENCE))
        assert total == 2914

    def test_control_message_wraps_type(self):
        msg = ControlMessage(m.CREATE_BEARER_REQUEST, "a", "b",
                             {"k": 1})
        assert msg.protocol == "GTPv2"
        assert msg.size == m.CREATE_BEARER_REQUEST.size
        assert msg.fields["k"] == 1


class TestProtocolCounters:
    def test_counts_and_bytes_per_protocol(self):
        result = ProcedureResult("probe")
        assert result.message_count == result.byte_count == 0
        result.count_message(ControlMessage(m.CREATE_BEARER_REQUEST, "a", "b"))
        result.count_message(ControlMessage(m.ERAB_SETUP_REQUEST, "a", "b"))
        result.count_message(ControlMessage(m.CREATE_BEARER_RESPONSE, "b", "a"))
        assert result.by_protocol == {
            "GTPv2": [2, m.CREATE_BEARER_REQUEST.size
                      + m.CREATE_BEARER_RESPONSE.size],
            "SCTP": [1, m.ERAB_SETUP_REQUEST.size]}
        assert result.message_count == 3
        assert result.byte_count == (m.CREATE_BEARER_REQUEST.size
                                     + m.ERAB_SETUP_REQUEST.size
                                     + m.CREATE_BEARER_RESPONSE.size)

    def test_combined_by_protocol_sums_results(self):
        first, second = ProcedureResult("a"), ProcedureResult("b")
        first.count_message(ControlMessage(m.CREATE_BEARER_REQUEST, "a", "b"))
        second.count_message(ControlMessage(m.DELETE_BEARER_REQUEST, "a", "b"))
        second.count_message(ControlMessage(m.AA_REQUEST, "a", "b"))
        assert combined_by_protocol(first, second) == {
            "GTPv2": [2, m.CREATE_BEARER_REQUEST.size
                      + m.DELETE_BEARER_REQUEST.size],
            "Diameter": [1, m.AA_REQUEST.size]}
        assert first.by_protocol == {
            "GTPv2": [1, m.CREATE_BEARER_REQUEST.size]}
        assert combined_by_protocol() == {}


class TestFlowStats:
    def test_latency_percentiles(self):
        stats = FlowStats()
        for delay in (0.01, 0.02, 0.03, 0.04):
            packet = Packet(src="a", dst="b", size=10, created_at=0.0)
            stats.record(packet, now=delay)
        assert stats.packets == 4
        assert stats.mean_latency == pytest.approx(0.025)
        assert stats.percentile(50) == pytest.approx(0.025)
        assert FlowStats().mean_latency == 0.0
        assert FlowStats().percentile(95) == 0.0


class TestNetworkConfig:
    def test_one_way_delay_helpers(self):
        config = NetworkConfig()
        cloud = config.cloud_one_way_delay()
        mec = config.mec_one_way_delay()
        assert cloud == pytest.approx(0.033)
        assert mec < 0.006
        # the paper's ratios: ~70 ms vs <15 ms RTT
        assert 2 * cloud > 0.06
        assert 2 * mec < 0.015


class TestEngineDrain:
    def test_drain_cancels_collection(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(1.0, fired.append, i) for i in range(5)]
        sim.drain(events[1:4])
        sim.run()
        assert fired == [0, 4]
