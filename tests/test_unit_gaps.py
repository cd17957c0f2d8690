"""Coverage fill: small units not exercised elsewhere."""

import pytest

from repro.core.config import NetworkConfig
from repro.epc import messages as m
from repro.epc.messages import (REESTABLISH_SEQUENCE, RELEASE_SEQUENCE,
                                ControlMessage)
from repro.epc.overhead import ControlLedger
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


class TestControlLedger:
    def test_by_protocol_and_slice(self):
        ledger = ControlLedger()
        ledger.record(ControlMessage(m.CREATE_BEARER_REQUEST, "a", "b"))
        ledger.record(ControlMessage(m.ERAB_SETUP_REQUEST, "a", "b"))
        ledger.record(ControlMessage(m.CREATE_BEARER_RESPONSE, "b", "a"))
        summary = ledger.by_protocol()
        assert summary["GTPv2"].messages == 2
        assert summary["SCTP"].messages == 1
        view = ledger.slice_since(1)
        assert view.total_messages == 2
        assert len(ledger) == 3
        ledger.clear()
        assert ledger.total_bytes == 0


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
