"""Error-path and edge-case coverage across the data plane."""

import pytest

from repro.core.network import MobileNetwork
from repro.epc.enodeb import ENodeB
from repro.epc.gtp import gtp_encapsulate
from repro.epc.identifiers import FTeid
from repro.epc.ue import UEDevice
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from tests.recording import RecordingSink


class TestUEDeviceErrors:
    def test_send_before_attach_raises(self):
        sim = Simulator()
        ue = UEDevice(sim, "ue", imsi="310410000000001")
        with pytest.raises(RuntimeError, match="not attached"):
            ue.send_app(Packet(src="x", dst="y", size=1))

    def test_unrouted_uplink_counted(self):
        """A packet matching no bearer is dropped at the modem."""
        network = MobileNetwork()
        ue = network.add_ue()
        default = ue.bearers.default_bearer()
        default.active = False          # nothing to classify onto
        ue.rrc_connected = True         # avoid the promotion path
        ue.control_plane = None
        ue.send_app(Packet(src=ue.ip, dst="9.9.9.9", size=10))
        assert ue.unrouted_uplink == 1

    def test_remove_unknown_bearer_raises(self):
        network = MobileNetwork()
        ue = network.add_ue()
        with pytest.raises(KeyError):
            ue.remove_bearer(14)


class TestENodeBErrors:
    def build(self):
        sim = Simulator()
        enb = ENodeB(sim, "enb", ip="192.168.1.1")
        sink = RecordingSink(sim, "sgw", ip="172.16.0.1")
        link = Link(sim, "s1", bandwidth=1e9, delay=0.0)
        enb.attach("s1", link)
        sink.attach("in", link)
        return sim, enb, sink

    def test_uplink_without_bearer_mapping_dropped(self):
        sim, enb, sink = self.build()
        packet = Packet(src="10.45.0.1", dst="x", size=10,
                        meta={"ebi": 5})
        enb.receive(packet, link=None)
        assert enb.unrouted == 1
        assert sink.received == []

    def test_uplink_without_ebi_meta_dropped(self):
        sim, enb, sink = self.build()
        enb.receive(Packet(src="10.45.0.1", dst="x", size=10), link=None)
        assert enb.unrouted == 1

    def test_downlink_unknown_teid_dropped(self):
        sim, enb, sink = self.build()
        packet = gtp_encapsulate(Packet(src="s", dst="10.45.0.1", size=10),
                                 0xdead, "172.16.0.1", enb.ip)
        enb.receive(packet, link=None)
        assert enb.unrouted == 1

    def test_setup_bearer_requires_registered_ue(self):
        sim, enb, sink = self.build()
        with pytest.raises(KeyError, match="not registered"):
            enb.setup_bearer("10.45.0.9", 5,
                             FTeid(1, "172.16.0.1"), "s1")

    def test_release_unknown_bearer_is_noop(self):
        sim, enb, sink = self.build()
        enb.release_bearer("10.45.0.9", 5)      # must not raise

    def test_downlink_to_unregistered_radio_dropped(self):
        sim, enb, sink = self.build()
        enb.radio_ports["10.45.0.1"] = "radio:x"
        fteid = enb.setup_bearer("10.45.0.1", 5,
                                 FTeid(7, "172.16.0.1"), "s1")
        del enb.radio_ports["10.45.0.1"]        # radio link went away
        packet = gtp_encapsulate(Packet(src="s", dst="10.45.0.1", size=10),
                                 fteid.teid, "172.16.0.1", enb.ip)
        enb.receive(packet, link=None)
        assert enb.unrouted == 1


class TestNetworkBuilderErrors:
    def test_unknown_server_route_rejected(self):
        network = MobileNetwork()
        ue = network.add_ue()
        with pytest.raises(KeyError):
            network.route_via_default_bearer(ue, "nope")

    def test_route_to_non_central_server_rejected(self):
        network = MobileNetwork()
        network.add_mec_site("mec")
        network.add_server("edge-server", site_name="mec")
        ue = network.add_ue()
        with pytest.raises(ValueError, match="central"):
            network.route_via_default_bearer(ue, "edge-server")

    def test_bearer_to_site_without_server_fails_loudly(self):
        from repro.epc.entities import ServicePolicy
        network = MobileNetwork()
        network.pcrf.configure(ServicePolicy("svc", qci=7))
        network.add_mec_site("empty-mec")       # no server attached
        ue = network.add_ue()
        with pytest.raises(RuntimeError, match="SGi destination"):
            network.control_plane.activate_dedicated_bearer(
                ue, "svc", "1.2.3.4", "empty-mec")

    def test_route_via_default_to_primary_server_is_noop(self):
        network = MobileNetwork()
        ue = network.add_ue()
        central = network.sgwc.site("central")
        before = len(central.pgw_u.table)
        network.route_via_default_bearer(ue, "internet")
        assert len(central.pgw_u.table) == before
