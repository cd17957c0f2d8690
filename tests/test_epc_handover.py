"""Tests for multi-eNodeB deployments and X2 handover."""

import numpy as np
import pytest

from repro.core.network import MobileNetwork, Pinger
from repro.epc.entities import ServicePolicy
from repro.sim.packet import Packet
from tests.recording import MessageRecorder


@pytest.fixture()
def network():
    net = MobileNetwork()
    net.add_enb("enb1")
    net.pcrf.configure(ServicePolicy("ar-retail", qci=7))
    net.add_mec_site("mec")
    net.add_server("ar-server", site_name="mec", echo=True)
    return net


class TestMultiEnb:
    def test_two_enbs_wired_to_all_sites(self, network):
        assert set(network.enbs) == {"enb0", "enb1"}
        for site in network.sites.values():
            assert set(site.enb_ports) == {"enb0", "enb1"}
            assert set(site.sgw_dl_ports) == {"enb0", "enb1"}

    def test_duplicate_enb_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_enb("enb0")

    def test_ue_attaches_via_named_enb(self, network):
        ue = network.add_ue(enb_name="enb1")
        assert network.mme.context(ue.imsi).enb.name == "enb1"
        replies = []
        ue.on_downlink = replies.append
        internet = network.servers["internet"]
        ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                           created_at=network.sim.now))
        network.sim.run(until=1.0)
        assert len(replies) == 1

    def test_unknown_site_link_raises(self, network):
        site = network.sgwc.site("central")
        with pytest.raises(KeyError, match="S1 link"):
            site.enb_port("enb9")


class TestHandover:
    def test_handover_moves_mme_context(self, network):
        ue = network.add_ue()
        network.handover(ue, "enb1")
        assert network.mme.context(ue.imsi).enb.name == "enb1"

    @staticmethod
    def radio_wiring(network, ue):
        """The links and every port a UE's radio binds, by identity."""
        port = f"radio:{ue.name}"
        return (dict(network.links), ue.ports.get("radio"),
                {name: enb.ports.get(port)
                 for name, enb in network.enbs.items()})

    def test_handover_noop_for_same_cell(self, network):
        ue = network.add_ue()
        before = self.radio_wiring(network, ue)
        recorder = MessageRecorder(network.hooks)
        result = network.handover(ue, "enb0")
        assert result.message_count == 0
        assert len(recorder) == 0
        assert self.radio_wiring(network, ue) == before

    def test_handover_requires_connected_ue(self, network):
        ue = network.add_ue()
        network.control_plane.release_to_idle(ue)
        before = self.radio_wiring(network, ue)
        with pytest.raises(RuntimeError, match="idle"):
            network.handover(ue, "enb1")
        assert self.radio_wiring(network, ue) == before

    def test_unknown_target_enb_names_the_cell(self, network):
        ue = network.add_ue()
        with pytest.raises(ValueError,
                           match=r"unknown target eNodeB 'enb9'"):
            network.handover(ue, "enb9")

    def test_unknown_target_lists_known_cells(self, network):
        ue = network.add_ue()
        with pytest.raises(ValueError, match=r"enb0.*enb1"):
            network.handover(ue, "enb7")

    def test_handover_message_mix(self, network):
        ue = network.add_ue()
        result = network.handover(ue, "enb1")
        protocols = {protocol: count for protocol, (count, _)
                     in result.by_protocol.items()}
        assert protocols["X2AP"] == 4
        assert protocols["RRC"] == 2
        assert protocols["SCTP"] == 2       # path switch req/ack
        assert protocols["GTPv2"] == 2      # modify bearer req/resp
        # one delete + one add per bearer at the SGW-U
        assert protocols["OpenFlow"] == 2
        assert 0 < result.elapsed < 0.1

    def test_traffic_flows_after_handover(self, network):
        ue = network.add_ue()
        network.handover(ue, "enb1")
        replies = []
        ue.on_downlink = replies.append
        internet = network.servers["internet"]
        ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                           created_at=network.sim.now))
        network.sim.run(until=1.0)
        assert len(replies) == 1
        # the target eNB carried the traffic, not the source
        assert network.enbs["enb1"].tx_count > 0

    def test_source_enb_state_cleaned_up(self, network):
        ue = network.add_ue()
        source = network.enbs["enb0"]
        network.handover(ue, "enb1")
        assert ue.ip not in source.radio_ports
        assert all(key[0] != ue.ip for key in source.ul_map)
        assert all(ip != ue.ip for ip in source.dl_map.values())

    def test_mec_bearer_survives_handover(self, network):
        """The SGW anchor keeps the dedicated bearer on its MEC site."""
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        network.handover(ue, "enb1")
        dedicated = [b for b in ue.bearers if not b.default][0]
        assert dedicated.gateway_site == "mec"
        pinger = Pinger(network, ue, "ar-server", interval=0.1)
        pinger.run(count=10, start=network.sim.now)
        network.sim.run(until=network.sim.now + 3.0)
        assert len(pinger.rtts) == 10
        assert float(np.percentile(pinger.rtts, 95)) < 0.016

    def test_handover_back_and_forth(self, network):
        ue = network.add_ue()
        network.handover(ue, "enb1")
        network.handover(ue, "enb0")
        assert network.mme.context(ue.imsi).enb.name == "enb0"
        replies = []
        ue.on_downlink = replies.append
        internet = network.servers["internet"]
        ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                           created_at=network.sim.now))
        network.sim.run(until=network.sim.now + 1.0)
        assert len(replies) == 1

    def test_downlink_rerouted_to_target(self, network):
        """Packets sent by the server after handover reach the UE via
        the new SGW-U downlink rule."""
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        server = network.servers["ar-server"]
        network.handover(ue, "enb1")
        replies = []
        ue.on_downlink = replies.append
        packet = Packet(src=server.ip, dst=ue.ip, size=200,
                        created_at=network.sim.now)
        server.send("net", packet)
        network.sim.run(until=network.sim.now + 1.0)
        assert len(replies) == 1
