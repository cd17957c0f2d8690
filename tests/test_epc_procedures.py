"""Integration tests for EPC signalling procedures.

Uses the full MobileNetwork builder; verifies the attach and dedicated
bearer choreography, and the calibrated release/re-establish overhead
(15 messages / 2914 bytes, Section 4 of the paper).
"""

import pytest

from repro.core.network import MobileNetwork
from repro.epc.entities import ServicePolicy
from repro.epc.overhead import (APP_DRIVEN_EVENTS_PER_DAY,
                                PROMOTION_EVENTS_PER_DAY,
                                combined_by_protocol, daily_overhead_mb)
from repro.epc.qos import MEC_BEARER_QCI
from tests.recording import MessageRecorder


@pytest.fixture()
def network():
    net = MobileNetwork()
    net.pcrf.configure(ServicePolicy("ar-retail", qci=MEC_BEARER_QCI))
    net.add_mec_site("mec")
    net.add_server("ar-server", site_name="mec", echo=True)
    return net


class TestAttach:
    def test_attach_creates_default_bearer(self, network):
        ue = network.add_ue()
        assert ue.attached
        bearer = ue.bearers.default_bearer()
        assert bearer is not None
        assert bearer.qci == 9
        assert bearer.gateway_site == "central"
        assert ue.ip is not None

    def test_attach_allocates_all_tunnel_endpoints(self, network):
        ue = network.add_ue()
        bearer = ue.bearers.default_bearer()
        assert bearer.enb_fteid is not None
        assert bearer.sgw_s1_fteid is not None
        assert bearer.sgw_s5_fteid is not None
        assert bearer.pgw_fteid is not None
        central = network.sgwc.site("central")
        assert bearer.sgw_s1_fteid.address == central.sgw_u.ip

    def test_attach_installs_four_flow_rules(self, network):
        ue = network.add_ue()
        central = network.sgwc.site("central")
        imsi = ue.imsi
        cookies = [r.cookie for r in
                   central.sgw_u.table + central.pgw_u.table
                   if imsi in r.cookie]
        assert len(cookies) == 4

    def test_attach_registers_mme_context(self, network):
        ue = network.add_ue()
        context = network.mme.context(ue.imsi)
        assert context.state == "connected"

    def test_double_attach_rejected(self, network):
        ue = network.add_ue()
        with pytest.raises(RuntimeError):
            network.control_plane.attach(ue, network.enb)

    def test_unprovisioned_imsi_rejected(self, network):
        from repro.epc.ue import UEDevice
        ue = UEDevice(network.sim, "rogue", imsi="999990000000001")
        with pytest.raises(KeyError):
            network.control_plane.attach(ue, network.enb)

    def test_attach_message_mix(self, network):
        ue = network.add_ue()
        result = ue.attach_result
        protocols = {protocol: count for protocol, (count, _)
                     in result.by_protocol.items()}
        assert protocols["RRC"] == 5
        assert protocols["GTPv2"] == 6
        assert protocols["SCTP"] == 4
        assert protocols["OpenFlow"] == 4
        assert result.elapsed > 0


class TestDedicatedBearer:
    def test_activation_creates_mec_bearer(self, network):
        ue = network.add_ue()
        result = network.create_mec_bearer(ue, "ar-server")
        bearer = result.bearer
        assert not bearer.default
        assert bearer.qci == MEC_BEARER_QCI
        assert bearer.gateway_site == "mec"
        mec = network.sgwc.site("mec")
        assert bearer.sgw_s1_fteid.address == mec.sgw_u.ip
        assert bearer.pgw_fteid.address == mec.pgw_u.ip

    def test_tft_points_at_ci_server(self, network):
        ue = network.add_ue()
        result = network.create_mec_bearer(ue, "ar-server")
        server_ip = network.servers["ar-server"].ip
        assert result.bearer.tft.filters[0].remote_address == server_ip

    def test_pcef_rule_installed(self, network):
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        rule = network.pgwc.pcef_rules[(ue.imsi, "ar-retail")]
        assert rule.qci == MEC_BEARER_QCI
        assert rule.ue_ip == ue.ip

    def test_flow_rules_on_local_gwus_only(self, network):
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        mec = network.sgwc.site("mec")
        central = network.sgwc.site("central")
        dedicated_cookie = f"{ue.imsi}:ebi6"
        mec_rules = [r for r in mec.sgw_u.table + mec.pgw_u.table
                     if dedicated_cookie in r.cookie]
        central_rules = [r for r in central.sgw_u.table + central.pgw_u.table
                         if dedicated_cookie in r.cookie]
        assert len(mec_rules) == 4
        assert central_rules == []

    def test_unknown_service_rejected(self, network):
        ue = network.add_ue()
        with pytest.raises(KeyError):
            network.control_plane.activate_dedicated_bearer(
                ue, "unknown-service", "1.2.3.4", "mec")

    def test_deactivation_cleans_up(self, network):
        ue = network.add_ue()
        result = network.create_mec_bearer(ue, "ar-server")
        ebi = result.bearer.ebi
        network.control_plane.deactivate_dedicated_bearer(ue, ebi)
        assert ebi not in ue.bearers.bearers
        assert (ue.imsi, "ar-retail") not in network.pgwc.pcef_rules
        mec = network.sgwc.site("mec")
        leftover = [r for r in mec.sgw_u.table + mec.pgw_u.table
                    if ue.imsi in r.cookie]
        assert leftover == []

    def test_deactivating_default_bearer_rejected(self, network):
        ue = network.add_ue()
        default_ebi = ue.bearers.default_bearer().ebi
        with pytest.raises(ValueError):
            network.control_plane.deactivate_dedicated_bearer(ue, default_ebi)

    def test_setup_latency_in_tens_of_ms(self, network):
        """Dedicated bearer setup: a dozen control messages, ~tens of ms."""
        ue = network.add_ue()
        result = network.create_mec_bearer(ue, "ar-server")
        assert 0.01 < result.elapsed < 0.1


class TestIdleCycle:
    def test_release_message_calibration(self, network):
        """Release: 3 SCTP + 2 GTPv2 + 2 OpenFlow = 7 messages."""
        ue = network.add_ue()
        result = network.control_plane.release_to_idle(ue)
        assert result.message_count == 7
        by_proto = result.by_protocol
        assert by_proto["SCTP"][0] == 3
        assert by_proto["GTPv2"][0] == 2
        assert by_proto["OpenFlow"][0] == 2

    def test_reestablish_message_calibration(self, network):
        """Service request: 4 SCTP + 2 GTPv2 + 2 OpenFlow = 8 messages."""
        ue = network.add_ue()
        network.control_plane.release_to_idle(ue)
        result = network.control_plane.service_request(ue)
        assert result.message_count == 8

    def test_full_cycle_matches_paper_totals(self, network):
        """The headline numbers: 15 messages, 2914 bytes, split
        SCTP 7 (1138) / GTPv2 4 (352) / OpenFlow 4 (1424)."""
        ue = network.add_ue()
        release = network.control_plane.release_to_idle(ue)
        reestablish = network.control_plane.service_request(ue)
        assert release.message_count + reestablish.message_count == 15
        assert release.byte_count + reestablish.byte_count == 2914
        totals = combined_by_protocol(release, reestablish)
        assert totals["SCTP"] == [7, 1138]
        assert totals["GTPv2"] == [4, 352]
        assert totals["OpenFlow"] == [4, 1424]

    def test_daily_overhead_projections(self):
        assert daily_overhead_mb(2914, APP_DRIVEN_EVENTS_PER_DAY) == \
            pytest.approx(2.58, abs=0.01)
        assert daily_overhead_mb(2914, PROMOTION_EVENTS_PER_DAY) == \
            pytest.approx(20.0, abs=0.1)

    def test_release_deactivates_bearers(self, network):
        ue = network.add_ue()
        network.control_plane.release_to_idle(ue)
        assert not ue.rrc_connected
        assert all(not b.active for b in ue.bearers)
        assert network.mme.context(ue.imsi).state == "idle"

    def test_service_request_reactivates(self, network):
        ue = network.add_ue()
        network.control_plane.release_to_idle(ue)
        network.control_plane.service_request(ue)
        assert ue.rrc_connected
        assert all(b.active for b in ue.bearers)

    def test_service_request_noop_when_connected(self, network):
        ue = network.add_ue()
        recorder = MessageRecorder(network.hooks)
        result = network.control_plane.service_request(ue)
        assert result.message_count == 0
        assert len(recorder) == 0

    def test_idle_cycle_restores_dedicated_bearer_rules(self, network):
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        mec = network.sgwc.site("mec")
        before = len(mec.sgw_u.table) + len(mec.pgw_u.table)
        network.control_plane.release_to_idle(ue)
        network.control_plane.service_request(ue)
        after = len(mec.sgw_u.table) + len(mec.pgw_u.table)
        assert before == after
