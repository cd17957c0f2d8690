"""End-to-end data-plane tests through the full simulated network."""

import numpy as np
import pytest

from repro.core.network import MobileNetwork, Pinger, wan_link_name
from repro.epc.entities import ServicePolicy
from repro.epc.gtp import gtp_teid
from repro.epc.qos import MEC_BEARER_QCI
from repro.sim.packet import Packet


@pytest.fixture()
def network():
    net = MobileNetwork()
    net.pcrf.configure(ServicePolicy("ar-retail", qci=MEC_BEARER_QCI))
    net.add_mec_site("mec")
    net.add_server("ar-server", site_name="mec", echo=True)
    return net


def test_uplink_packet_reaches_internet_server(network):
    ue = network.add_ue()
    internet = network.servers["internet"]
    packet = Packet(src=ue.ip, dst=internet.ip, size=500, protocol="UDP",
                    src_port=40000, dst_port=80,
                    created_at=network.sim.now)
    ue.send_app(packet)
    network.sim.run(until=1.0)
    # echo=True means the UE also gets a reply; the server saw the request
    assert any(p.dst == internet.ip for p in internet.received)


def test_round_trip_through_default_bearer(network):
    ue = network.add_ue()
    replies = []
    ue.on_downlink = replies.append
    internet = network.servers["internet"]
    packet = Packet(src=ue.ip, dst=internet.ip, size=100, protocol="UDP",
                    src_port=40000, dst_port=80, created_at=network.sim.now)
    ue.send_app(packet)
    network.sim.run(until=1.0)
    assert len(replies) == 1
    assert replies[0].src == internet.ip


def test_gtp_tunnels_used_on_backhaul(network):
    """Packets on the S1/S5 segments must be GTP encapsulated."""
    ue = network.add_ue()
    central = network.sgwc.site("central")
    internet = network.servers["internet"]
    seen = []
    original = central.sgw_u.on_receive

    def spy(packet, link):
        seen.append(gtp_teid(packet))
        original(packet, link)

    central.sgw_u.on_receive = spy
    ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                       created_at=network.sim.now))
    network.sim.run(until=1.0)
    uplink_teids = [t for t in seen if t is not None]
    assert uplink_teids, "no GTP-U tunnel observed at the SGW-U"


def test_cloud_rtt_near_70ms(network):
    """Figure 3(c): ping to the 'cloud' lands around the 70 ms median."""
    ue = network.add_ue()
    pinger = Pinger(network, ue, "internet", size=64, interval=0.2)
    pinger.run(count=30)
    network.sim.run(until=10.0)
    assert len(pinger.rtts) == 30
    median = float(np.median(pinger.rtts))
    assert 0.060 <= median <= 0.085


def test_mec_rtt_under_15ms(network):
    """Section 7.2: 95% of RTTs to the MEC server within 15 ms."""
    ue = network.add_ue()
    network.create_mec_bearer(ue, "ar-server")
    pinger = Pinger(network, ue, "ar-server", size=64, interval=0.1)
    pinger.run(count=40)
    network.sim.run(until=10.0)
    assert len(pinger.rtts) == 40
    p95 = float(np.percentile(pinger.rtts, 95))
    assert p95 <= 0.015


def test_mec_traffic_bypasses_central_gateways(network):
    ue = network.add_ue()
    network.create_mec_bearer(ue, "ar-server")
    central = network.sgwc.site("central")
    before = central.sgw_u.rx_count
    server = network.servers["ar-server"]
    for _ in range(5):
        ue.send_app(Packet(src=ue.ip, dst=server.ip, size=500,
                           created_at=network.sim.now))
    network.sim.run(until=1.0)
    assert len(server.received) == 5
    assert central.sgw_u.rx_count == before


def test_non_mec_traffic_still_uses_default_bearer(network):
    """Only CI traffic is redirected; internet traffic keeps its path."""
    ue = network.add_ue()
    network.create_mec_bearer(ue, "ar-server")
    internet = network.servers["internet"]
    mec = network.sgwc.site("mec")
    before = mec.sgw_u.rx_count
    ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                       created_at=network.sim.now))
    network.sim.run(until=1.0)
    assert any(p.dst == internet.ip for p in internet.received)
    assert mec.sgw_u.rx_count == before


def test_route_via_default_bearer_reaches_central_server(network):
    """The CLOUD/MEC baselines reach central-attached servers without a
    dedicated bearer."""
    server = network.add_server("cloud-ar", site_name="central", echo=True,
                                delay=0.001)
    ue = network.add_ue()
    network.route_via_default_bearer(ue, "cloud-ar")
    replies = []
    ue.on_downlink = replies.append
    ue.send_app(Packet(src=ue.ip, dst=server.ip, size=100,
                       created_at=network.sim.now))
    network.sim.run(until=1.0)
    assert len(replies) == 1


def test_background_load_inflates_default_path_latency(network):
    """Figure 3(g): saturating background traffic on the central GWs
    inflates latency by orders of magnitude."""
    ue = network.add_ue()
    quiet = Pinger(network, ue, "internet", interval=0.5)
    quiet.run(count=6)
    network.sim.run(until=4.0)
    baseline = float(np.median(quiet.rtts))

    bg = network.add_background_load(rate=120e6)
    bg.start(at=network.sim.now)
    loaded = Pinger(network, ue, "internet", interval=0.5)
    loaded.run(count=6, start=network.sim.now + 4.0)
    network.sim.run(until=network.sim.now + 15.0)
    bg.stop()
    assert len(loaded.rtts) >= 1
    assert float(np.median(loaded.rtts)) > 5 * baseline


def test_background_load_does_not_affect_mec_bearer(network):
    ue = network.add_ue()
    network.create_mec_bearer(ue, "ar-server")
    bg = network.add_background_load(rate=120e6)
    bg.start()
    pinger = Pinger(network, ue, "ar-server", interval=0.2)
    pinger.run(count=10, start=2.0)
    network.sim.run(until=6.0)
    bg.stop()
    assert len(pinger.rtts) == 10
    assert float(np.percentile(pinger.rtts, 95)) <= 0.015


def test_background_loads_have_distinct_cookies_and_remove_cleanly(network):
    """Each load installs rules under its own cookie, so tearing one
    down leaves the others' flow rules (and traffic) untouched."""
    first = network.add_background_load(rate=10e6)
    second = network.add_background_load(rate=20e6)
    assert first.name != second.name
    assert set(network.background_loads()) == {first.name, second.name}
    site = network.sgwc.site("central")
    rules_with_both = len(site.sgw_u.table)

    network.remove_background_load(first)
    assert network.background_loads() == (second.name,)
    assert len(site.sgw_u.table) == rules_with_both - 1

    network.remove_background_load(second.name)     # by name also works
    assert network.background_loads() == ()
    with pytest.raises(KeyError):
        network.remove_background_load(second)


def test_multiple_ues_isolated_ips(network):
    ue1 = network.add_ue()
    ue2 = network.add_ue()
    assert ue1.ip != ue2.ip
    assert ue1.imsi != ue2.imsi


def test_duplicate_server_name_rejected(network):
    with pytest.raises(ValueError):
        network.add_server("internet")


def test_promotion_delay_applied_after_idle(network):
    """A packet sent from RRC idle pays the promotion delay."""
    ue = network.add_ue()
    network.control_plane.release_to_idle(ue)
    internet = network.servers["internet"]
    reply_times = []
    ue.on_downlink = lambda p: reply_times.append(network.sim.now)
    t0 = network.sim.now
    ue.send_app(Packet(src=ue.ip, dst=internet.ip, size=100,
                       created_at=t0))
    network.sim.run(until=t0 + 2.0)
    assert len(reply_times) == 1
    # RTT must include the ~260 ms promotion on top of the ~70 ms path
    assert reply_times[0] - t0 > 0.26
    assert ue.promotions == 1


def test_pinger_books_midflight_drops_with_reason(network):
    """A ping that dies on a downed link is counted as lost (with its
    drop reason) the moment it dies -- not just at ``close()``."""
    ue = network.add_ue()
    pinger = Pinger(network, ue, "internet", interval=0.2)
    pinger.run(count=5)
    # cut the server's SGi link before the later pings cross it
    network.sim.schedule(0.45, network.links["sgi.internet"].set_up, False)
    network.sim.run(until=5.0)
    assert pinger.lost >= 2
    assert pinger.lost_reasons.get("link-down", 0) >= 2
    assert sum(pinger.lost_reasons.values()) == pinger.lost
    # every ping is accounted for: answered or lost, nothing vanished
    assert len(pinger.rtts) + pinger.lost == 5
    pinger.close()           # no still-outstanding pings to re-book
    assert len(pinger.rtts) + pinger.lost == 5


def test_pinger_books_injected_signalling_style_loss(network):
    """Echoes killed by a queue overflow surface under that reason."""
    ue = network.add_ue()
    pinger = Pinger(network, ue, "internet", interval=0.2)
    pinger.run(count=3)
    network.sim.run(until=0.5)      # first pings answered
    pinger.close()
    answered = len(pinger.rtts)
    outstanding = 3 - answered - pinger.lost
    assert outstanding == 0
    if pinger.lost:                 # whatever was in flight at close()
        assert pinger.lost_reasons.get("unanswered") == pinger.lost


def test_wan_links_table_matches_named_links():
    from repro.baselines.deployments import build_edge_fabric
    network = build_edge_fabric(n_sites=3, enbs_per_site=1, seed=0).network
    sites = sorted(network.edge_sites)
    assert len(network.wan_links) == len(sites) * (len(sites) - 1)
    for a in sites:
        for b in sites:
            if a == b:
                assert (a, b) not in network.wan_links
                continue
            link = network.wan_links[(a, b)]
            assert link is network.wan_links[(b, a)]
            assert link is network.links[wan_link_name(a, b)]
    future = network.context_transfer_async("edge0", "edge2", 100_000)
    network.sim.run()
    assert future.done and future.value == 100_000
