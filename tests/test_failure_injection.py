"""Failure-injection tests: links down, landmarks silent, MEC
relocation after mobility."""

import numpy as np
import pytest

from repro.core.network import MobileNetwork, Pinger
from repro.core.mrs import MecRegistrationServer
from repro.core.service import CIService
from repro.d2d.channel import D2DChannel, Publisher, Subscriber
from repro.d2d.expressions import ExpressionNamespace
from repro.d2d.messages import DiscoveryMessage
from repro.localization.landmarks import Landmark, LandmarkMap
from repro.localization.pathloss import PathLossRegression
from repro.localization.tracker import LocationTracker
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import PacketSink
from repro.sim.packet import Packet
from repro.sim.tcp import TcpSink, TcpSource
from tests.recording import RecordingSink


class TestLinkFailure:
    def test_down_link_drops_and_counts(self):
        sim = Simulator()
        a = PacketSink(sim, "a", ip="1")
        b = RecordingSink(sim, "b", ip="2")
        link = Link(sim, "l", bandwidth=1e6, delay=0.001)
        a.attach("p", link)
        b.attach("p", link)
        link.set_up(False)
        a.send("p", Packet(src="1", dst="2", size=100))
        sim.run()
        assert b.received == []
        assert link.dropped_while_down == 1

    def test_in_flight_packets_still_arrive(self):
        sim = Simulator()
        a = PacketSink(sim, "a", ip="1")
        b = RecordingSink(sim, "b", ip="2")
        link = Link(sim, "l", bandwidth=1e6, delay=0.010)
        a.attach("p", link)
        b.attach("p", link)
        a.send("p", Packet(src="1", dst="2", size=100))
        sim.schedule(0.005, link.set_up, False)     # cut mid-flight
        sim.run()
        assert len(b.received) == 1

    def test_recovery_restores_traffic(self):
        sim = Simulator()
        a = PacketSink(sim, "a", ip="1")
        b = RecordingSink(sim, "b", ip="2")
        link = Link(sim, "l", bandwidth=1e6, delay=0.001)
        a.attach("p", link)
        b.attach("p", link)
        link.set_up(False)
        a.send("p", Packet(src="1", dst="2", size=100))
        link.set_up(True)
        a.send("p", Packet(src="1", dst="2", size=100))
        sim.run()
        assert len(b.received) == 1

    def test_tcp_rides_out_a_short_outage(self):
        """Retransmission machinery recovers every segment lost to a
        200 ms link outage."""
        sim = Simulator()
        src = TcpSource(sim, "tcp", dst="2", ip="1", total_packets=2000)
        sink = TcpSink(sim, "sink", ip="2")
        link = Link(sim, "l", bandwidth=20e6, delay=0.005,
                    queue_bytes=10**6)
        src.attach("out", link)
        sink.attach("net", link)
        src.start()
        sim.schedule(0.3, link.set_up, False)   # mid-transfer outage
        sim.schedule(0.5, link.set_up, True)
        sim.run(until=60.0)
        assert src.complete
        assert sink.received_seqs == set(range(2000))
        assert src.retransmits > 0


class TestLandmarkFailure:
    def test_silent_landmark_degrades_not_breaks(self):
        """Localisation keeps working with the remaining landmarks and
        recovers once the stale reading expires."""
        lmap = LandmarkMap(
            landmarks=[Landmark("lm1", 0, 0), Landmark("lm2", 20, 0),
                       Landmark("lm3", 0, 20), Landmark("lm4", 20, 20)],
            regression=PathLossRegression(alpha=-50, beta=-30))
        tracker = LocationTracker(lmap, staleness=10.0)
        truth = (8.0, 9.0)
        model = lmap.regression

        def observe(names, now):
            for name in names:
                lm = lmap.get(name)
                d = max(0.7, np.hypot(truth[0] - lm.x, truth[1] - lm.y))
                tracker.observe(name, model.predict_rx_power(d), now)

        observe(["lm1", "lm2", "lm3", "lm4"], now=0.0)
        assert tracker.estimate(now=1.0) is not None
        # lm4 dies; the others keep reporting
        for t in (5.0, 10.0, 15.0):
            observe(["lm1", "lm2", "lm3"], now=t)
        estimate = tracker.estimate(now=16.0)   # lm4 reading now stale
        assert estimate is not None
        assert np.hypot(estimate[0] - truth[0],
                        estimate[1] - truth[1]) < 1.0
        assert len(tracker.fresh_readings(16.0)) == 3

    def test_publisher_failure_stops_broadcasts_only(self):
        sim = Simulator()
        ns = ExpressionNamespace()
        channel = D2DChannel(sim, rng=np.random.default_rng(0))
        heard = []
        subscriber = Subscriber("u", (3.0, 0.0))
        subscriber.modem.subscribe("all", ns.service_filter("s"),
                                   heard.append)
        channel.add_subscriber(subscriber)
        for i, name in enumerate(("lm1", "lm2")):
            message = DiscoveryMessage(name, "s", ns.code("s", name))
            channel.add_publisher(Publisher(name, (float(i), 0.0),
                                            message, period=1.0), start=0.0)
        sim.run(until=2.5)
        channel.remove_publisher("lm1")
        sim.run(until=6.5)
        landmarks = [o.landmark for o in heard if o.timestamp > 2.5]
        assert set(landmarks) == {"lm2"}


class TestMecRelocation:
    def build(self):
        network = MobileNetwork()            # enb0
        network.add_enb("enb1")
        network.add_mec_site("mec-a")
        network.add_mec_site("mec-b")
        network.add_server("srv-a", site_name="mec-a", echo=True)
        network.add_server("srv-b", site_name="mec-b", echo=True)
        mrs = MecRegistrationServer(network)
        mrs.register_service(CIService("ar-retail", "acme-retail"))
        mrs.deploy_instance("ar-retail", "srv-a", "mec-a",
                            serves_enbs={"enb0"})
        mrs.deploy_instance("ar-retail", "srv-b", "mec-b",
                            serves_enbs={"enb1"})
        ue = network.add_ue()                # attaches at enb0
        return network, mrs, ue

    def test_initial_session_uses_cell_local_instance(self):
        network, mrs, ue = self.build()
        session = mrs.request_connectivity(ue, "ar-retail")
        assert session.instance.server_name == "srv-a"

    def test_relocation_after_handover(self):
        network, mrs, ue = self.build()
        mrs.request_connectivity(ue, "ar-retail")
        network.handover(ue, "enb1")
        session = mrs.relocate_session(ue, "ar-retail")
        assert session.instance.server_name == "srv-b"
        dedicated = [b for b in ue.bearers if not b.default]
        assert len(dedicated) == 1
        assert dedicated[0].gateway_site == "mec-b"

    def test_relocation_noop_when_already_best(self):
        network, mrs, ue = self.build()
        first = mrs.request_connectivity(ue, "ar-retail")
        assert mrs.relocate_session(ue, "ar-retail") is first

    def test_relocation_without_session_is_none(self):
        network, mrs, ue = self.build()
        assert mrs.relocate_session(ue, "ar-retail") is None

    def test_relocated_path_is_fast(self):
        network, mrs, ue = self.build()
        mrs.request_connectivity(ue, "ar-retail")
        network.handover(ue, "enb1")
        mrs.relocate_session(ue, "ar-retail")
        pinger = Pinger(network, ue, "srv-b", interval=0.1)
        pinger.run(count=10, start=network.sim.now)
        network.sim.run(until=network.sim.now + 3.0)
        assert len(pinger.rtts) == 10
        assert float(np.median(pinger.rtts)) < 0.016
