"""Figure 8: gateway data-plane throughput (OpenEPC vs ACACIA vs IDEAL).

An iperf-style greedy flow is pushed through a two-switch GW-U chain on
1 Gbps links.  Paper shape: the user-space OpenEPC gateway caps out an
order of magnitude below line rate; ACACIA's kernel fast path tracks
the IDEAL (no-gateway-cost) curve closely.
"""

import pytest

from repro.epc.gtp import gtp_encapsulate
from repro.sdn.dataplane import (ACACIA_OVS_PROFILE, IDEAL_PROFILE,
                                 OPENEPC_USERSPACE_PROFILE)
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, GtpEncap, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ThroughputMeter
from repro.sim.node import PacketSink
from repro.sim.traffic import GreedySource

LINK_BW = 1e9
DURATION = 2.0
WINDOW = 0.25


def run_profile(profile):
    """Greedy flow: src -> SGW-U -> PGW-U -> sink (echoing acks)."""
    sim = Simulator()
    src = GreedySource(sim, "iperf", dst="10.0.0.9", packet_size=1400,
                       window=256, ip="10.45.0.2")
    sgw = FlowSwitch(sim, "sgw-u", profile=profile, ip="172.16.0.1")
    pgw = FlowSwitch(sim, "pgw-u", profile=profile, ip="172.16.0.2")
    meter = ThroughputMeter(sim, window=WINDOW)
    sink = PacketSink(sim, "server", ip="10.0.0.9", echo=True,
                      on_packet=meter)
    links = [Link(sim, f"l{i}", bandwidth=LINK_BW, delay=0.0002,
                  queue_bytes=2_000_000) for i in range(3)]
    src.attach("out", links[0])
    sgw.attach("s1", links[0])
    sgw.attach("s5", links[1])
    pgw.attach("s5", links[1])
    pgw.attach("sgi", links[2])
    sink.attach("net", links[2])

    # uplink: GTP in from the "eNB", decap+re-encap at the SGW-U,
    # decap at the PGW-U; downlink (acks) the reverse
    sgw.install(FlowRule(FlowMatch(teid=0x11),
                         [GtpDecap(),
                          GtpEncap(0x22, sgw.ip, pgw.ip), Output("s5")]))
    pgw.install(FlowRule(FlowMatch(teid=0x22), [GtpDecap(), Output("sgi")]))
    pgw.install(FlowRule(FlowMatch(src_ip="10.0.0.9"),
                         [GtpEncap(0x33, pgw.ip, sgw.ip), Output("s5")]))
    sgw.install(FlowRule(FlowMatch(teid=0x33), [GtpDecap(), Output("s1")]))

    # the source stands in for the eNB: wrap its send() so uplink
    # packets leave already GTP-encapsulated toward the SGW-U
    plain_send = src.send

    def send_with_gtp(port, packet):
        if packet.dst == "10.0.0.9":
            gtp_encapsulate(packet, 0x11, "192.168.1.1", sgw.ip)
        plain_send(port, packet)

    src.send = send_with_gtp  # type: ignore[method-assign]
    src.start()
    sim.run(until=DURATION)
    return meter.mean_throughput(skip_first=1), src.goodput(DURATION)


def test_fig8_dataplane(report):
    results = {}
    for profile in (OPENEPC_USERSPACE_PROFILE, ACACIA_OVS_PROFILE,
                    IDEAL_PROFILE):
        throughput, _ = run_profile(profile)
        results[profile.name] = throughput

    r = report("fig8_dataplane",
               "Figure 8: GW-U data-plane throughput (Mbps), 1 Gbps links")
    r.table(["data plane", "throughput (Mbps)"],
            [[name, f"{bps / 1e6:.0f}"] for name, bps in results.items()])

    openepc = results["openepc-userspace"]
    acacia = results["acacia-ovs"]
    ideal = results["ideal"]
    # paper shape: OpenEPC far below line rate; ACACIA close to IDEAL
    assert openepc < 0.35 * ideal
    assert acacia > 0.75 * ideal
    assert acacia > 3 * openepc
    # OpenEPC's user-space ceiling: each delivered payload costs the GW
    # CPU two packets (data + ack), so the goodput ceiling is
    # payload_bits / (2 * per-packet cost)
    expected_ceiling = 1400 * 8 / (
        2 * OPENEPC_USERSPACE_PROFILE.slow_path_cost)
    assert openepc == pytest.approx(expected_ceiling, rel=0.15)
