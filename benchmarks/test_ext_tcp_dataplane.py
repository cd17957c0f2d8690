"""Extension: Figure 8 re-run with a real congestion-controlled flow.

The paper's iperf test is TCP; :mod:`repro.sim.tcp` lets us replay the
data-plane comparison with actual slow start / AIMD dynamics instead of
a fixed-window stand-in.  The ordering must reproduce: the user-space
gateway caps the flow an order of magnitude below what the kernel
fast path sustains, and the congestion controller converges onto
whichever ceiling applies.
"""

import pytest

from repro.epc.gtp import gtp_encapsulate
from repro.sdn.dataplane import (ACACIA_OVS_PROFILE, IDEAL_PROFILE,
                                 OPENEPC_USERSPACE_PROFILE)
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, GtpEncap, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.tcp import TcpSink, TcpSource

LINK_BW = 1e9
DURATION = 2.0


def run_tcp_profile(profile):
    sim = Simulator()
    src = TcpSource(sim, "iperf", dst="10.0.0.9", ip="10.45.0.2",
                    packet_size=1400, max_cwnd=2048)
    sgw = FlowSwitch(sim, "sgw-u", profile=profile, ip="172.16.0.1")
    pgw = FlowSwitch(sim, "pgw-u", profile=profile, ip="172.16.0.2")
    sink = TcpSink(sim, "server", ip="10.0.0.9")
    links = [Link(sim, f"l{i}", bandwidth=LINK_BW, delay=0.0002,
                  queue_bytes=3_000_000) for i in range(3)]
    src.attach("out", links[0])
    sgw.attach("s1", links[0])
    sgw.attach("s5", links[1])
    pgw.attach("s5", links[1])
    pgw.attach("sgi", links[2])
    sink.attach("net", links[2])

    sgw.install(FlowRule(FlowMatch(teid=0x11),
                         [GtpDecap(), GtpEncap(0x22, sgw.ip, pgw.ip),
                          Output("s5")]))
    pgw.install(FlowRule(FlowMatch(teid=0x22), [GtpDecap(),
                                                Output("sgi")]))
    pgw.install(FlowRule(FlowMatch(src_ip="10.0.0.9"),
                         [GtpEncap(0x33, pgw.ip, sgw.ip), Output("s5")]))
    sgw.install(FlowRule(FlowMatch(teid=0x33), [GtpDecap(),
                                                Output("s1")]))

    plain_send = src.send

    def send_with_gtp(port, packet):
        if packet.dst == "10.0.0.9":
            gtp_encapsulate(packet, 0x11, "192.168.1.1", sgw.ip)
        plain_send(port, packet)

    src.send = send_with_gtp  # type: ignore[method-assign]
    src.start()
    sim.run(until=DURATION)
    src.stop()
    return src


def test_ext_tcp_dataplane(report):
    results = {}
    for profile in (OPENEPC_USERSPACE_PROFILE, ACACIA_OVS_PROFILE,
                    IDEAL_PROFILE):
        flow = run_tcp_profile(profile)
        results[profile.name] = flow

    r = report("ext_tcp_dataplane",
               "Extension: Figure 8 with a congestion-controlled flow")
    r.table(["data plane", "goodput (Mbps)", "retransmits", "final cwnd"],
            [[name, f"{flow.goodput(DURATION) / 1e6:.0f}",
              flow.retransmits, f"{flow.cwnd:.0f}"]
             for name, flow in results.items()])

    openepc = results["openepc-userspace"].goodput(DURATION)
    acacia = results["acacia-ovs"].goodput(DURATION)
    ideal = results["ideal"].goodput(DURATION)
    # same ordering as the paper's Figure 8
    assert openepc < 0.25 * acacia
    assert acacia == pytest.approx(ideal, rel=0.25)
    # the congestion controller found the user-space CPU ceiling:
    # payload_bits / (2 * per-packet cost), as with the greedy flow
    ceiling = 1400 * 8 / (2 * OPENEPC_USERSPACE_PROFILE.slow_path_cost)
    assert openepc == pytest.approx(ceiling, rel=0.35)
