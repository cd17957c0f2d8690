"""Ablation (Section 2 / DESIGN 5): where should traffic be classified?

The MEC alternatives the paper argues against (SMORE-style) deploy an
inspection middlebox at/near the eNodeB that examines *every* packet to
decide what gets redirected to the MEC server.  ACACIA classifies at
the source: the UE's modem-resident UL TFT marks CI traffic onto the
dedicated bearer and nothing else is ever inspected.

This bench quantifies the difference: per-packet inspection cost adds
latency to CI traffic and burns middlebox CPU proportional to *total*
eNodeB throughput, even when almost none of it is CI traffic.
"""

import numpy as np

from repro.sdn.dataplane import DataPlaneProfile
from repro.sdn.openflow import FlowMatch, FlowRule, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import LatencyProbe
from repro.sim.node import PacketSink
from repro.sim.traffic import CBRSource, PoissonSource

#: GTP de/encapsulation + DPI classification per packet (user space).
INSPECTION_PROFILE = DataPlaneProfile(
    name="inspection-middlebox", slow_path_cost=40e-6,
    fast_path_cost=40e-6, has_fast_path=False)

#: Source-side classification: the switch only sees pre-marked CI
#: traffic and forwards it on a cached kernel path.
ACACIA_PATH_PROFILE = DataPlaneProfile(
    name="acacia-local-gwu", slow_path_cost=80e-6,
    fast_path_cost=4e-6, has_fast_path=True)

CI_RATE = 2e6
BG_RATE = 60e6
DURATION = 5.0


def run_case(classify_at_source: bool, seed=9):
    """CI flow + bulk background through one redirect point."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    profile = (ACACIA_PATH_PROFILE if classify_at_source
               else INSPECTION_PROFILE)
    switch = FlowSwitch(sim, "redirector", profile=profile,
                        ip="172.16.9.1")
    probe = LatencyProbe(sim)
    mec_server = PacketSink(sim, "mec", ip="10.9.0.1", on_packet=probe)
    internet = PacketSink(sim, "internet", ip="10.9.0.2")

    ci = CBRSource(sim, "ci", dst=mec_server.ip, rate=CI_RATE,
                   packet_size=1400, ip="10.45.0.2")
    bg = PoissonSource(sim, "bg", dst=internet.ip, rate=BG_RATE, rng=rng,
                       packet_size=1400, ip="10.45.0.3")

    l_ci = Link(sim, "l-ci", bandwidth=1e9, delay=0.0005)
    l_mec = Link(sim, "l-mec", bandwidth=1e9, delay=0.0005)
    ci.attach("out", l_ci)
    switch.attach("ci-in", l_ci)
    switch.attach("mec", l_mec)
    mec_server.attach("net", l_mec)
    switch.install(FlowRule(FlowMatch(dst_ip=mec_server.ip),
                            [Output("mec")], priority=200, cookie="ci"))

    l_bg = Link(sim, "l-bg", bandwidth=1e9, delay=0.0005)
    bg.attach("out", l_bg)
    if classify_at_source:
        # ACACIA: background never touches the redirect point -- the
        # UE's TFT already split the traffic at the source
        internet.attach("net", l_bg)
    else:
        # middlebox: everything flows through and must be inspected
        l_net = Link(sim, "l-net", bandwidth=1e9, delay=0.0005)
        switch.attach("bg-in", l_bg)
        switch.attach("net", l_net)
        internet.attach("net", l_net)
        switch.install(FlowRule(FlowMatch(), [Output("net")],
                                priority=10, cookie="default"))

    ci.start()
    bg.start()
    sim.run(until=DURATION)
    ci.stop()
    bg.stop()

    latencies = probe.flow(ci.flow_id)
    inspected = switch.rx_count
    ci_packets = latencies.packets
    return {
        "ci_median_ms": float(np.median(latencies.latencies)) * 1e3,
        "ci_p99_ms": float(np.percentile(latencies.latencies, 99)) * 1e3,
        "inspected": inspected,
        "ci_fraction": ci_packets / max(1, inspected),
        "cpu_seconds": inspected * profile.slow_path_cost
        if not classify_at_source
        else ci_packets * profile.fast_path_cost,
    }


def test_ablation_middlebox(report):
    middlebox = run_case(classify_at_source=False)
    acacia = run_case(classify_at_source=True)

    r = report("ablation_middlebox",
               "Ablation: middlebox inspection vs UE-side classification")
    r.table(
        ["approach", "CI median (ms)", "CI p99 (ms)",
         "pkts through box", "CI fraction", "CPU (s)"],
        [["middlebox (SMORE-style)",
          f"{middlebox['ci_median_ms']:.2f}",
          f"{middlebox['ci_p99_ms']:.2f}",
          middlebox["inspected"],
          f"{middlebox['ci_fraction']:.1%}",
          f"{middlebox['cpu_seconds']:.2f}"],
         ["ACACIA (UL TFT at the UE)",
          f"{acacia['ci_median_ms']:.2f}",
          f"{acacia['ci_p99_ms']:.2f}",
          acacia["inspected"],
          f"{acacia['ci_fraction']:.1%}",
          f"{acacia['cpu_seconds']:.2f}"]])

    # the middlebox inspects *everything*: with 60 Mbps of background
    # next to 2 Mbps of CI traffic, >90% of its work is irrelevant
    assert middlebox["ci_fraction"] < 0.1
    assert acacia["ci_fraction"] == 1.0
    # inspection costs the CI flow latency (queueing behind inspected
    # background bursts) and costs the operator CPU
    assert acacia["ci_p99_ms"] < middlebox["ci_p99_ms"]
    assert acacia["cpu_seconds"] < 0.05 * middlebox["cpu_seconds"]
