"""Figure 10(a): RTT from UE to MEC server by QCI class.

The UE pings the MEC server over dedicated bearers provisioned with
QCI 5..9 while its default bearer uploads in the background, so the
radio uplink scheduler's QCI priorities matter.  Paper shape: all
classes land in the 13-18 ms band (95% within ~15 ms for the
high-priority classes), ordered by QCI priority.
"""

import numpy as np

from repro.core.network import MobileNetwork, Pinger
from repro.epc.entities import ServicePolicy
from repro.sim.packet import Packet
from repro.sim.traffic import DEFAULT_PACKET_SIZE

QCIS = [5, 6, 7, 8, 9]
PINGS = 40


def measure_qci(qci: int) -> np.ndarray:
    network = MobileNetwork()
    network.pcrf.configure(ServicePolicy(f"svc-qci{qci}", qci=qci))
    network.add_mec_site("mec")
    network.add_server("mec-server", site_name="mec", echo=True)
    ue = network.add_ue()
    network.control_plane.activate_dedicated_bearer(
        ue, f"svc-qci{qci}", network.servers["mec-server"].ip, "mec")

    # competing upload on the same UE's default bearer: 10 of the
    # 12 Mbps uplink
    def background_tick():
        packet = Packet(src=ue.ip, dst=network.servers["internet"].ip,
                        size=DEFAULT_PACKET_SIZE, protocol="UDP",
                        src_port=41000, dst_port=5001,
                        created_at=network.sim.now)
        ue.send_app(packet)
        network.sim.schedule(DEFAULT_PACKET_SIZE * 8 / 10e6,
                             background_tick)

    network.sim.schedule(0.0, background_tick)
    pinger = Pinger(network, ue, "mec-server", size=64, interval=0.1)
    pinger.run(count=PINGS, start=1.0)
    network.sim.run(until=1.0 + PINGS * 0.1 + 3.0)
    return np.array(pinger.rtts)


def test_fig10a_qci_rtt(report):
    rows = []
    stats = {}
    for qci in QCIS:
        rtts = measure_qci(qci)
        stats[qci] = rtts
        rows.append([
            f"QCI {qci}",
            f"{np.median(rtts) * 1e3:.1f}",
            f"{np.percentile(rtts, 95) * 1e3:.1f}",
            f"{rtts.max() * 1e3:.1f}",
        ])

    r = report("fig10a_qci_rtt",
               "Figure 10(a): UE->MEC RTT (ms) by QCI under uplink load")
    r.table(["bearer", "median", "p95", "max"], rows)

    # the paper's band: high-priority classes keep 95% within ~15 ms
    for qci in (5, 6, 7, 8):
        assert np.percentile(stats[qci], 95) <= 0.016
    # priority ordering: QCI 5 (priority 1) beats QCI 9 (priority 9),
    # which shares the queue with the best-effort upload
    assert np.median(stats[5]) <= np.median(stats[9])
    assert np.percentile(stats[9], 95) >= np.percentile(stats[5], 95)
