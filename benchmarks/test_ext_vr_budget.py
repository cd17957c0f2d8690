"""Extension experiment: VR motion-to-photon budget, edge vs cloud.

Not in the paper's evaluation, but it quantifies the introduction's
claim that CI applications like VR "require very low end-to-end
latencies (low tens of milliseconds or less)": a 60 Hz pose stream with
20 KB rendered tiles either fits the comfort budget at the edge or
blows it from the core, independent of any compute optimisation.
"""

import numpy as np

from repro.apps.vr import VRClient, VRRenderServer
from repro.core.mrs import MecRegistrationServer
from repro.core.network import MobileNetwork
from repro.core.service import CIService

POSES = 120
BUDGETS = [0.020, 0.050, 0.100]


def run_vr(edge: bool) -> VRClient:
    network = MobileNetwork()
    server = VRRenderServer(network.sim, "vr-render")
    if edge:
        network.add_mec_site("mec")
        network.add_server("vr-render", site_name="mec", node=server)
        mrs = MecRegistrationServer(network)
        mrs.register_service(CIService("vr", "vr-arena"))
        mrs.deploy_instance("vr", "vr-render", "mec")
        ue = network.add_ue()
        mrs.request_connectivity(ue, "vr")
    else:
        network.add_server("vr-render", site_name="central", node=server)
        ue = network.add_ue()
        network.route_via_default_bearer(ue, "vr-render")
    client = VRClient(network.sim, ue, server.ip, max_poses=POSES)
    client.start()
    network.sim.run(until=POSES / 60.0 + 3.0)
    return client


def test_ext_vr_budget(report):
    edge = run_vr(edge=True)
    cloud = run_vr(edge=False)

    r = report("ext_vr_budget",
               "Extension: VR motion-to-photon, edge vs cloud (60 Hz)")
    rows = []
    for label, client in (("ACACIA edge", edge), ("cloud", cloud)):
        samples = client.motion_to_photon() * 1e3
        rows.append([label, f"{np.median(samples):.1f}",
                     f"{np.percentile(samples, 95):.1f}"]
                    + [f"{client.fraction_within(b):.0%}"
                       for b in BUDGETS])
    r.table(["deployment", "median (ms)", "p95 (ms)"]
            + [f"<= {int(b * 1e3)} ms" for b in BUDGETS], rows)

    assert edge.fraction_within(0.050) > 0.95
    assert cloud.fraction_within(0.050) == 0.0
    assert np.median(edge.motion_to_photon()) < \
        0.5 * np.median(cloud.motion_to_photon())
