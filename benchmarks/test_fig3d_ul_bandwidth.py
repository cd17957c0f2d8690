"""Figure 3(d): LTE uplink bandwidth to EC2 regions by signal quality.

Paper shape: ~12 Mbps peak to California at excellent signal, roughly
half at fair signal, decreasing with region distance.
"""

from repro.sim.wan import LTE_WAN_PROFILES


def test_fig3d_ul_bandwidth(report):
    rows = []
    for name, profile in LTE_WAN_PROFILES.items():
        rows.append([
            name,
            f"{profile.ul_bandwidth('excellent') / 1e6:.1f}",
            f"{profile.ul_bandwidth('fair') / 1e6:.1f}",
        ])

    r = report("fig3d_ul_bandwidth",
               "Figure 3(d): uplink bandwidth (Mbps) by region and signal")
    r.table(["region", "excellent (4/4 bars)", "fair (2/4 bars)"], rows)

    ca = LTE_WAN_PROFILES["ec2-california"]
    assert ca.ul_bandwidth("excellent") == 12e6
    for profile in LTE_WAN_PROFILES.values():
        assert profile.ul_bandwidth("fair") < \
            profile.ul_bandwidth("excellent")
