"""Figure 3(c): RTT CDF from an LTE smartphone to EC2 regions.

Paper shape: California is the closest region with ~70 ms median RTT;
Oregon and Virginia deliver substantially higher medians; all CDFs have
heavy upper tails.
"""

import numpy as np

from repro.sim.wan import LTE_WAN_PROFILES, rtt_cdf

SAMPLES = 2000


def test_fig3c_lte_rtt(report):
    rng = np.random.default_rng(0)
    rows = []
    samples = {}
    for name, profile in LTE_WAN_PROFILES.items():
        rtts = profile.sample_rtt(rng, SAMPLES)
        samples[name] = rtts
        rows.append([
            name,
            f"{np.median(rtts) * 1e3:.1f}",
            f"{np.percentile(rtts, 10) * 1e3:.1f}",
            f"{np.percentile(rtts, 90) * 1e3:.1f}",
            f"{rtts.max() * 1e3:.1f}",
        ])

    r = report("fig3c_lte_rtt",
               "Figure 3(c): LTE->EC2 RTT distribution (ms)")
    r.table(["region", "median", "p10", "p90", "max"], rows)
    r.line()
    r.line("CDF samples (ms at cumulative probability):")
    for name, rtts in samples.items():
        xs, ps = rtt_cdf(rtts)
        points = [f"p{int(p * 100):02d}={xs[np.searchsorted(ps, p)] * 1e3:.0f}"
                  for p in (0.25, 0.5, 0.75, 0.95)]
        r.line(f"  {name}: " + " ".join(points))

    ca = np.median(samples["ec2-california"])
    assert 0.060 <= ca <= 0.080                 # ~70 ms median
    assert np.median(samples["ec2-oregon"]) > ca
    assert np.median(samples["ec2-virginia"]) > \
        np.median(samples["ec2-oregon"])
