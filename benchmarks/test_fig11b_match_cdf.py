"""Figure 11(b): CDF of the matching runtime at 960*720.

Per-checkpoint matching-time distributions for the three schemes on
both machines.  Paper shape: without pruning (Naive, i7) some frames
take over a second; ACACIA's distribution sits an order of magnitude
to the left.
"""

import numpy as np

from benchmarks.test_fig11a_search_space import SCHEMES
from repro.exp.workloads import build_context, search_space_for
from repro.vision.camera import R960x720
from repro.vision.costmodel import DEVICES

MACHINES = ["xeon-32core", "i7-8core"]


def test_fig11b_match_cdf(scenario, db, report):
    localization, optimizer, samples = build_context(scenario, db, seed=31)

    series = {}
    for machine in MACHINES:
        device = DEVICES[machine]
        for scheme in SCHEMES:
            times = []
            for sample in samples:
                space = search_space_for(scheme, localization, optimizer,
                                         sample.checkpoint.name)
                times.append(device.db_match_time(
                    R960x720, db_objects=space.size,
                    object_features=db.mean_nominal_features(
                        space.records)))
            series[(scheme, machine)] = np.sort(times)

    r = report("fig11b_match_cdf",
               "Figure 11(b): match-runtime percentiles (ms) at 960*720")
    rows = []
    for (scheme, machine), values in series.items():
        rows.append([
            f"{scheme} ({machine})",
            f"{np.percentile(values, 25) * 1e3:.0f}",
            f"{np.percentile(values, 50) * 1e3:.0f}",
            f"{np.percentile(values, 75) * 1e3:.0f}",
            f"{values.max() * 1e3:.0f}",
        ])
    r.table(["scheme (machine)", "p25", "p50", "p75", "max"], rows)

    # paper observations: naive on the i7 crosses 1 second for some
    # frames; ACACIA's whole distribution is far below
    assert series[("naive", "i7-8core")].max() > 0.5
    assert series[("acacia", "i7-8core")].max() < \
        series[("naive", "i7-8core")].min()
    # first-order stochastic dominance of acacia over rxpower over naive
    for machine in MACHINES:
        acacia = series[("acacia", machine)]
        rx = series[("rxpower", machine)]
        naive = series[("naive", machine)]
        assert np.median(acacia) < np.median(rx) < np.median(naive)
