"""Figure 13: end-to-end latency breakdown -- ACACIA vs MEC vs CLOUD.

The full stack: a customer at a checkpoint streams 720*480 JPEG frames
through the simulated mobile network to the AR server, which matches
them against the 105-object store database.

Paper headline numbers: ACACIA cuts matching 7.7x (location pruning),
network latency 3.15x vs CLOUD (edge path + dedicated bearer); MEC
alone gives ~25% end-to-end reduction over CLOUD; ACACIA reaches ~60%
over MEC and ~70% over CLOUD.

The measurement itself is the declarative ``fig13`` preset (see
:mod:`repro.exp.presets`) driven through the experiment runner, so
``python -m repro exp run fig13`` regenerates exactly these numbers.
"""

import pytest

from repro.exp import ExperimentRunner, preset

KINDS = ("acacia", "mec", "cloud")
FRAMES = 8


def test_fig13_end_to_end(report):
    spec = preset("fig13")
    outcome = ExperimentRunner(spec).run()
    assert outcome.ok, [f.error for f in outcome.failures()]
    metrics = outcome.metrics_by("kind")

    breakdowns = {}
    for kind in KINDS:
        m = metrics[(kind,)]
        assert m["frames_completed"] == FRAMES
        assert m["all_matched"]
        breakdowns[kind] = m["breakdown_ms"]

    r = report("fig13_end_to_end",
               "Figure 13: end-to-end per-frame breakdown (ms), 720*480")
    rows = []
    for part in ("match", "compute", "network", "total"):
        rows.append([part.capitalize()] + [
            f"{breakdowns[kind][part]:.0f}" for kind in KINDS])
    r.table(["component", "ACACIA", "MEC", "CLOUD"], rows)

    acacia, mec, cloud = (breakdowns[k] for k in KINDS)
    match_speedup = cloud["match"] / acacia["match"]
    network_speedup = cloud["network"] / acacia["network"]
    e2e_vs_cloud = 1 - acacia["total"] / cloud["total"]
    e2e_vs_mec = 1 - acacia["total"] / mec["total"]
    mec_vs_cloud = 1 - mec["total"] / cloud["total"]
    r.line()
    r.line(f"match reduction ACACIA vs CLOUD: {match_speedup:.1f}x "
           f"(paper: 7.7x)")
    r.line(f"network reduction ACACIA vs CLOUD: {network_speedup:.2f}x "
           f"(paper: 3.15x)")
    r.line(f"end-to-end reduction vs CLOUD: {e2e_vs_cloud:.0%} "
           f"(paper: 70%)")
    r.line(f"end-to-end reduction vs MEC: {e2e_vs_mec:.0%} (paper: 60%)")
    r.line(f"MEC end-to-end reduction vs CLOUD: {mec_vs_cloud:.0%} "
           f"(paper: 25%)")

    # paper-shape assertions (generous bands around the headline
    # claims; see EXPERIMENTS.md for the per-number discussion)
    assert 3.0 <= match_speedup <= 12.0
    assert 1.8 <= network_speedup <= 5.0
    assert 0.55 <= e2e_vs_cloud <= 0.85
    assert 0.40 <= e2e_vs_mec <= 0.75
    assert 0.05 <= mec_vs_cloud <= 0.40
    # compute (encode/decode/SURF) is scheme-independent
    assert acacia["compute"] == pytest.approx(cloud["compute"], rel=0.05)
