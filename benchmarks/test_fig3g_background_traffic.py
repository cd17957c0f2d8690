"""Figure 3(g): network latency vs background traffic and server RTT.

A single (conventional, non-split) S/P-GW pair serves both the AR
traffic and iperf-style background load; server proximity is emulated
with controlled link delays giving ~70 / 18 / 8 ms baseline RTTs.
Paper shape: latency is flat at the baseline until the shared gateways
saturate (~90-100 Mbps), then explodes towards seconds.

The measurement itself is the ``fig3g`` scenario document (tagged
``preset`` in ``scenarios/``) driven through the experiment runner,
so ``python -m repro scenario run fig3g`` regenerates exactly these
numbers.  The trials run on two worker processes; the runner's output
does not depend on the worker count.
"""

import pytest

from repro.exp import ExperimentRunner
from repro.scenario import load

RTT_LABELS = {70: "70 ms", 18: "18 ms", 8: "8 ms"}
BG_RATES_MBPS = [0, 40, 80, 90, 100]


def test_fig3g_background_traffic(report):
    spec = load("fig3g").compile()
    outcome = ExperimentRunner(spec, workers=2).run()
    assert outcome.ok, [f.error for f in outcome.failures()]
    metrics = outcome.metrics_by("rtt_ms", "bg_mbps")

    results = {}
    rows = []
    for rtt_ms, label in RTT_LABELS.items():
        row = [f"One S-PGW ({label})"]
        for bg in BG_RATES_MBPS:
            latency = metrics[(rtt_ms, bg)]["median_rtt_ms"] / 1e3
            results[(label, bg)] = latency
            row.append(f"{latency * 1e3:.1f}")
        rows.append(row)

    r = report("fig3g_background_traffic",
               "Figure 3(g): median latency (ms) vs background traffic")
    r.table(["config"] + [f"{bg} Mbps" for bg in BG_RATES_MBPS], rows)

    for label in RTT_LABELS.values():
        quiet = results[(label, 0)]
        loaded = results[(label, 100)]
        # flat until saturation...
        assert results[(label, 40)] == pytest.approx(quiet, rel=0.5)
        # ...then an explosion of >10x at/over capacity
        assert loaded > 10 * quiet
        assert loaded > 0.4     # approaching the ~second regime

    # baseline ordering matches the emulated RTTs
    assert results[("8 ms", 0)] < results[("18 ms", 0)] < \
        results[("70 ms", 0)]
