"""Figure 10(b): latency vs background traffic for the three designs.

* Conventional EPC -- distant shared gateways (~70 ms baseline);
* EPC with MEC -- gateways+server co-located with the eNodeB (~13 ms
  baseline) but the data path is still shared with background traffic;
* ACACIA -- dedicated bearer onto local split GW-Us, background load
  stays on the central gateways.

Paper shape: below saturation the MEC server's proximity dominates;
at/over ~90-100 Mbps the two shared designs explode while ACACIA stays
flat at its low baseline.

The measurement itself is the declarative ``fig10b`` preset (see
:mod:`repro.exp.presets`) driven through the experiment runner, so
``python -m repro exp run fig10b`` regenerates exactly these numbers.  The
trials run on two worker processes; the runner's output does not
depend on the worker count.
"""

import pytest

from repro.exp import ExperimentRunner, preset, run_trial

SYSTEM_LABELS = {"conventional": "Conventional EPC",
                 "mec-shared": "EPC with MEC",
                 "acacia": "ACACIA"}
BG_RATES_MBPS = [0, 40, 80, 100]


def test_fig10b_isolation(report, benchmark):
    spec = preset("fig10b")
    outcome = ExperimentRunner(spec, workers=2).run()
    assert outcome.ok, [f.error for f in outcome.failures()]
    metrics = outcome.metrics_by("system", "bg_mbps")

    results = {}
    rows = []
    for system, label in SYSTEM_LABELS.items():
        row = [label]
        for bg in BG_RATES_MBPS:
            latency = metrics[(system, bg)]["median_rtt_ms"] / 1e3
            results[(label, bg)] = latency
            row.append(f"{latency * 1e3:.1f}")
        rows.append(row)

    r = report("fig10b_isolation",
               "Figure 10(b): median latency (ms) vs background traffic")
    r.table(["system"] + [f"{bg} Mbps" for bg in BG_RATES_MBPS], rows)

    # below saturation, server location dominates: MEC ~ ACACIA << EPC
    assert results[("EPC with MEC", 0)] < 0.3 * \
        results[("Conventional EPC", 0)]
    assert results[("ACACIA", 0)] == pytest.approx(
        results[("EPC with MEC", 0)], rel=0.5)

    # at saturation the shared designs explode...
    assert results[("Conventional EPC", 100)] > \
        10 * results[("Conventional EPC", 0)]
    assert results[("EPC with MEC", 100)] > \
        10 * results[("EPC with MEC", 0)]
    # ...while ACACIA's isolated bearer is unaffected
    assert results[("ACACIA", 100)] == pytest.approx(
        results[("ACACIA", 0)], rel=0.5)
    assert results[("ACACIA", 100)] < 0.020

    quiet_acacia = next(t for t in spec.trials()
                        if t.param_dict["system"] == "acacia"
                        and t.param_dict["bg_mbps"] == 0)
    benchmark.pedantic(run_trial, args=(quiet_acacia,), rounds=1,
                       iterations=1)
