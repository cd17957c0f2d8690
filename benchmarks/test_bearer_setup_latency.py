"""Bearer-setup latency vs. concurrent signalling load.

Every control procedure now runs as a simulator process whose messages
traverse modelled signalling channels, so concurrent dedicated-bearer
activations contend on the shared per-cell RRC channel and the core
S11/S5/Gx paths.  This bench sweeps how many UEs activate a dedicated
MEC bearer simultaneously and reports the measured setup-latency
distribution -- the Section 5.4 bearer-setup sequence under load.

The measurement itself is the ``bearer-setup`` scenario document
driven through the experiment runner, so ``python -m repro scenario
run bearer-setup`` regenerates exactly these numbers.
"""

from repro.exp import ExperimentRunner
from repro.scenario import load

SWEEP = (1, 5, 10, 25, 50)


def test_bearer_setup_latency_vs_load(report):
    spec = load("bearer-setup").compile()
    outcome = ExperimentRunner(spec).run()
    assert outcome.ok, [f.error for f in outcome.failures()]
    metrics = outcome.metrics_by("n_ues")
    assert sorted(n for (n,) in metrics) == list(SWEEP)

    rows = [[n_ues,
             f"{metrics[(n_ues,)]['mean_ms']:.1f}",
             f"{metrics[(n_ues,)]['p95_ms']:.1f}",
             f"{metrics[(n_ues,)]['max_ms']:.1f}"]
            for n_ues in SWEEP]
    r = report("bearer_setup_latency",
               "Dedicated-bearer setup latency vs concurrent load")
    r.table(["n_ues", "mean_ms", "p95_ms", "max_ms"], rows)
    r.line()
    r.line("concurrent setups serialise on the shared RRC channel and "
           "the core signalling paths")

    lone = metrics[(1,)]["setup_ms"][0]
    # a lone setup sits in the calibrated tens-of-ms band
    assert 20.0 < lone < 100.0
    # latency grows under concurrent signalling load ...
    means = [metrics[(n,)]["mean_ms"] for n in SWEEP]
    assert means == sorted(means)
    assert means[-1] > 1.5 * lone
    # ... and the tail stretches even more than the mean
    assert metrics[(SWEEP[-1],)]["max_ms"] > 2.0 * lone
    # but every bearer still comes up in bounded time
    assert all(lat < 1000.0 for m in metrics.values()
               for lat in m["setup_ms"])
