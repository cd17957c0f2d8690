"""Figure 11(a): object-matching time by search scheme, machine and
resolution -- plus the accuracy side-experiment.

24 checkpoints x 5 frames against the 105-object database.  Paper
shape: ACACIA (sub-section pruning) up to ~5x faster than Naive and
~2x faster than rxPower; the Xeon beats the i7; Naive and ACACIA match
every frame while rxPower suffers a boundary false negative.

The measurement itself is the declarative ``fig11a`` preset (see
:mod:`repro.exp.presets`) driven through the experiment runner, so
``python -m repro exp run fig11a`` regenerates exactly these numbers.
"""

from repro.exp import ExperimentRunner, preset
from repro.vision.camera import R720x480, R960x720, R1280x720

SCHEMES = ["acacia", "rxpower", "naive"]
MACHINES = ["i7-8core", "xeon-32core"]
RESOLUTIONS = [R720x480, R960x720, R1280x720]


def test_fig11a_search_space(report):
    spec = preset("fig11a")
    outcome = ExperimentRunner(spec).run()
    assert outcome.ok, [f.error for f in outcome.failures()]
    metrics = outcome.metrics_by("machine")

    # --- timing table (cost model over the real pruned search spaces)
    rows = []
    mean_times = {}
    for machine in MACHINES:
        per_machine = metrics[(machine,)]["mean_ms"]
        for resolution in RESOLUTIONS:
            row = [f"{machine} ({resolution})"]
            for scheme in SCHEMES:
                mean = per_machine[f"{resolution}|{scheme}"] / 1e3
                mean_times[(machine, resolution, scheme)] = mean
                row.append(f"{mean * 1e3:.0f}")
            rows.append(row)

    r = report("fig11a_search_space",
               "Figure 11(a): mean matching time (ms) by scheme")
    r.table(["machine (resolution)"] + SCHEMES, rows)

    # --- accuracy: is the true object inside each scheme's space?
    # (scheme accuracy is machine-independent; report the first cell)
    first = metrics[(MACHINES[0],)]
    misses = first["misses"]
    checkpoints = first["checkpoints"]
    r.line()
    for scheme in SCHEMES:
        r.line(f"{scheme}: true object pruned away at "
               f"{len(misses[scheme])}/{checkpoints} checkpoints "
               f"{misses[scheme] if misses[scheme] else ''}")

    # paper shape: ACACIA up to ~5x vs naive, ~2x vs rxPower
    for machine in MACHINES:
        for resolution in RESOLUTIONS:
            naive = mean_times[(machine, resolution, "naive")]
            rx = mean_times[(machine, resolution, "rxpower")]
            acacia = mean_times[(machine, resolution, "acacia")]
            assert 3.0 <= naive / acacia <= 8.0
            assert 1.2 <= rx / acacia <= 3.5
            assert rx < naive
    # Xeon faster than i7 at every point
    for resolution in RESOLUTIONS:
        for scheme in SCHEMES:
            assert mean_times[("xeon-32core", resolution, scheme)] < \
                mean_times[("i7-8core", resolution, scheme)]
    # naive and acacia never lose the true object; rxPower may miss a
    # boundary checkpoint or two
    assert misses["naive"] == []
    assert misses["acacia"] == []
    assert len(misses["rxpower"]) <= 3
