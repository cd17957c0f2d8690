"""Figure 9(b): localisation accuracy vs number of landmarks.

Trace-based evaluation over the 24 checkpoints of Figure 9(a): for
every subset of k of the 7 landmarks, trilaterate from shadowed rxPower
observations and measure Euclidean error.  Paper shape: error falls as
landmarks are added; the best/worst spread is large for few landmarks
and shrinks with more; ~3 m mean error with all seven.
"""

import itertools
import math

import numpy as np

from repro.apps.scenario import FLOOR_HEIGHT, FLOOR_WIDTH
from repro.d2d.radio import RadioModel
from repro.localization.pathloss import calibrate_from_radio
from repro.localization.trilateration import TrilaterationError, trilaterate

LANDMARK_COUNTS = [3, 4, 5, 6, 7]

#: Deployment prior: estimates must land on the store floor, and no
#: landmark can be further away than the floor diagonal.
FLOOR_BOUNDS = ((0.0, FLOOR_WIDTH), (0.0, FLOOR_HEIGHT))
MAX_RANGE = 50.0


def run_sweep(scenario, workload, seed=11):
    radio = RadioModel()
    rng = np.random.default_rng(seed)
    regression = calibrate_from_radio(radio, rng)
    names = list(scenario.landmarks)

    # one shadowed observation per (checkpoint, landmark), as a phone
    # hears in a single discovery period
    observations = {}
    for cp in scenario.checkpoints:
        per_landmark = {}
        for name in names:
            d = math.dist(cp.position, scenario.landmarks[name])
            per_landmark[name] = radio.rx_power(d, rng)
        observations[cp.name] = per_landmark

    stats = {}
    for k in LANDMARK_COUNTS:
        combo_errors = []
        for combo in itertools.combinations(names, k):
            errors = []
            for cp in scenario.checkpoints:
                anchors = [scenario.landmarks[n] for n in combo]
                ranges = [regression.predict_distance(
                    observations[cp.name][n], max_distance=MAX_RANGE)
                    for n in combo]
                try:
                    estimate = trilaterate(anchors, ranges,
                                           bounds=FLOOR_BOUNDS)
                except TrilaterationError:
                    continue
                errors.append(math.dist(estimate, cp.position))
            combo_errors.append(float(np.mean(errors)))
        stats[k] = {
            "best": float(np.min(combo_errors)),
            "mean": float(np.mean(combo_errors)),
            "worst": float(np.max(combo_errors)),
            "combos": len(combo_errors),
        }
    return stats


def test_fig9_localization(scenario, workload, report):
    stats = run_sweep(scenario, workload)

    r = report("fig9_localization",
               "Figure 9(b): Euclidean error (m) vs number of landmarks")
    r.table(["landmarks", "best", "mean", "worst", "combos"],
            [[k, f"{s['best']:.2f}", f"{s['mean']:.2f}",
              f"{s['worst']:.2f}", s["combos"]]
             for k, s in stats.items()])

    # paper shape: accuracy improves with landmark count ...
    means = [stats[k]["mean"] for k in LANDMARK_COUNTS]
    assert means[-1] <= means[0]
    assert stats[7]["mean"] <= min(stats[3]["mean"], stats[4]["mean"])
    # ... the best-worst spread shrinks as landmarks are added ...
    spread3 = stats[3]["worst"] - stats[3]["best"]
    spread7 = stats[7]["worst"] - stats[7]["best"]
    assert spread7 < spread3
    # ... and the headline: ~3 m average error with all 7 landmarks
    assert 1.5 <= stats[7]["mean"] <= 4.5
