"""Figure 3(b): brute-force matcher runtime vs resolution/device.

Two-image (one object) comparison; paper shape: the smartphone takes
~seconds, the servers are 223x / 852x / 3284x faster.
"""

import pytest

from repro.vision.camera import (R320x240, R480x360, R720x540, R960x720,
                                 R1440x1080)
from repro.vision.costmodel import DEVICES
from repro.vision.features import expected_feature_count

RESOLUTIONS = [R320x240, R480x360, R720x540, R960x720, R1440x1080]
DEVICE_ORDER = ["oneplus-one", "i7-1core", "i7-8core", "gpu-titan"]


def test_fig3b_match_runtime(report):
    rows = []
    for resolution in RESOLUTIONS:
        features = expected_feature_count(resolution)
        row = [f"{resolution} ({features:.1f})"]
        for device_name in DEVICE_ORDER:
            runtime = DEVICES[device_name].pairwise_match_time(
                features, features)
            row.append(f"{runtime:.4g}s")
        rows.append(row)

    r = report("fig3b_match_runtime",
               "Figure 3(b): brute-force match runtime (sec), two images")
    r.table(["resolution (#features)"] + DEVICE_ORDER, rows)

    features = expected_feature_count(R960x720)
    base = DEVICES["oneplus-one"].pairwise_match_time(features, features)
    assert base / DEVICES["i7-1core"].pairwise_match_time(
        features, features) == pytest.approx(223.0)
    assert base / DEVICES["i7-8core"].pairwise_match_time(
        features, features) == pytest.approx(852.0)
    assert base / DEVICES["gpu-titan"].pairwise_match_time(
        features, features) == pytest.approx(3284.0)
