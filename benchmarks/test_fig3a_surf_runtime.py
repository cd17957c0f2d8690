"""Figure 3(a): SURF detection+description runtime vs resolution/device.

Paper shape: OnePlus One ~2 s even at 320*240; servers 36x / 182x /
1087x faster (1 i7 core / 8 cores / GPU).
"""

from repro.vision.camera import (R320x240, R480x360, R720x540, R960x720,
                                 R1440x1080)
from repro.vision.costmodel import DEVICES
from repro.vision.features import expected_feature_count

RESOLUTIONS = [R320x240, R480x360, R720x540, R960x720, R1440x1080]
DEVICE_ORDER = ["oneplus-one", "i7-1core", "i7-8core", "gpu-titan"]


def test_fig3a_surf_runtime(report):
    rows = []
    for resolution in RESOLUTIONS:
        row = [f"{resolution} ({expected_feature_count(resolution):.1f})"]
        for device_name in DEVICE_ORDER:
            runtime = DEVICES[device_name].surf_time(resolution)
            row.append(f"{runtime:.4g}s")
        rows.append(row)

    r = report("fig3a_surf_runtime",
               "Figure 3(a): SURF runtime (sec) by resolution and device")
    r.table(["resolution (#features)"] + DEVICE_ORDER, rows)

    # paper-shape checks
    one_plus = DEVICES["oneplus-one"]
    assert one_plus.surf_time(R320x240) >= 2.0
    base = one_plus.surf_time(R960x720)
    assert base / DEVICES["i7-1core"].surf_time(R960x720) == 36.0
    assert base / DEVICES["gpu-titan"].surf_time(R960x720) == 1087.0
