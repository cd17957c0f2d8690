"""Figure 3(h): object-matching runtime vs database size (i7, 8 cores).

Paper shape: runtime grows linearly with database size; 50 objects at
high resolution approach ~1 s, making database pruning a first-order
optimisation target.
"""

from repro.vision.camera import (R320x240, R480x360, R720x540, R960x720,
                                 R1440x1080)
from repro.vision.costmodel import DEVICES

DB_SIZES = [1, 5, 10, 25, 50]
RESOLUTIONS = [R320x240, R480x360, R720x540, R960x720, R1440x1080]


def test_fig3h_db_size(report):
    device = DEVICES["i7-8core"]
    rows = []
    for resolution in RESOLUTIONS:
        row = [str(resolution)]
        for size in DB_SIZES:
            row.append(f"{device.db_match_time(resolution, size):.4f}")
        rows.append(row)

    r = report("fig3h_db_size",
               "Figure 3(h): match runtime (sec) vs DB size, i7 8-core")
    r.table(["resolution"] + [f"{s} obj" for s in DB_SIZES], rows)

    # linear growth and the ~1 s magnitude at the top-right corner
    t1 = device.db_match_time(R1440x1080, 1)
    t50 = device.db_match_time(R1440x1080, 50)
    assert abs(t50 - 50 * t1) < 1e-9
    assert 0.3 <= t50 <= 2.0
