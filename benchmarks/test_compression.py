"""Section 7.3 micro-benchmark: JPEG-90 compression time and ratio.

Paper numbers on the OnePlus One: 53/38/23 ms encode and 5 / 5.8 / 4.7x
size reduction for 1280*720 / 960*720 / 720*480 grayscale frames.
"""

import pytest

from repro.vision.camera import R720x480, R960x720, R1280x720
from repro.vision.codec import JPEG90

RESOLUTIONS = [R1280x720, R960x720, R720x480]
PAPER_ENCODE_MS = {R1280x720: 53, R960x720: 38, R720x480: 23}


def test_compression_micro(report):
    rows = []
    for resolution in RESOLUTIONS:
        encode = JPEG90.encode_time(resolution)
        ratio = JPEG90.compression_ratio(resolution)
        rows.append([str(resolution), f"{encode * 1e3:.1f}",
                     f"{PAPER_ENCODE_MS[resolution]}",
                     f"{ratio:.1f}x"])

    r = report("compression_micro",
               "Sec 7.3: JPEG-90 encode time (ms, One+ One) and ratio")
    r.table(["resolution", "encode (model)", "encode (paper)", "ratio"],
            rows)

    for resolution in RESOLUTIONS:
        assert JPEG90.encode_time(resolution) * 1e3 == pytest.approx(
            PAPER_ENCODE_MS[resolution], abs=4.0)
        assert 4.5 <= JPEG90.compression_ratio(resolution) <= 6.0
