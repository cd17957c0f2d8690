"""Figure 3(f): achievable upload FPS by codec and uplink capacity.

HD (1920*1080) grayscale preview frames from the OnePlus camera
(10 FPS); paper shape: raw cannot ship 1 FPS even at 12 Mbps, JPEG-90
reaches ~8 FPS, stronger compression approaches the camera rate.
"""

from repro.vision.camera import R1920x1080, CameraModel
from repro.vision.codec import (JPEG50, JPEG80, JPEG90, JPEG100, PNG,
                                RAW_GRAY, achievable_fps)

CAPACITIES = [5.5e6, 10e6, 12e6]
CODECS = [JPEG50, JPEG80, JPEG90, JPEG100, PNG, RAW_GRAY]

#: The Figure 3(f) test scene is a wide HD preview, which compresses
#: better than the close-up retail objects of Section 7.3.
SCENE_COMPLEXITY = 0.47


def test_fig3f_fps_vs_capacity(report):
    camera_fps = CameraModel().preview_fps(R1920x1080)
    rows = []
    for codec in CODECS:
        row = [codec.name]
        for capacity in CAPACITIES:
            fps = achievable_fps(codec, R1920x1080, capacity, camera_fps,
                                 scene_complexity=SCENE_COMPLEXITY)
            row.append(f"{fps:.1f}")
        rows.append(row)

    r = report("fig3f_fps_vs_capacity",
               "Figure 3(f): upload FPS at HD by codec and uplink capacity")
    r.table(["codec"] + [f"{c / 1e6:g} Mbps" for c in CAPACITIES], rows)

    raw_fps = achievable_fps(RAW_GRAY, R1920x1080, 12e6, camera_fps)
    assert raw_fps < 1.0
    jpeg90_fps = achievable_fps(JPEG90, R1920x1080, 12e6, camera_fps,
                                scene_complexity=SCENE_COMPLEXITY)
    assert 6.0 <= jpeg90_fps <= 10.0
    # more compression never hurts the achievable rate
    for capacity in CAPACITIES:
        series = [achievable_fps(c, R1920x1080, capacity, camera_fps,
                                 scene_complexity=SCENE_COMPLEXITY)
                  for c in CODECS]
        assert series == sorted(series, reverse=True)
