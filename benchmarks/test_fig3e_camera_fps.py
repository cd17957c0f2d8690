"""Figure 3(e): OnePlus One camera preview FPS per resolution.

Paper shape: 30 FPS at low resolutions falling to 10 FPS at 1920*1080.
"""

from repro.vision.camera import (PREVIEW_FPS, R320x240, R1920x1080,
                                 CameraModel)


def test_fig3e_camera_fps(report):
    camera = CameraModel()
    ordered = sorted(PREVIEW_FPS, key=lambda r: r.pixels)
    rows = [[str(res), f"{camera.preview_fps(res):.0f}"]
            for res in ordered]

    r = report("fig3e_camera_fps",
               "Figure 3(e): camera preview FPS by resolution (One+ One)")
    r.table(["resolution", "fps"], rows)

    assert camera.preview_fps(R320x240) == 30.0
    assert camera.preview_fps(R1920x1080) == 10.0
    fps = [camera.preview_fps(res) for res in ordered]
    assert fps == sorted(fps, reverse=True)
