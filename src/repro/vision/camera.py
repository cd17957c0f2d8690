"""Camera model: resolutions and preview frame rates.

Figure 3(e) measures the OnePlus One camera's preview FPS per
resolution; the table below mirrors that curve (30 FPS at low
resolutions falling to 10 FPS at full HD).
"""

from __future__ import annotations

from typing import NamedTuple


class Resolution(NamedTuple):
    """A capture resolution."""

    width: int
    height: int

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def __str__(self) -> str:
        return f"{self.width}*{self.height}"


# the resolutions the paper uses across its figures
R320x240 = Resolution(320, 240)
R480x360 = Resolution(480, 360)
R640x480 = Resolution(640, 480)
R720x480 = Resolution(720, 480)
R720x540 = Resolution(720, 540)
R960x720 = Resolution(960, 720)
R1280x720 = Resolution(1280, 720)
R1280x960 = Resolution(1280, 960)
R1440x1080 = Resolution(1440, 1080)
R1920x1080 = Resolution(1920, 1080)

#: Figure 3(e): OnePlus One camera preview FPS per resolution.
PREVIEW_FPS: dict[Resolution, float] = {
    R320x240: 30.0,
    R640x480: 30.0,
    R720x480: 30.0,
    R1280x720: 24.0,
    R1280x960: 15.0,
    R1440x1080: 13.0,
    R1920x1080: 10.0,
}


class CameraModel:
    """Preview-rate lookup with interpolation for unlisted resolutions."""

    def __init__(self, fps_table: dict[Resolution, float] | None = None):
        self.fps_table = dict(fps_table or PREVIEW_FPS)

    def preview_fps(self, resolution: Resolution) -> float:
        if resolution in self.fps_table:
            return self.fps_table[resolution]
        # interpolate on pixel count between the nearest known points
        known = sorted(self.fps_table, key=lambda r: r.pixels)
        if resolution.pixels <= known[0].pixels:
            return self.fps_table[known[0]]
        if resolution.pixels >= known[-1].pixels:
            return self.fps_table[known[-1]]
        for low, high in zip(known, known[1:]):
            if low.pixels <= resolution.pixels <= high.pixels:
                span = high.pixels - low.pixels
                frac = (resolution.pixels - low.pixels) / span
                return (self.fps_table[low] * (1 - frac)
                        + self.fps_table[high] * frac)
        raise AssertionError("unreachable")  # pragma: no cover

    def frame_interval(self, resolution: Resolution) -> float:
        """Seconds between preview frames at a resolution."""
        return 1.0 / self.preview_fps(resolution)
