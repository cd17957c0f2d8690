"""Frame compression model (grayscale JPEG/PNG).

Encodes two calibrated behaviours from the paper:

* Section 7.3: JPEG-90 compression of raw grayscale frames on the
  OnePlus One takes 53/38/23 ms for 1280*720 / 960*720 / 720*480 and
  yields 5 / 5.8 / 4.7x size reduction;
* Figure 3(f): achievable upload FPS per codec as a function of uplink
  capacity, where an uncompressed grayscale HD frame cannot even be
  sent once per second at 12 Mbps.

Compression ratio depends on scene content; the paper's retail-object
close-ups (Section 7.3) compress less than its wide HD preview scenes
(Figure 3(f)).  ``scene_complexity`` captures that: 1.0 reproduces the
Section 7.3 ratios, ~0.5 the Figure 3(f) frame sizes.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.vision.camera import Resolution

#: Raw grayscale: 8 bits per pixel.
RAW_BITS_PER_PIXEL = 8.0

#: Bits/pixel at scene_complexity=1.0; JPEG-90 at 1.6 bpp gives the
#: paper's ~5x reduction over 8 bpp raw.
_BASE_BPP = {
    "jpeg50": 0.70,
    "jpeg80": 1.15,
    "jpeg90": 1.60,
    "jpeg100": 4.40,
    "png": 5.70,
    "raw": RAW_BITS_PER_PIXEL,
}

#: OnePlus One JPEG encode cost: t = a * pixels + b, fitted to the
#: Section 7.3 measurements (23 ms @ 345.6 kpx ... 53 ms @ 921.6 kpx).
_ENCODE_COST_PER_PIXEL = 5.2e-8
_ENCODE_COST_FIXED = 0.005

#: Server-side decode, per pixel (i7 class).
_DECODE_COST_PER_PIXEL = 5e-9


class CompressionModel(NamedTuple):
    """One codec configuration."""

    name: str
    bits_per_pixel: float
    lossy: bool = True

    def frame_bytes(self, resolution: Resolution,
                    scene_complexity: float = 1.0) -> int:
        """Compressed frame size for a scene."""
        if self.name == "raw":
            return resolution.pixels           # complexity-independent
        bpp = self.bits_per_pixel * scene_complexity
        return max(1, int(resolution.pixels * bpp / 8))

    def compression_ratio(self, resolution: Resolution,
                          scene_complexity: float = 1.0) -> float:
        raw = resolution.pixels
        return raw / self.frame_bytes(resolution, scene_complexity)

    def encode_time(self, resolution: Resolution,
                    device_speedup: float = 1.0) -> float:
        """Encode latency (seconds); device_speedup=1 is the OnePlus One."""
        if self.name == "raw":
            return 0.0
        cost = (_ENCODE_COST_PER_PIXEL * resolution.pixels
                + _ENCODE_COST_FIXED)
        return cost / device_speedup

    def decode_time(self, resolution: Resolution) -> float:
        """Server-side decode latency (seconds)."""
        if self.name == "raw":
            return 0.0
        return _DECODE_COST_PER_PIXEL * resolution.pixels


def _make(name: str) -> CompressionModel:
    return CompressionModel(name=name, bits_per_pixel=_BASE_BPP[name],
                            lossy=name.startswith("jpeg")
                            and name != "jpeg100")


JPEG50 = _make("jpeg50")
JPEG80 = _make("jpeg80")
JPEG90 = _make("jpeg90")
JPEG100 = _make("jpeg100")
PNG = _make("png")
RAW_GRAY = _make("raw")

ALL_CODECS = [JPEG50, JPEG80, JPEG90, JPEG100, PNG, RAW_GRAY]


def achievable_fps(codec: CompressionModel, resolution: Resolution,
                   uplink_bps: float, camera_fps: float,
                   scene_complexity: float = 1.0) -> float:
    """Upload frame rate: network-limited, capped by the camera.

    The Figure 3(f) computation: how many compressed frames per second
    fit in the uplink, never exceeding what the camera produces.
    """
    frame_bits = codec.frame_bytes(resolution, scene_complexity) * 8
    network_fps = uplink_bps / frame_bits
    return min(network_fps, camera_fps)
