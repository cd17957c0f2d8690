"""Calibrated device cost model for SURF and matching runtimes.

The paper measures (Figures 3(a)/3(b)) SURF extraction and brute-force
matching across four devices, reporting the OnePlus One absolute times
and the server speed-ups: SURF 36x (1 i7 core), 182x (8 cores), 1087x
(GPU); matching 223x / 852x / 3284x.  Figure 11/12 adds a 32-core Xeon
roughly 2.5x faster than the 8-core i7 for matching.

Model:

* SURF:  ``t = surf_base(device) * (pixels / 76800)^0.85`` where
  ``surf_base`` is the device's 320*240 time (OnePlus One: 2 s).
* Matching one frame against one object:
  ``t = pair_cost(device) * frame_features * object_features``
  (two kNN passes and the verification stages are folded into the
  calibrated per-pair constant).
* Multi-client contention (Figure 12): matching parallelises across
  ``cores``; ``n`` concurrent clients inflate runtime by
  ``max(1, n * parallel_width / cores)``.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.vision.camera import R320x240, Resolution
from repro.vision.features import expected_feature_count

#: SURF runtime growth with pixel count (super-linear feature work,
#: sub-linear per-pixel stages).
SURF_PIXEL_EXPONENT = 0.85

#: How many cores one matching job can use (OpenCV parallel matcher).
PARALLEL_WIDTH = 8

#: OnePlus One measured SURF time at 320*240 (Figure 3(a)): ~2 s.
_ONEPLUS_SURF_BASE = 2.0

#: OnePlus One per-descriptor-pair matching cost; with ~392.5 features
#: per side at 320*240 this gives ~0.9 s per object comparison, the
#: Figure 3(b) order of magnitude.
_ONEPLUS_PAIR_COST = 6.0e-6


class DeviceProfile(NamedTuple):
    """One compute platform."""

    name: str
    surf_speedup: float        # vs the OnePlus One (Figure 3(a))
    match_speedup: float       # vs the OnePlus One (Figure 3(b))
    cores: int

    @property
    def surf_base(self) -> float:
        return _ONEPLUS_SURF_BASE / self.surf_speedup

    @property
    def pair_cost(self) -> float:
        return _ONEPLUS_PAIR_COST / self.match_speedup

    # -- runtimes -----------------------------------------------------------

    def surf_time(self, resolution: Resolution) -> float:
        """Feature detection + description latency for one frame."""
        scale = (resolution.pixels / R320x240.pixels) ** SURF_PIXEL_EXPONENT
        return self.surf_base * scale

    def pairwise_match_time(self, frame_features: float,
                            object_features: float) -> float:
        """Brute-force match of one frame against one stored object."""
        return self.pair_cost * frame_features * object_features

    def db_match_time(self, resolution: Resolution, db_objects: int,
                      object_features: float = 500.0,
                      clients: int = 1) -> float:
        """Match one frame against a database of ``db_objects``.

        ``object_features`` is the mean stored feature count per object;
        ``clients`` applies the Figure 12 contention model.
        """
        if db_objects < 0:
            raise ValueError("db_objects must be non-negative")
        frame_features = expected_feature_count(resolution)
        single = self.pairwise_match_time(
            frame_features, object_features) * db_objects
        return single * self.contention_factor(clients)

    def contention_factor(self, clients: int) -> float:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        return max(1.0, clients * PARALLEL_WIDTH / self.cores)


#: The paper's evaluation platforms.
DEVICES: dict[str, DeviceProfile] = {
    "oneplus-one": DeviceProfile("oneplus-one", surf_speedup=1.0,
                                 match_speedup=1.0, cores=4),
    "i7-1core": DeviceProfile("i7-1core", surf_speedup=36.0,
                              match_speedup=223.0, cores=1),
    "i7-8core": DeviceProfile("i7-8core", surf_speedup=182.0,
                              match_speedup=852.0, cores=8),
    "gpu-titan": DeviceProfile("gpu-titan", surf_speedup=1087.0,
                               match_speedup=3284.0, cores=2688),
    "xeon-32core": DeviceProfile("xeon-32core", surf_speedup=320.0,
                                 match_speedup=2130.0, cores=32),
}
