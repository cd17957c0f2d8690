"""Landmark metadata: names, positions, per-landmark regressions.

The LTE-direct localisation manager "reads the metadata from a file:
the number, location and names of landmarks, and the model parameters
(alpha, beta)" (Section 6.3).  :class:`LandmarkMap` is that metadata,
held in memory: every run builds it from the store scenario.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.localization.pathloss import PathLossRegression


class Landmark(NamedTuple):
    """One publisher device at a known position."""

    name: str
    x: float
    y: float

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


class LandmarkMap:
    """Named landmarks plus the environment's path-loss model."""

    def __init__(self, landmarks: Optional[list[Landmark]] = None,
                 regression: Optional[PathLossRegression] = None) -> None:
        self._landmarks: dict[str, Landmark] = {}
        self.regression = regression
        for landmark in landmarks or []:
            self.add(landmark)

    def add(self, landmark: Landmark) -> None:
        if landmark.name in self._landmarks:
            raise ValueError(f"duplicate landmark {landmark.name!r}")
        self._landmarks[landmark.name] = landmark

    def get(self, name: str) -> Landmark:
        try:
            return self._landmarks[name]
        except KeyError:
            raise KeyError(f"unknown landmark {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._landmarks

    def __len__(self) -> int:
        return len(self._landmarks)

    def __iter__(self):
        return iter(self._landmarks.values())

    @property
    def names(self) -> list[str]:
        return list(self._landmarks)
