"""rxPower -> distance regression.

The paper fits a linear regression model for the path loss between a
user and a landmark, "a one-time overhead" per environment: collect
(distance, rxPower) calibration pairs, fit

    rxPower = alpha + beta * log10(distance)

and invert it at runtime to predict distance from live rxPower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PathLossRegression:
    """Fitted log-distance model: ``rx = alpha + beta * log10(d)``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.beta >= 0:
            raise ValueError(
                "beta must be negative: rxPower decreases with distance")

    @classmethod
    def fit(cls, distances: np.ndarray,
            rx_powers: np.ndarray) -> "PathLossRegression":
        """Least-squares fit from calibration pairs."""
        distances = np.asarray(distances, dtype=float)
        rx_powers = np.asarray(rx_powers, dtype=float)
        if distances.shape != rx_powers.shape or distances.size < 2:
            raise ValueError("need >= 2 matching calibration pairs")
        if np.any(distances <= 0):
            raise ValueError("distances must be positive")
        log_d = np.log10(distances)
        beta, alpha = np.polyfit(log_d, rx_powers, deg=1)
        return cls(alpha=float(alpha), beta=float(beta))

    def predict_rx_power(self, distance: float) -> float:
        if distance <= 0:
            raise ValueError("distance must be positive")
        return self.alpha + self.beta * np.log10(distance)

    def predict_distance(self, rx_power: float,
                         max_distance: float = 500.0) -> float:
        """Invert the model; clamps to a sane indoor range."""
        distance = 10 ** ((rx_power - self.alpha) / self.beta)
        return float(np.clip(distance, 0.01, max_distance))


def calibrate_from_radio(radio, rng: np.random.Generator,
                         distances: np.ndarray | None = None,
                         samples_per_point: int = 10) -> PathLossRegression:
    """Convenience: run the one-time calibration against a radio model.

    Emulates walking a reference device to known distances from a
    landmark and recording rxPower, the procedure the paper describes.
    """
    if distances is None:
        distances = np.array([1, 2, 3, 5, 8, 12, 18, 25, 35, 50],
                             dtype=float)
    ds, rxs = [], []
    for d in distances:
        for _ in range(samples_per_point):
            ds.append(d)
            rxs.append(radio.rx_power(d, rng))
    return PathLossRegression.fit(np.array(ds), np.array(rxs))
