"""Store floor geometry: sections, sub-sections, landmarks, checkpoints.

Mirrors the paper's evaluation environment (Figure 9(a)): a store floor
divided into 5 sections and 21 sub-sections, with 7 LTE-direct
landmarks and 24 checkpoints where objects are photographed.  The floor
is a 42 m x 18 m rectangle gridded into 7 x 3 sub-section cells of
6 m x 6 m; sections are contiguous groups of sub-section columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

Position = tuple[float, float]

#: Grid dimensioning: 7 columns x 3 rows = 21 sub-sections of 6 m.
GRID_COLS = 7
GRID_ROWS = 3
CELL_SIZE = 6.0
FLOOR_WIDTH = GRID_COLS * CELL_SIZE     # 42 m
FLOOR_HEIGHT = GRID_ROWS * CELL_SIZE    # 18 m

#: The five retail sections, as contiguous column ranges.
SECTION_COLUMNS: dict[str, range] = {
    "food": range(0, 2),
    "toys": range(2, 3),
    "electronics": range(3, 5),
    "clothing": range(5, 6),
    "shoes": range(6, 7),
}


class Checkpoint(NamedTuple):
    """A named evaluation position on the floor."""

    name: str
    position: Position
    subsection: int


@dataclass
class WalkPath:
    """Piecewise-linear walk through the store at constant speed."""

    waypoints: list[Position]
    speed: float = 1.0      # m/s, a slow browse

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a walk needs at least two waypoints")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        self._lengths = [math.dist(a, b) for a, b in
                         zip(self.waypoints, self.waypoints[1:])]
        self.total_length = sum(self._lengths)

    @property
    def duration(self) -> float:
        return self.total_length / self.speed

    def position_at(self, t: float) -> Position:
        """Position after walking for ``t`` seconds (clamped at the end)."""
        if t <= 0:
            return self.waypoints[0]
        remaining = t * self.speed
        for (a, b), length in zip(zip(self.waypoints, self.waypoints[1:]),
                                  self._lengths):
            if remaining <= length and length > 0:
                frac = remaining / length
                return (a[0] + frac * (b[0] - a[0]),
                        a[1] + frac * (b[1] - a[1]))
            remaining -= length
        return self.waypoints[-1]


@dataclass
class StoreScenario:
    """The full evaluation floor: geometry + landmark/checkpoint layout."""

    landmarks: dict[str, Position]
    checkpoints: list[Checkpoint]
    cell_size: float = CELL_SIZE
    cols: int = GRID_COLS
    rows: int = GRID_ROWS
    section_columns: dict[str, range] = field(
        default_factory=lambda: dict(SECTION_COLUMNS))

    # -- geometry -----------------------------------------------------------

    def subsection_at(self, position: Position) -> int:
        """Sub-section (cell) id containing a position; row-major ids."""
        col = int(np.clip(position[0] // self.cell_size, 0, self.cols - 1))
        row = int(np.clip(position[1] // self.cell_size, 0, self.rows - 1))
        return row * self.cols + col

    def subsection_center(self, subsection: int) -> Position:
        if not (0 <= subsection < self.cols * self.rows):
            raise ValueError(f"invalid subsection {subsection}")
        row, col = divmod(subsection, self.cols)
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def section_of_subsection(self, subsection: int) -> str:
        col = subsection % self.cols
        for section, columns in self.section_columns.items():
            if col in columns:
                return section
        raise ValueError(f"subsection {subsection} maps to no section")

    def section_at(self, position: Position) -> str:
        return self.section_of_subsection(self.subsection_at(position))

    def section_of_landmark(self, name: str) -> str:
        return self.section_at(self.landmarks[name])

    def _cell_distance(self, subsection: int, position: Position) -> float:
        """Distance from a position to a sub-section's rectangle."""
        row, col = divmod(subsection, self.cols)
        xmin, xmax = col * self.cell_size, (col + 1) * self.cell_size
        ymin, ymax = row * self.cell_size, (row + 1) * self.cell_size
        dx = max(xmin - position[0], 0.0, position[0] - xmax)
        dy = max(ymin - position[1], 0.0, position[1] - ymax)
        return math.hypot(dx, dy)

    def subsections_near(self, position: Position,
                         radius: float = 3.5) -> list[int]:
        """Sub-sections whose *area* lies within ``radius`` of a position.

        This is ACACIA's pruning rule: any object within ``radius`` of
        the (error-prone) location estimate is guaranteed to stay in the
        search space, and with the default radius the rule selects 2-6
        of the 21 cells -- the range the paper reports (Section 7.3).
        """
        out = []
        for subsection in range(self.cols * self.rows):
            if self._cell_distance(subsection, position) <= radius:
                out.append(subsection)
        if not out:     # never return an empty search space
            out.append(self.subsection_at(position))
        return out

    @property
    def n_subsections(self) -> int:
        return self.cols * self.rows

    @property
    def sections(self) -> list[str]:
        return list(self.section_columns)


def store_scenario() -> StoreScenario:
    """The Figure 9(a) evaluation floor: 7 landmarks, 24 checkpoints."""
    landmarks = {
        "lm1": (4.0, 3.0),
        "lm2": (10.0, 14.0),
        "lm3": (16.0, 4.0),
        "lm4": (21.0, 10.0),
        "lm5": (27.0, 15.0),
        "lm6": (33.0, 4.0),
        "lm7": (39.0, 12.0),
    }
    # 24 checkpoints spread over the sub-section grid (at least one per
    # section, several per landmark neighbourhood), mirroring the
    # C1..C24 layout of Figure 9(a)
    positions = [
        (2.5, 2.0), (3.0, 9.5), (5.0, 15.5), (8.5, 3.5),
        (9.0, 10.0), (11.5, 16.0), (13.0, 2.5), (14.5, 8.5),
        (16.0, 15.0), (19.5, 4.0), (20.0, 11.0), (22.5, 16.5),
        (23.0, 2.0), (25.0, 9.0), (26.5, 15.5), (28.0, 3.0),
        (30.5, 10.5), (31.0, 16.0), (33.5, 2.5), (34.0, 9.5),
        (36.5, 15.0), (38.0, 4.5), (39.5, 10.0), (40.5, 16.5),
    ]
    scenario = StoreScenario(landmarks=landmarks, checkpoints=[])
    checkpoints = [
        Checkpoint(name=f"C{i + 1}", position=pos,
                   subsection=scenario.subsection_at(pos))
        for i, pos in enumerate(positions)
    ]
    scenario.checkpoints = checkpoints
    return scenario


def figure6_scenario() -> tuple[StoreScenario, WalkPath]:
    """The three-landmark walk of Figure 6: a subscriber walks from
    landmark 1 past landmark 2 to landmark 3."""
    landmarks = {
        "lm1": (5.0, 5.0),
        "lm2": (21.0, 13.0),
        "lm3": (38.0, 5.0),
    }
    scenario = StoreScenario(landmarks=landmarks, checkpoints=[])
    walk = WalkPath(
        waypoints=[(3.0, 4.0), (12.0, 9.0), (21.0, 12.0),
                   (30.0, 9.0), (39.0, 4.0)],
        speed=0.072)   # slow walk so the ~550 s trace matches Figure 6
    return scenario, walk
