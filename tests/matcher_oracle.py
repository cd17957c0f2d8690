"""Loop matcher: the differential-test oracle for BatchObjectMatcher.

A plain per-candidate implementation of the four matching stages
(2-NN ratio test, symmetry test, RANSAC translation, inlier
threshold), written for clarity rather than speed.  The shipped
:class:`~repro.vision.batch.BatchObjectMatcher` must reproduce its
full :class:`~repro.vision.batch.MatchOutcome` for a shared RNG seed.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.vision.batch import MatchOutcome
from repro.vision.features import Frame, ObjectModel


def _knn2(queries: np.ndarray, references: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-NN by cosine distance on unit vectors.

    Requires at least two reference rows (callers apply the
    lone-candidate policy first).  Returns
    (best_idx, best_dist, second_dist) per query row.
    """
    if references.shape[0] < 2:
        raise ValueError("2-NN needs at least two reference descriptors; "
                         "apply the lone-candidate policy upstream")
    similarity = queries @ references.T          # (q, r)
    distance = 1.0 - similarity
    order = np.argpartition(distance, 1, axis=1)[:, :2]
    rows = np.arange(len(queries))[:, None]
    two = distance[rows, order]
    swap = two[:, 0] > two[:, 1]
    order[swap] = order[swap][:, ::-1]
    two[swap] = two[swap][:, ::-1]
    return order[:, 0], two[:, 0], two[:, 1]


class ObjectMatcher:
    """Brute-force matcher with the paper's four verification stages."""

    def __init__(self, ratio_threshold: float = 0.75,
                 ransac_iterations: int = 50,
                 ransac_inlier_radius: float = 3.0,
                 min_inliers: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.ratio_threshold = ratio_threshold
        self.ransac_iterations = ransac_iterations
        self.ransac_inlier_radius = ransac_inlier_radius
        self.min_inliers = min_inliers
        self.rng = rng if rng is not None else np.random.default_rng(1234)

    def _ratio_matches(self, a_desc: np.ndarray, b_desc: np.ndarray
                       ) -> list[tuple[int, int]]:
        if len(a_desc) == 0 or b_desc.shape[0] < 2:
            return []       # lone-candidate policy: no 2nd NN -> reject
        best, d1, d2 = _knn2(a_desc, b_desc)
        keep = d1 < self.ratio_threshold * d2
        return [(i, int(best[i])) for i in np.flatnonzero(keep)]

    def _symmetry_filter(self, forward: list[tuple[int, int]],
                         backward: list[tuple[int, int]]
                         ) -> list[tuple[int, int]]:
        reverse = {(j, i) for i, j in backward}
        return [(i, j) for i, j in forward if (i, j) in reverse]

    def _ransac_translation(self, frame_kp: np.ndarray,
                            object_kp: np.ndarray,
                            pairs: list[tuple[int, int]]) -> int:
        """Estimate a translation model; return the inlier count."""
        if len(pairs) < 2:
            return 0
        pair_idx = np.asarray(pairs, dtype=np.intp)
        offsets = frame_kp[pair_idx[:, 0]] - object_kp[pair_idx[:, 1]]
        best_inliers = 0
        n = len(pairs)
        for _ in range(self.ransac_iterations):
            candidate = offsets[self.rng.integers(n)]
            errors = np.linalg.norm(offsets - candidate, axis=1)
            inliers = int(np.sum(errors < self.ransac_inlier_radius))
            best_inliers = max(best_inliers, inliers)
        return best_inliers

    def match_one(self, frame: Frame, obj: ObjectModel) -> MatchOutcome:
        """Run the full pipeline for one frame/object pair."""
        outcome = MatchOutcome(object_name=obj.name)
        forward = self._ratio_matches(frame.descriptors, obj.descriptors)
        outcome.good_matches = len(forward)
        if len(forward) < self.min_inliers:
            return outcome
        outcome.stage_reached = "symmetry"
        backward = self._ratio_matches(obj.descriptors, frame.descriptors)
        symmetric = self._symmetry_filter(forward, backward)
        outcome.symmetric_matches = len(symmetric)
        if len(symmetric) < self.min_inliers:
            return outcome
        outcome.stage_reached = "ransac"
        inliers = self._ransac_translation(frame.keypoints, obj.keypoints,
                                           symmetric)
        outcome.inliers = inliers
        if inliers >= self.min_inliers:
            outcome.accepted = True
            outcome.stage_reached = "accept"
        return outcome

    def match_frame(self, frame: Frame, candidates: Iterable[ObjectModel]
                    ) -> Optional[MatchOutcome]:
        """Match against a candidate set; best accepted outcome or None."""
        best: Optional[MatchOutcome] = None
        for obj in candidates:
            outcome = self.match_one(frame, obj)
            if outcome.accepted and (best is None
                                     or outcome.inliers > best.inliers):
                best = outcome
        return best
