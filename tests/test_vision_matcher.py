"""Tests for the matching pipeline: accuracy on synthetic descriptors."""

import numpy as np
import pytest

from repro.vision.batch import BatchObjectMatcher
from repro.vision.camera import R320x240
from repro.vision.features import FeatureExtractor, ObjectModel
from tests.matcher_oracle import _knn2


@pytest.fixture()
def setup():
    rng = np.random.default_rng(42)
    extractor = FeatureExtractor(np.random.default_rng(7))
    matcher = BatchObjectMatcher(rng=rng)
    objects = [ObjectModel.generate(f"obj-{i}", n_features=80, seed=i)
               for i in range(10)]
    return extractor, matcher, objects


def test_true_object_accepted(setup):
    extractor, matcher, objects = setup
    frame = extractor.frame_of(objects[3], R320x240)
    outcome = matcher.match_one(frame, objects[3])
    assert outcome.accepted
    assert outcome.stage_reached == "accept"
    assert outcome.inliers >= matcher.min_inliers


def test_wrong_object_rejected(setup):
    extractor, matcher, objects = setup
    frame = extractor.frame_of(objects[3], R320x240)
    outcome = matcher.match_one(frame, objects[5])
    assert not outcome.accepted


def test_clutter_frame_rejected_by_all(setup):
    extractor, matcher, objects = setup
    frame = extractor.clutter_frame(R320x240, n_features=120)
    assert matcher.match_frame(frame, objects) is None


def test_match_frame_finds_correct_object(setup):
    extractor, matcher, objects = setup
    for target in (0, 4, 9):
        frame = extractor.frame_of(objects[target], R320x240)
        best = matcher.match_frame(frame, objects)
        assert best is not None
        assert best.object_name == f"obj-{target}"


def test_match_frame_misses_when_object_pruned_away(setup):
    """The rxPower scheme's false-negative mode: the true object is not
    in the searched subset, so no match is returned."""
    extractor, matcher, objects = setup
    frame = extractor.frame_of(objects[3], R320x240)
    pruned = [o for o in objects if o.name != "obj-3"]
    assert matcher.match_frame(frame, pruned) is None


def test_accuracy_over_many_frames(setup):
    extractor, matcher, objects = setup
    matched = []
    for i in range(10):
        frame = extractor.frame_of(objects[i % len(objects)], R320x240)
        best = matcher.match_frame(frame, objects)
        matched.append(best.object_name if best else None)
    assert matched == [f"obj-{i}" for i in range(10)]


def test_stage_progression_recorded(setup):
    extractor, matcher, objects = setup
    frame = extractor.clutter_frame(R320x240)
    outcome = matcher.match_one(frame, objects[0])
    assert outcome.stage_reached in ("ratio", "symmetry", "ransac")
    assert not outcome.accepted


def test_ratio_threshold_validation():
    with pytest.raises(ValueError):
        BatchObjectMatcher(ratio_threshold=1.5)


@pytest.mark.parametrize("iterations", [0, -1])
def test_ransac_iterations_validation(iterations):
    # zero iterations would reach RANSAC with no hypothesis to score
    with pytest.raises(ValueError, match="RANSAC"):
        BatchObjectMatcher(ransac_iterations=iterations)


def test_lone_reference_candidate_rejected(setup):
    extractor, matcher, objects = setup
    lone = ObjectModel(name="lone", descriptors=objects[0].descriptors[:1],
                       keypoints=objects[0].keypoints[:1], seed=0)
    frame = extractor.frame_of(objects[0], R320x240)
    outcome = matcher.match_one(frame, lone)
    # lone-candidate policy: no second neighbour means no ratio test,
    # so every match is rejected rather than vacuously accepted
    assert outcome.good_matches == 0
    assert not outcome.accepted
    assert outcome.stage_reached == "ratio"


def test_empty_reference_candidate_rejected(setup):
    extractor, matcher, objects = setup
    empty = ObjectModel(name="empty",
                        descriptors=objects[0].descriptors[:0],
                        keypoints=objects[0].keypoints[:0], seed=0)
    frame = extractor.frame_of(objects[0], R320x240)
    outcome = matcher.match_one(frame, empty)
    assert outcome.good_matches == 0
    assert not outcome.accepted


def test_knn2_requires_two_references(setup):
    _, _, objects = setup
    with pytest.raises(ValueError, match="lone-candidate"):
        _knn2(objects[0].descriptors, objects[1].descriptors[:1])
