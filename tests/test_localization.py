"""Tests for path-loss regression, trilateration and the tracker."""

import numpy as np
import pytest

from repro.d2d.radio import RadioModel
from repro.localization.landmarks import Landmark, LandmarkMap
from repro.localization.pathloss import (PathLossRegression,
                                         calibrate_from_radio)
from repro.localization.tracker import LocationTracker
from repro.localization.trilateration import (TrilaterationError,
                                              residual_error, trilaterate)


class TestPathLossRegression:
    def test_fit_recovers_known_model(self):
        """Noise-free samples from rx = -50 - 30 log10(d)."""
        d = np.array([1, 2, 5, 10, 20, 50], dtype=float)
        rx = -50 - 30 * np.log10(d)
        model = PathLossRegression.fit(d, rx)
        assert model.alpha == pytest.approx(-50, abs=1e-9)
        assert model.beta == pytest.approx(-30, abs=1e-9)

    def test_distance_prediction_roundtrip(self):
        model = PathLossRegression(alpha=-50, beta=-30)
        for d in (1.0, 3.0, 12.0, 40.0):
            rx = model.predict_rx_power(d)
            assert model.predict_distance(rx) == pytest.approx(d, rel=1e-9)

    def test_prediction_clamped(self):
        model = PathLossRegression(alpha=-50, beta=-30)
        assert model.predict_distance(-500.0) == 500.0
        assert model.predict_distance(+100.0) == 0.01

    def test_positive_beta_rejected(self):
        with pytest.raises(ValueError):
            PathLossRegression(alpha=-50, beta=+3)

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            PathLossRegression.fit(np.array([1.0]), np.array([-50.0]))
        with pytest.raises(ValueError):
            PathLossRegression.fit(np.array([0.0, 1.0]),
                                   np.array([-50.0, -60.0]))

    def test_calibration_against_radio_model(self):
        """The one-time calibration recovers the radio's true exponent."""
        radio = RadioModel()
        rng = np.random.default_rng(0)
        model = calibrate_from_radio(radio, rng)
        assert model.beta == pytest.approx(-10 * radio.exponent, abs=2.0)
        assert model.alpha == pytest.approx(
            radio.tx_power - radio.pl0, abs=2.0)


class TestTrilateration:
    ANCHORS = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)]

    def ranges_to(self, point, anchors=None):
        anchors = anchors if anchors is not None else self.ANCHORS
        return [float(np.hypot(point[0] - x, point[1] - y))
                for x, y in anchors]

    def test_exact_ranges_exact_position(self):
        truth = (7.0, 11.0)
        estimate = trilaterate(self.ANCHORS, self.ranges_to(truth))
        assert estimate[0] == pytest.approx(truth[0], abs=1e-6)
        assert estimate[1] == pytest.approx(truth[1], abs=1e-6)

    def test_three_anchors_suffice(self):
        truth = (5.0, 5.0)
        anchors = self.ANCHORS[:3]
        estimate = trilaterate(anchors, self.ranges_to(truth, anchors))
        assert np.hypot(estimate[0] - 5, estimate[1] - 5) < 1e-6

    def test_noisy_ranges_bounded_error(self):
        rng = np.random.default_rng(5)
        truth = (12.0, 6.0)
        errors = []
        for _ in range(50):
            noisy = [r * rng.uniform(0.8, 1.25)
                     for r in self.ranges_to(truth)]
            est = trilaterate(self.ANCHORS, noisy)
            errors.append(np.hypot(est[0] - truth[0], est[1] - truth[1]))
        assert np.mean(errors) < 4.0

    def test_two_anchor_degenerate_mode(self):
        estimate = trilaterate([(0.0, 0.0), (10.0, 0.0)], [3.0, 7.0])
        assert estimate == pytest.approx((3.0, 0.0))

    def test_input_validation(self):
        with pytest.raises(TrilaterationError):
            trilaterate([(0, 0)], [1.0])
        with pytest.raises(TrilaterationError):
            trilaterate([(0, 0), (1, 1)], [1.0])
        with pytest.raises(TrilaterationError):
            trilaterate([(0, 0), (1, 1), (2, 2)], [1.0, 1.0, -1.0])
        with pytest.raises(TrilaterationError):
            trilaterate([(5, 5), (5, 5), (5, 5)], [1.0, 1.0, 1.0])

    def test_residual_error_zero_for_perfect_fit(self):
        truth = (7.0, 11.0)
        assert residual_error(self.ANCHORS, self.ranges_to(truth),
                              truth) == pytest.approx(0.0, abs=1e-9)


class TestLandmarkMap:
    def make_map(self):
        return LandmarkMap(
            landmarks=[Landmark("lm1", 0.0, 0.0), Landmark("lm2", 20.0, 0.0)],
            regression=PathLossRegression(alpha=-50, beta=-30))

    def test_lookup(self):
        lmap = self.make_map()
        assert lmap.get("lm1").position == (0.0, 0.0)
        assert "lm2" in lmap
        assert len(lmap) == 2

    def test_duplicate_rejected(self):
        lmap = self.make_map()
        with pytest.raises(ValueError):
            lmap.add(Landmark("lm1", 1.0, 1.0))

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            self.make_map().get("nope")


class TestLocationTracker:
    def make_tracker(self, **kw):
        lmap = LandmarkMap(
            landmarks=[Landmark("lm1", 0.0, 0.0),
                       Landmark("lm2", 20.0, 0.0),
                       Landmark("lm3", 0.0, 20.0)],
            regression=PathLossRegression(alpha=-50, beta=-30))
        return LocationTracker(lmap, **kw)

    def observe_truth(self, tracker, truth, now):
        model = tracker.map.regression
        for landmark in tracker.map:
            d = float(np.hypot(truth[0] - landmark.x, truth[1] - landmark.y))
            tracker.observe(landmark.name, model.predict_rx_power(d), now)

    def test_estimate_from_exact_observations(self):
        tracker = self.make_tracker()
        truth = (6.0, 8.0)
        self.observe_truth(tracker, truth, now=0.0)
        estimate = tracker.estimate(now=1.0)
        assert estimate is not None
        assert np.hypot(estimate[0] - truth[0],
                        estimate[1] - truth[1]) < 0.1

    def test_insufficient_landmarks_returns_none(self):
        tracker = self.make_tracker()
        tracker.observe("lm1", -60.0, 0.0)
        tracker.observe("lm2", -70.0, 0.0)
        assert tracker.estimate(now=1.0) is None

    def test_stale_readings_expire(self):
        tracker = self.make_tracker(staleness=5.0)
        self.observe_truth(tracker, (6.0, 8.0), now=0.0)
        assert tracker.estimate(now=1.0) is not None
        assert tracker.estimate(now=100.0) is None

    def test_unknown_landmark_rejected(self):
        tracker = self.make_tracker()
        with pytest.raises(KeyError):
            tracker.observe("ghost", -60.0, 0.0)

    def test_strongest_landmarks_ranking(self):
        tracker = self.make_tracker()
        tracker.observe("lm1", -80.0, 0.0)
        tracker.observe("lm2", -55.0, 0.0)
        tracker.observe("lm3", -65.0, 0.0)
        assert tracker.strongest_landmarks(now=1.0) == ["lm2", "lm3"]

    def test_requires_regression(self):
        lmap = LandmarkMap(landmarks=[Landmark("lm1", 0, 0)])
        with pytest.raises(ValueError):
            LocationTracker(lmap)

    def test_estimate_counter(self):
        tracker = self.make_tracker()
        self.observe_truth(tracker, (6.0, 8.0), now=0.0)
        tracker.estimate(now=1.0)
        tracker.estimate(now=2.0)
        assert tracker.estimates_made == 2
