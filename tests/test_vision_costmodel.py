"""Tests for the calibrated device cost model, codec and database."""

import pytest

from repro.vision.camera import (R320x240, R720x480, R960x720, R1280x720,
                                 R1440x1080, R1920x1080)
from repro.vision.codec import (ALL_CODECS, JPEG90, RAW_GRAY,
                                achievable_fps)
from repro.vision.costmodel import DEVICES
from repro.vision.database import ObjectDatabase, ObjectRecord
from repro.vision.features import ObjectModel


class TestSurfCost:
    def test_oneplus_baseline_two_seconds(self):
        assert DEVICES["oneplus-one"].surf_time(R320x240) == \
            pytest.approx(2.0)

    def test_speedups_match_paper(self):
        base = DEVICES["oneplus-one"].surf_time(R960x720)
        assert base / DEVICES["i7-1core"].surf_time(R960x720) == \
            pytest.approx(36.0)
        assert base / DEVICES["i7-8core"].surf_time(R960x720) == \
            pytest.approx(182.0)
        assert base / DEVICES["gpu-titan"].surf_time(R960x720) == \
            pytest.approx(1087.0)

    def test_runtime_grows_with_resolution(self):
        device = DEVICES["i7-8core"]
        times = [device.surf_time(r) for r in
                 (R320x240, R720x480, R960x720, R1440x1080)]
        assert times == sorted(times)


class TestMatchCost:
    def test_speedups_match_paper(self):
        base = DEVICES["oneplus-one"].pairwise_match_time(400, 400)
        assert base / DEVICES["i7-1core"].pairwise_match_time(400, 400) == \
            pytest.approx(223.0)
        assert base / DEVICES["gpu-titan"].pairwise_match_time(400, 400) == \
            pytest.approx(3284.0)

    def test_db_match_scales_linearly_with_objects(self):
        device = DEVICES["i7-8core"]
        t10 = device.db_match_time(R960x720, db_objects=10)
        t50 = device.db_match_time(R960x720, db_objects=50)
        assert t50 == pytest.approx(5 * t10)

    def test_fig3h_order_of_magnitude(self):
        """Figure 3(h): 50 objects at 1440*1080 on i7(8) ~ 1 second."""
        t = DEVICES["i7-8core"].db_match_time(R1440x1080, db_objects=50)
        assert 0.3 <= t <= 2.0

    def test_xeon_faster_than_i7_for_matching(self):
        i7 = DEVICES["i7-8core"].db_match_time(R960x720, 105)
        xeon = DEVICES["xeon-32core"].db_match_time(R960x720, 105)
        assert 1.5 <= i7 / xeon <= 4.0

    def test_contention_model(self):
        """Figure 12: runtime roughly doubles as clients double on the
        8-core i7; the 32-core Xeon absorbs up to 4 clients."""
        i7 = DEVICES["i7-8core"]
        xeon = DEVICES["xeon-32core"]
        assert i7.contention_factor(2) == pytest.approx(2.0)
        assert i7.contention_factor(8) == pytest.approx(8.0)
        assert xeon.contention_factor(2) == pytest.approx(1.0)
        assert xeon.contention_factor(8) == pytest.approx(2.0)

    def test_invalid_inputs(self):
        device = DEVICES["i7-8core"]
        with pytest.raises(ValueError):
            device.db_match_time(R960x720, db_objects=-1)
        with pytest.raises(ValueError):
            device.contention_factor(0)


class TestCodec:
    def test_jpeg90_ratio_near_5x(self):
        """Section 7.3: ~5x size reduction at the retail scenes."""
        for resolution in (R720x480, R960x720, R1280x720):
            ratio = JPEG90.compression_ratio(resolution)
            assert 4.5 <= ratio <= 6.0

    def test_jpeg90_encode_times_match_paper(self):
        """23/38/53 ms on the OnePlus One at the three resolutions."""
        assert JPEG90.encode_time(R720x480) == pytest.approx(0.023, abs=0.003)
        assert JPEG90.encode_time(R960x720) == pytest.approx(0.038, abs=0.004)
        assert JPEG90.encode_time(R1280x720) == pytest.approx(0.053, abs=0.004)

    def test_raw_has_no_encode_cost(self):
        assert RAW_GRAY.encode_time(R960x720) == 0.0
        assert RAW_GRAY.frame_bytes(R960x720) == R960x720.pixels

    def test_raw_hd_under_one_fps(self):
        """Figure 3(f): raw grayscale HD cannot ship 1 frame/sec at 12 Mbps."""
        fps = achievable_fps(RAW_GRAY, R1920x1080, uplink_bps=12e6,
                             camera_fps=10.0)
        assert fps < 1.0

    def test_jpeg90_hd_near_camera_rate(self):
        """Figure 3(f): JPEG-90 ~8 fps at 12 Mbps for an HD preview scene."""
        fps = achievable_fps(JPEG90, R1920x1080, uplink_bps=12e6,
                             camera_fps=10.0, scene_complexity=0.47)
        assert 6.0 <= fps <= 10.0

    def test_more_compression_more_fps(self):
        fps = [achievable_fps(codec, R1920x1080, 12e6, camera_fps=30.0)
               for codec in ALL_CODECS]
        # ALL_CODECS is ordered from strongest to no compression
        assert fps == sorted(fps, reverse=True)

    def test_camera_caps_fps(self):
        fps = achievable_fps(JPEG90, R320x240, uplink_bps=100e6,
                             camera_fps=30.0)
        assert fps == 30.0


class TestObjectDatabase:
    def make_db(self):
        db = ObjectDatabase()
        for i in range(12):
            db.add(ObjectRecord(
                model=ObjectModel.generate(f"obj-{i}", n_features=30,
                                           seed=i),
                tag=f"tag {i}", section=f"s{i // 4}",
                subsection=i // 2, position=(float(i), 0.0)))
        return db

    def test_counts_and_lookup(self):
        db = self.make_db()
        assert len(db) == 12
        assert "obj-3" in db
        assert db.get("obj-3").section == "s0"

    def test_duplicate_rejected(self):
        db = self.make_db()
        with pytest.raises(ValueError):
            db.add(db.get("obj-0"))

    def test_section_query(self):
        db = self.make_db()
        records = db.in_sections(["s1"])
        assert {r.name for r in records} == {f"obj-{i}" for i in (4, 5, 6, 7)}

    def test_subsection_query(self):
        db = self.make_db()
        records = db.in_subsections([0, 5])
        assert {r.name for r in records} == {"obj-0", "obj-1",
                                             "obj-10", "obj-11"}

    def test_sections_and_subsections_enumerations(self):
        db = self.make_db()
        assert db.sections() == ["s0", "s1", "s2"]
        assert db.subsections() == list(range(6))

    def test_mean_features(self):
        db = self.make_db()
        assert db.mean_features() == 30.0
