"""Differential tests: BatchObjectMatcher vs the loop-matcher oracle.

The shipped matcher's contract is decision equivalence with a plain
per-candidate loop over the four matching stages
(``tests/matcher_oracle.py``): for a shared RNG seed it must reproduce
the oracle's full MatchOutcome -- same good/symmetric/inlier counts,
same acceptance, same stage -- for every candidate, on both sides of
the size-based choice between the float32 screen and the exact stacked
loop.  These tests sweep random frames, candidate subsets and feature
counts to enforce that, plus the CandidateMatrixCache and the
edge-case policies.
"""

import numpy as np
import pytest

from repro.apps.retail import build_retail_database
from repro.apps.scenario import store_scenario
from repro.vision.batch import (BatchObjectMatcher, CandidateMatrixCache,
                                CandidateStack)
from repro.vision.camera import R480x360, R720x480, R960x720
from repro.vision.features import FeatureExtractor, ObjectModel
from tests.matcher_oracle import ObjectMatcher

#: Which side of the screen choice a parametrised test runs on:
#: ``auto`` keeps the matcher's size thresholds, ``always`` zeroes
#: them (every input is screened), ``never`` makes them unreachable
#: (every candidate runs the exact stacked loop).
SCREEN_SIDES = {"auto": None, "always": 0, "never": 10 ** 9}


def batch_matcher(screen="auto", **kwargs):
    matcher = BatchObjectMatcher(**kwargs)
    threshold = SCREEN_SIDES[screen]
    if threshold is not None:
        matcher.SCREEN_MIN_DESCRIPTORS = threshold
        matcher.SCREEN_MIN_QUERIES = threshold
    return matcher


def outcome_tuple(outcome):
    if outcome is None:
        return None
    return (outcome.object_name, outcome.good_matches,
            outcome.symmetric_matches, outcome.inliers,
            outcome.accepted, outcome.stage_reached)


def random_models(rng, count, n_features=24, dim=64):
    models = []
    for k in range(count):
        desc = rng.normal(size=(n_features, dim))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        keypoints = rng.uniform(0, 400, size=(n_features, 2))
        models.append(ObjectModel(name=f"obj-{k}", descriptors=desc,
                                  keypoints=keypoints, seed=k))
    return models


def ragged_models(rng, sizes, dim=64):
    """Random models with the given descriptor counts, one per size."""
    return [ObjectModel(name=m.name, descriptors=m.descriptors[:size],
                        keypoints=m.keypoints[:size], seed=m.seed)
            for m, size in zip(random_models(rng, len(sizes),
                                             n_features=max(sizes), dim=dim),
                               sizes)]


@pytest.fixture(scope="module")
def store():
    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=40)
    models = [record.model for record in db.all_records()]
    return models


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("screen", SCREEN_SIDES)
    def test_match_all_equals_reference_on_store(self, store, screen):
        extractor = FeatureExtractor(np.random.default_rng(7))
        rng = np.random.default_rng(21)
        for trial in range(6):
            subset_size = int(rng.integers(2, len(store) + 1))
            picks = rng.choice(len(store), size=subset_size, replace=False)
            subset = [store[i] for i in picks]
            target = subset[int(rng.integers(len(subset)))]
            resolution = (R960x720, R720x480, R480x360)[trial % 3]
            frame = extractor.frame_of(target, resolution)

            seed = 1000 + trial
            reference = ObjectMatcher(rng=np.random.default_rng(seed))
            batch = batch_matcher(screen, rng=np.random.default_rng(seed))
            expected = [reference.match_one(frame, m) for m in subset]
            actual = batch.match_all(frame, subset)
            assert ([outcome_tuple(o) for o in actual]
                    == [outcome_tuple(o) for o in expected])

    @pytest.mark.parametrize("screen", SCREEN_SIDES)
    def test_match_frame_equals_reference(self, store, screen):
        extractor = FeatureExtractor(np.random.default_rng(3))
        frame = extractor.frame_of(store[17], R960x720)
        reference = ObjectMatcher(rng=np.random.default_rng(5))
        batch = batch_matcher(screen, rng=np.random.default_rng(5))
        assert (outcome_tuple(batch.match_frame(frame, store))
                == outcome_tuple(reference.match_frame(frame, store)))

    @pytest.mark.parametrize("screen", SCREEN_SIDES)
    def test_match_frames_block_equals_sequential_reference(self, store,
                                                            screen):
        extractor = FeatureExtractor(np.random.default_rng(11))
        frames = [extractor.frame_of(store[i], R720x480)
                  for i in (4, 30, 77)]
        reference = ObjectMatcher(rng=np.random.default_rng(9))
        batch = batch_matcher(screen, rng=np.random.default_rng(9))
        expected = [reference.match_frame(frame, store) for frame in frames]
        actual = batch.match_frames(frames, store)
        assert ([outcome_tuple(o) for o in actual]
                == [outcome_tuple(o) for o in expected])

    def test_one_matcher_reuses_its_scratch_across_shapes(self, store):
        # one matcher's GEMM and query scratch is viewed at a new shape
        # on every call: candidate sets and query blocks that grow,
        # shrink and grow again must still match the reference
        extractor = FeatureExtractor(np.random.default_rng(14))
        reference = ObjectMatcher(rng=np.random.default_rng(15))
        batch = batch_matcher("always", rng=np.random.default_rng(15))
        for size, resolution in ((8, R480x360), (len(store), R960x720),
                                 (3, R720x480), (40, R480x360),
                                 (len(store), R720x480)):
            subset = store[:size]
            frames = [extractor.frame_of(subset[-1], resolution),
                      extractor.frame_of(subset[0], R480x360)]
            expected = [reference.match_frame(f, subset) for f in frames]
            assert ([outcome_tuple(o) for o in batch.match_frames(frames,
                                                                  subset)]
                    == [outcome_tuple(o) for o in expected])
            assert (outcome_tuple(batch.match_frame(frames[0], subset))
                    == outcome_tuple(reference.match_frame(frames[0],
                                                           subset)))

    def test_block_verdicts_equal_per_frame_verdicts(self, store):
        # match_frames screens a block of frames at once; its verdicts
        # must be the per-frame verdicts stacked, frame boundaries
        # included (frames of different sizes, one of them empty)
        extractor = FeatureExtractor(np.random.default_rng(12))
        frames = [extractor.frame_of(store[i], resolution)
                  for i, resolution in ((3, R960x720), (40, R480x360),
                                        (41, R720x480))]
        queries = [frame.descriptors for frame in frames]
        queries.insert(1, queries[0][:0])
        stack = CandidateStack.build(store)
        batch = BatchObjectMatcher()
        good, needs_exact = batch._screen_verdicts(
            np.concatenate(queries), stack,
            np.cumsum([len(q) for q in queries]))
        for f, rows in enumerate(queries):
            if not len(rows):
                assert not good[f].any()
                continue
            one_good, one_exact = batch._screen_verdicts(rows, stack)
            np.testing.assert_array_equal(good[f], one_good[0])
            np.testing.assert_array_equal(needs_exact[f], one_exact[0])
        assert needs_exact.any()

    @pytest.mark.parametrize("screen, screened",
                             [("always", True), ("never", False)])
    def test_forced_side_is_taken(self, store, screen, screened):
        # the parametrised tests above only cover both sides if forcing
        # the thresholds really switches the path, even on a small set
        batch = batch_matcher(screen)
        calls = []
        screen_rows = batch._screen_rows
        batch._screen_rows = lambda *args: calls.append(1) or screen_rows(
            *args)
        frame = FeatureExtractor(np.random.default_rng(1)).frame_of(
            store[0], R480x360)
        batch.match_frame(frame, store[:3])
        batch.match_frames([frame, frame], store[:3])
        assert len(calls) == (2 if screened else 0)

    def test_match_one_equals_reference(self, store):
        extractor = FeatureExtractor(np.random.default_rng(2))
        frame = extractor.frame_of(store[9], R480x360)
        for screen in SCREEN_SIDES:
            reference = ObjectMatcher(rng=np.random.default_rng(13))
            batch = batch_matcher(screen, rng=np.random.default_rng(13))
            for obj in (store[9], store[10]):
                assert (outcome_tuple(batch.match_one(frame, obj))
                        == outcome_tuple(reference.match_one(frame, obj)))

    def test_candidate_order_controls_rng_stream(self, store):
        # permuting the candidate list must give the same decisions the
        # reference gives for that same permuted order
        extractor = FeatureExtractor(np.random.default_rng(4))
        frame = extractor.frame_of(store[50], R960x720)
        permuted = list(reversed(store))
        for screen in SCREEN_SIDES:
            reference = ObjectMatcher(rng=np.random.default_rng(17))
            batch = batch_matcher(screen, rng=np.random.default_rng(17))
            expected = [reference.match_one(frame, m) for m in permuted]
            actual = batch.match_all(frame, permuted)
            assert ([outcome_tuple(o) for o in actual]
                    == [outcome_tuple(o) for o in expected])


class TestEdgeCases:
    def test_empty_candidate_list(self):
        extractor = FeatureExtractor(np.random.default_rng(0))
        models = random_models(np.random.default_rng(1), 1)
        frame = extractor.frame_of(models[0], R480x360)
        for screen in SCREEN_SIDES:
            batch = batch_matcher(screen)
            assert batch.match_all(frame, []) == []
            assert batch.match_frame(frame, []) is None
            assert batch.match_frames([frame], []) == [None]
            assert batch.match_frames([], models) == []

    @pytest.mark.parametrize("screen", SCREEN_SIDES)
    def test_lone_descriptor_candidate_rejected_by_both(self, screen):
        # the lone candidate beside a uniform stack, and beside a ragged
        # one of odd max_r (unequal half segments, padded rows) whose
        # frame shows a padded object
        for sizes, target in (((24, 24, 24), 0),
                              ((3, 8, 17, 25, 25, 41), 2)):
            models = ragged_models(np.random.default_rng(8), sizes)
            lone = ObjectModel(name="lone",
                               descriptors=models[0].descriptors[:1],
                               keypoints=models[0].keypoints[:1], seed=0)
            extractor = FeatureExtractor(np.random.default_rng(2))
            frame = extractor.frame_of(models[target], R480x360)
            candidates = [lone] + models
            # the target's lanes survive the screen, so the exact
            # float32 2-NN runs on its (possibly padded) segment
            stack = CandidateStack.build(candidates)
            _, segs, _ = BatchObjectMatcher()._screen_rows(
                frame.descriptors, stack)
            assert stack.index[models[target].name] in segs
            reference = ObjectMatcher(rng=np.random.default_rng(3))
            batch = batch_matcher(screen, rng=np.random.default_rng(3))
            expected = [reference.match_one(frame, m) for m in candidates]
            actual = batch.match_all(frame, candidates)
            assert ([outcome_tuple(o) for o in actual]
                    == [outcome_tuple(o) for o in expected])
            assert actual[0].good_matches == 0
            assert not actual[0].accepted
            assert actual[1 + target].accepted

    def test_match_frames_equals_match_frame_when_no_lane_survives(self):
        # each candidate holds its descriptors twice, one copy per half
        # segment, so d1 == d2 and the screen rejects every lane; with
        # min_inliers=0 the candidates still pass the gates, and a
        # block must finish them just as the per-frame path does
        models = [ObjectModel(name=m.name,
                              descriptors=np.concatenate([m.descriptors] * 2),
                              keypoints=np.concatenate([m.keypoints] * 2),
                              seed=m.seed)
                  for m in random_models(np.random.default_rng(9), 12)]
        extractor = FeatureExtractor(np.random.default_rng(10))
        frames = [extractor.frame_of(models[i], R480x360) for i in (0, 5)]
        block = batch_matcher("always", min_inliers=0,
                              rng=np.random.default_rng(4))
        single = batch_matcher("always", min_inliers=0,
                               rng=np.random.default_rng(4))
        queries = np.concatenate([frame.descriptors for frame in frames])
        rows, _, _ = block._screen_rows(queries,
                                        CandidateStack.build(models))
        assert rows.size == 0
        expected = [single.match_frame(frame, models) for frame in frames]
        assert all(outcome is not None for outcome in expected)
        assert ([outcome_tuple(o) for o in block.match_frames(frames, models)]
                == [outcome_tuple(o) for o in expected])

    def test_all_lone_candidates_never_match(self):
        rng = np.random.default_rng(5)
        base = random_models(rng, 2)
        lones = [ObjectModel(name=f"lone-{i}",
                             descriptors=m.descriptors[:1],
                             keypoints=m.keypoints[:1], seed=i)
                 for i, m in enumerate(base)]
        extractor = FeatureExtractor(np.random.default_rng(6))
        frame = extractor.frame_of(base[0], R480x360)
        for screen in SCREEN_SIDES:
            batch = batch_matcher(screen)
            assert batch.match_frame(frame, lones) is None
            assert batch.match_frames([frame, frame], lones) == [None, None]
            for outcome in batch.match_all(frame, lones):
                assert (outcome_tuple(outcome)[1:]
                        == (0, 0, 0, False, "ratio"))

    @pytest.mark.parametrize("screen", SCREEN_SIDES)
    def test_single_query_frame(self, screen):
        # q == 1: forward stage can run, backward 2-NN cannot
        models = random_models(np.random.default_rng(12), 4)
        frame_like = FeatureExtractor(
            np.random.default_rng(1)).frame_of(models[0], R480x360)
        single = type(frame_like)(
            descriptors=frame_like.descriptors[:1],
            keypoints=frame_like.keypoints[:1],
            resolution=frame_like.resolution,
            true_object=frame_like.true_object)
        reference = ObjectMatcher(rng=np.random.default_rng(3),
                                  min_inliers=1)
        batch = batch_matcher(screen, rng=np.random.default_rng(3),
                              min_inliers=1)
        expected = [reference.match_one(single, m) for m in models]
        actual = batch.match_all(single, models)
        assert ([outcome_tuple(o) for o in actual]
                == [outcome_tuple(o) for o in expected])

    def test_duplicate_candidate_names_rejected(self):
        models = random_models(np.random.default_rng(4), 2)
        twin = ObjectModel(name=models[0].name,
                           descriptors=models[1].descriptors,
                           keypoints=models[1].keypoints, seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            CandidateStack.build([models[0], twin])


class TestCandidateMatrixCache:
    def test_hits_and_misses(self):
        models = random_models(np.random.default_rng(0), 6)
        cache = CandidateMatrixCache(capacity=4)
        stack1 = cache.get_or_build(models[:3])
        stack2 = cache.get_or_build(models[:3])
        assert stack1 is stack2
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_key_is_order_insensitive(self):
        models = random_models(np.random.default_rng(1), 4)
        cache = CandidateMatrixCache()
        forward = cache.get_or_build(models)
        backward = cache.get_or_build(list(reversed(models)))
        assert forward is backward
        assert cache.stats()["hits"] == 1

    def test_lru_eviction(self):
        models = random_models(np.random.default_rng(2), 5)
        cache = CandidateMatrixCache(capacity=2)
        cache.get_or_build(models[:1])
        cache.get_or_build(models[1:2])
        cache.get_or_build(models[2:3])        # evicts the first entry
        assert cache.stats()["evictions"] == 1
        assert CandidateMatrixCache.key_for(models[:1]) not in cache
        assert CandidateMatrixCache.key_for(models[2:3]) in cache

    def test_touch_counts_as_hit(self):
        models = random_models(np.random.default_rng(3), 2)
        cache = CandidateMatrixCache()
        stack = cache.get_or_build(models)
        assert cache.touch(stack.names) is stack
        assert cache.stats()["hits"] == 1
        assert cache.touch(("missing",)) is None

    def test_matcher_repeat_lookups_hit_cache(self):
        models = random_models(np.random.default_rng(4), 5, n_features=30)
        extractor = FeatureExtractor(np.random.default_rng(5))
        frames = [extractor.frame_of(models[0], R480x360) for _ in range(3)]
        batch = BatchObjectMatcher()
        for frame in frames:
            batch.match_frame(frame, models)
        stats = batch.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= len(frames) - 1

    def test_shared_cache_across_matchers(self):
        models = random_models(np.random.default_rng(6), 4)
        cache = CandidateMatrixCache()
        a = BatchObjectMatcher(cache=cache)
        b = BatchObjectMatcher(cache=cache)
        extractor = FeatureExtractor(np.random.default_rng(7))
        frame = extractor.frame_of(models[0], R480x360)
        a.match_frame(frame, models)
        b.match_frame(frame, models)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] >= 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            CandidateMatrixCache(capacity=0)


class TestCandidateStack:
    def test_segment_layout(self):
        models = random_models(np.random.default_rng(0), 3, n_features=10)
        stack = CandidateStack.build(models)
        assert stack.total_descriptors == 30
        assert list(stack.sizes) == [10, 10, 10]
        assert not stack.lone_mask.any()
        assert stack.names == tuple(sorted(m.name for m in models))
        assert len(stack.descriptors) == len(stack.keypoints) == 3
        for model in models:
            k = stack.index[model.name]
            np.testing.assert_array_equal(stack.descriptors[k],
                                          model.descriptors)
            np.testing.assert_array_equal(stack.keypoints[k],
                                          model.keypoints)

    def test_float64_arrays_are_the_models_own(self):
        sizes = (6, 2, 5)
        models = ragged_models(np.random.default_rng(4), sizes)
        stack = CandidateStack.build(models)
        for model in models:
            k = stack.index[model.name]
            assert np.shares_memory(stack.descriptors[k], model.descriptors)
            assert np.shares_memory(stack.keypoints[k], model.keypoints)
        owned = (stack.screen_desc, stack.pad_rows, stack.sizes,
                 stack.lone_mask)
        assert stack.nbytes == sum(a.nbytes for a in owned)

    def test_screen_desc_is_position_major(self):
        sizes = (6, 2, 5)
        models = ragged_models(np.random.default_rng(1), sizes, dim=8)
        stack = CandidateStack.build(models)
        n, max_r = len(models), max(sizes)
        assert stack.screen_desc.shape == (max_r * n, 8)
        assert stack.screen_desc.dtype == np.float32
        for model in models:
            k = stack.index[model.name]
            for j, row in enumerate(model.descriptors):
                np.testing.assert_array_equal(stack.screen_desc[j * n + k],
                                              row.astype(np.float32))

    def test_pad_rows_past_segment_ends(self):
        sizes = (8, 3, 8, 1)
        models = ragged_models(np.random.default_rng(2), sizes)
        stack = CandidateStack.build(models)
        n = len(models)
        expected = sorted(j * n + stack.index[m.name]
                          for m, size in zip(models, sizes)
                          for j in range(size, max(sizes)))
        assert stack.pad_rows.tolist() == expected
        assert not stack.screen_desc[stack.pad_rows].any()
        uniform = CandidateStack.build(random_models(
            np.random.default_rng(3), 3, n_features=8))
        assert uniform.pad_rows.size == 0
