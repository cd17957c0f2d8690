"""The object-matching pipeline: kNN + ratio + symmetry + RANSAC.

Implements the four accuracy stages of the paper's AR back-end
(Section 6.3): (1) brute-force 2-nearest-neighbour matching with a
ratio test, (2) a symmetry (mutual best match) test between the two
directions, (3) RANSAC geometric verification returning inlier matches,
(4) an inlier-count acceptance threshold.  These run for real on the
synthetic descriptor sets, so false negatives/positives are measured,
not assumed.

The stages run batched across the whole candidate set, around a
certified screen:

* all candidate descriptors are stacked into one *position-major*
  float32 matrix whose row ``j * n_obj + k`` is descriptor ``j`` of
  object ``k`` (short segments padded with whole rows), so each frame
  costs **one** float32 GEMM producing the similarities against the
  whole candidate set; the float64 descriptors stay the objects' own
  arrays, not a stacked copy;
* in that layout the descriptors at one segment position form one
  contiguous ``(n_obj, Q)`` plane of the similarity matrix, so the
  segment-wise maxima are elementwise maxima over planes; two
  half-segment maxima give the best similarity and a lower bound on
  the second best per (query, object) lane;
* lanes whose ratio test provably fails under a rigorous float32
  error bound (the overwhelming majority) are rejected wholesale; the
  surviving lanes get an exact float32 2-NN from gathered rows, and
  only candidates that pass the forward gate -- or sit within the
  error margin of it -- are finished in float64 per candidate on that
  object's own descriptors;
* all RANSAC iterations for a surviving pair run as one broadcasted
  distance computation, drawing the translation hypotheses in a single
  ``rng.integers(n, size=iterations)`` call that consumes the *same*
  random stream as ``iterations`` sequential draws.

A :class:`CandidateMatrixCache` (LRU, keyed by the sorted tuple of
object names) lets repeated search spaces -- Naive reuses the same
whole-floor set every frame; ACACIA sub-section sets repeat per
checkpoint -- reuse their stacked matrix instead of re-stacking it.
Each matcher computes its GEMM in one growable float32 buffer (and
rounds its query block into another), viewing a prefix of it per call.

The screen only ever *rejects* lanes whose ratio test fails by more
than the certified error bound; every decision that float32 rounding
could affect is re-derived in float64.  For a shared RNG seed the
decisions therefore equal those of a plain per-candidate loop over the
four stages, which ``tests/matcher_oracle.py`` keeps as the oracle of
the differential tests in ``tests/test_vision_batch.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from repro.vision.features import Frame, ObjectModel


@dataclass
class MatchOutcome:
    """Result of matching one frame against one object."""

    object_name: str
    good_matches: int = 0
    symmetric_matches: int = 0
    inliers: int = 0
    accepted: bool = False
    stage_reached: str = "ratio"     # ratio -> symmetry -> ransac -> accept


#: Sentinel for padded (out-of-segment) rows of the similarity matrix.
#: Similarities of unit-norm descriptors lie in ``[-1, 1]``; -2 is
#: strictly below every real value, so padding never wins a max.
_PAD_SENTINEL = np.float32(-2.0)

#: A candidate's name; mapped over a candidate list in C, with no
#: Python-level generator step per model.
_model_name = attrgetter("name")


class CandidateStack(NamedTuple):
    """An immutable stacked view of one candidate set.

    Objects are stacked in sorted-name order (the canonical order), so
    any permutation of the same candidate set maps onto the same stack
    and therefore the same cache entry.  Callers translate between
    canonical positions and their own candidate order via :attr:`index`.
    Only the float32 screen matrix is a copy: :attr:`descriptors` and
    :attr:`keypoints` are the objects' own float64 arrays.
    """

    names: tuple[str, ...]              # canonical (sorted) order
    descriptors: tuple[np.ndarray, ...]  # per object, canonical order
    screen_desc: np.ndarray             # (max_r * n_obj, d) float32,
                                        # position-major: row j * n_obj + k
                                        # is descriptor j of object k, zero
                                        # past the segment's end
    keypoints: tuple[np.ndarray, ...]   # per object, canonical order
    sizes: np.ndarray                   # (n_obj,) descriptor counts
    total_descriptors: int              # sizes.sum()
    pad_rows: np.ndarray                # ids of the screen_desc rows past
                                        # their segment's end (empty when
                                        # all segments have one size)
    index: dict[str, int]               # name -> canonical position
    lone_mask: np.ndarray               # (n_obj,) True where size < 2

    @property
    def nbytes(self) -> int:
        """Memory footprint of the arrays the stack owns (the objects'
        own descriptor and keypoint arrays are not counted)."""
        return int(self.screen_desc.nbytes + self.pad_rows.nbytes
                   + self.sizes.nbytes + self.lone_mask.nbytes)

    @classmethod
    def build(cls, models: Sequence[ObjectModel]) -> "CandidateStack":
        ordered = sorted(models, key=lambda m: m.name)
        names = tuple(m.name for m in ordered)
        if len(set(names)) != len(names):
            raise ValueError("candidate set contains duplicate object names")
        descriptors = tuple(np.ascontiguousarray(m.descriptors,
                                                 dtype=np.float64)
                            for m in ordered)
        sizes = np.array([d.shape[0] for d in descriptors], dtype=np.intp)
        n = len(ordered)
        dim = descriptors[0].shape[1] if n else 64
        max_r = int(sizes.max()) if n else 0
        screen_desc = np.zeros((max_r, n, dim), dtype=np.float32)
        for k, desc in enumerate(descriptors):
            screen_desc[:desc.shape[0], k] = desc
        pad_rows = np.flatnonzero(np.arange(max_r)[:, None] >= sizes)
        keypoints = tuple(np.ascontiguousarray(m.keypoints, dtype=np.float64)
                          for m in ordered)
        return cls(names=names, descriptors=descriptors,
                   screen_desc=screen_desc.reshape(max_r * n, dim),
                   keypoints=keypoints, sizes=sizes,
                   total_descriptors=int(sizes.sum()), pad_rows=pad_rows,
                   index={name: k for k, name in enumerate(names)},
                   lone_mask=sizes < 2)


class CandidateMatrixCache:
    """LRU cache of :class:`CandidateStack` keyed by sorted object names.

    Entries are keyed by name only: object models are assumed immutable
    for the lifetime of a database, which holds for
    :class:`~repro.vision.database.ObjectDatabase` records.  The cache
    is thread-safe, so matchers on several threads can share one.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._stacks: "OrderedDict[tuple[str, ...], CandidateStack]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(models: Sequence[ObjectModel]) -> tuple[str, ...]:
        return tuple(sorted(m.name for m in models))

    def touch(self, key: tuple[str, ...]) -> Optional[CandidateStack]:
        """Look up an already-canonical key, refreshing LRU recency.

        Used by the matcher's candidate-list memo so repeat lookups
        still count as cache hits without re-sorting the name list.
        """
        with self._lock:
            stack = self._stacks.get(key)
            if stack is not None:
                self.hits += 1
                self._stacks.move_to_end(key)
            return stack

    def get_or_build(self, models: Sequence[ObjectModel]) -> CandidateStack:
        key = self.key_for(models)
        with self._lock:
            stack = self._stacks.get(key)
            if stack is not None:
                self.hits += 1
                self._stacks.move_to_end(key)
                return stack
            self.misses += 1
        stack = CandidateStack.build(models)    # build outside the lock
        with self._lock:
            self._stacks[key] = stack
            self._stacks.move_to_end(key)
            while len(self._stacks) > self.capacity:
                self._stacks.popitem(last=False)
                self.evictions += 1
        return stack

    def __len__(self) -> int:
        return len(self._stacks)

    def __contains__(self, key: tuple[str, ...]) -> bool:
        return key in self._stacks

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size and bytes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._stacks),
                "bytes": sum(s.nbytes for s in self._stacks.values()),
            }


class BatchObjectMatcher:
    """Brute-force matcher with the paper's four verification stages.

    Batched across the whole candidate set: one float32 GEMM per frame
    screens out the lanes whose ratio test provably fails, and only
    gate-passing (or borderline) candidates are finished with exact
    per-candidate float64 arithmetic.  Candidate sets too small to
    amortise the screen (see :attr:`SCREEN_MIN_DESCRIPTORS` and
    :attr:`SCREEN_MIN_QUERIES`) skip it and finish every candidate.

    Instances are not safe for concurrent use (the RNG stream and the
    reused GEMM buffers are per-instance state): give each thread its
    own matcher, optionally sharing one :class:`CandidateMatrixCache`.
    """

    #: Below these sizes the screen's fixed costs outweigh the GEMM win
    #: (location-pruned ACACIA search spaces are often this small).
    SCREEN_MIN_DESCRIPTORS = 512
    SCREEN_MIN_QUERIES = 4

    #: Certified bound on ``|float32 similarity - exact|``.  The worst
    #: case for 64-term float32 dot products of unit-norm inputs, input
    #: rounding included, is ~4e-6 ((n + 2)*u*sum|x_i y_i| with
    #: u = 2^-24); 5e-5 leaves over a 10x safety factor.  Only
    #: *rejections* ride on this bound alone; any lane within
    #: ``(1 + ratio) * epsilon`` of the ratio threshold is re-derived in
    #: float64.
    SCREEN_EPSILON = 5e-5

    def __init__(self, ratio_threshold: float = 0.75,
                 ransac_iterations: int = 50,
                 ransac_inlier_radius: float = 3.0,
                 min_inliers: int = 8,
                 rng: Optional[np.random.Generator] = None,
                 cache: Optional[CandidateMatrixCache] = None) -> None:
        if not (0 < ratio_threshold < 1):
            raise ValueError("ratio threshold must be in (0, 1)")
        if ransac_iterations < 1:
            raise ValueError("RANSAC needs at least one iteration")
        self.ratio_threshold = ratio_threshold
        self.ransac_iterations = ransac_iterations
        self.ransac_inlier_radius = ransac_inlier_radius
        self.min_inliers = min_inliers
        self.rng = rng if rng is not None else np.random.default_rng(1234)
        self.cache = cache if cache is not None else CandidateMatrixCache()
        # growable flat float32 scratch: the GEMM output and the query
        # block; each call views a prefix of them
        self._sim_flat = np.empty(0, dtype=np.float32)
        self._query_flat = np.empty(0, dtype=np.float32)
        self._aranges: dict[int, np.ndarray] = {}
        # candidate-list memo: caller-order name tuple -> (canonical
        # cache key, caller-order canonical positions).  Skips the
        # per-call sort + per-model dict lookups for repeated lists.
        self._lookup_memo: "OrderedDict[tuple[str, ...], tuple[tuple[str, ...], np.ndarray]]" = OrderedDict()

    _LOOKUP_MEMO_CAPACITY = 128

    def _resolve(self, models: Sequence[ObjectModel]
                 ) -> tuple[CandidateStack, tuple[str, ...], np.ndarray]:
        """Stack + caller-order canonical positions for a candidate list."""
        names = tuple(map(_model_name, models))
        memo = self._lookup_memo
        entry = memo.get(names)
        if entry is not None:
            sorted_key, positions = entry
            stack = self.cache.touch(sorted_key)
            if stack is None:                   # evicted meanwhile
                stack = self.cache.get_or_build(models)
            memo.move_to_end(names)
            return stack, names, positions
        stack = self.cache.get_or_build(models)
        index = stack.index
        positions = np.fromiter((index[name] for name in names),
                                dtype=np.intp, count=len(names))
        memo[names] = (stack.names, positions)
        while len(memo) > self._LOOKUP_MEMO_CAPACITY:
            memo.popitem(last=False)
        return stack, names, positions

    # -- vectorized stages -------------------------------------------------

    def _ransac_offsets(self, offsets: np.ndarray) -> int:
        """All RANSAC iterations in one broadcasted computation.

        Draws the hypothesis indices with one ``integers(n, size=k)``
        call, which consumes the identical PCG64 stream as ``k``
        sequential ``integers(n)`` draws, one per iteration.
        """
        n = offsets.shape[0]
        if n < 2:
            return 0
        picks = self.rng.integers(n, size=self.ransac_iterations)
        hypotheses = offsets[picks]                       # (iters, 2)
        # inlined ||offsets - hypothesis||: same multiply/pairwise-add/
        # sqrt sequence as np.linalg.norm(..., axis=2), so bit-identical
        # to a per-iteration norm, without the linalg wrapper overhead
        dx = offsets[:, 0] - hypotheses[:, 0, None]       # (iters, n)
        dy = offsets[:, 1] - hypotheses[:, 1, None]
        errors = np.sqrt(dx * dx + dy * dy)
        inlier_counts = (errors < self.ransac_inlier_radius).sum(axis=1)
        return int(inlier_counts.max())

    def _arange(self, n: int) -> np.ndarray:
        """Cached ``np.arange(n)`` for the small per-candidate shapes."""
        cached = self._aranges.get(n)
        if cached is None:
            if len(self._aranges) >= 32:
                self._aranges.clear()
            cached = np.arange(n)
            self._aranges[n] = cached
        return cached

    @staticmethod
    def _prefix(flat: np.ndarray, shape: tuple[int, int]
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, view)``: a ``shape`` view over a prefix of the
        float32 scratch ``flat``, which is replaced by a larger one
        when it is too small."""
        size = shape[0] * shape[1]
        if flat.size < size:
            flat = np.empty(size, dtype=np.float32)
        return flat, flat[:size].reshape(shape)

    def _screen_rows(self, queries: np.ndarray, stack: CandidateStack
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Certified float32 screen over a stacked block of query rows.

        ``queries`` is a ``(Q, d)`` float64 block holding one or
        several frames' descriptors, screened against a stack whose
        largest segment holds at least two descriptors.  Returns
        ``(rows, segs, margin)`` for the lanes that survive certified
        rejection: their exact-float32 forward ratio-test margin is
        negative iff the lane passes.  Lanes absent from the output are
        *certified* ratio-test failures under :attr:`SCREEN_EPSILON`.
        """
        q = queries.shape[0]
        n = len(stack.names)
        r = stack.screen_desc.shape[0] // n

        self._query_flat, frame32 = self._prefix(self._query_flat,
                                                 queries.shape)
        frame32[...] = queries
        self._sim_flat, sim = self._prefix(self._sim_flat, (r * n, q))
        np.matmul(stack.screen_desc, frame32.T, out=sim)
        sim[stack.pad_rows] = _PAD_SENTINEL
        lanes = sim.reshape(r, n, q)    # [segment position, object, query]

        # Segment max + a lower bound on the second max, per lane, as
        # elementwise maxima over the two halves' position planes.  The
        # two half maxima are an upper/lower pair: the larger is the
        # exact segment max, the smaller is a true element outside the
        # argmax position, hence <= the second max.
        half = r // 2
        first = lanes[:half].max(axis=0)
        second = lanes[half:].max(axis=0)
        s1 = np.maximum(first, second).astype(np.float64)
        lo = np.minimum(first, second).astype(np.float64)

        # Certified rejection: true d1 >= ratio * d2 whenever the
        # float32 evidence clears the error bound.  d = 1 - similarity.
        eps = self.SCREEN_EPSILON
        d1_lb = (1.0 - s1) - eps
        d2_ub = (1.0 - lo) + eps
        certified_fail = d1_lb >= self.ratio_threshold * d2_ub
        certified_fail[stack.lone_mask] = True      # lone-candidate policy

        segs, rows = np.nonzero(~certified_fail)
        if not rows.size:
            return rows, segs, np.empty(0, dtype=np.float64)
        # Exact float32 2-NN for the surviving lanes only (float64
        # copies: float32 values are exactly representable in float64).
        sub = lanes[:, segs, rows].astype(np.float64)    # (r, m) copies
        lane = self._arange(rows.size)
        b1 = sub.argmax(axis=0)
        v1 = sub[b1, lane].copy()
        sub[b1, lane] = _PAD_SENTINEL
        v2 = sub.max(axis=0)
        margin = (1.0 - v1) - self.ratio_threshold * (1.0 - v2)
        return rows, segs, margin

    def _screen_verdicts(self, queries: np.ndarray, stack: CandidateStack,
                         frame_ends: Optional[np.ndarray] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Certified float32 screen, per-(frame, candidate) verdicts.

        ``queries`` holds one frame's descriptors, or the stacked
        descriptors of several frames whose row blocks end at
        ``frame_ends`` (cumulative row counts).  Returns
        ``(good_counts, needs_exact)``, both ``(n_frames, n_candidates)``
        over canonical positions: ``good_counts[f, k]`` is the exact
        forward ratio-test match count wherever ``needs_exact[f, k]`` is
        False; flagged pairs (forward gate passed, or any lane within
        the certified error margin) must be finished in float64.
        """
        n = len(stack.names)
        rows, segs, margin = self._screen_rows(queries, stack)
        if frame_ends is None:
            n_frames, lanes = 1, segs
        else:
            n_frames = len(frame_ends)
            lanes = np.searchsorted(frame_ends, rows, side="right") * n + segs
        good = np.bincount(lanes[margin < 0.0], minlength=n_frames * n)
        needs_exact = good >= self.min_inliers
        tau = (1.0 + self.ratio_threshold) * self.SCREEN_EPSILON
        needs_exact[lanes[np.abs(margin) < tau]] = True
        return good.reshape(n_frames, n), needs_exact.reshape(n_frames, n)

    def _finish_candidate(self, frame: Frame, stack: CandidateStack,
                          position: int, name: str) -> MatchOutcome:
        """Float64 pipeline for one candidate's own descriptors.

        One small GEMM serves both match directions; the 2-NN comes
        from argmin + masked-min, and the ratio test compares
        ``d1 < ratio * d2`` on ``d = 1 - similarity``.  Candidates with
        fewer than two descriptors have no second neighbour, so the
        ratio test cannot establish distinctiveness and they are
        rejected outright (the lone-candidate policy).
        """
        refs = stack.descriptors[position]
        size = refs.shape[0]
        outcome = MatchOutcome(object_name=name)
        q = frame.descriptors.shape[0]
        if q == 0 or size < 2:     # lone-candidate policy: reject
            return outcome

        distance = 1.0 - frame.descriptors @ refs.T            # (q, r)
        rows = self._arange(q)
        best_f = distance.argmin(axis=1)
        d1 = distance[rows, best_f].copy()
        distance[rows, best_f] = np.inf
        d2 = distance.min(axis=1)
        distance[rows, best_f] = d1
        keep_f = d1 < self.ratio_threshold * d2
        outcome.good_matches = int(keep_f.sum())
        if outcome.good_matches < self.min_inliers:
            return outcome

        outcome.stage_reached = "symmetry"
        if q < 2:                  # backward 2-NN needs two queries
            return outcome
        cols = self._arange(size)
        best_b = distance.argmin(axis=0)
        b1 = distance[best_b, cols].copy()
        distance[best_b, cols] = np.inf
        b2 = distance.min(axis=0)
        distance[best_b, cols] = b1
        keep_b = b1 < self.ratio_threshold * b2

        forward_rows = np.flatnonzero(keep_f)
        forward_cols = best_f[forward_rows]
        mutual = keep_b[forward_cols] & (best_b[forward_cols] == forward_rows)
        sym_rows = forward_rows[mutual]
        sym_cols = forward_cols[mutual]
        outcome.symmetric_matches = int(sym_rows.size)
        if outcome.symmetric_matches < self.min_inliers:
            return outcome

        outcome.stage_reached = "ransac"
        offsets = (frame.keypoints[sym_rows]
                   - stack.keypoints[position][sym_cols])
        outcome.inliers = self._ransac_offsets(offsets)
        if outcome.inliers >= self.min_inliers:
            outcome.accepted = True
            outcome.stage_reached = "accept"
        return outcome

    def _use_screen(self, queries: int, stack: CandidateStack) -> bool:
        return (stack.total_descriptors >= self.SCREEN_MIN_DESCRIPTORS
                and queries >= self.SCREEN_MIN_QUERIES)

    def _scan_stack(self, frame: Frame, stack: CandidateStack,
                    names: tuple[str, ...], positions: np.ndarray,
                    want_all: bool = True):
        """Yield per-candidate results in caller order.

        Caller order fixes both the RANSAC RNG consumption order and
        the tie-break order, as in a plain loop over the candidates.  With
        ``want_all=False`` (the :meth:`match_frame` fast path), only
        candidates surviving the screen are finished and yielded --
        screen-rejected candidates can never be accepted.
        """
        q = frame.descriptors.shape[0]
        total = stack.total_descriptors
        max_r = int(stack.sizes.max()) if len(stack.sizes) else 0
        if q == 0 or total == 0 or max_r < 2:
            # no queries, or every candidate falls under the
            # lone-candidate policy: nothing can match
            if want_all:
                for name in names:
                    yield MatchOutcome(object_name=name)
            return

        if not self._use_screen(q, stack):
            for j, name in enumerate(names):
                yield self._finish_candidate(frame, stack,
                                             int(positions[j]), name)
            return

        good_counts, needs_exact = self._screen_verdicts(frame.descriptors,
                                                         stack)
        good_counts, needs_exact = good_counts[0], needs_exact[0]
        if want_all:
            for j, name in enumerate(names):
                k = int(positions[j])
                if needs_exact[k]:
                    yield self._finish_candidate(frame, stack, k, name)
                else:
                    yield MatchOutcome(object_name=name,
                                       good_matches=int(good_counts[k]))
        else:
            for j in np.flatnonzero(needs_exact[positions]):
                yield self._finish_candidate(frame, stack,
                                             int(positions[j]), names[j])

    # -- public API --------------------------------------------------------

    def match_all(self, frame: Frame, candidates: Iterable[ObjectModel]
                  ) -> list[MatchOutcome]:
        """Outcomes for every candidate, in candidate order."""
        models = list(candidates)
        if not models:
            return []
        stack, names, positions = self._resolve(models)
        return list(self._scan_stack(frame, stack, names, positions))

    def match_one(self, frame: Frame, obj: ObjectModel) -> MatchOutcome:
        """Run the full pipeline for one frame/object pair."""
        return self.match_all(frame, [obj])[0]

    def match_frame(self, frame: Frame, candidates: Iterable[ObjectModel]
                    ) -> Optional[MatchOutcome]:
        """Match against a candidate set; best accepted outcome or None."""
        models = list(candidates)
        if not models:
            return None
        stack, names, positions = self._resolve(models)
        best: Optional[MatchOutcome] = None
        for outcome in self._scan_stack(frame, stack, names, positions,
                                        want_all=False):
            if outcome.accepted and (best is None
                                     or outcome.inliers > best.inliers):
                best = outcome
        return best

    def match_frames(self, frames: Sequence[Frame],
                     candidates: Iterable[ObjectModel]
                     ) -> list[Optional[MatchOutcome]]:
        """Per-frame :meth:`match_frame` results for a block of frames.

        Equivalent to ``[self.match_frame(f, candidates) for f in
        frames]`` -- including RNG stream consumption order (frames are
        finished sequentially, candidates in caller order) -- but all
        frames share one screening GEMM and one segment reduction,
        which amortises the per-frame fixed costs.  This is the natural
        shape of the evaluation workloads, which capture several frames
        per checkpoint against the same candidate set.
        """
        frames = list(frames)
        models = list(candidates)
        if not frames:
            return []
        if not models:
            return [None] * len(frames)
        stack, names, positions = self._resolve(models)
        max_r = int(stack.sizes.max()) if len(stack.sizes) else 0
        counts = np.array([f.descriptors.shape[0] for f in frames],
                          dtype=np.intp)
        if (stack.total_descriptors == 0 or max_r < 2
                or int(counts.sum()) == 0
                or not self._use_screen(int(counts.max()), stack)):
            return [self.match_frame(f, models) for f in frames]

        block = np.concatenate([f.descriptors for f in frames], axis=0)
        _, needs_exact = self._screen_verdicts(block, stack,
                                               np.cumsum(counts))

        results: list[Optional[MatchOutcome]] = []
        for fi, frame in enumerate(frames):
            best: Optional[MatchOutcome] = None
            if counts[fi]:
                for j in np.flatnonzero(needs_exact[fi][positions]):
                    outcome = self._finish_candidate(
                        frame, stack, int(positions[j]), names[j])
                    if outcome.accepted and (best is None or
                                             outcome.inliers > best.inliers):
                        best = outcome
            results.append(best)
        return results
