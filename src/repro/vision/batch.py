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

* all candidate descriptors are stacked into one ``(R_total, d)``
  matrix with per-object segment offsets, plus a float32 copy carrying
  an extra all-ones column, so each frame costs **one** float32 GEMM
  producing the *biased* similarities ``dot + 1 >= 0`` against the
  whole candidate set;
* because the biased similarities are non-negative, their IEEE-754
  bit patterns order like integers, and segment-wise max reductions
  run on an ``int32`` view (measurably faster than float reductions);
  two half-segment maxima give the best similarity and a lower bound
  on the second best per (query, object) lane;
* lanes whose ratio test provably fails under a rigorous float32
  error bound (the overwhelming majority) are rejected wholesale; the
  surviving lanes get an exact float32 2-NN from gathered rows, and
  only candidates that pass the forward gate -- or sit within the
  error margin of it -- are finished in float64 per candidate on the
  stacked slices;
* all RANSAC iterations for a surviving pair run as one broadcasted
  distance computation, drawing the translation hypotheses in a single
  ``rng.integers(n, size=iterations)`` call that consumes the *same*
  random stream as ``iterations`` sequential draws.

A :class:`CandidateMatrixCache` (LRU, keyed by the sorted tuple of
object names) lets repeated search spaces -- Naive reuses the same
whole-floor set every frame; ACACIA sub-section sets repeat per
checkpoint -- reuse their stacked matrix instead of re-concatenating.

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
from typing import Iterable, Optional, Sequence

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


#: Sentinel for padded (out-of-segment) columns of the biased
#: similarity matrix.  Biased similarities are ``dot + 1 in [0, 2]``;
#: -1 is strictly below every real value, so padding never wins a max.
_PAD_SENTINEL = np.float32(-1.0)


@dataclass(frozen=True)
class CandidateStack:
    """An immutable stacked view of one candidate set.

    Objects are stacked in sorted-name order (the canonical order), so
    any permutation of the same candidate set maps onto the same stack
    and therefore the same cache entry.  Callers translate between
    canonical positions and their own candidate order via :attr:`index`.
    """

    names: tuple[str, ...]              # canonical (sorted) order
    descriptors: np.ndarray             # (R_total, d) float64, C-contiguous
    screen_desc: np.ndarray             # (d + 1, R_total) float32, already
                                        # transposed for an NN GEMM, with a
                                        # trailing all-ones row so
                                        # ``frame32 @ screen_desc`` yields
                                        # the biased similarities dot + 1
    keypoints: tuple[np.ndarray, ...]   # per object, canonical order
    starts: np.ndarray                  # (n_obj,) segment start offsets
    sizes: np.ndarray                   # (n_obj,) descriptor counts
    pad_gather: np.ndarray              # (n_obj, max_r) column gather into
                                        # the biased similarity matrix
                                        # extended by one sentinel column
                                        # at index R_total
    index: dict[str, int]               # name -> canonical position
    uniform: bool                       # all segments the same size
    lone_mask: np.ndarray               # (n_obj,) True where size < 2

    @property
    def total_descriptors(self) -> int:
        return self.descriptors.shape[0]

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays."""
        return int(self.descriptors.nbytes + self.screen_desc.nbytes
                   + self.pad_gather.nbytes + self.starts.nbytes
                   + self.sizes.nbytes)

    @classmethod
    def build(cls, models: Sequence[ObjectModel]) -> "CandidateStack":
        ordered = sorted(models, key=lambda m: m.name)
        names = tuple(m.name for m in ordered)
        if len(set(names)) != len(names):
            raise ValueError("candidate set contains duplicate object names")
        sizes = np.array([m.descriptors.shape[0] for m in ordered],
                         dtype=np.intp)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        total = int(sizes.sum())
        if total:
            descriptors = np.ascontiguousarray(
                np.concatenate([m.descriptors for m in ordered], axis=0),
                dtype=np.float64)
        else:
            descriptors = np.zeros((0, 64), dtype=np.float64)
        dim = descriptors.shape[1]
        screen_desc = np.empty((dim + 1, total), dtype=np.float32)
        screen_desc[:dim] = descriptors.T
        screen_desc[dim] = 1.0
        max_r = int(sizes.max()) if len(sizes) else 0
        # padding targets the sentinel column appended at index `total`
        pad_gather = np.full((len(ordered), max(max_r, 1)), total,
                             dtype=np.intp)
        for k, (start, size) in enumerate(zip(starts, sizes)):
            pad_gather[k, :size] = np.arange(start, start + size)
        keypoints = tuple(np.ascontiguousarray(m.keypoints, dtype=np.float64)
                          for m in ordered)
        uniform = bool(len(sizes)) and int(sizes.min()) == max_r
        return cls(names=names, descriptors=descriptors,
                   screen_desc=screen_desc, keypoints=keypoints,
                   starts=starts, sizes=sizes, pad_gather=pad_gather,
                   index={name: k for k, name in enumerate(names)},
                   uniform=uniform, lone_mask=sizes < 2)


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

    #: Certified bound on ``|float32 biased similarity - exact|``.  The
    #: worst case for 65-term float32 dot products of unit-norm inputs
    #: is ~1e-5 (n*u*sum|x_i y_i| with u = 2^-24); 5e-5 leaves a 5x
    #: safety factor.  Only *rejections* ride on this bound alone; any
    #: lane within ``(1 + ratio) * epsilon`` of the ratio threshold is
    #: re-derived in float64.
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
        self._sim_buffers: dict[tuple[int, int], np.ndarray] = {}
        self._frame_buffers: dict[tuple[int, int], np.ndarray] = {}
        self._aranges: dict[int, np.ndarray] = {}
        # candidate-list memo: caller-order name tuple -> (canonical
        # cache key, caller-order canonical positions).  Skips the
        # per-call sort + per-model dict lookups for repeated lists.
        self._lookup_memo: "OrderedDict[tuple[str, ...], tuple[tuple[str, ...], np.ndarray]]" = OrderedDict()

    _LOOKUP_MEMO_CAPACITY = 128

    def _resolve(self, models: Sequence[ObjectModel]
                 ) -> tuple[CandidateStack, tuple[str, ...], np.ndarray]:
        """Stack + caller-order canonical positions for a candidate list."""
        names = tuple(m.name for m in models)
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

    def _screen_buffer(self, q: int, total: int) -> np.ndarray:
        """Reused float32 GEMM output buffer keyed by problem shape."""
        key = (q, total)
        buf = self._sim_buffers.get(key)
        if buf is None:
            if len(self._sim_buffers) >= 16:
                self._sim_buffers.clear()
            buf = np.empty((q, total), dtype=np.float32)
            self._sim_buffers[key] = buf
        return buf

    def _screen_rows(self, queries: np.ndarray, stack: CandidateStack
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Certified float32 screen over a stacked block of query rows.

        ``queries`` is a ``(Q, d)`` float64 block holding one or
        several frames' descriptors.  Returns ``(rows, segs, margin)``
        for the lanes that survive certified rejection: their
        exact-float32 forward ratio-test margin is negative iff the
        lane passes.  Lanes absent from the output are *certified*
        ratio-test failures under :attr:`SCREEN_EPSILON`.
        """
        q, dim = queries.shape
        n = len(stack.names)
        total = stack.total_descriptors

        fkey = (q, dim + 1)
        frame32 = self._frame_buffers.get(fkey)
        if frame32 is None:
            if len(self._frame_buffers) >= 16:
                self._frame_buffers.clear()
            frame32 = np.empty(fkey, dtype=np.float32)
            self._frame_buffers[fkey] = frame32
        frame32[:, :dim] = queries
        frame32[:, dim] = 1.0
        sim = self._screen_buffer(q, total)
        np.matmul(frame32, stack.screen_desc, out=sim)  # biased: dot + 1

        if stack.uniform:
            padded = sim.reshape(q, n, -1)
        else:
            ext = np.concatenate(
                [sim, np.full((q, 1), _PAD_SENTINEL)], axis=1)
            padded = np.ascontiguousarray(ext[:, stack.pad_gather])
        r = padded.shape[2]

        # Segment max + a lower bound on the second max, per lane, via
        # int32-ordered reductions (biased similarities are >= 0, so
        # IEEE bit patterns order like integers; int32 max reductions
        # are the fastest exact reduction this shape admits).  The two
        # elements of each lane's half-split are an upper/lower pair:
        # the larger is the exact segment max, the smaller is a true
        # element outside the argmax position, hence <= the second max.
        bits = padded.view(np.int32)
        half = max(r // 2, 1)
        if r == 2 * half:
            pair = bits.reshape(q, n, 2, half).max(axis=3)
            first, second = pair[..., 0], pair[..., 1]
        else:
            first = bits[:, :, :half].max(axis=2)
            second = bits[:, :, half:].max(axis=2)
        s1 = np.maximum(first, second).view(np.float32).astype(np.float64)
        lo = np.minimum(first, second).view(np.float32).astype(np.float64)

        # Certified rejection: true d1 >= ratio * d2 whenever the
        # float32 evidence clears the error bound.  d = 2 - biased.
        eps = self.SCREEN_EPSILON
        d1_lb = (2.0 - s1) - eps
        d2_ub = (2.0 - lo) + eps
        certified_fail = d1_lb >= self.ratio_threshold * d2_ub
        certified_fail[:, stack.lone_mask] = True   # lone-candidate policy

        rows, segs = np.nonzero(~certified_fail)
        if not rows.size:
            return rows, segs, np.empty(0, dtype=np.float64)
        # Exact float32 2-NN for the surviving lanes only (float64
        # copies: float64 argmax is the fast path in this numpy build,
        # and float32 values are exactly representable in float64).
        sub = padded[rows, segs].astype(np.float64)      # (m, r) copies
        lane = self._arange(rows.size)
        b1 = sub.argmax(axis=1)
        v1 = sub[lane, b1].copy()
        sub[lane, b1] = -1.0
        v2 = sub.max(axis=1)
        margin = (2.0 - v1) - self.ratio_threshold * (2.0 - v2)
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
        """Float64 pipeline for one candidate's stacked slice.

        One small GEMM serves both match directions; the 2-NN comes
        from argmin + masked-min, and the ratio test compares
        ``d1 < ratio * d2`` on ``d = 1 - similarity``.  Candidates with
        fewer than two descriptors have no second neighbour, so the
        ratio test cannot establish distinctiveness and they are
        rejected outright (the lone-candidate policy).
        """
        start = int(stack.starts[position])
        size = int(stack.sizes[position])
        refs = stack.descriptors[start:start + size]
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
