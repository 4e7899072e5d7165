"""Scale-free relative pose from 2-D correspondences.

Two estimation paths are provided:

* the primary path estimates a plane-induced homography with RANSAC and
  factors it analytically into rotation, translation direction and plane
  normal (cheirality leaves at most two solutions, ordered by how squarely
  the plane faces the camera);
* a normalized eight-point epipolar path serves as the comparison baseline.

Both paths consume a :class:`CorrespondenceSet` whose A-side points live in
the first image and B-side points in the second; the recovered pose maps
A-camera coordinates into B-camera coordinates.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CheiralityError,
    DegenerateModelError,
    InsufficientDataError,
    InvalidInputError,
)
from .geometry import DirectionalPose, Intrinsics, Rotation

# Singular-value spread below which a homography is treated as a pure
# rotation (zero baseline); the translation direction is undefined there.
ZERO_MOTION_SPREAD = 1e-6

# Median triangulation parallax below which the epipolar translation
# direction is flagged unstable.
PARALLAX_MIN_DEG = 0.1


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Paired pixel coordinates between two images.

    Attributes:
        a: (N, 2) pixel coordinates in image A.
        b: (N, 2) pixel coordinates in image B.
        track_id: (N,) stable integer identity of each correspondence
            across image pairs (assigned by the simulator or ingest layer).
    """

    a: np.ndarray
    b: np.ndarray
    track_id: np.ndarray = None

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.a, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if a.ndim != 2 or a.shape[1] != 2 or b.shape != a.shape:
            raise InvalidInputError("correspondence arrays must both be (N, 2)")
        n = a.shape[0]
        tracks = self.track_id
        if tracks is None:
            tracks = np.arange(n, dtype=np.int64)
        tracks = np.asarray(tracks, dtype=np.int64)
        if tracks.shape != (n,):
            raise InvalidInputError("track array must have length N")
        for arr in (a, b, tracks):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "track_id", tracks)

    def __len__(self) -> int:
        return self.a.shape[0]

    def subset(self, index) -> "CorrespondenceSet":
        return CorrespondenceSet(self.a[index], self.b[index], self.track_id[index])

    def to_json_dict(self) -> dict:
        pairs = np.hstack([self.a, self.b])
        doc = {"pairs": [[float(v) for v in row] for row in pairs]}
        if not np.array_equal(self.track_id, np.arange(len(self))):
            doc["track_id"] = [int(t) for t in self.track_id]
        return doc

    @staticmethod
    def from_json_dict(doc) -> "CorrespondenceSet":
        """The set of a JSON object with ``pairs`` and optional ``track_id``;
        other keys, such as the ``plane_label`` of older files, are ignored.
        Every pixel must be finite, and track ids distinct integers: track
        joins and depth maps key on them."""
        if not isinstance(doc, dict) or "pairs" not in doc:
            raise InvalidInputError("a correspondence file must be an object with pairs")
        tracks = doc.get("track_id")
        if tracks is not None and not (
            isinstance(tracks, list)
            and all(isinstance(t, int) and not isinstance(t, bool) for t in tracks)
        ):
            raise InvalidInputError("track_id must be a list of integers")
        try:
            pairs = np.asarray(doc["pairs"], dtype=float)
            if tracks is not None:
                tracks = np.asarray(tracks, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed correspondence file: {exc}") from exc
        if tracks is not None and np.unique(tracks).size != tracks.size:
            raise InvalidInputError("track_id holds duplicate ids")
        if pairs.size == 0:
            pairs = pairs.reshape(0, 4)
        if pairs.ndim != 2 or pairs.shape[1] != 4:
            raise InvalidInputError("pairs must be rows of [uA, vA, uB, vB]")
        finite = np.isfinite(pairs).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise InvalidInputError(f"pairs[{i}] must be finite numbers, got {pairs[i].tolist()}")
        return CorrespondenceSet(pairs[:, :2], pairs[:, 2:], tracks)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @staticmethod
    def load(path) -> "CorrespondenceSet":
        return CorrespondenceSet.from_json_dict(json.loads(Path(path).read_text()))


def join_on_tracks(first: CorrespondenceSet, second: CorrespondenceSet) -> CorrespondenceSet:
    """Pair the B-sides of two correspondence sets that share an A image.

    Both inputs must be correspondences against the same reference (their
    A-sides); the result pairs ``first.b`` with ``second.b`` for every track
    visible in both, so it relates the two non-reference images directly.
    """
    common, idx_first, idx_second = np.intersect1d(
        first.track_id, second.track_id, return_indices=True
    )
    if common.size == 0:
        raise InsufficientDataError("no shared tracks between observations")
    return CorrespondenceSet(first.b[idx_first], second.b[idx_second], common)


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 projective map between image planes.

    The stored matrix is normalized so its middle singular value equals 1,
    which is the conditioning expected by the analytic decomposition.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidInputError("homography must be 3x3")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[1] < 1e-12 * max(svals[0], 1.0) or svals[2] <= 0:
            raise DegenerateModelError("homography is singular")
        m = m / svals[1]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PoseHypothesis:
    """One candidate relative pose and the inlier count behind it.

    ``zero_motion`` marks a homography indistinguishable from a pure
    rotation (translation direction undefined); ``unstable_translation``
    marks an epipolar estimate with too little parallax to trust the
    direction.
    """

    pose: DirectionalPose
    support: int
    plane_normal: np.ndarray = None
    zero_motion: bool = False
    unstable_translation: bool = False

    def __post_init__(self):
        if self.plane_normal is not None:
            n = np.asarray(self.plane_normal, dtype=float)
            n = n / np.linalg.norm(n)
            n.flags.writeable = False
            object.__setattr__(self, "plane_normal", n)


# ---------------------------------------------------------------------------
# Homography estimation
# ---------------------------------------------------------------------------


_SQRT2 = np.sqrt(2.0)


def _normalize_points(pts: np.ndarray):
    """Hartley normalization: zero centroid, mean distance sqrt(2).

    ``pts`` is (..., N, 2); leading axes are independent point sets, each
    with its own (..., 3, 3) transform.  The sums are the ones ``mean`` and
    ``linalg.norm`` take, bit for bit, without their Python wrappers, which
    cost more than the arithmetic on a minimal sample.
    """
    n = pts.shape[-2]
    centroid = np.add.reduce(pts, axis=-2) / n
    centred = pts - centroid[..., None, :]
    d = np.add.reduce(np.sqrt(np.add.reduce(centred * centred, axis=-1)), axis=-1) / n
    # Coincident points keep scale 1: dividing sqrt(2) by itself is exact.
    scale = _SQRT2 / np.where(d > 1e-12, d, _SQRT2)
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = scale
    t[..., :2, 2] = -scale[..., None] * centroid
    t[..., 2, 2] = 1.0
    return centred * scale[..., None, None], t


def _homogeneous_rows(pts: np.ndarray) -> np.ndarray:
    """(..., N, 2) points as (..., 3, N) homogeneous rows (x, y, 1)."""
    rows = np.ones(pts.shape[:-2] + (3, pts.shape[-2]))
    rows[..., :2, :] = np.swapaxes(pts, -1, -2)
    return rows


# Cyclic successor n and predecessor p of the indices 0, 1, 2.
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
# adj(m)[k, c] = m[n(c), n(k)] m[p(c), p(k)] - m[p(c), n(k)] m[n(c), p(k)]:
# the flat (row-major) indices of those four factors, each (3, 3) over (k, c).
_ADJUGATE_FACTORS = tuple(
    3 * rows[None, :] + cols[:, None]
    for rows, cols in ((_NEXT, _NEXT), (_PREV, _PREV), (_PREV, _NEXT), (_NEXT, _PREV))
)


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate det(m) m^-1 of (..., 3, 3) matrices: its rows are the cross
    products of m's columns 2 x 3, 3 x 1 and 1 x 2."""
    flat = m.reshape(m.shape[:-2] + (9,))
    a, b, c, d = _ADJUGATE_FACTORS
    return flat[..., a] * flat[..., b] - flat[..., c] * flat[..., d]


def _four_point_homography(nab, ta, b):
    """Closed-form homography through four Hartley-normalised pairs.

    Each quadruple p1..p4 is the image of the canonical projective basis
    e1, e2, e3, (1, 1, 1) under P diag(lam), where P = [p1 p2 p3] and
    lam = adj(P) p4 holds three triangle determinants (p4 with two of
    p1..p3).  Mapping a's basis onto b's gives, up to scale,
    H = Q diag(mu / lam) adj(P) with Q and mu the same for b; it is
    multiplied through by lam1 lam2 lam3 here, so nothing is divided.
    ``nab`` stacks a's and b's normalised points on a leading axis of two,
    so each side's rows, adjugate and determinants come from one call.
    Pixel-side Q absorbs b's normalisation.  Returns (H, degenerate):
    a side with three collinear points, i.e. a triangle determinant (lam,
    or det P) below 1e-10 in normalised units, has no such map.
    """
    p = _homogeneous_rows(nab)
    adj = _adjugate(p[..., :3])
    # adj(P) [P p4] = [det(P) I, lam]: all four triangle determinants.
    d = adj @ p
    lam, mu = d[..., 3]
    tri = np.concatenate([lam, mu, d[0, ..., 0, :1], d[1, ..., 0, :1]], axis=-1)
    degenerate = np.abs(tri).min(axis=-1) < 1e-10
    w = mu * lam[..., _NEXT] * lam[..., _PREV]
    q = _homogeneous_rows(b[..., :3, :]) * w[..., None, :]
    return q @ adj[0] @ ta, degenerate


def homography_dlt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized direct linear transform for ``b ~ H a`` (pixel inputs).

    ``a`` and ``b`` are (N, 2), or (K, N, 2) for K independent samples
    fitted at once, giving (K, 3, 3).  Four pairs are solved in closed form
    (see ``_four_point_homography``), more by the SVD of the DLT system.  A
    degenerate point configuration raises :class:`DegenerateModelError`;
    in a stack, its model is NaN instead, so one bad sample does not fail
    the others.
    """
    n = a.shape[-2]
    if n < 4:
        raise InsufficientDataError("homography needs at least 4 pairs")
    # Both images in one normalization: each point set keeps its own sums.
    nab, (ta, tb) = _normalize_points(np.stack([a, b]))
    if n == 4:
        h, degenerate = _four_point_homography(nab, ta, b)
    else:
        an, bn = nab
        m = np.zeros(a.shape[:-2] + (2 * n, 9))
        x, y = an[..., 0], an[..., 1]
        u, v = bn[..., 0], bn[..., 1]
        m[..., 0::2, 0] = x
        m[..., 0::2, 1] = y
        m[..., 0::2, 2] = 1.0
        m[..., 0::2, 6] = -u * x
        m[..., 0::2, 7] = -u * y
        m[..., 0::2, 8] = -u
        m[..., 1::2, 3] = x
        m[..., 1::2, 4] = y
        m[..., 1::2, 5] = 1.0
        m[..., 1::2, 6] = -v * x
        m[..., 1::2, 7] = -v * y
        m[..., 1::2, 8] = -v
        # Thin SVD: a full one of a 2000x9 refit system costs ~300x more.
        _, svals, vt = np.linalg.svd(m, full_matrices=False)
        degenerate = svals[..., -2] < 1e-10 * svals[..., 0]
        h = np.linalg.inv(tb) @ vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3)) @ ta
    if h.ndim == 2 and degenerate:
        raise DegenerateModelError("degenerate point configuration")
    h[degenerate] = np.nan  # stacks only: a lone degenerate system raised above
    return h


def _map_rows(m: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Homogeneous rows (3, N) through the (3, 3) ``m`` or each of the K
    models of the (K, 3, 3) ``m``, written coordinate-major into the
    contiguous (3, K, N) ``out``: one GEMM of the models' stacked rows, x
    rows first, so each coordinate is one contiguous (K, N) plane.  Every
    output entry is still one model row times one pair column, so a stack
    scores each model with a single call's bits."""
    np.matmul(np.swapaxes(m, 0, -2).reshape(-1, 3), rows, out=out.reshape(-1, rows.shape[-1]))


def _scratch(work, *shapes) -> list:
    """Float64 arrays of ``shapes``: fresh ones when ``work`` is None, else
    consecutive views into the flat workspace ``work``."""
    if work is None:
        return [np.empty(shape) for shape in shapes]
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[start : start + size].reshape(shape))
        start += size
    return views


def _transfer_scorer(a: np.ndarray, b: np.ndarray):
    """``score(h, work=None)``: the per-pair symmetric transfer error
    sqrt(d_fwd^2 + d_bwd^2), in pixels, of homographies ``h`` on the pairs
    (a, b).

    ``h`` is (3, 3), giving (N,) errors, or (K, 3, 3), giving (K, N).  The
    backward map is the adjugate, H^-1 up to scale, so no model needs a
    LAPACK inverse.  A NaN error reads as inf.

    The (3, N) homogeneous rows of both sides, and the two directions'
    (2, N) targets, are built once here, so a prepared scorer holds its
    pairs for one estimate.  Each direction is one GEMM into its half of a
    (2, 3, K, N) transfer, direction then coordinate, so the division by
    w, the subtraction of the target, the squares and the coordinate sum
    each run once over both directions on contiguous (K, N) planes.
    Without ``work`` every intermediate and the result are fresh arrays.
    ``_ransac_consensus`` passes its flat float64 workspace as ``work``
    when it scores a chunk: the transfer takes its first 6 K N entries,
    every later step runs in place, and the returned errors are a view
    into it, valid until the workspace is used again.  The arithmetic is
    the same on both paths.
    """
    rows_a, rows_b = _homogeneous_rows(a), _homogeneous_rows(b)
    n = rows_a.shape[-1]
    # (direction, coordinate, 1, N): b is the forward target, a the backward.
    targets = np.stack([rows_b[:2], rows_a[:2]])[:, :, None, :]

    def score(h, work=None):
        (p,) = _scratch(work, (2, 3, math.prod(h.shape[:-2]), n))
        # A pair sent to the line at infinity divides by zero: its error is inf.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _map_rows(h, rows_a, p[0])
            _map_rows(_adjugate(h), rows_b, p[1])
            d = p[:, :2]
            d /= p[:, 2:]
            d -= targets
            d *= d
            d[:, 0] += d[:, 1]
            err = d[0, 0]
            err += d[1, 0]
            np.sqrt(err, out=err)
        # fmin drops a NaN for its other operand; no error is -inf.
        err = np.fmin(err, np.inf, out=None if work is None else err)
        return err.reshape(h.shape[:-2] + (n,))

    return score


# Floor of the local-optimisation gate, as a fraction of the inlier
# threshold: residual spreads below it count as noise-free.
LO_GATE_FLOOR = 0.01


# Probability that some draw up to the adaptive RANSAC target is all inliers.
RANSAC_CONFIDENCE = 0.9999

# The RANSAC defaults of both estimators, of i2pe and of the CLI (the
# noise sweep keeps the gate only): a 1 px inlier gate, a budget of 2000
# minimal samples (adaptively shrunk) and 3 least-squares refits on the
# consensus.
RANSAC_THRESHOLD_PX = 1.0
RANSAC_MAX_ITERS = 2000
RANSAC_REFINE_ITERS = 3


def _adaptive_iters(inlier_ratio: float, sample_size: int) -> int:
    w = min(max(inlier_ratio, 0.0), 1.0 - 1e-12)  # all inliers: the formula gives 1
    p_good = w**sample_size
    if p_good <= 1e-9:
        return np.iinfo(np.int64).max  # never below the caller's budget
    return int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / np.log1p(-p_good)))


class _ChoiceSampler:
    """Minimal samples drawn K at a time, each the one that
    ``rng.choice(n, size, replace=False)`` returns, call after call, on
    ``rng = np.random.default_rng(seed)``.

    numpy draws such a sample by Floyd's algorithm, then shuffles it
    (Fisher-Yates): for j = n - size, ..., n - 1 it draws v in [0, j] and
    the sample takes v, or j when v is already in it (j = 0 draws nothing);
    then for i = size - 1, ..., 1 it draws s in [0, i] and entries i and s
    swap.  ``Generator.integers`` with an array of bounds makes the same
    bounded draws from the same stream, in order, so a chunk takes all of
    its samples' draws from one call, and the Floyd and shuffle steps run
    on every sample of the chunk at once.
    """

    def __init__(self, n: int, size: int, seed):
        # numpy shuffles a whole arange in place of Floyd's algorithm for
        # large samples.
        if not 0 < size <= n or (n > 10000 and size > n // 50):
            raise ValueError(f"no Floyd sample of {size} from {n}")
        self._rng = np.random.default_rng(seed)
        self._floyd = [(t, j) for t, j in enumerate(range(n - size, n)) if j > 0]
        self._size = size
        self._bounds = np.array([j + 1 for _, j in self._floyd] + list(range(size, 1, -1)))

    def draw(self, k: int) -> np.ndarray:
        """The next ``k`` samples, (k, size) int64."""
        values = iter(self._rng.integers(0, self._bounds, size=(k, self._bounds.size)).T)
        idx = np.zeros((self._size, k), np.int64)
        for t, j in self._floyd:
            v = next(values)
            # The first sample entry has nothing to collide with.
            idx[t] = np.where((idx[:t] == v).any(axis=0), j, v) if t else v
        cols = np.arange(k)
        for i, s in zip(range(self._size - 1, 0, -1), values):
            swap = idx[s, cols]
            idx[s, cols] = idx[i]
            idx[i] = swap
        return np.ascontiguousarray(idx.T)


# Cap on models x pairs scored in one RANSAC chunk, which bounds its memory
# and so the scoring workspace: 7 x 65,536 float64 and a 65,536-entry mask
# (under 4 MB) per thread.
RANSAC_CHUNK_ELEMENTS = 1 << 16

# Float64 (K, N) planes that scoring a chunk of K models takes from the
# workspace: the Sampson scorer's two (3, K, N) transfers and its (K, N)
# result make seven (the transfer scorer's (2, 3, K, N) transfer, six).
_SCORE_ROWS = 7


class _ScoreWorkspace(threading.local):
    """One thread's memory for scoring RANSAC chunks, kept between calls.

    A chunk of K models on N pairs is scored in coordinate-major (3, K, N)
    transfers, whose (K, N) planes are consecutive slices of the flat
    float64 buffer; the (K, N) bool part holds the chunk's inlier masks.
    The buffer grows to the largest chunk scored so far and never shrinks,
    so repeated estimates score in memory already mapped instead of
    faulting in fresh megabyte temporaries for every chunk.  Each thread
    has its own, and no result depends on what an earlier chunk left in
    it: the scorers write every entry before they read it.
    """

    def __init__(self):
        self.floats = np.empty(0)
        self.mask = np.empty(0, dtype=bool)

    def take(self, k: int, n: int):
        """(floats, mask): a flat float64 workspace of at least
        ``_SCORE_ROWS`` k n entries and a (k, n) bool view, valid until
        the next ``take`` on this thread."""
        size = k * n
        if size > RANSAC_CHUNK_ELEMENTS:  # one model on more pairs: fresh memory, not kept
            return np.empty(_SCORE_ROWS * size), np.empty((k, n), dtype=bool)
        if self.mask.size < size:
            self.floats = np.empty(_SCORE_ROWS * size)
            self.mask = np.empty(size, dtype=bool)
        return self.floats, self.mask[:size].reshape(k, n)


_WORKSPACE = _ScoreWorkspace()


def _ransac_consensus(n, sample_size, fit, score, threshold_px, max_iters, seed):
    """Largest consensus of minimal-sample RANSAC, drawn and scored in chunks.

    Draws a chunk of samples at once, each the one that successive
    ``rng.choice(n, sample_size, replace=False)`` calls give a draw-by-draw
    loop: :class:`_ChoiceSampler` takes the chunk's bounded draws from one
    ``Generator.integers`` call and runs numpy's steps on the whole chunk,
    so every chunk size takes that one path.  It fits the
    chunk with one stacked ``fit`` (sample indices (K, sample_size) to
    models (K, 3, 3), NaN for a degenerate sample) and scores its M
    non-degenerate models with one ``score(models, work)`` pass (models
    (M, 3, 3) to residuals (M, n)); a chunk with no degenerate sample
    scores its stack as fitted.  ``work`` is this thread's scoring
    workspace (:class:`_ScoreWorkspace`): the scorer takes every (., M, n)
    intermediate from it, and the inlier masks are gated into its (M, n)
    bool part, so a chunk allocates nothing of its size; the best model's
    mask is copied out before the next chunk.  The draw-by-draw accept rule
    is then replayed over the chunk: every draw, degenerate or not, uses up
    one draw of the budget; a model is kept only when its inlier count
    beats the best so far; and each kept model shrinks the adaptive target.
    Draws past that target were never made, so the result is the one the
    draw-by-draw loop picks.  Chunks grow 1, 64, 4160, ... (64 times the
    draws so far), never past the remaining target or
    ``RANSAC_CHUNK_ELEMENTS`` models x pairs: exact data stops after one
    model, and a noisy estimate, whose target falls to some tens of
    draws, after two chunks.  A chunk has a fixed cost in numpy calls;
    for the closed-form four-point fit it exceeds the cost of the few
    dozen models that a second chunk may score past the target, while an
    eight-point model, fitted by SVD, costs several times more.

    Returns:
        (mask, count) of the best model, or (None, -1) when every draw was
        degenerate.
    """
    sampler = _ChoiceSampler(n, sample_size, seed)
    best_mask = None
    best_count = -1
    target = max(1, int(max_iters))
    it = 0
    while it < target:
        k = min(max(64 * it, 1), target - it, max(1, RANSAC_CHUNK_ELEMENTS // n))
        idx = sampler.draw(k)
        models = fit(idx)
        ok = ~np.isnan(models).any(axis=(1, 2))
        if not ok.all():
            models = models[ok]
        work, inliers = _WORKSPACE.take(len(models), n)
        np.less_equal(score(models, work), threshold_px, out=inliers)
        counts = inliers.sum(axis=1)
        if len(models) < k:  # a degenerate draw counts -1, below any model
            counts, scored = np.full(k, -1), counts
            counts[ok] = scored
        counts = counts.tolist()
        kept = None
        for j in range(k):
            if it >= target:
                break
            it += 1
            if counts[j] > best_count:
                best_count, kept = counts[j], j
                target = min(target, _adaptive_iters(best_count / n, sample_size))
        if kept is not None:
            best_mask = inliers[np.count_nonzero(ok[:kept])].copy()
    return best_mask, best_count


def _ransac_refit(n, sample_size, fit, score, threshold_px, max_iters, seed, refine_iters):
    """:func:`_ransac_consensus`, then up to ``refine_iters`` least-squares
    fits on the consensus, each re-gating at ``threshold_px`` with the
    previous model; the minimal-sample consensus is biased toward its own
    noise realization, and a couple of rounds remove most of that bias.

    ``fit`` and ``score`` are the consensus ones; ``fit`` also takes a
    boolean pair mask and ``score`` a single model with ``work`` None.
    Returns the last (model, mask, errors): the mask holds the pairs that
    model was fitted on, and the errors are the model's own scores when a
    refit stopped on an unchanged mask or on too few inliers, else None.

    Raises:
        DegenerateModelError: no model with ``sample_size`` inliers.
    """
    mask, count = _ransac_consensus(n, sample_size, fit, score, threshold_px, max_iters, seed)
    if mask is None or count < sample_size:
        raise DegenerateModelError(f"RANSAC found no model with {sample_size} inliers")
    model, err = fit(mask), None
    for _ in range(max(0, refine_iters - 1)):
        err = score(model, None)
        new_mask = err <= threshold_px
        if int(new_mask.sum()) < sample_size or np.array_equal(new_mask, mask):
            break
        mask = new_mask
        model, err = fit(mask), None
    return model, mask, err


def estimate_homography_ransac(
    c: CorrespondenceSet,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    max_iters: int = RANSAC_MAX_ITERS,
    seed: int = 0,
    refine_iters: int = RANSAC_REFINE_ITERS,
):
    """RANSAC homography under symmetric transfer error.

    The best minimal sample's consensus gets a normalized DLT refit, then
    one local-optimisation refit: on the pairs within a tighter gate taken
    from the consensus residual spread (three robust standard deviations,
    never above ``threshold_px`` and never below ``LO_GATE_FLOOR`` of it).
    Pairs of a neighbouring plane that the ``threshold_px`` gate admits
    near a crease thus stop biasing the model, and exact pairs of one plane
    give that plane's homography exactly.  Deterministic for a fixed
    ``seed``.

    The minimal samples are drawn, fitted and scored in chunks of 1, 64,
    ... stacked models (see ``_ransac_consensus``); each sample is the
    one successive ``rng.choice`` calls draw, the consensus is the one a
    draw-by-draw loop over the same draws picks, and exact data stops
    after one sample.

    Args:
        c: correspondence set (at least 4 pairs).
        threshold_px: inlier gate on the symmetric transfer error.
        max_iters: RANSAC budget of minimal samples (adaptively shrunk).
        seed: RNG seed.
        refine_iters: DLT refits on the consensus at ``threshold_px``
            before the local-optimisation refit, each re-gating with the
            previous model (1: the single consensus refit only).

    Returns:
        (Homography, inlier mask): the mask holds the input pairs within
        ``threshold_px`` of the returned model.
    """
    n = len(c)
    if n < 4:
        raise InsufficientDataError(f"homography RANSAC needs >= 4 pairs, got {n}")
    a, b = c.a, c.b
    score = _transfer_scorer(a, b)
    h, mask, err = _ransac_refit(
        n,
        4,
        lambda idx: homography_dlt(a[idx], b[idx]),
        score,
        threshold_px,
        max_iters,
        seed,
        refine_iters,
    )
    # Local optimisation (LO-RANSAC, Chum et al. 2003; the sigma-consensus
    # of MAGSAC++): gate again at a threshold from the consensus residual
    # spread and refit once.  Pairs that the wide gate let in from a
    # neighbouring plane (a crease) sit far out in that spread and stop
    # biasing the model.
    if err is None:
        err = score(h)
    sigma = 1.4826 * float(np.median(err[mask]))
    gate = min(threshold_px, max(3.0 * sigma, LO_GATE_FLOOR * threshold_px))
    core = err <= gate
    if int(core.sum()) >= 4 and not np.array_equal(core, mask):
        try:
            h = homography_dlt(a[core], b[core])
            err = score(h)
        except DegenerateModelError:
            pass
    return Homography(h), err <= threshold_px


# ---------------------------------------------------------------------------
# Homography decomposition (analytic SVD factorization)
# ---------------------------------------------------------------------------


def _rays(intr: Intrinsics, px: np.ndarray) -> np.ndarray:
    k_inv = intr.inverse_matrix()
    homog = np.hstack([px, np.ones((px.shape[0], 1))])
    return homog @ k_inv.T


def _faugeras_candidates(h_cal: np.ndarray):
    """The two analytic factorizations H ~ R + t n^T of a calibrated
    homography that can pass the cheirality tests.

    Returns ``(rotations, translations, normals)`` as (2, 3, 3), (2, 3) and
    (2, 3) stacks, or None when the singular-value spread ``(d1 - d3) / d2``
    is below ``ZERO_MOTION_SPREAD``.  Of the eight factorizations
    (Faugeras & Lustman, IJPRAI 1988), each reads
    ``h_cal = s d' (R + t n^T)`` with ``s = det U det V`` and
    ``d' = +-d2``.  Once the caller has signed ``h_cal`` so that
    ``x_b^T H x_a > 0``, the four with ``s d' < 0`` put every genuine pair
    behind camera B, and those with ``e1 = -1`` are exact negations
    ``(R, -t, -n)`` of the ``e1 = +1`` ones, which the plane-in-front flip
    maps to the same bits.  So d' takes the sign of s, e1 is +1, and the
    two candidates run e3 = +1, -1.
    """
    u, d, vt = np.linalg.svd(h_cal)
    d1, d2, d3 = d
    if (d1 - d3) / d2 < ZERO_MOTION_SPREAD:
        return None
    s = np.linalg.det(u) * np.linalg.det(vt)
    sigma = 1.0 if s > 0 else -1.0
    denom = d1 * d1 - d3 * d3
    x1 = np.sqrt(max((d1 * d1 - d2 * d2) / denom, 0.0))
    x3 = np.sqrt(max((d2 * d2 - d3 * d3) / denom, 0.0))
    root = np.sqrt(max((d1 * d1 - d2 * d2) * (d2 * d2 - d3 * d3), 0.0))
    cos = (d1 * d3 + sigma * d2 * d2) / ((d1 + sigma * d3) * d2)
    rp, tp, npl = [], [], []
    for e3 in (1.0, -1.0):
        sin = e3 * (root / ((d1 + sigma * d3) * d2))
        rp.append([[cos, 0.0, -sigma * sin], [0.0, sigma, 0.0], [sin, 0.0, sigma * cos]])
        tp.append((d1 - sigma * d3) * np.array([x1, 0.0, -sigma * e3 * x3]))
        npl.append([x1, 0.0, e3 * x3])
    # Dividing t by s d' = |s| d2 gives the unit plane-distance gauge of
    # the cheirality tests.  Each stacked product is the same BLAS call,
    # with the same bits, as the one for its candidate alone.
    rotations = s * (u @ np.array(rp) @ vt)
    translations = (u @ np.array(tp)[..., None])[..., 0] / (abs(s) * d2)
    normals = (vt.T @ np.array(npl)[..., None])[..., 0]
    return rotations, translations, normals


def decompose_homography_candidates(
    h: Homography,
    intr: Intrinsics,
    c: CorrespondenceSet,
) -> list:
    """All physically valid factorizations of a plane-induced homography.

    After the cheirality tests (plane in front of the first camera,
    positive point depths in both views) at most two distinct solutions
    survive.  Both reproduce the homography exactly (Malis & Vargas,
    INRIA RR-6303, 2007), so no residual can tell them apart for a single
    plane.  The list is ordered by the alignment of the plane normal with
    the mean viewing ray, most aligned first: a plane facing the camera is
    the likelier physical interpretation.  Callers with several planes
    should instead choose per plane with
    :func:`acrkit.fusion.reselect_candidates` and one of its choosers.

    A homography with (numerically) equal singular values is returned as a
    single zero-motion hypothesis with the rotation recovered and the
    translation direction undefined.  Every hypothesis carries ``len(c)``
    as its support.
    """
    if len(c) < 1:
        raise InsufficientDataError("decomposition needs correspondences")
    k = intr.matrix()
    k_inv = intr.inverse_matrix()
    h_cal = k_inv @ h.matrix @ k

    rays_a = _rays(intr, c.a)
    rays_b = _rays(intr, c.b)
    mean_ray = rays_a.mean(axis=0)
    mean_ray = mean_ray / np.linalg.norm(mean_ray)

    # Fix the overall sign so that x_b^T H x_a > 0 for genuine pairs.
    signs = np.einsum("ij,ij->i", rays_b, rays_a @ h_cal.T)
    if np.median(signs) < 0:
        h_cal = -h_cal

    candidates = _faugeras_candidates(h_cal)
    if candidates is None:
        r = Rotation.from_matrix(h_cal / np.linalg.svd(h_cal, compute_uv=False)[1])
        return [
            PoseHypothesis(
                pose=DirectionalPose(r, np.array([0.0, 0.0, 1.0])),
                support=len(c),
                zero_motion=True,
            )
        ]
    rotations, translations, normals = candidates

    # Plane must lie in front of camera A; (t, n) -> (-t, -n) is the same
    # factorization, so flip to make that so.  The tests read only signs:
    # they use the normals as built, unit up to rounding, and the depth in
    # B, (R X_a)_z + t_z with X_a = x_a / (n . x_a), times the positive
    # n . x_a.
    front = normals @ rays_a.T  # (2, N)
    flip = np.where(np.median(front, axis=1) < 0, -1.0, 1.0)[:, None]
    front *= flip
    depth_b = rotations[:, 2] @ rays_a.T + (flip * translations[:, 2:]) * front
    passed = np.flatnonzero((front > 0).all(axis=1) & (depth_b > 0).all(axis=1))
    if not passed.size:
        raise CheiralityError("no decomposition with full positive-depth support")
    surviving = []
    for i in passed:
        t = flip[i] * translations[i]
        n = flip[i] * (normals[i] / np.linalg.norm(normals[i]))
        surviving.append((rotations[i], t / np.linalg.norm(t), n))
    # The twins coincide when B's centre moves along the normal: keep one.
    if len(surviving) == 2:
        (r0, t0, _), (r1, t1, _) = surviving
        if np.abs(r0 - r1).max() < 1e-9 and float(t0 @ t1) > 1.0 - 1e-12:
            surviving.pop()
    surviving.sort(key=lambda item: -float(item[2] @ mean_ray))
    return [
        PoseHypothesis(
            pose=DirectionalPose(Rotation.from_matrix(r_m), t_dir),
            plane_normal=n,
            support=len(c),
        )
        for r_m, t_dir, n in surviving
    ]


def decompose_homography(h: Homography, intr: Intrinsics, c: CorrespondenceSet) -> PoseHypothesis:
    """Best factorization of a plane-induced homography.

    Among the analytic solutions, keeps those giving every input pair
    positive depth in both views and returns the one whose plane normal
    is most aligned with the mean viewing ray (see
    :func:`decompose_homography_candidates`).

    Raises:
        CheiralityError: no solution places all points in front of both
            cameras.
    """
    return decompose_homography_candidates(h, intr, c)[0]


# ---------------------------------------------------------------------------
# Epipolar baseline (normalized 8-point solver)
# ---------------------------------------------------------------------------


def _essential_from_rays(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Least-squares essential matrix for x_b^T E x_a = 0, constraints enforced.

    ``xa`` and ``xb`` are (N, 3) rays, or (K, N, 3) for K independent
    samples fitted at once, giving (K, 3, 3).
    """
    m = (xb[..., :, None] * xa[..., None, :]).reshape(xa.shape[:-1] + (9,))
    # The 8x9 minimal system needs the full V: its thin SVD drops the null
    # vector.  Keep the null vector the full SVD's last right singular
    # vector, too: eight coplanar pairs leave a 3-D null space, and any
    # other solve (QR, eigh of m^T m, a closed form) returns another member
    # of it.  A QR variant moved 69 of 288 seed-0 noise-sweep rows, by up
    # to 1 deg of rotation, even at r = 0.
    _, _, vt = np.linalg.svd(m, full_matrices=m.shape[-2] < 9)
    e = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    u, s, vt = np.linalg.svd(e)
    u[..., :, -1] *= np.where(np.linalg.det(u) < 0, -1.0, 1.0)[..., None]
    vt[..., -1, :] *= np.where(np.linalg.det(vt) < 0, -1.0, 1.0)[..., None]
    sm = 0.5 * (s[..., 0] + s[..., 1])
    d = np.zeros(e.shape)
    d[..., 0, 0] = sm
    d[..., 1, 1] = sm
    return u @ d @ vt


def _sampson_scorer(a: np.ndarray, b: np.ndarray):
    """``score(f, work=None)``: the first-order geometric (Sampson)
    distance, in pixels, of fundamental matrices ``f`` for b^T F a = 0 on
    the pairs (a, b).

    ``f`` is (3, 3), giving (N,) distances, or (K, 3, 3), giving (K, N);
    a stack scores each model with a single call's bits.  As in
    :func:`_transfer_scorer`, the (3, N) homogeneous rows are built once
    here and held for one estimate, and ``work`` is a flat workspace:
    given, the two coordinate-major (3, K, N) transfers, F a and F^T b,
    and the (K, N) result take its first 7 K N entries, and every other
    step runs in place on their contiguous (K, N) planes.
    """
    ah, bh = _homogeneous_rows(a), _homogeneous_rows(b)
    n = ah.shape[-1]

    def score(f, work=None):
        k = math.prod(f.shape[:-2])
        fa, ftb, num = _scratch(work, (3, k, n), (3, k, n), (k, n))
        _map_rows(f, ah, fa)
        _map_rows(np.swapaxes(f, -1, -2), bh, ftb)
        np.multiply(bh[0], fa[0], out=num)
        num += np.multiply(bh[1], fa[1], out=ftb[2])  # a plane no step reads
        num += fa[2]
        fa[:2] *= fa[:2]
        ftb[:2] *= ftb[:2]
        den = fa[0]
        den += fa[1]
        den += ftb[0]
        den += ftb[1]
        np.maximum(den, 1e-18, out=den)
        np.sqrt(den, out=den)
        np.abs(num, out=num)
        num /= den
        return num.reshape(f.shape[:-2] + (n,))

    return score


def _triangulate(r_m: np.ndarray, t: np.ndarray, xa: np.ndarray, xb: np.ndarray):
    """Linear triangulation for candidate (R, t): the (N, 3) points in A's frame."""
    n = xa.shape[0]
    rows = np.zeros((n, 4, 4))
    # Camera A: P = [I | 0]; camera B: P = [R | t].
    rows[:, 0, 0] = -1.0
    rows[:, 0, 2] = xa[:, 0] / xa[:, 2]
    rows[:, 1, 1] = -1.0
    rows[:, 1, 2] = xa[:, 1] / xa[:, 2]
    pb = np.concatenate([r_m, t[:, None]], axis=1)
    rows[:, 2, :] = (xb[:, 0] / xb[:, 2])[:, None] * pb[2] - pb[0]
    rows[:, 3, :] = (xb[:, 1] / xb[:, 2])[:, None] * pb[2] - pb[1]
    _, _, vt = np.linalg.svd(rows)
    pts = vt[:, -1, :]
    w = pts[:, 3]
    w = np.where(np.abs(w) < 1e-15, 1e-15, w)
    return pts[:, :3] / w[:, None]


def _cheirality_votes(rotations, t: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Positive-depth votes of (R, t) and (R, -t) for each R in ``rotations``.

    The two rays of a pair meet where za R xa - zb xb = -t; in least squares
    that is the 2x2 system [[A, -B], [-B, C]] (za, zb) = (-r.t, xb.t), with
    r = R xa, A = r.r, B = r.xb and C = xb.xb.  Its determinant AC - B^2 is
    never negative, so (za, zb) has the signs of the Cramer numerators and
    nothing is divided; negating t negates both numerators.  A pair whose
    determinant is at rounding level (zero parallax) meets at infinity: it
    is in front of both cameras, for either sign of t, when r and xb point
    the same way.  Returns the votes in the order (R1, t), (R1, -t),
    (R2, t), ...
    """
    c = np.einsum("ij,ij->i", xb, xb)
    bt = xb @ t
    votes = []
    for r_m in rotations:
        r = xa @ r_m.T
        a = np.einsum("ij,ij->i", r, r)
        b = np.einsum("ij,ij->i", r, xb)
        rt = r @ t
        za = b * bt - c * rt
        zb = a * bt - b * rt
        far = a * c - b * b <= 1e-12 * a * c
        votes.append(np.count_nonzero(np.where(far, b > 0, (za > 0) & (zb > 0))))
        votes.append(np.count_nonzero(np.where(far, b > 0, (za < 0) & (zb < 0))))
    return np.array(votes)


def estimate_epipolar(
    c: CorrespondenceSet,
    intr: Intrinsics,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    max_iters: int = RANSAC_MAX_ITERS,
    seed: int = 0,
    refine_iters: int = RANSAC_REFINE_ITERS,
) -> PoseHypothesis:
    """Relative pose via a normalized 8-point solver inside RANSAC.

    The essential matrix is estimated on calibrated rays with Sampson error
    (in pixels) as the inlier gate, decomposed into the four (R, t)
    candidates, and disambiguated by a positive-depth vote.  When the median
    triangulation parallax falls below ``PARALLAX_MIN_DEG`` the translation
    direction is unreliable and the result carries the
    ``unstable_translation`` flag.

    As in :func:`estimate_homography_ransac`, the 8-point samples are
    drawn, fitted and scored in chunks of 1, 64, ... stacked models,
    with the consensus a draw-by-draw loop would pick; at most
    ``max_iters`` samples are drawn, fewer as the adaptive target shrinks.
    """
    n = len(c)
    if n < 8:
        raise InsufficientDataError(f"epipolar estimation needs >= 8 pairs, got {n}")
    xa = _rays(intr, c.a)
    xb = _rays(intr, c.b)
    k_inv = intr.inverse_matrix()
    sampson = _sampson_scorer(c.a, c.b)

    e, best_mask, _ = _ransac_refit(
        n,
        8,
        lambda idx: _essential_from_rays(xa[idx], xb[idx]),
        lambda e, work: sampson(k_inv.T @ e @ k_inv, work),
        threshold_px,
        max_iters,
        seed,
        refine_iters,
    )
    best_count = int(best_mask.sum())

    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1
    if np.linalg.det(vt) < 0:
        vt[-1] *= -1
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]

    # Cheirality vote on a capped subset of inliers.
    in_idx = np.flatnonzero(best_mask)
    if in_idx.size > 200:
        in_idx = in_idx[
            np.linspace(0, in_idx.size - 1, 200).round().astype(int)
        ]
    sa, sb = xa[in_idx], xb[in_idx]
    best = int(np.argmax(_cheirality_votes((r1, r2), t, sa, sb)))
    r_m, t_c = (r1, r2)[best // 2], (t, -t)[best % 2]
    pts = _triangulate(r_m, t_c, sa, sb)

    # Parallax: angle at the 3-D point between the two viewing rays.
    center_b = -r_m.T @ t_c
    rays1 = pts
    rays2 = pts - center_b
    nrm = np.linalg.norm(rays1, axis=1) * np.linalg.norm(rays2, axis=1)
    ok = nrm > 1e-15
    cosang = np.clip(
        np.einsum("ij,ij->i", rays1, rays2)[ok] / nrm[ok], -1.0, 1.0
    )
    parallax = float(np.median(np.degrees(np.arccos(cosang)))) if ok.any() else 0.0
    unstable = parallax < PARALLAX_MIN_DEG

    return PoseHypothesis(
        pose=DirectionalPose(Rotation.from_matrix(r_m), t_c),
        plane_normal=None,
        support=best_count,
        unstable_translation=unstable,
    )
