"""Scale-free relative pose from 2-D correspondences.

Two estimation paths are provided:

* the primary path estimates a plane-induced homography with RANSAC and
  factors it analytically into rotation, translation direction and plane
  normal (cheirality plus reprojection residual resolve the ambiguity);
* a normalized eight-point epipolar path serves as the comparison baseline.

Both paths consume a :class:`CorrespondenceSet` whose A-side points live in
the first image and B-side points in the second; the recovered pose maps
A-camera coordinates into B-camera coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CheiralityError,
    DegenerateModelError,
    InsufficientDataError,
    InvalidInputError,
)
from .geometry import DirectionalPose, Intrinsics, Rotation, _project_to_so3

# Label value used in memory for "no plane label" (JSON files use null).
NO_LABEL = -1

# Singular-value spread below which a homography is treated as a pure
# rotation (zero baseline); the translation direction is undefined there.
ZERO_MOTION_SPREAD = 1e-6


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Paired pixel coordinates between two images.

    Attributes:
        a: (N, 2) pixel coordinates in image A.
        b: (N, 2) pixel coordinates in image B.
        plane_label: (N,) integer labels; ``NO_LABEL`` where absent.
        track_id: (N,) stable integer identity of each correspondence
            across image pairs (assigned by the simulator or ingest layer).
    """

    a: np.ndarray
    b: np.ndarray
    plane_label: np.ndarray = None
    track_id: np.ndarray = None

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.a, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if a.ndim != 2 or a.shape[1] != 2 or b.shape != a.shape:
            raise InvalidInputError("correspondence arrays must both be (N, 2)")
        n = a.shape[0]
        labels = self.plane_label
        if labels is None:
            labels = np.full(n, NO_LABEL, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        tracks = self.track_id
        if tracks is None:
            tracks = np.arange(n, dtype=np.int64)
        tracks = np.asarray(tracks, dtype=np.int64)
        if labels.shape != (n,) or tracks.shape != (n,):
            raise InvalidInputError("label/track arrays must have length N")
        for arr in (a, b, labels, tracks):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "plane_label", labels)
        object.__setattr__(self, "track_id", tracks)

    def __len__(self) -> int:
        return self.a.shape[0]

    def subset(self, index) -> "CorrespondenceSet":
        return CorrespondenceSet(
            self.a[index], self.b[index], self.plane_label[index], self.track_id[index]
        )

    def swapped(self) -> "CorrespondenceSet":
        """The same pairs with the A and B sides exchanged."""
        return CorrespondenceSet(self.b, self.a, self.plane_label, self.track_id)

    def to_json_dict(self) -> dict:
        pairs = np.hstack([self.a, self.b])
        doc = {
            "pairs": [[float(v) for v in row] for row in pairs],
            "plane_label": [
                None if int(l) == NO_LABEL else int(l) for l in self.plane_label
            ],
        }
        if not np.array_equal(self.track_id, np.arange(len(self))):
            doc["track_id"] = [int(t) for t in self.track_id]
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "CorrespondenceSet":
        pairs = np.asarray(doc["pairs"], dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 4)
        if pairs.ndim != 2 or pairs.shape[1] != 4:
            raise InvalidInputError("pairs must be rows of [uA, vA, uB, vB]")
        labels = doc.get("plane_label")
        if labels is not None:
            labels = np.array(
                [NO_LABEL if l is None else int(l) for l in labels], dtype=np.int64
            )
        tracks = doc.get("track_id")
        if tracks is not None:
            tracks = np.asarray(tracks, dtype=np.int64)
        return CorrespondenceSet(pairs[:, :2], pairs[:, 2:], labels, tracks)

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
    return CorrespondenceSet(
        first.b[idx_first],
        second.b[idx_second],
        first.plane_label[idx_first],
        common,
    )


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
    """One candidate relative pose with its reliability ingredients.

    ``support`` is the inlier count behind the estimate and ``spread`` the
    bounding-box area ratio of those inliers; both feed pose fusion.
    ``zero_motion`` marks a homography indistinguishable from a pure
    rotation (translation direction undefined); ``unstable_translation``
    marks an epipolar estimate with too little parallax to trust the
    direction.
    """

    pose: DirectionalPose
    plane_normal: np.ndarray = None
    support: int = 0
    spread: float = 1.0
    zero_motion: bool = False
    unstable_translation: bool = False

    def __post_init__(self):
        if self.plane_normal is not None:
            n = np.asarray(self.plane_normal, dtype=float)
            n = n / np.linalg.norm(n)
            n.flags.writeable = False
            object.__setattr__(self, "plane_normal", n)


def point_spread(points, image_size) -> float:
    """Bounding-box area of ``points`` divided by the image area, in [0, 1]."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[0] < 1:
        raise InsufficientDataError("point_spread needs at least one point")
    w, h = float(image_size[0]), float(image_size[1])
    if w <= 0 or h <= 0:
        raise InvalidInputError("image size must be positive")
    extent = pts.max(axis=0) - pts.min(axis=0)
    return float(min(1.0, (extent[0] * extent[1]) / (w * h)))


# ---------------------------------------------------------------------------
# Homography estimation
# ---------------------------------------------------------------------------


def _normalize_points(pts: np.ndarray):
    """Hartley normalization: zero centroid, mean distance sqrt(2).

    ``pts`` is (..., N, 2); leading axes are independent point sets, each
    with its own (..., 3, 3) transform.
    """
    centroid = pts.mean(axis=-2)
    d = np.linalg.norm(pts - centroid[..., None, :], axis=-1).mean(axis=-1)
    # Coincident points keep scale 1: dividing sqrt(2) by itself is exact.
    scale = np.sqrt(2.0) / np.where(d > 1e-12, d, np.sqrt(2.0))
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = scale
    t[..., 0, 2] = -scale * centroid[..., 0]
    t[..., 1, 1] = scale
    t[..., 1, 2] = -scale * centroid[..., 1]
    t[..., 2, 2] = 1.0
    return (pts - centroid[..., None, :]) * scale[..., None, None], t


def homography_dlt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized direct linear transform for ``b ~ H a`` (pixel inputs).

    ``a`` and ``b`` are (N, 2), or (K, N, 2) for K independent samples
    fitted at once, giving (K, 3, 3).  A degenerate point configuration
    raises :class:`DegenerateModelError`; in a stack, its model is NaN
    instead, so one bad sample does not fail the others.
    """
    n = a.shape[-2]
    if n < 4:
        raise InsufficientDataError("homography needs at least 4 pairs")
    an, ta = _normalize_points(a)
    bn, tb = _normalize_points(b)
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
    # Thin SVD for refits (a full one of a 2000x9 system costs ~300x
    # more); the 8x9 minimal system needs the full V, since its thin SVD
    # drops the null vector.
    _, svals, vt = np.linalg.svd(m, full_matrices=2 * n < 9)
    degenerate = svals[..., -2] < 1e-10 * svals[..., 0]
    if m.ndim == 2 and degenerate:
        raise DegenerateModelError("degenerate point configuration")
    h = np.linalg.inv(tb) @ vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3)) @ ta
    h[degenerate] = np.nan  # stacks only: a lone degenerate system raised above
    return h


def symmetric_transfer_error(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error sqrt(d_fwd^2 + d_bwd^2) in pixels.

    ``h`` is (3, 3), giving (N,) errors, or (K, 3, 3), giving (K, N).
    """
    h_inv = np.linalg.inv(h)

    def _squared(m, src, dst):
        # Transferred points as (..., 3, N) rows, one matrix product per
        # model: a stack scores each model with the same bits as alone.
        p = m[..., :, :2] @ src.T + m[..., :, 2:]
        w = p[..., 2, :]
        bad = np.abs(w) < 1e-12
        d = p[..., :2, :] / np.where(bad, 1.0, w)[..., None, :] - dst.T
        sq = d[..., 0, :] * d[..., 0, :] + d[..., 1, :] * d[..., 1, :]
        return np.where(bad, np.inf, sq)

    with np.errstate(invalid="ignore"):
        err = np.sqrt(_squared(h, a, b) + _squared(h_inv, b, a))
    return np.where(np.isfinite(err), err, np.inf)


# Floor of the local-optimisation gate, as a fraction of the inlier
# threshold: residual spreads below it count as noise-free.
LO_GATE_FLOOR = 0.01


def _adaptive_iters(inlier_ratio: float, sample_size: int, confidence: float = 0.9999) -> int:
    w = min(max(inlier_ratio, 0.0), 1.0 - 1e-12)
    p_good = w**sample_size
    if p_good >= 1.0 - 1e-12:
        return 1
    if p_good <= 1e-9:
        return np.iinfo(np.int64).max  # never below the caller's budget
    return int(np.ceil(np.log(1.0 - confidence) / np.log1p(-p_good)))


# Cap on models x pairs scored in one RANSAC chunk, which bounds its memory.
RANSAC_CHUNK_ELEMENTS = 1 << 16


def _ransac_consensus(n, sample_size, fit, score, threshold_px, max_iters, seed):
    """Largest consensus of minimal-sample RANSAC, drawn and scored in chunks.

    Draws ``rng.choice(n, sample_size, replace=False)`` one sample at a
    time, as a draw-by-draw loop does, but fits a chunk of samples with one
    stacked ``fit`` (sample indices (K, sample_size) to models (K, 3, 3),
    NaN for a degenerate sample) and scores them with one ``score`` pass
    (models (M, 3, 3) to residuals (M, n)).  The draw-by-draw accept rule
    is then replayed over the chunk: every draw, degenerate or not, uses up
    one draw of the budget; a model is kept only when its inlier count
    beats the best so far; and each kept model shrinks the adaptive target.
    Draws past that target were never made, so the result is the one the
    draw-by-draw loop picks.  Chunks grow 1, 1, 2, 4, ..., never past the
    remaining target or ``RANSAC_CHUNK_ELEMENTS`` models x pairs: exact
    data stops after one model.

    Returns:
        (mask, count) of the best model, or (None, -1) when every draw was
        degenerate.
    """
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = -1
    target = max(1, int(max_iters))
    it = 0
    while it < target:
        k = min(max(it, 1), target - it, max(1, RANSAC_CHUNK_ELEMENTS // n))
        idx = np.array(
            [rng.choice(n, size=sample_size, replace=False) for _ in range(k)]
        )
        models = fit(idx)
        ok = ~np.isnan(models).any(axis=(1, 2))
        try:
            err = score(models[ok])
        except np.linalg.LinAlgError:
            # LAPACK could not invert one of the models: score them one by
            # one, and let a model it cannot invert skip its own draw only.
            err = np.full((k, n), np.inf)
            for j in np.flatnonzero(ok):
                try:
                    err[j] = score(models[j : j + 1])[0]
                except np.linalg.LinAlgError:
                    ok[j] = False
            err = err[ok]
        inliers = np.zeros((k, n), dtype=bool)
        inliers[ok] = err <= threshold_px
        counts = inliers.sum(axis=1)
        for j in range(k):
            if it >= target:
                break
            it += 1
            if ok[j] and counts[j] > best_count:
                best_count = int(counts[j])
                best_mask = inliers[j]
                target = min(target, _adaptive_iters(best_count / n, sample_size))
    return best_mask, best_count


def estimate_homography_ransac(
    c: CorrespondenceSet,
    intr: Intrinsics,
    threshold_px: float = 1.0,
    max_iters: int = 2000,
    seed: int = 0,
    refine_iters: int = 3,
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

    The minimal samples are drawn one at a time but fitted and scored in
    chunks of 1, 1, 2, 4, ... stacked models (see ``_ransac_consensus``);
    the consensus is the one a draw-by-draw loop over the same draws
    picks, and exact data stops after one sample.

    Args:
        c: correspondence set (at least 4 pairs).
        intr: accepted for interface symmetry with the epipolar path; the
            pixel-space estimation itself does not use it.
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
    best_mask, best_count = _ransac_consensus(
        n,
        4,
        lambda idx: homography_dlt(a[idx], b[idx]),
        lambda h: symmetric_transfer_error(h, a, b),
        threshold_px,
        max_iters,
        seed,
    )
    if best_mask is None or best_count < 4:
        raise DegenerateModelError("RANSAC found no homography with 4 inliers")
    # Refit on the consensus and optionally let the consensus
    # re-stabilize: the minimal-sample consensus is biased toward its own
    # noise realization, and a couple of least-squares rounds remove most
    # of that bias.
    mask = best_mask
    h = homography_dlt(a[mask], b[mask])
    for _ in range(max(0, refine_iters - 1)):
        new_mask = symmetric_transfer_error(h, a, b) <= threshold_px
        if int(new_mask.sum()) < 4 or np.array_equal(new_mask, mask):
            break
        mask = new_mask
        h = homography_dlt(a[mask], b[mask])
    # Local optimisation (LO-RANSAC, Chum et al. 2003; the sigma-consensus
    # of MAGSAC++): gate again at a threshold from the consensus residual
    # spread and refit once.  Pairs that the wide gate let in from a
    # neighbouring plane (a crease) sit far out in that spread and stop
    # biasing the model.
    err = symmetric_transfer_error(h, a, b)
    sigma = 1.4826 * float(np.median(err[mask]))
    gate = min(threshold_px, max(3.0 * sigma, LO_GATE_FLOOR * threshold_px))
    core = err <= gate
    if int(core.sum()) >= 4 and not np.array_equal(core, mask):
        try:
            h = homography_dlt(a[core], b[core])
            err = symmetric_transfer_error(h, a, b)
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
    """All analytic factorizations H ~ R + t n^T of a calibrated homography.

    Returns (candidates, spread) where candidates is a list of
    ``(R, t, n)`` triples and spread is the relative singular-value spread
    ``(d1 - d3) / d2`` used for the zero-baseline test.  Each triple is
    gauge-consistent, i.e. ``h_cal = c (R + t n^T)`` for a positive or
    negative scalar ``c``; the plane-in-front and positive-depth tests
    (left to the caller) reject the triples with ``c < 0``.
    """
    u, d, vt = np.linalg.svd(h_cal)
    d1, d2, d3 = d
    spread = (d1 - d3) / d2
    if spread < ZERO_MOTION_SPREAD:
        return [], spread
    s = np.linalg.det(u) * np.linalg.det(vt)
    v = vt.T

    denom = d1 * d1 - d3 * d3
    x1 = np.sqrt(max((d1 * d1 - d2 * d2) / denom, 0.0))
    x3 = np.sqrt(max((d2 * d2 - d3 * d3) / denom, 0.0))

    candidates = []
    aux_st = np.sqrt(max((d1 * d1 - d2 * d2) * (d2 * d2 - d3 * d3), 0.0)) / (
        (d1 + d3) * d2
    )
    ct = (d2 * d2 + d1 * d3) / ((d1 + d3) * d2)
    for e1 in (1.0, -1.0):
        for e3 in (1.0, -1.0):
            st = e1 * e3 * aux_st
            rp = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])
            tp = (d1 - d3) * np.array([e1 * x1, 0.0, -e3 * x3])
            npl = np.array([e1 * x1, 0.0, e3 * x3])
            # The factorization reads h_cal = s d' R + t_raw n^T with
            # d' = +d2 here; dividing t_raw by (s d') restores the unit
            # plane-distance gauge used by the cheirality tests.
            candidates.append((s * (u @ rp @ vt), (u @ tp) / (s * d2), v @ npl))

    if d1 - d3 > 1e-12 * d2:
        aux_sp = np.sqrt(max((d1 * d1 - d2 * d2) * (d2 * d2 - d3 * d3), 0.0)) / (
            (d1 - d3) * d2
        )
        cp = (d1 * d3 - d2 * d2) / ((d1 - d3) * d2)
        for e1 in (1.0, -1.0):
            for e3 in (1.0, -1.0):
                sp = e1 * e3 * aux_sp
                rp = np.array([[cp, 0.0, sp], [0.0, -1.0, 0.0], [sp, 0.0, -cp]])
                tp = (d1 + d3) * np.array([e1 * x1, 0.0, e3 * x3])
                npl = np.array([e1 * x1, 0.0, e3 * x3])
                # d' = -d2 on this branch.
                candidates.append(
                    (s * (u @ rp @ vt), (u @ tp) / (-s * d2), v @ npl)
                )
    return candidates, spread


def decompose_homography_candidates(
    h: Homography,
    intr: Intrinsics,
    c: CorrespondenceSet,
    image_size=None,
) -> list:
    """All physically valid factorizations of a plane-induced homography.

    After the cheirality tests (plane in front of the first camera,
    positive point depths in both views) at most two distinct solutions
    survive; they reproduce the homography equally well, so the residual
    cannot break the tie for a single plane.  The list is ordered by
    reprojection residual, with ties resolved toward the solution whose
    plane normal is most aligned with the mean viewing ray (a plane facing
    the camera is the likelier physical interpretation).  Callers
    with several planes should instead pick the mutually consistent
    combination; see :func:`acrkit.fusion._select_consistent`.

    A homography with (numerically) equal singular values is returned as a
    single zero-motion hypothesis with the rotation recovered and the
    translation direction undefined.
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

    spread_val = point_spread(c.a, image_size) if image_size else 1.0
    candidates, _ = _faugeras_candidates(h_cal)
    if not candidates:
        r = Rotation.from_matrix(
            h_cal / np.linalg.svd(h_cal, compute_uv=False)[1], reproject=True
        )
        return [
            PoseHypothesis(
                pose=DirectionalPose(r, np.array([0.0, 0.0, 1.0])),
                plane_normal=None,
                support=len(c),
                spread=spread_val,
                zero_motion=True,
            )
        ]

    surviving = []
    for r_m, t, n in candidates:
        n_norm = np.linalg.norm(n)
        t_norm = np.linalg.norm(t)
        if n_norm < 1e-12 or t_norm < 1e-12:
            continue
        n = n / n_norm
        # Plane must lie in front of camera A; (t, n) -> (-t, -n) is the
        # same factorization, so flip to make that so.
        front = rays_a @ n
        if np.median(front) < 0:
            n = -n
            t = -t
            front = -front
        if np.any(front <= 0):
            continue
        depth_a = 1.0 / front  # plane distance gauge d = 1
        pts_b = (rays_a * depth_a[:, None]) @ r_m.T + t
        if np.any(pts_b[:, 2] <= 0):
            continue
        h_cand = k @ (r_m + np.outer(t, n)) @ k_inv
        residual = float(np.mean(symmetric_transfer_error(h_cand, c.a, c.b)))
        t_dir = t / np.linalg.norm(t)
        duplicate = False
        for other in surviving:
            if (
                np.abs(other[1] - r_m).max() < 1e-9
                and float(other[2] @ t_dir) > 1.0 - 1e-12
            ):
                duplicate = True
                break
        if not duplicate:
            surviving.append((residual, r_m, t_dir, n, float(n @ mean_ray)))
    if not surviving:
        raise CheiralityError("no decomposition with full positive-depth support")
    surviving.sort(key=lambda item: (round(item[0], 9), -item[4]))
    return [
        PoseHypothesis(
            pose=DirectionalPose(Rotation.from_matrix(r_m, reproject=True), t_dir),
            plane_normal=n,
            support=len(c),
            spread=spread_val,
        )
        for _, r_m, t_dir, n, _ in surviving
    ]


def decompose_homography(
    h: Homography,
    intr: Intrinsics,
    c: CorrespondenceSet,
    image_size=None,
) -> PoseHypothesis:
    """Best factorization of a plane-induced homography.

    Among the analytic solutions, keeps those giving every input pair
    positive depth in both views and returns the one with the lowest
    reprojection residual (ties resolved toward the camera-facing plane
    normal, see :func:`decompose_homography_candidates`).

    Raises:
        CheiralityError: no solution places all points in front of both
            cameras.
    """
    return decompose_homography_candidates(h, intr, c, image_size)[0]


# ---------------------------------------------------------------------------
# Epipolar baseline (normalized 8-point solver)
# ---------------------------------------------------------------------------


def _essential_from_rays(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Least-squares essential matrix for x_b^T E x_a = 0, constraints enforced.

    ``xa`` and ``xb`` are (N, 3) rays, or (K, N, 3) for K independent
    samples fitted at once, giving (K, 3, 3).
    """
    m = (xb[..., :, None] * xa[..., None, :]).reshape(xa.shape[:-1] + (9,))
    # As in homography_dlt, the 8x9 minimal system needs the full V: its
    # thin SVD drops the null vector.
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


def sampson_error(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-order geometric (Sampson) distance in pixels for b^T F a = 0.

    ``f`` is (3, 3), giving (N,) distances, or (K, 3, 3), giving (K, N).
    """
    ah = np.hstack([a, np.ones((a.shape[0], 1))])
    bh = np.hstack([b, np.ones((b.shape[0], 1))])
    fa = ah @ np.swapaxes(f, -1, -2)
    ftb = bh @ f
    num = np.einsum("...ij,...ij->...i", bh, fa)
    den = fa[..., 0] ** 2 + fa[..., 1] ** 2 + ftb[..., 0] ** 2 + ftb[..., 1] ** 2
    den = np.where(den < 1e-18, 1e-18, den)
    return np.abs(num) / np.sqrt(den)


def _triangulate(r_m: np.ndarray, t: np.ndarray, xa: np.ndarray, xb: np.ndarray):
    """Linear triangulation for candidate (R, t); returns depths in both views."""
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
    x = pts[:, :3] / w[:, None]
    za = x[:, 2]
    zb = x @ r_m[2] + t[2]
    return x, za, zb


def estimate_epipolar(
    c: CorrespondenceSet,
    intr: Intrinsics,
    threshold_px: float = 1.0,
    max_iters: int = 2000,
    seed: int = 0,
    parallax_min_deg: float = 0.1,
    refine_iters: int = 3,
) -> PoseHypothesis:
    """Relative pose via a normalized 8-point solver inside RANSAC.

    The essential matrix is estimated on calibrated rays with Sampson error
    (in pixels) as the inlier gate, decomposed into the four (R, t)
    candidates, and disambiguated by a positive-depth vote.  When the median
    triangulation parallax falls below ``parallax_min_deg`` the translation
    direction is unreliable and the result carries the
    ``unstable_translation`` flag.

    As in :func:`estimate_homography_ransac`, the 8-point samples are drawn
    one at a time and fitted and scored in growing chunks of stacked
    models, with the consensus a draw-by-draw loop would pick; at most
    ``max_iters`` samples are drawn, fewer as the adaptive target shrinks.
    """
    n = len(c)
    if n < 8:
        raise InsufficientDataError(f"epipolar estimation needs >= 8 pairs, got {n}")
    xa = _rays(intr, c.a)
    xb = _rays(intr, c.b)
    k = intr.matrix()
    k_inv = intr.inverse_matrix()

    best_mask, best_count = _ransac_consensus(
        n,
        8,
        lambda idx: _essential_from_rays(xa[idx], xb[idx]),
        lambda e: sampson_error(k_inv.T @ e @ k_inv, c.a, c.b),
        threshold_px,
        max_iters,
        seed,
    )
    if best_mask is None or best_count < 8:
        raise DegenerateModelError("RANSAC found no essential matrix with 8 inliers")
    mask = best_mask
    e = _essential_from_rays(xa[mask], xb[mask])
    for _ in range(max(0, refine_iters - 1)):
        f = k_inv.T @ e @ k_inv
        new_mask = sampson_error(f, c.a, c.b) <= threshold_px
        if int(new_mask.sum()) < 8 or np.array_equal(new_mask, mask):
            break
        mask = new_mask
        e = _essential_from_rays(xa[mask], xb[mask])
    best_mask = mask
    best_count = int(mask.sum())

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
    best_cand = None
    best_votes = -1
    for r_m, t_c in ((r1, t), (r1, -t), (r2, t), (r2, -t)):
        pts, za, zb = _triangulate(r_m, t_c, sa, sb)
        votes = int(np.sum((za > 0) & (zb > 0)))
        if votes > best_votes:
            best_votes = votes
            best_cand = (r_m, t_c, pts, za, zb)
    r_m, t_c, pts, za, zb = best_cand

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
    unstable = parallax < parallax_min_deg

    return PoseHypothesis(
        pose=DirectionalPose(Rotation.from_matrix(r_m, reproject=True), t_c),
        plane_normal=None,
        support=best_count,
        spread=1.0,
        unstable_translation=unstable,
    )
