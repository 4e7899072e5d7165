"""Absolute translation scale from a homogeneous linear system.

Given correspondences between two images and their scale-free relative pose
``<R, t_dir>`` (mapping A-camera coordinates into B-camera coordinates),
minimizing the 3-D warping error over per-point depths and the unknown
scale yields, per correspondence, the quadratic

    F_i = 1/2 a Da^2 - b Da Db + g Da S + 1/2 d Db^2 - e Db S + 1/2 z S^2

whose stationarity conditions stack into a block-sparse homogeneous system
``A y = 0`` of shape 3N x (2N+1), with y = (da_1, db_1, ..., da_N, db_N, s).
Only the ratios between entries of the minimum-norm solution are
meaningful; the gauge fixed here is ``||y|| = 1`` with ``s > 0``.
``A^T A`` is block-arrowhead (a 2x2 block per track plus a dense scale row
and column): :func:`solve_scale_system` gets its two smallest eigenpairs
in O(N) from a secular equation.

The chain :func:`init_scale` -> :func:`depth_map_current` ->
:func:`depth_map_reference` -> :func:`iteration_scale` converts those
ratios into metric depths and the metric motion scale of each
relocalization iteration, starting from one known physical translation.
A :class:`SparseDepthMap` holds the depths as sorted track-id and depth
arrays, and every link of the chain works elementwise over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousNullspaceError,
    CheiralityError,
    DegenerateInitError,
    InsufficientDataError,
    InvalidInputError,
    MissingDepthError,
)
from .geometry import DirectionalPose, Intrinsics
from .pose_estimation import CorrespondenceSet, _rays

# Matching singular values closer than this mean the nullspace dimension
# exceeds one and the geometry cannot fix the scale.
AMBIGUITY_GAP = 1e-8

# The fewest correspondences one solve accepts, and the init depth map's
# cap: run_acr's init solve draws at most this many of its pairs.
MIN_SYSTEM_POINTS = 8
MAX_SYSTEM_POINTS = 512

# One track's symmetric stationarity block over (da, db, s): indices into
# and signs of its (alpha, beta, gamma, delta, epsilon, zeta) coefficients.
_BLOCK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])

_EPS = np.finfo(float).eps


def coefficient_arrays(
    a_px: np.ndarray, b_px: np.ndarray, intr: Intrinsics, pose: DirectionalPose
) -> np.ndarray:
    """(N, 6) array of the coefficients (alpha, beta, gamma, delta, epsilon,
    zeta) of each correspondence, one row per pixel pair.

    ``a_px`` holds (N, 2) pixels of image A and ``b_px`` those of image B;
    ``pose`` maps A-camera coordinates into B-camera coordinates.
    """
    r_inv = pose.rotation.matrix.T
    t_dir = pose.direction
    xa = _rays(intr, a_px)
    xb = _rays(intr, b_px)
    xb_w = xb @ r_inv.T  # R^-1 K^-1 qb
    t_w = r_inv @ t_dir  # R^-1 t_dir
    alpha = np.einsum("ij,ij->i", xa, xa)
    beta = np.einsum("ij,ij->i", xa, xb_w)
    gamma = xa @ t_w
    delta = np.einsum("ij,ij->i", xb_w, xb_w)
    epsilon = xb_w @ t_w
    zeta = np.full(a_px.shape[0], float(t_w @ t_w))
    return np.column_stack([alpha, beta, gamma, delta, epsilon, zeta])


@dataclass(frozen=True, eq=False)
class ScaleSolution:
    """Minimum-norm solution of the stationarity system.

    ``y`` holds (da_1, db_1, ..., da_N, db_N, s) with unit norm and s > 0;
    only ratios are meaningful.  ``track_id`` keeps the correspondence
    identities so depth values can be chained across image pairs.
    """

    y: np.ndarray
    residual: float
    track_id: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        tracks = np.asarray(self.track_id, dtype=np.int64)
        if tracks.shape != (self.n_points,):
            raise InvalidInputError("track_id must have one entry per point")
        tracks.flags.writeable = False
        object.__setattr__(self, "track_id", tracks)

    @property
    def n_points(self) -> int:
        return (self.y.size - 1) // 2

    @property
    def s(self) -> float:
        return float(self.y[-1])

    @property
    def d_a(self) -> np.ndarray:
        return self.y[0:-1:2]

    @property
    def d_b(self) -> np.ndarray:
        return self.y[1:-1:2]


def _checked_solution(w, y, track_id) -> ScaleSolution:
    """Gap test, sign gauge and cheirality check of an eigenpair.

    ``w`` holds the two smallest eigenvalues of ``A^T A`` in ascending
    order and ``y`` an eigenvector of the smallest.
    """
    svals = np.sqrt(np.clip(w, 0.0, None))
    if len(svals) > 1 and svals[1] - svals[0] < AMBIGUITY_GAP:
        raise AmbiguousNullspaceError(
            f"nullspace is not one-dimensional (sigma gap {svals[1] - svals[0]:.3e})"
        )
    y = y / np.linalg.norm(y)
    if y[-1] < 0:
        y = -y
    solution = ScaleSolution(y=y, residual=float(svals[0]), track_id=track_id)
    if np.any(solution.d_a <= 0) or np.any(solution.d_b <= 0) or solution.s <= 0:
        raise CheiralityError("non-positive depth ratio in scale solution")
    return solution


def _secular_root(rho, mu, q2, lo, hi, lam) -> float:
    """Root of ``rho - lam (1 + sum q2 / (mu - lam))``, decreasing on the
    pole-free bracket (lo, hi), by Newton from ``lam``; a step that leaves
    the shrinking bracket bisects it instead, so no pole is evaluated."""
    for _ in range(100):  # relocalization systems take 2-23 steps
        r = 1.0 / (mu - lam)
        f = rho - lam * (1.0 + q2 @ r)
        lo, hi = (lam, hi) if f > 0 else (lo, lam)
        step = f / (1.0 + q2 @ r + lam * (q2 @ (r * r)))
        new = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
        if abs(step) <= 2 * _EPS * lam or not lo < new < hi:
            break
        lam = new
    return lam


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the columns of two (3, N) arrays."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _block_factors(b1: np.ndarray, b2: np.ndarray):
    """Per track, the factorization ``B_i = V_i S_i U_i^T`` that a thin
    SVD gives the (3, 2) block ``B_i = [b1_i b2_i]``, in closed form; the
    tracks are the columns of ``b1`` and ``b2``.

    ``U_i`` holds the eigenvectors of the 2x2 ``B_i^T B_i``, larger first.
    The larger eigenvalue comes from the half-sum and half-difference;
    the smaller is ``|b1 x b2|^2`` over it (Lagrange's identity), so it
    keeps its relative accuracy where the two columns are nearly
    parallel.  ``V_i`` is ``B_i u_1 / s_1``, the unit normal ``b1 x b2``
    of the columns' plane crossed with it, and that normal: the plane's
    orientation makes ``B_i u_2 = s_2 v_2``.  A block whose smaller
    singular value is below eps times the larger, where rounding decides
    it, gets 0 for it and no ``v_2`` or normal: its columns span one
    direction.  Returns ``(mu, u1, v1, v2, normal, full)``: the (2, N)
    squared singular values, the (2, N) ``u_1``, the (3, N) ``v_1``,
    ``v_2`` and unit normal, and the mask of full-rank blocks.
    """
    p, q, r = (b1 * b1).sum(axis=0), (b2 * b2).sum(axis=0), (b1 * b2).sum(axis=0)
    half = 0.5 * (p - q)
    d = np.hypot(half, r)
    big = 0.5 * (p + q) + d
    normal = _cross(b1, b2)
    area = (normal * normal).sum(axis=0)
    full = area > _EPS**2 * big * big
    # (big - q, r) and (r, big - p) both span u_1; the one that starts
    # from the larger diagonal entry has no cancellation.  Equal
    # eigenvalues (d = 0) take (1, 0).
    u1 = np.where(half >= 0, [half + d, r], [r, d - half])
    length = np.hypot(u1[0], u1[1])
    u1 = np.where(length > 0, u1 / np.where(length > 0, length, 1.0), [[1.0], [0.0]])
    v1 = (b1 * u1[0] + b2 * u1[1]) / np.sqrt(big)
    normal = normal / np.sqrt(np.where(full, area, 1.0))
    mu = np.array([big, np.where(full, area / big, 0.0)])
    return mu, u1, v1, _cross(normal, v1), normal, full


def _arrowhead_eigen(arr: np.ndarray):
    """Two smallest eigenvalues of ``A^T A`` and an eigenvector of the smallest.

    Track i gives ``A`` the rows ``[B_i | c_i]`` (da/db columns, s column).
    With ``B_i = V_i S_i U_i^T`` (:func:`_block_factors`), the arrowhead's
    poles are ``mu = S_i^2`` and its weights ``g = S_i q``, ``q = V_i^T
    c_i``; at s = 1 the track unknowns are ``x = -g / (mu - lam)`` in the
    ``U_i`` basis, which leaves ``rho = lam (1 + sum q^2 / (mu - lam))``.
    ``rho``, the part of the ``c_i`` off ``span(B_i)`` and along
    zero-weight poles, keeps this free of the cancellation in ``zeta - sum
    g^2 / (mu - lam)``; the part off ``span(B_i)`` is taken along the
    normal, or, for a block of one direction, as what ``c_i`` keeps after
    its ``v_1`` part goes.  Its root below the first pole is the smallest
    eigenvalue; the second lies between the first two poles (Golub 1973;
    O'Leary & Stewart 1990).  Repeated and zero-weight poles are
    eigenvalues themselves, the latter with s = 0.
    """
    m = arr.T[_BLOCK] * _SIGN[:, :, None]  # (row, column, track)
    c = m[:, 2]
    mu, u1, v1, v2, normal, full = _block_factors(m[:, 0], m[:, 1])
    q = np.array([(v1 * c).sum(axis=0), np.where(full, (v2 * c).sum(axis=0), 0.0)])
    rest = c - v1 * q[0]
    off = np.where(full, (normal * c).sum(axis=0) ** 2, (rest * rest).sum(axis=0))
    cc = (c * c).sum(axis=0)
    # Pole order: track by track, the larger first.
    mu, g, q2 = mu.T.ravel(), (np.sqrt(mu) * q).T.ravel(), (q * q).T.ravel()
    live = (mu > 0) & (q2 > _EPS**2 * np.repeat(cc, 2))
    rho = float(off.sum() + q2[~live].sum())
    bound = 2.0 * float(mu.sum() + cc.sum())  # above every eigenvalue
    p1, p2 = np.partition(np.where(live, mu, bound), 1)[:2]
    mu_l, q2_l = mu[live], q2[live]
    lam1 = _secular_root(rho, mu_l, q2_l, 0.0, p1, 0.0)
    lam2 = p1  # a repeated first pole
    if p2 - p1 > 4 * _EPS * p2:
        lam2 = _secular_root(rho, mu_l, q2_l, p1, p2, 0.5 * (p1 + p2))
    dead = np.where(live, np.inf, mu)
    x = np.zeros(mu.size)
    s = float(dead.min() >= lam1)  # 0 when a zero-weight pole is the minimiser
    if s:
        x[live] = -g[live] / (mu_l - lam1)
    else:
        x[np.argmin(dead)] = 1.0
    x = x.reshape(-1, 2).T
    # y_i = U_i x_i, with u_2 = u_1 turned a quarter.
    y = u1 * x[0] + np.array([-u1[1], u1[0]]) * x[1]
    return np.partition(np.append(dead, [lam1, lam2]), 1)[:2], np.append(y.T.ravel(), s)


def solve_scale_system(
    c: CorrespondenceSet, intr: Intrinsics, pose: DirectionalPose
) -> ScaleSolution:
    """Build and solve the system over every pair of one correspondence set.

    Fewer than ``MIN_SYSTEM_POINTS`` pairs are rejected for noise
    resilience.  The solve is exact and O(N), through the secular equation
    of the block-arrowhead ``A^T A``.
    """
    if len(c) < MIN_SYSTEM_POINTS:
        raise InsufficientDataError(
            f"scale system needs >= {MIN_SYSTEM_POINTS} correspondences, got {len(c)}"
        )
    w, y = _arrowhead_eigen(coefficient_arrays(c.a, c.b, intr, pose))
    return _checked_solution(w, y, c.track_id)


@dataclass(frozen=True, eq=False)
class SparseDepthMap:
    """Metric depths of correspondence tracks, in meters.

    ``track_id`` is sorted and unique and ``depth[k]`` belongs to
    ``track_id[k]``; unsorted input is sorted on construction.
    """

    track_id: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        tracks = np.asarray(self.track_id, dtype=np.int64)
        depth = np.asarray(self.depth, dtype=float)
        if tracks.ndim != 1 or depth.shape != tracks.shape:
            raise InvalidInputError("track_id and depth must be equal-length vectors")
        order = np.argsort(tracks, kind="stable")
        tracks, depth = tracks[order], depth[order]
        if np.any(tracks[1:] == tracks[:-1]):
            raise InvalidInputError("sparse depth map repeats a track id")
        if not np.all(depth > 0):
            raise CheiralityError("sparse depth map contains non-positive depth")
        tracks.flags.writeable = False
        depth.flags.writeable = False
        object.__setattr__(self, "track_id", tracks)
        object.__setattr__(self, "depth", depth)

    def known(self, tracks) -> np.ndarray:
        """Boolean mask of the ``tracks`` that carry a depth."""
        return find_tracks(self.track_id, tracks)[1]

    def lookup(self, tracks) -> np.ndarray:
        """Depths of ``tracks`` in their order; MissingDepthError if one has none."""
        at, known = find_tracks(self.track_id, tracks)
        if not known.all():
            raise MissingDepthError(f"no depth for track {np.asarray(tracks)[~known][0]}")
        return self.depth[at]


def find_tracks(sorted_ids: np.ndarray, tracks):
    """(at, found) for ``tracks`` in the sorted, unique ``sorted_ids``:
    ``sorted_ids[at]`` is each track wherever ``found``, and ``found`` is
    ``np.isin(tracks, sorted_ids)``, from one binary search."""
    at = np.searchsorted(sorted_ids, tracks)
    if not sorted_ids.size:
        return at, np.zeros(np.shape(tracks), dtype=bool)
    at = np.minimum(at, sorted_ids.size - 1)
    return at, sorted_ids[at] == tracks


def init_scale(executed_translation, estimated: DirectionalPose) -> float:
    """Metric scale of the initialization motion.

    A known pure hand translation induces a camera translation of equal
    norm regardless of the hidden hand-eye pose, so the scale is just the
    executed norm divided by the (unit) estimated direction norm.
    """
    t = np.asarray(executed_translation, dtype=float)
    norm = float(np.linalg.norm(t))
    if norm < 1e-15:
        raise DegenerateInitError("executed init translation is zero")
    return norm / float(np.linalg.norm(estimated.direction))


def depth_map_current(solution: ScaleSolution, s_init: float) -> SparseDepthMap:
    """Metric depths of the current image from the init-pair solution.

    The solution must come from the (current, init) image pair, with the
    current image on the A side; depths follow from d_a * S_init / s.
    """
    if s_init <= 0:
        raise InvalidInputError("init scale must be positive")
    return SparseDepthMap(solution.track_id, solution.d_a * (s_init / solution.s))


def depth_map_reference(
    ref_solution: ScaleSolution, d0: SparseDepthMap
) -> SparseDepthMap:
    """Metric depths of the reference image, ``D0 * (d_a / d_b)`` per track.

    ``ref_solution`` comes from the (reference, current) pair with the
    reference image on the A side; every track must already carry a metric
    depth for the current image in ``d0`` (else :class:`MissingDepthError`).
    """
    tracks = ref_solution.track_id
    return SparseDepthMap(
        tracks, d0.lookup(tracks) * (ref_solution.d_a / ref_solution.d_b)
    )


def iteration_scale(iter_solution: ScaleSolution, dref: SparseDepthMap) -> float:
    """Metric scale of the current relocalization motion.

    The arithmetic mean of the ratios ``s * D_ref / d_ref`` over the
    solution's tracks that carry a reference depth, in solution order, as
    in the formulation; tracks without one are skipped.
    """
    at, shared = find_tracks(dref.track_id, iter_solution.track_id)
    if not shared.any():
        raise MissingDepthError("no shared tracks with the reference depth map")
    depths = dref.depth[at[shared]]
    return float(np.mean(iter_solution.s * depths / iter_solution.d_a[shared]))
