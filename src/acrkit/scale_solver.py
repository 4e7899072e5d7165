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
in O(N) from a secular equation, and :func:`solve_nullspace` is the dense
reference.

The chain :func:`init_scale` -> :func:`depth_map_current` ->
:func:`depth_map_reference` -> :func:`iteration_scale` converts those
ratios into metric depths and the metric motion scale of each
relocalization iteration, starting from one known physical translation.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    AmbiguousNullspaceError,
    CheiralityError,
    DegenerateInitError,
    InsufficientDataError,
    InvalidInputError,
    MissingDepthError,
)
from .geometry import DirectionalPose, Intrinsics, PixelPoint
from .pose_estimation import CorrespondenceSet

# Matching singular values closer than this mean the nullspace dimension
# exceeds one and the geometry cannot fix the scale.
AMBIGUITY_GAP = 1e-8

# Default cap on correspondences fed into one solve.
MAX_SYSTEM_POINTS = 512

MIN_SYSTEM_POINTS = 8

# One track's symmetric stationarity block over (da, db, s): indices into
# and signs of its (alpha, beta, gamma, delta, epsilon, zeta) coefficients.
_BLOCK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CoefficientBlock:
    """The six quadratic-form coefficients of one correspondence."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    zeta: float

    def matrix(self) -> np.ndarray:
        """Symmetric 3x3 stationarity block over (da, db, s)."""
        return np.array(astuple(self))[_BLOCK] * _SIGN

    def energy(self, da: float, db: float, s: float) -> float:
        """Value of the warping quadratic F at (da, db, s)."""
        return (
            0.5 * self.alpha * da * da
            - self.beta * da * db
            + self.gamma * da * s
            + 0.5 * self.delta * db * db
            - self.epsilon * db * s
            + 0.5 * self.zeta * s * s
        )


def coefficient_block(
    qa: PixelPoint, qb: PixelPoint, intr: Intrinsics, pose: DirectionalPose
) -> CoefficientBlock:
    """Coefficients for a single correspondence.

    ``qa`` lives in image A and ``qb`` in image B; ``pose`` maps A-camera
    coordinates into B-camera coordinates.
    """
    arr = _coefficient_arrays(
        np.array([[qa.u, qa.v]]), np.array([[qb.u, qb.v]]), intr, pose
    )
    return CoefficientBlock(*(float(arr[0, j]) for j in range(6)))


def _coefficient_arrays(
    a_px: np.ndarray, b_px: np.ndarray, intr: Intrinsics, pose: DirectionalPose
) -> np.ndarray:
    """(N, 6) array of (alpha, beta, gamma, delta, epsilon, zeta)."""
    k_inv = intr.inverse_matrix()
    r_inv = pose.rotation.matrix.T
    t_dir = pose.direction
    xa = np.hstack([a_px, np.ones((a_px.shape[0], 1))]) @ k_inv.T
    xb = np.hstack([b_px, np.ones((b_px.shape[0], 1))]) @ k_inv.T
    xb_w = xb @ r_inv.T  # R^-1 K^-1 qb
    t_w = r_inv @ t_dir  # R^-1 t_dir
    alpha = np.einsum("ij,ij->i", xa, xa)
    beta = np.einsum("ij,ij->i", xa, xb_w)
    gamma = xa @ t_w
    delta = np.einsum("ij,ij->i", xb_w, xb_w)
    epsilon = xb_w @ t_w
    zeta = np.full(a_px.shape[0], float(t_w @ t_w))
    return np.column_stack([alpha, beta, gamma, delta, epsilon, zeta])


def coefficient_blocks(
    c: CorrespondenceSet, intr: Intrinsics, pose: DirectionalPose
) -> list:
    """Per-correspondence blocks for a whole set."""
    arr = _coefficient_arrays(c.a, c.b, intr, pose)
    return [CoefficientBlock(*(float(v) for v in row)) for row in arr]


def _block_array(blocks) -> np.ndarray:
    if isinstance(blocks, np.ndarray):
        arr = np.asarray(blocks, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise InvalidInputError("coefficient array must be (N, 6)")
        return arr
    return np.array([astuple(b) for b in blocks], dtype=float)


def assemble_system(blocks) -> np.ndarray:
    """Dense 3N x (2N+1) stationarity system.

    Row triple i carries ``(a_i, -b_i, g_i)``, ``(-b_i, d_i, -e_i)`` and
    ``(g_i, -e_i, z_i)`` in columns (2i, 2i+1, 2N).
    """
    arr = _block_array(blocks)
    n = arr.shape[0]
    if n < 1:
        raise InsufficientDataError("need at least one coefficient block")
    m = arr[:, _BLOCK] * _SIGN
    a = np.zeros((n, 3, 2 * n + 1))
    rows = np.arange(n)
    a[rows, :, 2 * rows] = m[:, :, 0]
    a[rows, :, 2 * rows + 1] = m[:, :, 1]
    a[:, :, 2 * n] = m[:, :, 2]
    return a.reshape(3 * n, 2 * n + 1)


@dataclass(frozen=True, eq=False)
class ScaleSolution:
    """Minimum-norm solution of the stationarity system.

    ``y`` holds (da_1, db_1, ..., da_N, db_N, s) with unit norm and s > 0;
    only ratios are meaningful.  ``track_id`` keeps the correspondence
    identities so depth values can be chained across image pairs.
    """

    y: np.ndarray
    residual: float
    track_id: np.ndarray = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        tracks = self.track_id
        if tracks is None:
            tracks = np.arange(self.n_points, dtype=np.int64)
        tracks = np.asarray(tracks, dtype=np.int64)
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
    """Gap test, sign gauge and cheirality check shared by both solvers.

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


def solve_nullspace(a, track_id=None) -> ScaleSolution:
    """Minimum non-zero solution of the assembled system.

    Computes the right singular vector of the smallest singular value (via
    a dense eigensolver on the normal matrix), sign-normalized so the scale
    entry is positive: the reference for :func:`solve_scale_system`.

    Raises:
        AmbiguousNullspaceError: the two smallest singular values coincide
            within 1e-8 (degenerate geometry such as pure rotation).
        CheiralityError: any recovered depth ratio is non-positive after
            sign normalization.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] < 3 or (a.shape[1] - 1) % 2 != 0:
        raise InvalidInputError("system matrix must be 2-D with 2N+1 columns")
    w, v = scipy.linalg.eigh(a.T @ a, subset_by_index=[0, 1])
    return _checked_solution(w, v[:, 0], track_id)


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


def _arrowhead_eigen(arr: np.ndarray):
    """Two smallest eigenvalues of ``A^T A`` and an eigenvector of the smallest.

    Track i gives ``A`` the rows ``[B_i | c_i]`` (da/db columns, s column).
    With ``B_i = V_i S_i U_i^T``, the arrowhead's poles are ``mu = S_i^2``
    and its weights ``g = S_i q``, ``q = V_i^T c_i``; at s = 1 the track
    unknowns are ``x = -g / (mu - lam)`` in the ``U_i`` basis, which leaves
    ``rho = lam (1 + sum q^2 / (mu - lam))``.  ``rho``, the part of the
    ``c_i`` off ``span(B_i)`` and along zero-weight poles, keeps this free
    of the cancellation in ``zeta - sum g^2 / (mu - lam)``.  Its root below
    the first pole is the smallest eigenvalue; the second lies between the
    first two poles (Golub 1973; O'Leary & Stewart 1990).  Repeated and
    zero-weight poles are eigenvalues themselves, the latter with s = 0.
    """
    m = arr[:, _BLOCK] * _SIGN
    v, sv, uh = np.linalg.svd(m[:, :, :2])
    q = np.einsum("nji,nj->ni", v, m[:, :, 2])
    mu, g, q2 = (sv * sv).ravel(), (sv * q[:, :2]).ravel(), (q[:, :2] ** 2).ravel()
    live = (mu > 0) & (q2 > _EPS**2 * np.repeat((q * q).sum(axis=1), 2))
    rho = float((q[:, 2] ** 2).sum() + q2[~live].sum())
    bound = 2.0 * float(mu.sum() + (q * q).sum())  # above every eigenvalue
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
    y = np.einsum("nji,nj->ni", uh, x.reshape(-1, 2)).ravel()
    return np.partition(np.append(dead, [lam1, lam2]), 1)[:2], np.append(y, s)


def solve_scale_system(
    c: CorrespondenceSet,
    intr: Intrinsics,
    pose: DirectionalPose,
    max_points: int = MAX_SYSTEM_POINTS,
    min_points: int = MIN_SYSTEM_POINTS,
    subsample_seed: int = 0,
) -> ScaleSolution:
    """Build and solve the system for one correspondence set.

    Sets larger than ``max_points`` are subsampled deterministically to
    keep the solve cheap; smaller than ``min_points`` is rejected for
    noise resilience.  The solve is exact and O(N), through the secular
    equation of the block-arrowhead ``A^T A``.
    """
    if len(c) < min_points:
        raise InsufficientDataError(
            f"scale system needs >= {min_points} correspondences, got {len(c)}"
        )
    use = c
    if len(c) > max_points:
        rng = np.random.default_rng(subsample_seed)
        idx = np.sort(rng.choice(len(c), size=max_points, replace=False))
        use = c.subset(idx)
    w, y = _arrowhead_eigen(_coefficient_arrays(use.a, use.b, intr, pose))
    return _checked_solution(w, y, use.track_id)


@dataclass(frozen=True)
class SparseDepthMap:
    """Metric depths per correspondence track, in meters."""

    depths: dict

    def __post_init__(self):
        d = {int(k): float(v) for k, v in self.depths.items()}
        if any(v <= 0 for v in d.values()):
            raise CheiralityError("sparse depth map contains non-positive depth")
        object.__setattr__(self, "depths", d)

    def __len__(self) -> int:
        return len(self.depths)

    def __contains__(self, track: int) -> bool:
        return int(track) in self.depths

    def __getitem__(self, track: int) -> float:
        try:
            return self.depths[int(track)]
        except KeyError:
            raise MissingDepthError(f"no depth for track {track}") from None

    def to_json_dict(self) -> dict:
        return {str(k): v for k, v in sorted(self.depths.items())}

    @staticmethod
    def from_json_dict(doc: dict) -> "SparseDepthMap":
        return SparseDepthMap({int(k): float(v) for k, v in doc.items()})

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @staticmethod
    def load(path) -> "SparseDepthMap":
        return SparseDepthMap.from_json_dict(json.loads(Path(path).read_text()))


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
    factor = s_init / solution.s
    depths = solution.d_a * factor
    if np.any(depths <= 0):
        raise CheiralityError("negative depth in current-image depth map")
    return SparseDepthMap(dict(zip(solution.track_id.tolist(), depths.tolist())))


def depth_map_reference(
    ref_solution: ScaleSolution, d0: SparseDepthMap
) -> SparseDepthMap:
    """Metric depths of the reference image.

    ``ref_solution`` comes from the (reference, current) pair with the
    reference image on the A side; every track must already carry a metric
    depth for the current image in ``d0``.
    """
    depths = {}
    for i, track in enumerate(ref_solution.track_id.tolist()):
        if track not in d0:
            raise MissingDepthError(f"track {track} missing from current depth map")
        depths[track] = d0[track] * float(
            ref_solution.d_a[i] / ref_solution.d_b[i]
        )
    if any(v <= 0 for v in depths.values()):
        raise CheiralityError("negative depth in reference depth map")
    return SparseDepthMap(depths)


def iteration_scale(
    iter_solution: ScaleSolution, dref: SparseDepthMap, mode: str = "mean"
) -> float:
    """Metric scale of the current relocalization motion.

    Averages ``s * D_ref / d_ref`` over the correspondences shared with the
    reference depth map.  ``mode`` selects the plain arithmetic mean
    (default, faithful to the formulation) or a median for noisy data.
    """
    ratios = []
    for i, track in enumerate(iter_solution.track_id.tolist()):
        if track in dref:
            ratios.append(
                iter_solution.s * dref[track] / float(iter_solution.d_a[i])
            )
    if not ratios:
        raise MissingDepthError("no shared tracks with the reference depth map")
    if mode == "median":
        return float(np.median(ratios))
    if mode != "mean":
        raise InvalidInputError(f"unknown averaging mode {mode!r}")
    return float(np.mean(ratios))
