"""Plane-mediated relative pose: per-plane candidates, one choice, one joint fit.

:func:`i2pe` matches plane regions across the two masks by the eroded
labels under the correspondences, fits one homography per matched pair
from the correspondences inside that pair and decomposes it.  It stops
there and returns the per-plane evidence (:class:`PlaneCandidates`): each
pair's cheirality-valid decompositions, of which there are at most two,
the consensus inliers behind them and the pair's fusion weight: the
consensus size times its :func:`point_spread`, which both candidates
share.  Correspondences outside the matched plane regions never reach the
estimators, which is what makes the estimate insensitive to off-plane
contamination.

:func:`reselect_candidates` is the one step that chooses: a chooser picks
one candidate per pair, and the picks are fused into one relative pose
with the pairs' normalized weights (:func:`_fuse`).  The choosers are
cross-plane agreement (:func:`_select_consistent`, used when nothing else
is known) and the loop's structural priors in :mod:`acrkit.acr_loop`.
Every plane pair shares that one pose:
H_k ~ K (R + t m_k^T) K^-1 with m_k the pair's plane normal over its
distance.  So :func:`refine_pose` fits (R, t) and every m_k jointly to all
the pairs' consensus inliers, by Gauss-Newton on the forward transfer
error in pixels, and the fused pose is only its start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheiralityError,
    DegenerateModelError,
    EstimationFailureError,
    InsufficientDataError,
    InvalidInputError,
)
from .geometry import (
    DirectionalPose,
    Intrinsics,
    Rotation,
    direction_angle,
    rodrigues,
    rotation_angle,
)
from .plane_match import PlaneSegmentMap, match_plane_maps
from .pose_estimation import (
    RANSAC_THRESHOLD_PX,
    CorrespondenceSet,
    PoseHypothesis,
    _rays,
    decompose_homography_candidates,
    estimate_homography_ransac,
)


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


def _normalized(raw) -> np.ndarray:
    """Read-only non-negative ``raw`` weights over their sum, or uniform
    weights when they sum to 0."""
    w = np.asarray(raw, dtype=float)
    total = w.sum()
    w = w / total if total > 0 else np.full(w.size, 1.0 / w.size)
    w.flags.writeable = False
    return w


def _chordal_mean(hypotheses, weights: np.ndarray) -> Rotation:
    """Weighted chordal-L2 mean rotation: the rotation nearest, in the
    Frobenius sense, to the weighted sum of the rotation matrices (Hartley
    et al., "Rotation Averaging", IJCV 2013).  For unit quaternions q and
    q_i, tr(R(q)^T R(q_i)) = 4 (q . q_i)^2 - 1, so this is also the leading
    eigenvector of the weighted sum of q_i q_i^T, blind to q/-q signs."""
    total = sum(w * h.pose.rotation.matrix for h, w in zip(hypotheses, weights))
    return Rotation.from_matrix(total)


def _fuse(hypotheses, w: np.ndarray) -> DirectionalPose:
    """Weighted fusion of directional poses under normalized weights ``w``.

    The rotation is the weighted chordal-L2 mean (:func:`_chordal_mean`);
    the direction is the normalized weighted sum of the unit directions
    after aligning every direction to the hemisphere of the highest-weight
    hypothesis.  Aligned, each direction has a non-negative component
    along that anchor and the anchor's own is 1, so the sum has norm at
    least the largest weight, at least 1/K for K hypotheses.
    """
    rotation = _chordal_mean(hypotheses, w)
    anchor = hypotheses[int(np.argmax(w))].pose.direction
    summed = np.zeros(3)
    for h, wi in zip(hypotheses, w):
        d = h.pose.direction
        if float(d @ anchor) < 0:
            d = -d
        summed += wi * d
    return DirectionalPose(rotation, summed / np.linalg.norm(summed))


@dataclass(frozen=True, eq=False)
class PlaneCandidates:
    """Per-plane evidence of one image pair, before any choice.

    Per matched plane pair with a usable homography: the (ref, cur) plane
    ids, the cheirality-valid decompositions, the consensus
    correspondences behind them and the pair's raw fusion weight, the
    consensus size times its :func:`point_spread` in the reference image.
    ``inlier_track_ids`` are the tracks of every pair's consensus, sorted
    and unique;
    downstream consumers (the scale system in particular) must not see
    anything else.  ``intrinsics`` are the camera's, which the joint
    refinement needs to measure in pixels.
    """

    plane_pairs: tuple
    candidates: tuple
    inliers: tuple
    weights: tuple
    inlier_track_ids: np.ndarray
    intrinsics: Intrinsics


@dataclass(frozen=True)
class Refinement:
    """What :func:`refine_pose` did: the steps it kept and the RMS forward
    transfer error over the inliers, in pixels, at its start and at its
    end (both None when the start could not be set up)."""

    iterations: int
    rms_before_px: float
    rms_after_px: float


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    """Refined estimate plus the chosen per-plane hypotheses behind it and
    their normalized fusion weights, a read-only array;
    ``inlier_track_ids`` are those of the :class:`PlaneCandidates` fused.
    ``refinement`` is None for a zero-motion estimate, which is not
    refined."""

    pose: DirectionalPose
    zero_motion: bool
    hypotheses: tuple
    weights: np.ndarray
    plane_pairs: tuple
    inlier_track_ids: np.ndarray
    refinement: Refinement

    def report(self) -> dict:
        """JSON-ready summary of the per-plane hypotheses and the joint
        refinement."""
        refined = self.refinement
        return {
            "zero_motion": self.zero_motion,
            "plane_pairs": [list(p) for p in self.plane_pairs],
            "refinement": None if refined is None else {
                "iterations": refined.iterations,
                "rms_before_px": refined.rms_before_px,
                "rms_after_px": refined.rms_after_px,
            },
            "hypotheses": [
                {
                    "ref_plane": pair[0],
                    "cur_plane": pair[1],
                    "support": h.support,
                    "weight": float(w),
                    "zero_motion": h.zero_motion,
                    "rotation": [float(v) for v in h.pose.rotation.matrix.reshape(-1)],
                    "direction": [float(v) for v in h.pose.direction],
                    "plane_normal": None
                    if h.plane_normal is None
                    else [float(v) for v in h.plane_normal],
                }
                for pair, h, w in zip(self.plane_pairs, self.hypotheses, self.weights)
            ],
        }


def _pairwise_disagreement(a: PoseHypothesis, b: PoseHypothesis) -> float:
    rot = rotation_angle(a.pose.rotation.compose(b.pose.rotation.inverse()))
    if a.zero_motion or b.zero_motion:
        return rot
    return rot + direction_angle(a.pose.direction, b.pose.direction)


def _select_consistent(candidates, inliers) -> list:
    """Chooser by cross-plane agreement: one candidate index per plane.

    Homography decomposition leaves up to two physically valid solutions
    per plane; only the true relative pose repeats across planes, so the
    combination minimizing the summed pairwise disagreement selects it.
    The search space is at most 2^K and K is small at desk scale.
    Agreement needs the poses only; ``inliers`` is unused.
    """
    sizes = [len(lst) for lst in candidates]
    if all(s == 1 for s in sizes) or len(candidates) == 1:
        return [0] * len(candidates)
    # Each cross-plane disagreement once, summed below in the same order.
    pairs = [(i, j) for i in range(len(sizes)) for j in range(i + 1, len(sizes))]
    table = {
        (i, j): [
            [_pairwise_disagreement(a, b) for b in candidates[j]]
            for a in candidates[i]
        ]
        for i, j in pairs
    }
    best = None
    best_cost = np.inf
    for combo in np.ndindex(*sizes):
        cost = 0.0
        for i, j in pairs:
            cost += table[i, j][combo[i]][combo[j]]
        # Deterministic preference for the per-plane front candidates.
        cost += 1e-9 * sum(combo)
        if cost < best_cost:
            best_cost = cost
            best = combo
    return list(best)


def i2pe(
    c: CorrespondenceSet,
    m_ref: PlaneSegmentMap,
    m_cur: PlaneSegmentMap,
    intr: Intrinsics,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    seed: int = 0,
) -> PlaneCandidates:
    """Per-plane pose candidates between a reference and a current image.

    The A side of ``c`` must hold reference-image pixels and the B side
    current-image pixels; every candidate pose maps reference-camera
    coordinates into current-camera coordinates.  Pass the result to
    :func:`reselect_candidates` for one fused pose.  ``threshold_px`` is
    the homography RANSAC inlier gate, and pair ``k`` draws its samples
    from ``seed + k``.  The plane pairs name the masks' own region ids.

    Raises:
        EstimationFailureError: no matched plane pair yields a usable
            homography (fewer than four in-plane correspondences, or every
            decomposition fails).
        InvalidInputError: the masks hold more planes than
            :func:`match_plane_maps` compares.
    """
    labels_ref = m_ref.eroded(c.a)
    labels_cur = m_cur.eroded(c.b)
    pairs = match_plane_maps(m_ref, m_cur, labels_ref, labels_cur)
    if not pairs:
        raise EstimationFailureError("no matchable plane pairs")
    image_size = (m_ref.width, m_ref.height)

    kept_pairs = []
    candidate_lists = []
    inlier_sets = []
    weights = []
    for index, (ref_id, cur_id) in enumerate(pairs):
        mask = (labels_ref == ref_id) & (labels_cur == cur_id)
        if int(mask.sum()) < 4:
            continue
        subset = c.subset(mask)
        try:
            h, inliers = estimate_homography_ransac(
                subset, threshold_px=threshold_px, seed=seed + index
            )
            inlier_set = subset.subset(inliers)
            candidates = decompose_homography_candidates(h, intr, inlier_set)
        except (DegenerateModelError, CheiralityError, InsufficientDataError):
            continue
        kept_pairs.append((ref_id, cur_id))
        candidate_lists.append(tuple(candidates))
        inlier_sets.append(inlier_set)
        weights.append(len(inlier_set) * point_spread(inlier_set.a, image_size))
    if not candidate_lists:
        raise EstimationFailureError(
            "no plane pair with enough consistent correspondences"
        )
    return PlaneCandidates(
        plane_pairs=tuple(kept_pairs),
        candidates=tuple(candidate_lists),
        inliers=tuple(inlier_sets),
        weights=tuple(weights),
        inlier_track_ids=np.unique(np.concatenate([s.track_id for s in inlier_sets])),
        intrinsics=intr,
    )


def reselect_candidates(evidence: PlaneCandidates, chooser) -> PoseEstimate:
    """Choose one candidate per plane pair, fuse the choices and refine.

    A plane-induced homography factors into up to two physically valid
    poses that the image data alone cannot separate.  ``chooser`` receives
    ``(candidates, inliers)``, one entry per pair, and returns the index of
    the candidate to keep for every pair: cross-plane agreement
    (:func:`_select_consistent`) or a structural prior of the loop (a
    commanded pure translation, or consistency with the recovered depth
    map).  The pairs' weights are normalized over all pairs, and
    zero-motion picks are dropped from the fusion unless they hold most of
    that weight, in which case only the rotation is fused and the estimate
    is final.  Otherwise the moving pairs' weights are normalized again,
    and their fused pose starts :func:`refine_pose` over the consensus
    inliers of the pairs it fused, and the estimate carries the refined
    pose.
    """
    picks = chooser(evidence.candidates, evidence.inliers)
    hypotheses = [lst[int(k)] for lst, k in zip(evidence.candidates, picks)]
    kept_pairs = list(evidence.plane_pairs)
    raw = np.array(evidence.weights)
    weights = _normalized(raw)

    zero_flags = np.array([h.zero_motion for h in hypotheses])
    zero_motion = float(weights[zero_flags].sum()) > 0.5
    refinement = None
    if zero_motion:
        # Dominant zero-baseline evidence: rotation is still meaningful,
        # the direction is not.
        pose = DirectionalPose(_chordal_mean(hypotheses, weights), np.array([0.0, 0.0, 1.0]))
    else:
        hypotheses = [h for h, z in zip(hypotheses, zero_flags) if not z]
        kept_pairs = [p for p, z in zip(kept_pairs, zero_flags) if not z]
        inliers = [s for s, z in zip(evidence.inliers, zero_flags) if not z]
        weights = _normalized(raw[~zero_flags])
        pose, refinement = refine_pose(_fuse(hypotheses, weights), inliers, evidence.intrinsics)
    return PoseEstimate(
        pose=pose,
        zero_motion=zero_motion,
        hypotheses=tuple(hypotheses),
        weights=weights,
        plane_pairs=tuple(kept_pairs),
        inlier_track_ids=evidence.inlier_track_ids,
        refinement=refinement,
    )


# Joint refinement: Gauss-Newton, damped in the Levenberg-Marquardt way
# only after a step that fails to lower the cost.  The damping then starts
# at REFINE_DAMPING of the unit-diagonal normal matrix (Marquardt's 1e-3)
# and moves tenfold: up after every failed step, down after every kept
# one.  The fit has converged once a step, kept or predicted by the linear
# model, lowers the summed squared transfer error by less than
# REFINE_TOLERANCE times the noise variance the residuals show (the cost
# over its 2N - 5 - 3K degrees of freedom): such a step moves the estimate
# by under a tenth of its own standard error.  At a minimum the prediction
# goes to zero, and it also does once the damping has shrunk the step to
# nothing.  The cap on trial steps only ends a fit that fails to converge.
REFINE_DAMPING = 1e-3
REFINE_TOLERANCE = 1e-2
REFINE_MAX_ITERATIONS = 50

# Right-multiplied by a rotation, this puts its columns in the orders
# (2, 0, 1) and (1, 2, 0): the turned columns of a cross product.
_TURN = np.eye(3)[:, [2, 0, 1, 1, 2, 0]]


def _scaled_eigen(h: np.ndarray):
    """The diagonal scale ``d`` of a symmetric positive semidefinite ``h``
    and the eigen-decomposition ``(w, v)`` of ``h / (d d^T)``, which has a
    unit diagonal; None when ``h`` is singular to working precision.  The
    test is on the scaled matrix, so it does not depend on the units of
    the unknowns."""
    d = np.sqrt(np.diag(h))
    if not (d > 0).all():
        return None
    w, v = np.linalg.eigh(h / d / d[:, None])
    if not w[0] > len(d) * np.finfo(float).eps * w[-1]:
        return None
    return d, w, v


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """(3, 2) orthonormal basis of the plane perpendicular to the unit ``t``:
    the first two columns of the Householder reflection that takes ``t``
    onto the z axis."""
    v = t.copy()
    v[2] += math.copysign(1.0, t[2])
    basis = np.outer(v, v[:2]) * (-2.0 / (v @ v))
    basis[0, 0] += 1.0
    basis[1, 1] += 1.0
    return basis


def _retract(t: np.ndarray, basis: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The unit ``t`` moved by ``step`` in the tangent ``basis`` and put back
    on the sphere, which keeps the scale gauge fixed."""
    moved = t + basis @ step
    return moved / math.sqrt(moved @ moved)


def _transfer(rotation, t, planes, rays_a, rays_b, planes_a, focal):
    """Forward transfer residuals, (2, N) pixels, and the parts of the
    transfer its Jacobian needs: ``y = R x_a + t (m_k . x_a)`` for point
    ``x_a`` of pair ``k``, projected against ``x_b``; points are columns.
    None when a point lands behind the camera, where the transfer means
    nothing."""
    s = planes.ravel() @ planes_a
    y = rotation @ rays_a + t[:, None] * s
    if not (y[2] > 0).all():
        return None
    proj = y[:2] / y[2]
    return (proj - rays_b[:2]) * focal, (s, focal / y[2], proj)


def _transfer_jacobian(rotation, t, basis, turned, planes_a, parts):
    """(5 + 3K, 2N) transposed Jacobian of the raveled residuals of
    :func:`_transfer`: rows for a right rotation increment, for the two
    tangent coordinates of ``t`` in ``basis`` and for the ``m_k``.
    ``turned`` holds the rays ``x_a`` with their components in the orders
    (1, 2, 0) and (2, 0, 1); ``planes_a`` holds each ``x_a`` in its pair's
    block of three rows."""
    s, scale, proj = parts
    n = len(s)
    # Column r, i of dy is d(residual r of point i)/dy, (f / y_z) times
    # (1, 0, -p) or (0, 1, -q).  y moves along R (w x x_a) for a rotation
    # increment w, s B d for a tangent step d and t (x_a . dm) for a plane
    # step dm; dy R (w x x_a) is w . (x_a x dy R), a cross product by
    # turned components.
    dy = np.zeros((3, 2, n))
    dy[0, 0], dy[1, 1] = scale
    np.multiply(scale, proj, out=dy[2])
    dy[2] *= -1.0
    g = (np.hstack([rotation @ _TURN, basis, t[:, None]]).T @ dy.reshape(3, -1)).reshape(9, 2, n)
    jac = np.empty((5 + len(planes_a), 2, n))
    np.multiply(turned[0], g[0:3], out=jac[0:3])
    jac[0:3] -= turned[1] * g[3:6]
    np.multiply(s, g[6:8], out=jac[3:5])
    np.multiply(planes_a[:, None], g[8], out=jac[5:])
    return jac.reshape(len(jac), -1)


def refine_pose(pose: DirectionalPose, inliers, intr: Intrinsics):
    """Joint Gauss-Newton fit of one pose to several plane pairs.

    ``inliers`` holds one :class:`CorrespondenceSet` per plane pair, the
    pair's consensus.  The unknowns are a rotation increment, the unit
    translation direction moved in its tangent plane (so the sphere fixes
    the scale gauge) and one ``m_k`` per pair: 5 + 3K.  Each ``m_k``
    starts from the least-squares solve of ``[x_b]_x (R x_a + t x_a^T m_k)
    = 0`` at ``pose``.  The cost is the summed squared forward transfer
    error in pixels.  A step is kept only if it lowers the cost; a failed
    one is retried with damping.  The fit stops on the convergence test of
    :data:`REFINE_TOLERANCE`, when the residuals are down to rounding, or
    when the normal matrix is singular.  So the cost never rises, and a
    start whose system is singular, or from which no step lowers the
    cost, comes back as ``pose`` itself.

    Returns the refined pose and its :class:`Refinement`.
    """
    sizes = [len(c) for c in inliers]
    n = sum(sizes)
    rays = _rays(intr, np.vstack([c.a for c in inliers] + [c.b for c in inliers])).T
    rays_a, rays_b = rays[:, :n], rays[:, n:]
    turned = (rays_a[[1, 2, 0], None], rays_a[[2, 0, 1], None])
    planes_a = np.zeros((len(sizes), 3, n))
    for k, (lo, hi) in enumerate(zip(np.cumsum(sizes) - sizes, np.cumsum(sizes))):
        planes_a[k, :, lo:hi] = rays_a[:, lo:hi]
    planes_a = planes_a.reshape(-1, n)
    focal = np.array([[intr.fx], [intr.fy]])
    rotation, t = pose.rotation.matrix, pose.direction

    # The plane start: per point, (x_b x t)(x_a . m) = -(x_b x R x_a),
    # whose normal equations hold |x_b x t|^2 and (x_b x t).(x_b x R x_a)
    # (Lagrange's identity); they are block diagonal over the pairs.
    z = rotation @ rays_a
    bb, bt = (rays_b * rays_b).sum(axis=0), t @ rays_b
    coupling = bb * (t @ z) - (rays_b * z).sum(axis=0) * bt
    eigen = _scaled_eigen((planes_a * (bb - bt * bt)) @ planes_a.T)
    state = None
    if eigen is not None:
        d, w, v = eigen
        planes = (v @ ((planes_a @ coupling / -d) @ v / w) / d).reshape(-1, 3)
        state = _transfer(rotation, t, planes, rays_a, rays_b, planes_a, focal)
    if state is None:
        return pose, Refinement(0, None, None)
    residual, parts = state
    cost = before = float(np.vdot(residual, residual))
    # Below this the residuals are rounding: eps of each normalized
    # coordinate, times the focal length.
    floor = n * float(np.finfo(float).eps * focal.max()) ** 2
    # The smallest decrease that counts, as a fraction of the cost.
    tolerance = REFINE_TOLERANCE / max(2 * n - 5 - 3 * len(sizes), 1)
    damping, iterations, trials = 0.0, 0, 0
    eigen = None
    while trials < REFINE_MAX_ITERATIONS and cost > floor:
        if eigen is None:  # a new point: linearize there
            basis = _tangent_basis(t)
            jac = _transfer_jacobian(rotation, t, basis, turned, planes_a, parts)
            eigen = _scaled_eigen(jac @ jac.T)
            if eigen is None:
                break
            d, w, v = eigen
            c = (jac @ residual.ravel() / d) @ v
        # The damped step and the decrease |r|^2 - |r + J step|^2 that the
        # linear model predicts for it, in the scaled eigenbasis.
        scaled = c / (w + damping)
        if float(scaled * scaled @ (w + 2.0 * damping)) <= tolerance * cost:
            break
        trials += 1
        step = (v @ scaled) / -d
        angle = math.sqrt(step[:3] @ step[:3])
        turn = rodrigues(step[:3] / angle, math.sin(angle), math.cos(angle)) if angle else np.eye(3)
        trial = (rotation @ turn, _retract(t, basis, step[3:5]), planes + step[5:].reshape(-1, 3))
        state = _transfer(*trial, rays_a, rays_b, planes_a, focal)
        decrease = -np.inf if state is None else cost - float(np.vdot(state[0], state[0]))
        if not decrease > 0:
            damping = 10.0 * damping or REFINE_DAMPING
            continue
        (rotation, t, planes), (residual, parts) = trial, state
        cost -= decrease
        iterations += 1
        if decrease <= tolerance * (cost + decrease):
            break
        damping /= 10.0
        eigen = None
    refinement = Refinement(iterations, math.sqrt(before / n), math.sqrt(cost / n))
    if not iterations:
        return pose, refinement
    return DirectionalPose(Rotation(rotation), t), refinement
