"""Plane-mediated relative pose: per-plane candidates, one choice, one fusion.

:func:`i2pe` erodes the two plane masks, matches plane regions across
them, fits one homography per matched pair from the correspondences inside
that pair and decomposes it.  It stops there and returns the per-plane
evidence (:class:`PlaneCandidates`): each pair's cheirality-valid
decompositions, of which there are at most two, and the consensus inliers
behind them.  Correspondences outside the matched plane regions never
reach the estimators, which is what makes the estimate insensitive to
off-plane contamination.

:func:`reselect_candidates` is the one step that chooses: a chooser picks
one candidate per pair, and the picks are fused, weighted by
correspondence count and spatial spread, into one relative pose.  The
choosers are cross-plane agreement (:func:`_select_consistent`, used when
nothing else is known) and the loop's structural priors in
:mod:`acrkit.acr_loop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousDirectionError,
    CheiralityError,
    DegenerateModelError,
    EstimationFailureError,
    InsufficientDataError,
    InvalidInputError,
)
from .geometry import DirectionalPose, Intrinsics, Rotation, rotation_angle, direction_angle
from .plane_match import PlaneSegmentMap, match_plane_maps
from .pose_estimation import (
    CorrespondenceSet,
    PoseHypothesis,
    decompose_homography_candidates,
    estimate_homography_ransac,
)


@dataclass(frozen=True)
class FusionWeights:
    """Non-negative per-hypothesis weights normalized to sum 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("weights must be a non-empty vector")
        if np.any(v < 0):
            raise InvalidInputError("weights must be non-negative")
        total = v.sum()
        v = v / total if total > 0 else np.full(v.size, 1.0 / v.size)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def hypothesis_weight(h: PoseHypothesis) -> float:
    """Unnormalized reliability: correspondence count times spatial spread."""
    return float(h.support) * float(h.spread)


def weights_from_hypotheses(hypotheses) -> FusionWeights:
    return FusionWeights(np.array([hypothesis_weight(h) for h in hypotheses]))


def _chordal_mean(hypotheses, weights: np.ndarray) -> Rotation:
    """Weighted chordal-L2 mean rotation: the largest eigenvector of the
    weighted quaternion outer-product sum, which is blind to q/-q signs."""
    acc = np.zeros((4, 4))
    for h, wi in zip(hypotheses, weights):
        q = h.pose.rotation.quaternion()
        acc += wi * np.outer(q, q)
    _, vecs = np.linalg.eigh(acc)
    return Rotation.from_quaternion(vecs[:, -1])


def fuse_poses(hypotheses, weights: FusionWeights) -> DirectionalPose:
    """Weighted fusion of directional poses.

    The rotation is the weighted chordal-L2 mean (largest eigenvector of
    the weighted quaternion outer-product sum, which handles the q/-q sign
    ambiguity); the direction is the normalized weighted sum of the unit
    directions after aligning every direction to the hemisphere of the
    highest-weight hypothesis.
    """
    hyps = list(hypotheses)
    if not hyps:
        raise InsufficientDataError("no hypotheses to fuse")
    if len(weights) != len(hyps):
        raise InvalidInputError("one weight per hypothesis required")
    w = weights.values

    rotation = _chordal_mean(hyps, w)

    anchor = hyps[int(np.argmax(w))].pose.direction
    summed = np.zeros(3)
    for h, wi in zip(hyps, w):
        d = h.pose.direction
        if float(d @ anchor) < 0:
            d = -d
        summed += wi * d
    norm = np.linalg.norm(summed)
    if norm < 1e-9:
        raise AmbiguousDirectionError("weighted direction sum vanished")
    return DirectionalPose(rotation, summed / norm)


@dataclass(frozen=True)
class I2peConfig:
    """Knobs of the plane-mediated estimation pipeline.

    Plane matching always solves the normalized affinity exactly (spectral
    past the enumeration budget) and the hypotheses are always fused by
    weight; only the thresholds, budgets and seed are configurable.
    """

    erosion_radius: int = 5
    ransac_threshold_px: float = 1.0
    ransac_max_iters: int = 2000
    seed: int = 0
    edge_sigma_frac: float = 0.1  # of the reference image diagonal
    min_pair_correspondences: int = 4

    def __post_init__(self):
        # What erode_mask and assemble_affinity would reject mid-run.
        if self.erosion_radius < 0:
            raise InvalidInputError("erosion_radius must be non-negative")
        if not self.edge_sigma_frac > 0:
            raise InvalidInputError("edge_sigma_frac must be positive")


@dataclass(frozen=True, eq=False)
class PlaneCandidates:
    """Per-plane evidence of one image pair, before any choice.

    Per matched plane pair with a usable homography: the (ref, cur) plane
    ids, the cheirality-valid decompositions and the consensus
    correspondences behind them.  ``inlier_track_ids`` are the tracks of
    every pair's consensus; downstream consumers (the scale system in
    particular) must not see anything else.
    """

    plane_pairs: tuple
    candidates: tuple
    inliers: tuple
    inlier_track_ids: np.ndarray


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    """Fused estimate plus the chosen per-plane hypotheses behind it;
    ``inlier_track_ids`` are those of the :class:`PlaneCandidates` fused."""

    pose: DirectionalPose
    zero_motion: bool
    hypotheses: tuple
    weights: FusionWeights
    plane_pairs: tuple
    inlier_track_ids: np.ndarray

    def report(self) -> dict:
        """JSON-ready summary of the per-plane hypotheses."""
        return {
            "zero_motion": self.zero_motion,
            "plane_pairs": [list(p) for p in self.plane_pairs],
            "hypotheses": [
                {
                    "ref_plane": pair[0],
                    "cur_plane": pair[1],
                    "support": h.support,
                    "spread": h.spread,
                    "weight": float(w),
                    "zero_motion": h.zero_motion,
                    "rotation": [float(v) for v in h.pose.rotation.matrix.reshape(-1)],
                    "direction": [float(v) for v in h.pose.direction],
                    "plane_normal": None
                    if h.plane_normal is None
                    else [float(v) for v in h.plane_normal],
                }
                for pair, h, w in zip(
                    self.plane_pairs, self.hypotheses, self.weights.values
                )
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
    cfg: I2peConfig = None,
) -> PlaneCandidates:
    """Per-plane pose candidates between a reference and a current image.

    The A side of ``c`` must hold reference-image pixels and the B side
    current-image pixels; every candidate pose maps reference-camera
    coordinates into current-camera coordinates.  Pass the result to
    :func:`reselect_candidates` for one fused pose.

    Raises:
        EstimationFailureError: no matched plane pair yields a usable
            homography (fewer than the configured in-plane correspondences,
            or every decomposition fails).
    """
    cfg = cfg or I2peConfig()
    ref = m_ref.eroded(cfg.erosion_radius)
    cur = m_cur.eroded(cfg.erosion_radius)
    sigma = cfg.edge_sigma_frac * math.hypot(m_ref.width, m_ref.height)
    pairs = match_plane_maps(ref, cur, c, sigma=sigma)
    if not pairs:
        raise EstimationFailureError("no matchable plane pairs")

    labels_ref = ref.label_at(c.a)
    labels_cur = cur.label_at(c.b)
    image_size = (m_ref.width, m_ref.height)

    kept_pairs = []
    candidate_lists = []
    inlier_sets = []
    for index, (ref_id, cur_id) in enumerate(pairs):
        mask = (labels_ref == ref_id) & (labels_cur == cur_id)
        if int(mask.sum()) < max(cfg.min_pair_correspondences, 4):
            continue
        subset = c.subset(mask)
        try:
            h, inliers = estimate_homography_ransac(
                subset,
                intr,
                threshold_px=cfg.ransac_threshold_px,
                max_iters=cfg.ransac_max_iters,
                seed=cfg.seed + index,
            )
            inlier_set = subset.subset(inliers)
            candidates = decompose_homography_candidates(
                h, intr, inlier_set, image_size=image_size
            )
        except (DegenerateModelError, CheiralityError, InsufficientDataError):
            continue
        kept_pairs.append((ref_id, cur_id))
        candidate_lists.append(tuple(candidates))
        inlier_sets.append(inlier_set)
    if not candidate_lists:
        raise EstimationFailureError(
            "no plane pair with enough consistent correspondences"
        )
    return PlaneCandidates(
        plane_pairs=tuple(kept_pairs),
        candidates=tuple(candidate_lists),
        inliers=tuple(inlier_sets),
        inlier_track_ids=np.unique(np.concatenate([s.track_id for s in inlier_sets])),
    )


def reselect_candidates(evidence: PlaneCandidates, chooser) -> PoseEstimate:
    """Choose one candidate per plane pair and fuse the choices.

    A plane-induced homography factors into up to two physically valid
    poses that the image data alone cannot separate.  ``chooser`` receives
    ``(candidates, inliers)``, one entry per pair, and returns the index of
    the candidate to keep for every pair: cross-plane agreement
    (:func:`_select_consistent`) or a structural prior of the loop (a
    commanded pure translation, or consistency with the recovered depth
    map).  Zero-motion picks are dropped from the fusion unless they hold
    most of the weight, in which case only the rotation is fused.
    """
    picks = chooser(evidence.candidates, evidence.inliers)
    hypotheses = [lst[int(k)] for lst, k in zip(evidence.candidates, picks)]
    kept_pairs = list(evidence.plane_pairs)
    weights = weights_from_hypotheses(hypotheses)

    zero_flags = np.array([h.zero_motion for h in hypotheses])
    zero_motion = float(weights.values[zero_flags].sum()) > 0.5
    if zero_motion:
        # Dominant zero-baseline evidence: rotation is still meaningful,
        # the direction is not.
        pose = fuse_rotation_only(hypotheses, weights)
    else:
        hypotheses = [h for h, z in zip(hypotheses, zero_flags) if not z]
        kept_pairs = [p for p, z in zip(kept_pairs, zero_flags) if not z]
        weights = weights_from_hypotheses(hypotheses)
        pose = fuse_poses(hypotheses, weights)
    return PoseEstimate(
        pose=pose,
        zero_motion=zero_motion,
        hypotheses=tuple(hypotheses),
        weights=weights,
        plane_pairs=tuple(kept_pairs),
        inlier_track_ids=evidence.inlier_track_ids,
    )


def fuse_rotation_only(hypotheses, weights: FusionWeights) -> DirectionalPose:
    """Chordal-mean rotation with a placeholder direction (zero motion)."""
    return DirectionalPose(
        _chordal_mean(hypotheses, weights.values), np.array([0.0, 0.0, 1.0])
    )
