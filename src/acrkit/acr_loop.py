"""Iterative camera relocalization.

The loop estimates the scale-free relative pose between the reference and
the current view, recovers the metric motion scale through the linear
system seeded by one known physical translation, commands the corrective
hand motion (hand-eye pose treated as identity), and repeats until both
the remaining scale and the rotation residual drop below their thresholds.

The hardware seam is the :class:`MotionExecutor` protocol: anything that
can execute a hand-frame pose command and return a fresh observation
against the reference can drive the loop.  The simulated executor lives in
:mod:`acrkit.simulator`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import (
    AcrError,
    AmbiguousNullspaceError,
    CheiralityError,
    EstimationFailureError,
    InvalidInputError,
)
from .fusion import I2peConfig, PoseEstimate, i2pe, reselect_candidates
from .geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    rotation_angle,
)
from .plane_match import PlaneSegmentMap
from .pose_estimation import (
    CorrespondenceSet,
    estimate_epipolar,
    join_on_tracks,
)
from .scale_solver import (
    MIN_SYSTEM_POINTS,
    SparseDepthMap,
    depth_map_current,
    depth_map_reference,
    init_scale,
    iteration_scale,
    solve_scale_system,
)


@dataclass(frozen=True, eq=False)
class ObservationTruth:
    """Simulator-only ground truth carried alongside an observation.

    ``relative_pose`` maps reference-camera coordinates into current-camera
    coordinates (identity once relocalization is perfect).  ``clean_a`` and
    ``clean_b`` are the noise-free pixel positions of the observed tracks.
    """

    relative_pose: Pose
    clean_a: np.ndarray
    clean_b: np.ndarray


@dataclass(frozen=True, eq=False)
class Observation:
    """One view of the scene paired against the reference view."""

    correspondences: CorrespondenceSet
    mask_ref: PlaneSegmentMap
    mask_cur: PlaneSegmentMap
    truth: ObservationTruth = None


@runtime_checkable
class MotionExecutor(Protocol):
    """Hardware abstraction: commanded hand motions and observations.

    ``execute`` applies a hand-frame pose command through the (hidden)
    hand-eye pose and returns a new observation; ``observe`` returns one
    without moving.  Implementations must expose the camera intrinsics and
    image size used for the observations.
    """

    intrinsics: Intrinsics
    image_size: tuple

    def observe(self) -> Observation: ...

    def execute(self, command: Pose) -> Observation: ...


@dataclass(frozen=True)
class AcrConfig:
    """Loop thresholds and the initialization translation.

    The defaults stop once the estimated remaining motion is below one
    millimeter and 0.02 degrees, comfortably under the 0.1 degree level at
    which pose misalignment starts to corrupt downstream change detection.
    """

    scale_epsilon: float = 1e-3  # meters
    rotation_epsilon: float = 0.02  # degrees
    max_iterations: int = 30
    init_translation: tuple = (0.0, 0.0, 0.05)  # meters, hand frame
    i2pe: I2peConfig = field(default_factory=I2peConfig)
    epipolar_threshold_px: float = 1.0
    epipolar_max_iters: int = 2000
    parallax_min_deg: float = 0.1
    min_scale_points: int = 8
    max_scale_points: int = 512

    def __post_init__(self):
        if self.scale_epsilon <= 0 or self.rotation_epsilon <= 0:
            raise InvalidInputError("epsilons must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        # The init move anchors the metric scale, so it must be a real move.
        try:
            t = np.asarray(self.init_translation, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("init_translation must be three numbers") from exc
        if t.shape != (3,) or not np.all(np.isfinite(t)) or not np.linalg.norm(t) > 0:
            raise InvalidInputError("init_translation must be a finite, nonzero 3-vector")
        if self.min_scale_points < MIN_SYSTEM_POINTS:
            raise InvalidInputError(
                f"min_scale_points must be at least {MIN_SYSTEM_POINTS}"
            )
        if self.max_scale_points < self.min_scale_points:
            raise InvalidInputError("max_scale_points must be at least min_scale_points")


@dataclass(frozen=True, eq=False)
class AcrRecord:
    """One row of the relocalization trace."""

    index: int
    stage: str  # "init" or "iter"
    scale_m: float = None
    estimate: DirectionalPose = None
    command: Pose = None
    rot_err_deg: float = None
    trans_err_m: float = None
    zero_motion: bool = False

    def to_json_dict(self) -> dict:
        return {
            "iter": self.index,
            "stage": self.stage,
            "S_i_m": self.scale_m,
            "rot_err_deg": self.rot_err_deg,
            "trans_err_m": self.trans_err_m,
            "zero_motion": self.zero_motion,
        }


@dataclass(frozen=True, eq=False)
class AcrTrace:
    """Per-iteration records plus the terminal status."""

    records: tuple
    status: str  # "converged", "exhausted" or "failed"
    failure: str = None

    @property
    def iterations(self) -> int:
        """Number of main-loop passes (the init translation not included)."""
        return sum(1 for r in self.records if r.stage == "iter")

    @property
    def final(self) -> AcrRecord:
        return self.records[-1]

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            doc = r.to_json_dict()
            doc["status"] = self.status if r is self.records[-1] else "running"
            lines.append(json.dumps(doc))
        return "\n".join(lines) + "\n"

    def save_jsonl(self, path) -> None:
        Path(path).write_text(self.to_jsonl())


def hand_motion_from_estimate(est: DirectionalPose, scale: float) -> Pose:
    """Corrective hand motion for an estimated relative camera pose.

    With the hand-eye pose guessed as identity, the command is the exact
    inverse of the metric estimate: rotation transposed and translation
    ``-R^-1 (scale * direction)``.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    r_inv = est.rotation.matrix.T
    return Pose(Rotation(r_inv), -(r_inv @ (est.direction * float(scale))))


def _truth_errors(obs: Observation):
    if obs.truth is None:
        return None, None
    pose = obs.truth.relative_pose
    return (
        rotation_angle(pose.rotation),
        float(np.linalg.norm(pose.translation)),
    )


def _depth_pairs(
    c: CorrespondenceSet, estimate: PoseEstimate, depth_map: SparseDepthMap = None
) -> CorrespondenceSet:
    """The pairs of ``c`` on ``estimate``'s inlier tracks that carry a metric
    depth in ``depth_map`` (every inlier pair without one), in ``c``'s order:
    the scale solve subsamples an oversized set by index."""
    keep = np.isin(c.track_id, estimate.inlier_track_ids)
    if depth_map is not None:
        keep &= depth_map.known(c.track_id)
    return c.subset(keep)


def _solve_scale(
    c: CorrespondenceSet,
    intr: Intrinsics,
    pose: DirectionalPose,
    cfg: AcrConfig,
    seed: int,
):
    """The scale system of ``c`` under ``pose`` with the configured point
    limits; ``seed`` fixes the subsample of an oversized set."""
    return solve_scale_system(
        c,
        intr,
        pose,
        max_points=cfg.max_scale_points,
        min_points=cfg.min_scale_points,
        subsample_seed=seed,
    )


def _pure_translation_chooser(index, candidates, inliers):
    """Candidate prior for the initialization pair.

    The init motion is a commanded pure translation, and conjugation by
    the hidden hand-eye pose preserves that, so the physically right
    factorization is the one with the smallest rotation.
    """
    angles = [rotation_angle(c.pose.rotation) for c in candidates]
    return int(np.argmin(angles))


def _depth_profile_chooser(intr: Intrinsics, depth_map, side: str, cfg: AcrConfig):
    """Candidate prior from already-recovered metric structure.

    Both factorizations of a plane homography explain the pixels equally
    well but imply different plane orientations, hence different depth
    profiles over the correspondences.  The recovered sparse depth map
    breaks the tie: solve the scale system under each candidate pose and
    keep the candidate whose depth-ratio profile is most parallel to the
    known depths.  ``side`` names the image ("a" or "b") the depth map
    belongs to.
    """

    def chooser(index, candidates, inliers):
        usable = depth_map.known(inliers.track_id)
        if int(usable.sum()) < cfg.min_scale_points:
            return None
        subset = inliers.subset(usable)
        best = None
        best_score = np.inf
        for k, cand in enumerate(candidates):
            if cand.zero_motion:
                continue
            try:
                sol = _solve_scale(subset, intr, cand.pose, cfg, cfg.i2pe.seed)
            except AcrError:
                continue
            reference = depth_map.lookup(sol.track_id)
            reference = reference / np.linalg.norm(reference)
            profile = sol.d_a if side == "a" else sol.d_b
            profile = profile / np.linalg.norm(profile)
            score = 1.0 - float(profile @ reference)
            if score < best_score:
                best_score = score
                best = k
        return best

    return chooser


def run_acr(executor: MotionExecutor, cfg: AcrConfig = None) -> AcrTrace:
    """Scale-computing relocalization loop.

    Executes the known init translation once to anchor the metric scale,
    then alternates plane-mediated pose estimation, scale recovery, and the
    corrective motion until the estimated remaining scale and rotation fall
    below the thresholds.  Any estimation error ends the trace with status
    ``failed`` at that point.
    """
    cfg = cfg or AcrConfig()
    records = []
    intr = executor.intrinsics
    try:
        obs0 = executor.observe()

        # Initialization: known pure hand translation anchors the scale.
        t_init = np.asarray(cfg.init_translation, dtype=float)
        init_cmd = Pose(Rotation.identity(), t_init)
        obs_init = executor.execute(init_cmd)
        rot0, trans0 = _truth_errors(obs_init)

        pair_0i = join_on_tracks(obs0.correspondences, obs_init.correspondences)
        est_0i = i2pe(pair_0i, obs0.mask_cur, obs_init.mask_cur, intr, cfg.i2pe)
        est_0i = reselect_candidates(est_0i, _pure_translation_chooser)
        if est_0i.zero_motion:
            raise EstimationFailureError("init translation produced no parallax")
        s_init = init_scale(t_init, est_0i.pose)
        sol_init = _solve_scale(
            _depth_pairs(pair_0i, est_0i), intr, est_0i.pose, cfg, cfg.i2pe.seed
        )
        d_current = depth_map_current(sol_init, s_init)

        est_r0 = i2pe(
            obs0.correspondences, obs0.mask_ref, obs0.mask_cur, intr, cfg.i2pe
        )
        # The current image is the B side of the (reference, current) pair.
        est_r0 = reselect_candidates(
            est_r0, _depth_profile_chooser(intr, d_current, "b", cfg)
        )
        if est_r0.zero_motion:
            # Already at the reference up to parallax; reuse current depths
            # as reference depths.
            d_ref = d_current
        else:
            pair_r0 = _depth_pairs(obs0.correspondences, est_r0, d_current)
            try:
                sol_r0 = _solve_scale(pair_r0, intr, est_r0.pose, cfg, cfg.i2pe.seed)
                d_ref = depth_map_reference(sol_r0, d_current)
            except AmbiguousNullspaceError:
                # Start pose so close to the reference that the pair carries
                # no scale signal; the current depths are the reference
                # depths to within the (tiny) remaining motion.
                d_ref = d_current

        records.append(
            AcrRecord(
                index=0,
                stage="init",
                scale_m=s_init,
                estimate=est_0i.pose,
                command=init_cmd,
                rot_err_deg=rot0,
                trans_err_m=trans0,
            )
        )

        obs = obs_init
        for index in range(1, cfg.max_iterations + 1):
            estimate = i2pe(
                obs.correspondences, obs.mask_ref, obs.mask_cur, intr, cfg.i2pe
            )
            estimate = reselect_candidates(
                estimate, _depth_profile_chooser(intr, d_ref, "a", cfg)
            )
            rot_err, trans_err = _truth_errors(obs)
            rot_estimated = rotation_angle(estimate.pose.rotation)

            if estimate.zero_motion:
                scale = 0.0
            else:
                pair = _depth_pairs(obs.correspondences, estimate, d_ref)
                try:
                    sol = _solve_scale(
                        pair, intr, estimate.pose, cfg, cfg.i2pe.seed + index
                    )
                    scale = iteration_scale(sol, d_ref)
                except (AmbiguousNullspaceError, CheiralityError):
                    # An unobservable or sign-inconsistent scale is the
                    # zero-baseline signature (the system degenerates as the
                    # remaining motion shrinks): correct only the rotation
                    # and re-measure after the move.
                    scale = 0.0

            converged = scale < cfg.scale_epsilon and rot_estimated < cfg.rotation_epsilon
            command = None  # a converged pass commands no move
            if not converged:
                # scale is 0 for a zero-motion estimate, whose direction is void.
                correction = estimate.pose.inverse() if not estimate.zero_motion else (
                    DirectionalPose(estimate.pose.rotation.inverse(), (0.0, 0.0, 1.0))
                )
                command = hand_motion_from_estimate(correction, scale)
            records.append(
                AcrRecord(
                    index=index,
                    stage="iter",
                    scale_m=scale,
                    estimate=estimate.pose,
                    command=command,
                    rot_err_deg=rot_err,
                    trans_err_m=trans_err,
                    zero_motion=estimate.zero_motion,
                )
            )
            if converged:
                return AcrTrace(tuple(records), "converged")
            obs = executor.execute(command)
        return AcrTrace(tuple(records), "exhausted")
    except AcrError as exc:
        return AcrTrace(tuple(records), "failed", failure=f"{exc.code}: {exc}")


def run_bisection_baseline(executor: MotionExecutor, cfg: AcrConfig = None) -> AcrTrace:
    """Scale-guessing relocalization loop (prior-strategy analogue).

    The pose comes from the unrestricted epipolar estimator on all
    correspondences; the translation scale starts at the init-translation
    norm and halves whenever the estimated direction reverses between
    consecutive iterations.  This reconstruction of the baseline follows
    its published description only loosely (the original defers details to
    its citation) and exists for iteration-count and robustness contrasts.
    """
    cfg = cfg or AcrConfig()
    records = []
    intr = executor.intrinsics
    step = float(np.linalg.norm(np.asarray(cfg.init_translation, dtype=float)))
    prev_direction = None
    # Command rotations executed since prev_direction was recorded; used to
    # express the old direction in the current camera frame.
    frame_drift = np.eye(3)
    try:
        obs = executor.observe()
        for index in range(1, cfg.max_iterations + 1):
            hyp = estimate_epipolar(
                obs.correspondences,
                intr,
                threshold_px=cfg.epipolar_threshold_px,
                max_iters=cfg.epipolar_max_iters,
                seed=cfg.i2pe.seed + index,
                parallax_min_deg=cfg.parallax_min_deg,
            )
            estimate = hyp.pose  # maps reference frame to current frame
            rot_err, trans_err = _truth_errors(obs)
            rot_estimated = rotation_angle(estimate.rotation)
            correction = estimate.inverse()

            converged = False
            if hyp.unstable_translation or step < cfg.scale_epsilon:
                scale = 0.0  # correct only the rotation
                converged = rot_estimated < cfg.rotation_epsilon
            else:
                direction = correction.direction
                if prev_direction is not None:
                    carried = frame_drift.T @ prev_direction
                    if float(direction @ carried) < 0:
                        step *= 0.5
                prev_direction = direction
                frame_drift = np.eye(3)
                scale = step
            command = None if converged else hand_motion_from_estimate(correction, scale)
            records.append(
                AcrRecord(
                    index=index,
                    stage="iter",
                    scale_m=scale,
                    estimate=estimate,
                    command=command,
                    rot_err_deg=rot_err,
                    trans_err_m=trans_err,
                    zero_motion=hyp.unstable_translation,
                )
            )
            if converged:
                return AcrTrace(tuple(records), "converged")
            frame_drift = frame_drift @ command.rotation.matrix
            obs = executor.execute(command)
        return AcrTrace(tuple(records), "exhausted")
    except AcrError as exc:
        return AcrTrace(tuple(records), "failed", failure=f"{exc.code}: {exc}")
