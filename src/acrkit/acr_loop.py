"""Iterative camera relocalization.

Both loops run on one driver, :func:`_relocalize`.  A method gives it a
``start`` and a ``step``.  ``start`` makes the method's initial moves and
returns its records so far, the first observation and the step.
``step(obs)`` returns ``(estimate, scale, zero_motion)``: the
estimated relative pose (reference camera into current camera) as a
:class:`DirectionalPose`, the metric length of the remaining translation,
and whether the estimate has no usable direction (its scale is then 0).
``start`` also returns the method's estimate of the hidden hand-eye pose
X.  The driver owns everything else: the stop test (scale below
``scale_epsilon`` and estimated rotation below ``rotation_epsilon``), the
corrective command, the ``"iter"`` :class:`AcrRecord` of each pass, and
the conversion of an :class:`AcrError` into a ``failed`` trace.  The
command is the hand motion X^-1 C X for the camera-frame motion C from
:func:`hand_motion_from_estimate` and the estimated X, so that the
executor's X M X^-1 moves the camera by C when X is right.

:func:`run_acr` is the scale-computing loop: its start executes one known
init translation to anchor metric depths, at most ``MAX_SYSTEM_POINTS`` of
them, and its step estimates the pose from matched plane regions and the
scale from one linear system.  The init move also measures the swing of
X's rotation, the part that turns the commanded translation's direction
(:func:`_hand_eye_swing`); the twist about that direction and X's offset
stay unseen and are taken as zero.
:func:`run_bisection_baseline` is the scale-guessing prior strategy: it
has no init, and its start takes X as the identity, so its commands are
exactly :func:`hand_motion_from_estimate`'s.  Its step halves a guessed
scale whenever the epipolar direction reverses.

The hardware seam is the :class:`MotionExecutor` protocol: anything that
can execute a hand-frame pose command and return a fresh observation
against the reference can drive the loop.  The simulated executor lives in
:mod:`acrkit.simulator`.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import (
    AcrError,
    AmbiguousNullspaceError,
    CheiralityError,
    EstimationFailureError,
    InvalidInputError,
)
from .fusion import PoseEstimate, i2pe, reselect_candidates
from .geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    compose,
    rodrigues,
    rotation_angle,
)
from .plane_match import PlaneSegmentMap
from .pose_estimation import (
    CorrespondenceSet,
    estimate_epipolar,
    join_on_tracks,
)
from .scale_solver import (
    MAX_SYSTEM_POINTS,
    MIN_SYSTEM_POINTS,
    SparseDepthMap,
    depth_map_current,
    depth_map_reference,
    find_tracks,
    init_scale,
    iteration_scale,
    solve_scale_system,
)

# A solve with no scale signal never ends a run, at the init or in a step.
# An unobservable or sign-inconsistent scale is the zero-baseline signature:
# the (reference, current) system degenerates as the remaining motion
# shrinks, and noise decides which of the two errors it raises.
NO_SCALE_SIGNAL = (AmbiguousNullspaceError, CheiralityError)


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


class MotionExecutor(Protocol):
    """Hardware abstraction: commanded hand motions and observations.

    ``execute`` applies a hand-frame pose command through the (hidden)
    hand-eye pose and returns a new observation; ``observe`` returns one
    without moving.  The loop assumes the same hand-eye pose for every
    command: :func:`run_acr` estimates part of it from the init move and
    conjugates every later command by that estimate.  The loop reads the
    camera intrinsics used for the observations.  The protocol is
    structural: nothing checks it at run time.
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
    # The init move's length anchors the metric scale; its direction, as
    # the camera sees it, also measures the swing of the hand-eye rotation.
    init_translation: tuple = (0.0, 0.0, 0.05)  # meters, hand frame

    def __post_init__(self):
        if not (0 < self.scale_epsilon < np.inf and 0 < self.rotation_epsilon < np.inf):
            raise InvalidInputError("epsilons must be positive and finite")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        # The init move anchors the metric scale, so it must be a real move.
        try:
            t = np.asarray(self.init_translation, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("init_translation must be three numbers") from exc
        if t.shape != (3,) or not np.all(np.isfinite(t)) or not np.linalg.norm(t) > 0:
            raise InvalidInputError("init_translation must be a finite, nonzero 3-vector")


@dataclass(frozen=True, eq=False)
class AcrRecord:
    """One row of the relocalization trace.

    ``hand_eye_swing_deg`` is the angle of the hand-eye rotation's swing
    that the init move measured; only the ``"init"`` record carries it.
    """

    index: int
    stage: str  # "init" or "iter"
    scale_m: float
    estimate: DirectionalPose
    command: Pose
    rot_err_deg: float
    trans_err_m: float
    zero_motion: bool = False
    hand_eye_swing_deg: float = None

    def to_json_dict(self) -> dict:
        doc = {
            "iter": self.index,
            "stage": self.stage,
            "S_i_m": self.scale_m,
            "rot_err_deg": self.rot_err_deg,
            "trans_err_m": self.trans_err_m,
            "zero_motion": self.zero_motion,
        }
        if self.stage == "init":
            doc["hand_eye_swing_deg"] = self.hand_eye_swing_deg
        return doc


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
        """One JSON line per record; the last line carries the status (and
        the failure of a failed run), and a run with no records writes one
        line with only those."""
        docs = [{**r.to_json_dict(), "status": "running"} for r in self.records] or [{}]
        docs[-1]["status"] = self.status
        if self.failure is not None:
            docs[-1]["failure"] = self.failure
        return "".join(json.dumps(doc) + "\n" for doc in docs)


def hand_motion_from_estimate(est: DirectionalPose, scale: float) -> Pose:
    """Corrective motion for an estimated relative camera pose, in the
    camera frame.

    The motion is the exact inverse of the metric estimate: rotation
    transposed and translation ``-R^-1 (scale * direction)``.  It is the
    hand command when the hand-eye pose is the identity; the driver
    conjugates it by its estimate of that pose.
    """
    if not scale >= 0:  # NaN too
        raise InvalidInputError(f"scale must be non-negative, got {scale}")
    r_inv = est.rotation.matrix.T
    return Pose(Rotation(r_inv), -(r_inv @ (est.direction * float(scale))))


def _hand_eye_swing(hand_translation, camera_direction) -> Rotation:
    """The shortest-arc rotation taking the direction t of
    ``hand_translation`` onto the direction m of ``camera_direction``.

    A pure hand translation t moves the camera along R_X t, so with m
    measured for that move this is the swing of R_X in its swing-twist
    split about t.  The twist about t cannot be seen and is left out; for
    an exact m the error left, the twist alone, is never a larger rotation
    than R_X.  Rodrigues' formula about the unit axis of t x m, with sine
    |t x m| and cosine t . m.  Parallel directions give exactly the
    identity; opposite ones a half turn about a fixed axis perpendicular
    to t.
    """
    t = np.asarray(hand_translation, dtype=float)
    t = t / np.linalg.norm(t)
    m = np.asarray(camera_direction, dtype=float)
    m = m / np.linalg.norm(m)
    axis = np.cross(t, m)
    sin, cos = float(np.linalg.norm(axis)), float(t @ m)
    if sin == 0.0:
        if cos > 0.0:
            return Rotation.identity()
        axis = np.cross(t, np.eye(3)[np.argmin(np.abs(t))])
    k = axis / np.abs(axis).max()  # a tiny axis keeps its direction
    return Rotation(rodrigues(k / np.linalg.norm(k), sin, cos))


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
    the init draws its depth map's pairs by index."""
    keep = find_tracks(estimate.inlier_track_ids, c.track_id)[1]
    if depth_map is not None:
        keep &= depth_map.known(c.track_id)
    return c.subset(keep)


def _pure_translation_chooser(candidates, inliers):
    """Candidate prior for the initialization pair.

    The init motion is a commanded pure translation, and conjugation by
    the hidden hand-eye pose preserves that, so the physically right
    factorization is the one with the smallest rotation.
    """
    return [
        int(np.argmin([rotation_angle(c.pose.rotation) for c in lst]))
        for lst in candidates
    ]


def _depth_profile_chooser(intr: Intrinsics, depth_map, side: str):
    """Candidate prior from already-recovered metric structure.

    Both factorizations of a plane homography explain the pixels equally
    well but imply different plane orientations, hence different depth
    profiles over the correspondences.  The recovered sparse depth map
    breaks the tie: solve the scale system under each candidate pose and
    keep the candidate whose depth-ratio profile is most parallel to the
    known depths.  ``side`` names the image ("a" or "b") the depth map
    belongs to.  A pair with one candidate, too few known depths or no
    solvable candidate keeps its first candidate.
    """

    def pick(candidates, inliers) -> int:
        if len(candidates) == 1:
            return 0
        usable = depth_map.known(inliers.track_id)
        if int(usable.sum()) < MIN_SYSTEM_POINTS:
            return 0
        subset = inliers.subset(usable)
        reference = depth_map.lookup(subset.track_id)
        reference = reference / np.linalg.norm(reference)
        best = 0
        best_score = np.inf
        for k, cand in enumerate(candidates):
            if cand.zero_motion:
                continue
            try:
                sol = solve_scale_system(subset, intr, cand.pose)
            except AcrError:
                continue
            profile = sol.d_a if side == "a" else sol.d_b
            profile = profile / np.linalg.norm(profile)
            score = 1.0 - float(profile @ reference)
            if score < best_score:
                best_score = score
                best = k
        return best

    def chooser(candidates, inliers):
        return [pick(lst, pair) for lst, pair in zip(candidates, inliers)]

    return chooser


def _relocalize(executor: MotionExecutor, cfg: AcrConfig, start) -> AcrTrace:
    """The loop both methods run, under the contract the module docstring
    states.  Any :class:`AcrError` ends the trace as ``failed`` with the
    records made up to that point.
    """
    records = []
    try:
        records, obs, step, hand_eye = start()
        for index in range(1, cfg.max_iterations + 1):
            estimate, scale, zero_motion = step(obs)
            converged = (
                scale < cfg.scale_epsilon
                and rotation_angle(estimate.rotation) < cfg.rotation_epsilon
            )
            command = None  # a converged pass commands no move
            if not converged:
                # scale is 0 for a zero-motion estimate, whose direction is void.
                camera = hand_motion_from_estimate(estimate.inverse(), scale)
                command = compose(compose(hand_eye.inverse(), camera), hand_eye)
            rot_err, trans_err = _truth_errors(obs)
            records.append(
                AcrRecord(
                    index, "iter", scale, estimate, command, rot_err, trans_err, zero_motion
                )
            )
            if converged:
                return AcrTrace(tuple(records), "converged")
            obs = executor.execute(command)
        return AcrTrace(tuple(records), "exhausted")
    except AcrError as exc:
        return AcrTrace(tuple(records), "failed", failure=f"{exc.code}: {exc}")


def run_acr(executor: MotionExecutor, cfg: AcrConfig = None) -> AcrTrace:
    """Scale-computing relocalization loop.

    Executes the known init translation once to anchor the metric scale,
    then alternates plane-mediated pose estimation, scale recovery, and the
    corrective motion until the estimated remaining scale and rotation fall
    below the thresholds.  Any estimation error ends the trace with status
    ``failed`` at that point.
    """
    cfg = cfg or AcrConfig()
    intr = executor.intrinsics

    def start():
        obs0 = executor.observe()

        # Initialization: known pure hand translation anchors the scale.
        t_init = np.asarray(cfg.init_translation, dtype=float)
        init_cmd = Pose(Rotation.identity(), t_init)
        obs_init = executor.execute(init_cmd)

        pair_0i = join_on_tracks(obs0.correspondences, obs_init.correspondences)
        est_0i = reselect_candidates(
            i2pe(pair_0i, obs0.mask_cur, obs_init.mask_cur, intr),
            _pure_translation_chooser,
        )
        if est_0i.zero_motion:
            raise EstimationFailureError("init translation produced no parallax")
        # The estimate maps the start camera into the init camera, so the
        # camera moved along minus its direction.
        hand_eye = Pose(_hand_eye_swing(t_init, -est_0i.pose.direction))
        s_init = init_scale(t_init, est_0i.pose)
        pair_init = _depth_pairs(pair_0i, est_0i)
        if len(pair_init) > MAX_SYSTEM_POINTS:  # a fixed draw of the depth map's tracks
            draw = np.random.default_rng(0).choice(len(pair_init), MAX_SYSTEM_POINTS, replace=False)
            pair_init = pair_init.subset(np.sort(draw))
        d_current = depth_map_current(solve_scale_system(pair_init, intr, est_0i.pose), s_init)

        # The current image is the B side of the (reference, current) pair.
        est_r0 = reselect_candidates(
            i2pe(obs0.correspondences, obs0.mask_ref, obs0.mask_cur, intr),
            _depth_profile_chooser(intr, d_current, "b"),
        )
        # A start at the reference up to parallax, or so close to it that
        # the solve finds no scale, keeps the current depths as reference
        # depths: they agree to within the (tiny) remaining motion.
        d_ref = d_current
        if not est_r0.zero_motion:
            pair_r0 = _depth_pairs(obs0.correspondences, est_r0, d_current)
            with suppress(*NO_SCALE_SIGNAL):
                sol_r0 = solve_scale_system(pair_r0, intr, est_r0.pose)
                d_ref = depth_map_reference(sol_r0, d_current)

        def step(obs):
            estimate = reselect_candidates(
                i2pe(obs.correspondences, obs.mask_ref, obs.mask_cur, intr),
                _depth_profile_chooser(intr, d_ref, "a"),
            )
            if estimate.zero_motion:
                return estimate.pose, 0.0, True
            pair = _depth_pairs(obs.correspondences, estimate, d_ref)
            try:
                sol = solve_scale_system(pair, intr, estimate.pose)
                return estimate.pose, iteration_scale(sol, d_ref), False
            except NO_SCALE_SIGNAL:
                # Correct only the rotation and re-measure after the move.
                return estimate.pose, 0.0, False

        rot0, trans0 = _truth_errors(obs_init)
        init = AcrRecord(
            0, "init", s_init, est_0i.pose, init_cmd, rot0, trans0,
            hand_eye_swing_deg=rotation_angle(hand_eye.rotation),
        )
        return [init], obs_init, step, hand_eye

    return _relocalize(executor, cfg, start)


def run_bisection_baseline(executor: MotionExecutor, cfg: AcrConfig = None) -> AcrTrace:
    """Scale-guessing relocalization loop (prior-strategy analogue).

    The pose comes from the unrestricted epipolar estimator on all
    correspondences; the translation scale starts at the init-translation
    norm and halves whenever the estimated direction reverses between
    consecutive iterations.  This reconstruction of the baseline follows
    its published description only loosely (the original defers details to
    its citation) and exists for iteration-count and robustness contrasts.
    It stops on the driver's test, so a halving that takes the step under
    ``scale_epsilon`` ends the run if the estimated rotation is inside
    ``rotation_epsilon`` too.
    """
    cfg = cfg or AcrConfig()
    step_m = float(np.linalg.norm(np.asarray(cfg.init_translation, dtype=float)))
    prev_direction = None
    # Command rotations executed since prev_direction was recorded; used to
    # express the old direction in the current camera frame.
    frame_drift = np.eye(3)
    passes = 0  # the steps taken: each seeds its epipolar RANSAC with its count

    def step(obs):
        nonlocal step_m, prev_direction, frame_drift, passes
        passes += 1
        hyp = estimate_epipolar(obs.correspondences, executor.intrinsics, seed=passes)
        estimate = hyp.pose  # maps reference frame to current frame
        scale = 0.0  # correct only the rotation
        if not (hyp.unstable_translation or step_m < cfg.scale_epsilon):
            direction = estimate.inverse().direction
            if prev_direction is not None:
                if float(direction @ (frame_drift.T @ prev_direction)) < 0:
                    step_m *= 0.5
            prev_direction, frame_drift, scale = direction, np.eye(3), step_m
        # The command inverts the estimate, so its hand rotation is this
        # matrix (the transpose of the correction's).
        frame_drift = frame_drift @ estimate.rotation.matrix
        return estimate, scale, hyp.unstable_translation

    return _relocalize(executor, cfg, lambda: ([], executor.observe(), step, Pose.identity()))
