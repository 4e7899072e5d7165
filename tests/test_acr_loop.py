"""Seeded end-to-end runs of the relocalization loops in the simulator."""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit import acr_loop, cli, fusion, plane_match, simulator
from acrkit.acr_loop import (
    AcrConfig,
    AcrRecord,
    AcrTrace,
    Observation,
    run_acr,
    run_bisection_baseline,
)
from acrkit.errors import AmbiguousNullspaceError, InvalidInputError
from acrkit.geometry import DirectionalPose, Pose, Rotation, compose, rotation_angle
from acrkit.pose_estimation import CorrespondenceSet, PoseHypothesis
from acrkit.scale_solver import MAX_SYSTEM_POINTS, MIN_SYSTEM_POINTS, SparseDepthMap


def _scenario(seed: int, **overrides):
    """Executor and loop config as ``acrkit simulate-acr --seed <seed>``
    builds them from the bundled default config (a clean corner scene) with
    the top-level ``overrides`` applied."""
    cfg = cli._config({**cli.default_acr_config(), **overrides}, cli.ACR_KEYS, seed=seed)
    return cli._executor(cfg), cfg["acr"]


def _run(runner, seed: int = 0, **overrides):
    executor, cfg = _scenario(seed, **overrides)
    return runner(executor, cfg), executor


@pytest.fixture(scope="module")
def acr_run():
    return _run(run_acr)


def _signature(trace):
    return [
        (
            r.stage,
            r.scale_m,
            None if r.command is None else r.command.rotation.matrix.tobytes(),
            None if r.command is None else np.asarray(r.command.translation).tobytes(),
        )
        for r in trace.records
    ] + [trace.status]


class TestRunAcr:
    def test_converges_within_four_moves(self, acr_run):
        trace, executor = acr_run
        assert trace.status == "converged", trace.failure
        assert executor.motions_executed <= 4

    def test_final_residual_is_tight(self, acr_run):
        _, executor = acr_run
        residual = executor.true_residual
        assert rotation_angle(residual.rotation) < 0.1
        assert np.linalg.norm(residual.translation) < 2e-3

    def test_init_solve_takes_a_fixed_draw_of_the_depth_map_cap(self, monkeypatch):
        # The clean corner's init pair has more depth pairs than the cap:
        # its solve gets the sorted draw of default_rng(0) from them, and
        # every later solve keys on that depth map, so it gets no more.
        pairs, solved = [], []
        depth_pairs, solve = acr_loop._depth_pairs, acr_loop.solve_scale_system
        monkeypatch.setattr(
            acr_loop, "_depth_pairs", lambda *args: pairs.append(depth_pairs(*args)) or pairs[-1]
        )
        monkeypatch.setattr(
            acr_loop, "solve_scale_system", lambda c, *args: solved.append(c) or solve(c, *args)
        )
        trace, _ = _run(run_acr)
        assert trace.status == "converged"
        n = len(pairs[0])
        assert n > MAX_SYSTEM_POINTS
        draw = np.sort(np.random.default_rng(0).choice(n, MAX_SYSTEM_POINTS, replace=False))
        np.testing.assert_array_equal(solved[0].track_id, pairs[0].track_id[draw])
        np.testing.assert_array_equal(solved[0].a, pairs[0].a[draw])
        assert max(len(c) for c in solved[1:]) <= MAX_SYSTEM_POINTS

    def test_rerun_gives_identical_trace(self, acr_run):
        trace, _ = acr_run
        again, _ = _run(run_acr)
        assert _signature(again) == _signature(trace)

    def test_loop_never_chooses_by_agreement(self, acr_run, monkeypatch):
        # The loop's choosers are its structural priors; the agreement
        # chooser belongs to estimate-pose.
        def unreachable(*args):
            raise AssertionError("the loop chose candidates by cross-plane agreement")

        monkeypatch.setattr(fusion, "_select_consistent", unreachable)
        trace, _ = _run(run_acr)
        assert trace.status == "converged", trace.failure
        assert _signature(trace) == _signature(acr_run[0])

    def test_masks_stay_row_runs_from_render_to_match(self, acr_run, monkeypatch):
        # No full-frame label array is built: none is read from a map, and
        # no map extracts its runs from one.
        def unreachable(*args):
            raise AssertionError("the loop built a full-frame label array")

        monkeypatch.setattr(plane_match.PlaneSegmentMap, "labels", property(unreachable))
        monkeypatch.setattr(plane_match, "_row_runs", unreachable)
        trace, _ = _run(run_acr)
        assert trace.status == "converged", trace.failure
        assert _signature(trace) == _signature(acr_run[0])


def _hyp(angle_deg):
    return PoseHypothesis(
        pose=DirectionalPose(Rotation.about_z(angle_deg), [0.0, 0.0, 1.0]), support=10
    )


class TestChoosers:
    def test_pure_translation_keeps_the_smallest_rotation(self):
        candidates = ((_hyp(2.0), _hyp(-0.5)), (_hyp(1.0),))
        assert acr_loop._pure_translation_chooser(candidates, (None, None)) == [1, 0]

    def test_depth_profile_solves_only_ambiguous_pairs_with_known_depths(self, monkeypatch):
        # Every solve fails here, so each pair keeps its first candidate;
        # only the two-candidate pair with enough known depths is solved.
        solved = []

        def failing_solve(c, intr, pose, **kwargs):
            solved.append(len(c))
            raise AmbiguousNullspaceError("no scale signal")

        monkeypatch.setattr(acr_loop, "solve_scale_system", failing_solve)
        n = MIN_SYSTEM_POINTS
        inliers = CorrespondenceSet(np.zeros((n, 2)), np.zeros((n, 2)))
        thin = inliers.subset(np.arange(n) > 0)
        depth = SparseDepthMap(np.arange(n), np.ones(n))
        chooser = acr_loop._depth_profile_chooser(simulator.DESK_INTRINSICS, depth, "a")
        two = (_hyp(2.0), _hyp(-0.5))
        picks = chooser(((_hyp(1.0),), two, two), (inliers, thin, inliers))
        assert picks == [0, 0, 0]
        assert solved == [n, n]

    def test_depth_profile_skips_a_zero_motion_candidate(self, monkeypatch):
        # A zero-motion candidate has no direction to solve the scale for:
        # only the other candidate is solved, and it is kept.
        solved = []

        def solve(c, intr, pose, **kwargs):
            solved.append(pose)
            return SimpleNamespace(track_id=c.track_id, d_a=np.ones(len(c)), d_b=np.ones(len(c)))

        monkeypatch.setattr(acr_loop, "solve_scale_system", solve)
        n = MIN_SYSTEM_POINTS
        inliers = CorrespondenceSet(np.zeros((n, 2)), np.zeros((n, 2)))
        depth = SparseDepthMap(np.arange(n), np.ones(n))
        chooser = acr_loop._depth_profile_chooser(simulator.DESK_INTRINSICS, depth, "a")
        still, moving = replace(_hyp(2.0), zero_motion=True), _hyp(-0.5)
        assert chooser(((still, moving),), (inliers,)) == [1]
        assert solved == [moving.pose]


class TestAcrConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_translation": (0.0, 0.0, 0.0)},
            {"init_translation": (0.0, float("nan"), 0.05)},
            {"init_translation": (0.0, 0.05)},
            {"init_translation": ("a", "b", "c")},
            {"scale_epsilon": float("nan")},
            {"rotation_epsilon": float("nan")},
            {"scale_epsilon": float("inf")},
            {"rotation_epsilon": 0.0},
            {"max_iterations": 0},
        ],
    )
    def test_rejected_before_any_move(self, kwargs):
        with pytest.raises(InvalidInputError):
            AcrConfig(**kwargs)

    def test_limits_at_their_bounds_are_accepted(self):
        AcrConfig(init_translation=(0.0, 0.0, -1e-6))


class TestHandMotion:
    @pytest.mark.parametrize("scale", [-1e-9, float("nan")])
    def test_scale_below_zero_or_nan_is_invalid_input(self, scale):
        est = DirectionalPose(Rotation.about_z(2.0), [0.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError, match="scale must be non-negative"):
            acr_loop.hand_motion_from_estimate(est, scale)


def _fixed_hand_eye(rotation: Rotation) -> dict:
    """The bundled rig with a hand-eye pose of ``rotation`` and no offset."""
    r = [float(v) for v in rotation.matrix.reshape(-1)]
    return {**cli.default_acr_config()["rig"], "hand_eye": {"r": r, "t": [0.0, 0.0, 0.0]}}


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_vectors = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
_quaternions = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 1e-3
)


def _from_quaternion(q) -> Rotation:
    """The rotation of the quaternion (w, x, y, z), not necessarily unit."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return Rotation.from_matrix(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@pytest.fixture(scope="module")
def swing_only_run():
    """``simulate-acr --seed 0`` with an 8 degree hand-eye rotation about x,
    a pure swing for the init translation along z, and no offset."""
    return _run(run_acr, rig=_fixed_hand_eye(Rotation.about_x(8.0)))


class TestHandEyeSwing:
    """The init move's estimate of the hand-eye rotation's swing."""

    def test_maps_the_hand_direction_onto_the_measured_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t, m = _unit(rng.normal(size=3)), _unit(rng.normal(size=3))
            swing = acr_loop._hand_eye_swing(t, m)
            np.testing.assert_allclose(swing.apply(t), m, atol=1e-12)
            # The shortest arc turns by no more than the angle from t to m.
            angle = np.degrees(np.arccos(np.clip(t @ m, -1.0, 1.0)))
            assert rotation_angle(swing) == pytest.approx(angle, abs=1e-9)

    # Unit (0.1, 0.2, 0.3) and (1, 1, 1) have a dot product with themselves
    # one ulp off 1, so only the explicit branch gives the exact identity.
    @pytest.mark.parametrize("t", [(0.0, 0.0, 0.05), (0.1, 0.2, 0.3), (1.0, 1.0, 1.0)])
    def test_parallel_is_exactly_the_identity(self, t):
        swing = acr_loop._hand_eye_swing(t, 2.0 * np.asarray(t))
        assert np.array_equal(swing.matrix, np.eye(3))

    @pytest.mark.parametrize("t", [(0.0, 0.0, 0.05), (0.1, 0.2, 0.3), (-2.0, 0.0, 0.0)])
    def test_antiparallel_is_a_half_turn(self, t):
        swing = acr_loop._hand_eye_swing(t, -np.asarray(t))
        np.testing.assert_allclose(swing.apply(_unit(t)), -_unit(t), atol=1e-15)
        assert rotation_angle(swing) == pytest.approx(180.0)
        np.testing.assert_allclose(swing.matrix @ swing.matrix, np.eye(3), atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(_quaternions, _vectors)
    def test_never_leaves_more_rotation_than_the_identity_guess(self, q, t):
        hand_eye = _from_quaternion(q)
        swing = acr_loop._hand_eye_swing(t, hand_eye.apply(_unit(t)))
        left = swing.inverse().compose(hand_eye)
        assert rotation_angle(left) <= rotation_angle(hand_eye) + 1e-9
        # What is left is a twist about the hand translation.
        np.testing.assert_allclose(left.apply(_unit(t)), _unit(t), atol=1e-9)

    def test_swing_only_hand_eye_converges_in_two_moves(self, swing_only_run):
        trace, executor = swing_only_run
        assert trace.status == "converged", trace.failure
        assert executor.motions_executed == 2
        residual = executor.true_residual
        assert rotation_angle(residual.rotation) < 0.1
        assert np.linalg.norm(residual.translation) < 2e-3
        init, *rest = (json.loads(line) for line in trace.to_jsonl().splitlines())
        assert init["stage"] == "init"
        assert init["hand_eye_swing_deg"] == pytest.approx(8.0, abs=1e-6)
        assert all("hand_eye_swing_deg" not in doc for doc in rest)

    def test_commands_are_conjugated_by_the_swing(self, swing_only_run):
        trace, _ = swing_only_run
        init, first = trace.records[:2]
        swing = Pose(acr_loop._hand_eye_swing(init.command.translation, -init.estimate.direction))
        camera = acr_loop.hand_motion_from_estimate(first.estimate.inverse(), first.scale_m)
        expected = compose(compose(swing.inverse(), camera), swing)
        assert np.array_equal(first.command.matrix(), expected.matrix())

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_init_measures_the_swing_within_a_degree(self, seed):
        # r = 1 px on half the points; the swing comes from the refined
        # init pair, so one step past the init is enough.
        executor, cfg = _scenario(
            seed, noise={"magnitude_r": 1.0, "ratio_mu": 0.5}, acr={"max_iterations": 1}
        )
        init = run_acr(executor, cfg).records[0]
        t = np.asarray(cfg.init_translation)
        estimated = acr_loop._hand_eye_swing(t, -init.estimate.direction)
        true = acr_loop._hand_eye_swing(t, executor._rig.hand_eye.rotation.apply(t))
        assert init.hand_eye_swing_deg == rotation_angle(estimated)
        assert rotation_angle(estimated.compose(true.inverse())) < 1.0

    def test_twist_only_hand_eye_keeps_the_identity_guess_move_count(self, monkeypatch):
        rig = _fixed_hand_eye(Rotation.about_z(8.0))
        trace, executor = _run(run_acr, rig=rig)
        assert trace.status == "converged", trace.failure
        assert trace.records[0].hand_eye_swing_deg < 1e-6
        monkeypatch.setattr(acr_loop, "_hand_eye_swing", lambda t, m: Rotation.identity())
        guess_trace, guess = _run(run_acr, rig=rig)
        assert guess_trace.status == "converged", guess_trace.failure
        assert executor.motions_executed == guess.motions_executed

    def test_baseline_commands_are_not_conjugated(self):
        trace, executor = _run(
            run_bisection_baseline, rig=_fixed_hand_eye(Rotation.about_x(8.0))
        )
        assert trace.status in ("converged", "exhausted"), trace.failure
        moves = [r for r in trace.records if r.command is not None]
        assert len(moves) == executor.motions_executed
        for r in moves:
            correction = (
                DirectionalPose(r.estimate.rotation.inverse(), (0.0, 0.0, 1.0))
                if r.zero_motion
                else r.estimate.inverse()
            )
            expected = acr_loop.hand_motion_from_estimate(correction, r.scale_m)
            assert np.array_equal(r.command.matrix(), expected.matrix())
        lines = trace.to_jsonl().splitlines()
        assert all("hand_eye_swing_deg" not in json.loads(line) for line in lines)


class TestBisectionBaseline:
    def test_ends_without_failure(self):
        trace, _ = _run(run_bisection_baseline)
        assert trace.status in ("converged", "exhausted"), trace.failure

    def test_rotation_only_moves_record_zero_scale(self):
        # Under noise the seed-0 run finds the translation unstable on its
        # first passes and commands rotation-only moves there.
        trace, _ = _run(run_bisection_baseline, noise={"magnitude_r": 1.0, "ratio_mu": 0.5})
        moves = [r for r in trace.records if r.command is not None]
        rotation_only = [r for r in moves if not np.any(r.command.translation)]
        assert rotation_only, "no pass reached the rotation-only branch"
        assert all(r.scale_m == 0.0 for r in rotation_only)
        for r in moves:
            assert np.linalg.norm(r.command.translation) == pytest.approx(r.scale_m)


# perfbench's matching noise, r = 1 px on half of the points; a lighting
# change; and the mural scene seen by its own rig.
_NOISY = {"magnitude_r": 1.0, "ratio_mu": 0.5}
_LIT = {
    "off_plane_outlier_fraction": 0.5,
    "in_plane_outlier_fraction": 0.3,
    "dropout_fraction": 0.2,
}
_MURAL = {
    "scene": {"builtin": "mural"},
    "rig": {
        **cli.default_acr_config()["rig"],
        "intrinsics": asdict(simulator.MURAL_INTRINSICS),
        "image_size": list(simulator.MURAL_IMAGE_SIZE),
    },
}


class TestRunAcrMatrix:
    """Seeded ``simulate-acr --seed 0`` variants, bounded on the outcome."""

    @pytest.mark.parametrize(
        "overrides, max_moves",
        [
            # Start at the reference: the reference pair is zero-motion and
            # the current depths serve as reference depths.
            ({"initial_offset": None}, 4),
            # r = 1 px matching noise on half of the points.
            ({"noise": _NOISY}, 10),
            # The paper's regimes, measured at 2, 2, 4, 3 and 3 moves.
            (_MURAL, 4),
            ({**_MURAL, "noise": _NOISY}, 6),
            ({**_MURAL, "noise": _NOISY, "lighting": _LIT}, 8),
            ({"noise": _NOISY, "lighting": _LIT}, 8),
            (
                {
                    "noise": _NOISY,
                    "lighting": _LIT,
                    "initial_offset": {"random": {"max_rotation_deg": 3.0, "max_offset_m": 0.0}},
                },
                8,
            ),
        ],
        ids=[
            "zero-baseline",
            "noise",
            "mural-clean",
            "mural-noisy",
            "mural-lit-noisy",
            "corner-lit-noisy",
            "pure-rotation-lit-noisy",
        ],
    )
    def test_converges_close_to_the_reference(self, overrides, max_moves):
        trace, executor = _run(run_acr, **overrides)
        assert trace.status == "converged", trace.failure
        assert executor.motions_executed <= max_moves
        residual = executor.true_residual
        assert rotation_angle(residual.rotation) < 0.1
        assert np.linalg.norm(residual.translation) < 2e-3

    @pytest.mark.parametrize(
        "seed, max_rotation_deg, max_offset_m",
        [(0, 3.0, 0.0), (4, 0.5, 0.005)],
        ids=["pure-rotation", "near-start"],
    )
    def test_noisy_start_near_the_reference_converges(self, seed, max_rotation_deg, max_offset_m):
        # Noise at a near-zero baseline makes the (reference, start) scale
        # solve raise CheiralityError; the init keeps the current depths.
        trace, executor = _run(
            run_acr,
            seed,
            noise={"magnitude_r": 1.0, "ratio_mu": 0.5},
            initial_offset={
                "random": {"max_rotation_deg": max_rotation_deg, "max_offset_m": max_offset_m}
            },
        )
        assert trace.status == "converged", trace.failure
        residual = executor.true_residual
        assert rotation_angle(residual.rotation) < 0.1
        assert np.linalg.norm(residual.translation) < 2e-3

    def test_zero_baseline_reuses_the_current_depths(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("reference depths solved at the reference")

        monkeypatch.setattr(acr_loop, "depth_map_reference", unreachable)
        trace, _ = _run(run_acr, initial_offset=None)
        assert trace.status == "converged", trace.failure


class TestTerminalStates:
    """How each loop ends: exhausted, failed, and one command per move."""

    def test_one_iteration_is_exhausted(self):
        trace, executor = _run(run_acr, acr={"max_iterations": 1})
        assert trace.status == "exhausted" and trace.failure is None
        assert [r.stage for r in trace.records] == ["init", "iter"]
        assert executor.motions_executed == 2
        trace, executor = _run(run_bisection_baseline, acr={"max_iterations": 1})
        assert trace.status == "exhausted" and trace.failure is None
        assert [r.stage for r in trace.records] == ["iter"]
        assert executor.motions_executed == 1

    def test_init_without_parallax_fails_before_any_record(self):
        trace, executor = _run(run_acr, acr={"init_translation": [0.0, 0.0, 1e-9]})
        assert trace.status == "failed"
        assert trace.failure.startswith("estimation-failure")
        assert trace.records == ()
        assert executor.motions_executed == 1

    @pytest.mark.parametrize("runner, init_moves", [(run_acr, 1), (run_bisection_baseline, 0)])
    def test_one_command_per_corrective_move(self, runner, init_moves, monkeypatch):
        calls = []

        def spy(est, scale):
            calls.append(scale)
            return hand_motion(est, scale)

        hand_motion = acr_loop.hand_motion_from_estimate
        monkeypatch.setattr(acr_loop, "hand_motion_from_estimate", spy)
        trace, executor = _run(runner)
        assert trace.status == "converged", trace.failure
        assert len(calls) == executor.motions_executed - init_moves
        moves = [r for r in trace.records if r.stage == "iter" and r.command is not None]
        assert calls == [r.scale_m for r in moves]

    def test_failure_is_on_the_last_trace_line(self):
        records = tuple(AcrRecord(i, stage, *[None] * 5) for i, stage in enumerate(("init", "iter")))
        trace = AcrTrace(records, "failed", "x: y")
        first, last = (json.loads(line) for line in trace.to_jsonl().splitlines())
        assert first["status"] == "running" and "failure" not in first
        assert last["status"] == "failed" and last["failure"] == "x: y"
        empty = AcrTrace((), "failed", "x: y").to_jsonl()
        assert [json.loads(line) for line in empty.splitlines()] == [
            {"status": "failed", "failure": "x: y"}
        ]


class _StillExecutor:
    """An executor whose view never changes; it keeps every command."""

    intrinsics = simulator.DESK_INTRINSICS
    image_size = simulator.DESK_IMAGE_SIZE

    def __init__(self):
        self.commands = []

    def observe(self):
        return Observation(CorrespondenceSet(np.zeros((1, 2)), np.zeros((1, 2))), None, None)

    def execute(self, command):
        self.commands.append(command)
        return self.observe()


def test_zero_motion_step_commands_its_rotation_alone(monkeypatch):
    # A step without a usable direction reports scale 0, so the one
    # command rule leaves the rotation that inverts the estimate and no
    # translation, whatever the void direction holds.
    rotation = Rotation.from_axis_angle((1.0, 2.0, 3.0), 2.0)

    def no_parallax(c, intr, seed, **kwargs):
        pose = DirectionalPose(rotation, (0.3, -0.2, 0.9))
        return PoseHypothesis(pose=pose, support=8, unstable_translation=True)

    monkeypatch.setattr(acr_loop, "estimate_epipolar", no_parallax)
    executor = _StillExecutor()
    trace = run_bisection_baseline(executor, AcrConfig(max_iterations=1))
    assert trace.status == "exhausted"
    (record,) = trace.records
    assert record.zero_motion and record.scale_m == 0.0
    (command,) = executor.commands
    assert np.array_equal(command.rotation.matrix, rotation.matrix)
    assert not np.any(command.translation)


def test_baseline_stops_once_its_halved_step_is_inside_scale_epsilon(monkeypatch):
    # Each pass reverses the estimated direction with no rotation left, so
    # the guessed step halves from 50 mm on every pass after the first.
    # The seventh pass halves it to 0.78 mm, under the 1 mm scale_epsilon,
    # and the driver's one stop test ends the run there without a move.
    def reversing(c, intr, seed, **kwargs):
        direction = [0.0, 0.0, 1.0 if seed % 2 else -1.0]
        return PoseHypothesis(pose=DirectionalPose(Rotation.identity(), direction), support=8)

    monkeypatch.setattr(acr_loop, "estimate_epipolar", reversing)
    executor = _StillExecutor()
    trace = run_bisection_baseline(executor, AcrConfig())
    assert trace.status == "converged"
    assert [r.scale_m for r in trace.records] == [0.05 / 2**k for k in range(7)]
    assert len(executor.commands) == 6
    assert trace.final.command is None
