"""Seeded end-to-end runs of the relocalization loops in the simulator."""

from __future__ import annotations

import numpy as np
import pytest

from acrkit import acr_loop, cli, fusion, simulator
from acrkit.acr_loop import AcrConfig, run_acr, run_bisection_baseline
from acrkit.errors import AmbiguousNullspaceError, InvalidInputError
from acrkit.geometry import DirectionalPose, Rotation, rotation_angle
from acrkit.pose_estimation import CorrespondenceSet, PoseHypothesis
from acrkit.scale_solver import MIN_SYSTEM_POINTS, SparseDepthMap


def _scenario(seed: int, **overrides):
    """Executor and loop config as ``acrkit simulate-acr --seed <seed>``
    builds them from the bundled default config (a clean corner scene) with
    the top-level ``overrides`` applied."""
    doc = {**cli.default_acr_config(), **overrides}
    rng = np.random.default_rng(seed)
    scene = cli._builtin_scene(doc["scene"]["builtin"], {"seed": seed})
    rig_doc = doc["rig"]
    rig = simulator.RigSpec(
        hand_eye=cli._pose_spec(rig_doc["hand_eye"], rng),
        intrinsics=cli._intrinsics_from(rig_doc["intrinsics"]),
        image_size=tuple(rig_doc["image_size"]),
    )
    executor = simulator.SimulatedExecutor(
        simulator.generate_scene(scene),
        rig,
        cli._pose_spec(doc["initial_offset"], rng),
        noise=simulator.NoiseSpec(**doc["noise"]),
        lighting=simulator.LightingProxySpec(),
        seed=seed,
    )
    return executor, cli._acr_config_from(doc["acr"])


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
        cfg = AcrConfig()
        n = cfg.min_scale_points
        inliers = CorrespondenceSet(np.zeros((n, 2)), np.zeros((n, 2)))
        thin = inliers.subset(np.arange(n) > 0)
        depth = SparseDepthMap(np.arange(n), np.ones(n))
        chooser = acr_loop._depth_profile_chooser(
            simulator.DESK_INTRINSICS, depth, "a", cfg
        )
        two = (_hyp(2.0), _hyp(-0.5))
        picks = chooser(((_hyp(1.0),), two, two), (inliers, thin, inliers))
        assert picks == [0, 0, 0]
        assert solved == [n, n]


class TestAcrConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_translation": (0.0, 0.0, 0.0)},
            {"init_translation": (0.0, float("nan"), 0.05)},
            {"init_translation": (0.0, 0.05)},
            {"init_translation": ("a", "b", "c")},
            {"min_scale_points": 7},
            {"max_scale_points": 4},
            {"min_scale_points": 20, "max_scale_points": 19},
        ],
    )
    def test_rejected_before_any_move(self, kwargs):
        with pytest.raises(InvalidInputError):
            AcrConfig(**kwargs)

    def test_limits_at_their_bounds_are_accepted(self):
        AcrConfig(min_scale_points=MIN_SYSTEM_POINTS, max_scale_points=MIN_SYSTEM_POINTS)
        AcrConfig(init_translation=(0.0, 0.0, -1e-6))


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


class TestRunAcrMatrix:
    """Seeded ``simulate-acr --seed 0`` variants, bounded on the outcome."""

    @pytest.mark.parametrize(
        "overrides, max_moves",
        [
            # Start at the reference: the reference pair is zero-motion and
            # the current depths serve as reference depths.
            ({"initial_offset": None}, 4),
            # r = 1 px matching noise on half of the points.
            ({"noise": {"magnitude_r": 1.0, "ratio_mu": 0.5}}, 10),
        ],
        ids=["zero-baseline", "noise"],
    )
    def test_converges_close_to_the_reference(self, overrides, max_moves):
        trace, executor = _run(run_acr, **overrides)
        assert trace.status == "converged", trace.failure
        assert executor.motions_executed <= max_moves
        residual = executor.true_residual
        assert rotation_angle(residual.rotation) < 0.1
        assert np.linalg.norm(residual.translation) < 2e-3

    def test_zero_baseline_reuses_the_current_depths(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("reference depths solved at the reference")

        monkeypatch.setattr(acr_loop, "depth_map_reference", unreachable)
        trace, _ = _run(run_acr, initial_offset=None)
        assert trace.status == "converged", trace.failure
