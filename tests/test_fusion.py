"""Unit tests for hypothesis weighting, pose fusion and the i2pe pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from acrkit import fusion, plane_match
from acrkit.errors import InsufficientDataError, InvalidInputError
from acrkit.fusion import (
    FusionWeights,
    I2peConfig,
    fuse_poses,
    fuse_rotation_only,
    hypothesis_weight,
    i2pe,
    reselect_candidates,
    weights_from_hypotheses,
)
from acrkit.geometry import (
    DirectionalPose,
    Pose,
    Rotation,
    direction_angle,
    rotation_angle,
)
from acrkit.plane_match import PlaneGraph, PlaneSegmentMap
from acrkit.pose_estimation import CorrespondenceSet, PoseHypothesis, point_spread
from acrkit.simulator import (
    DESK_IMAGE_SIZE,
    DESK_INTRINSICS,
    corner_scene,
    generate_scene,
    observe,
)
from conftest import random_rotation


def _hyp(rotation, direction, support=10, spread=0.5):
    return PoseHypothesis(
        pose=DirectionalPose(rotation, direction), support=support, spread=spread
    )


def _agreed(c, m_ref, m_cur, cfg=None):
    """The per-plane candidates of ``i2pe`` chosen by cross-plane agreement
    and fused, as ``acrkit estimate-pose`` does."""
    return reselect_candidates(
        i2pe(c, m_ref, m_cur, DESK_INTRINSICS, cfg), fusion._select_consistent
    )


@pytest.fixture(scope="module")
def corner_observation():
    world = generate_scene(corner_scene(seed=1))
    offset = Pose(Rotation.about_z(5.0), np.array([0.03, -0.02, 0.025]))
    obs = observe(world, offset, DESK_INTRINSICS, DESK_IMAGE_SIZE, seed=3)
    return world, offset, obs


class TestHypothesisWeight:
    def test_product(self):
        assert hypothesis_weight(_hyp(Rotation.identity(), [0, 0, 1], 100, 0.5)) == 50.0

    def test_zero_spread_kills_weight(self):
        assert hypothesis_weight(_hyp(Rotation.identity(), [0, 0, 1], 100, 0.0)) == 0.0

    def test_equal_hypotheses_equal_weights(self):
        hyps = [_hyp(Rotation.about_z(1.0), [1, 0, 0], 20, 0.3) for _ in range(3)]
        w = weights_from_hypotheses(hyps)
        np.testing.assert_allclose(w.values, [1 / 3] * 3)


class TestFusePoses:
    def test_single_hypothesis_unchanged(self):
        h = _hyp(Rotation.about_z(7.0), [0, 1, 0])
        fused = fuse_poses([h], FusionWeights([1.0]))
        np.testing.assert_allclose(fused.rotation.matrix, h.pose.rotation.matrix, atol=1e-12)
        np.testing.assert_allclose(fused.direction, h.pose.direction, atol=1e-12)

    def test_identical_hypotheses_idempotent(self):
        h = _hyp(Rotation.about_x(11.0), [0.6, 0.8, 0.0])
        fused = fuse_poses([h, h], FusionWeights([0.9, 0.1]))
        np.testing.assert_allclose(fused.rotation.matrix, h.pose.rotation.matrix, atol=1e-10)
        np.testing.assert_allclose(fused.direction, h.pose.direction, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fuse_poses([], FusionWeights([1.0]))

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(0)
        hyps = [
            _hyp(random_rotation(rng, 10.0), rng.standard_normal(3), 10, 0.5)
            for _ in range(4)
        ]
        raw = np.array([2.0, 1.0, 3.0, 0.5])
        a = fuse_poses(hyps, FusionWeights(raw))
        b = fuse_poses(hyps, FusionWeights(raw * 17.0))
        np.testing.assert_allclose(a.rotation.matrix, b.rotation.matrix, atol=1e-12)
        np.testing.assert_allclose(a.direction, b.direction, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        hyps = [
            _hyp(random_rotation(rng, 5.0), rng.standard_normal(3), 5 + i, 0.4)
            for i in range(4)
        ]
        w = np.array([1.0, 2.0, 3.0, 4.0])
        a = fuse_poses(hyps, FusionWeights(w))
        order = [2, 0, 3, 1]
        b = fuse_poses([hyps[i] for i in order], FusionWeights(w[order]))
        np.testing.assert_allclose(a.rotation.matrix, b.rotation.matrix, atol=1e-10)
        np.testing.assert_allclose(a.direction, b.direction, atol=1e-10)

    def test_monte_carlo_near_truth(self):
        # Perturbed hypotheses around a known pose: fused result beats the
        # worst input and lands close to the truth.
        rng = np.random.default_rng(7)
        truth_r = Rotation.about_z(4.0)
        truth_d = np.array([0.0, 0.6, 0.8])
        worst_gap = 0.0
        fused_gaps = []
        for _ in range(30):
            hyps = []
            for _ in range(3):
                perturb = random_rotation(rng, 0.2)
                d = truth_d + rng.normal(0, 0.003, 3)
                hyps.append(
                    _hyp(perturb.compose(truth_r), d, int(rng.integers(30, 200)), 0.5)
                )
            weights = weights_from_hypotheses(hyps)
            fused = fuse_poses(hyps, weights)
            errors = [
                rotation_angle(h.pose.rotation.compose(truth_r.inverse()))
                for h in hyps
            ]
            fused_err = rotation_angle(fused.rotation.compose(truth_r.inverse()))
            assert fused_err <= max(errors) + 1e-12
            fused_gaps.append(fused_err)
            worst_gap = max(worst_gap, fused_err)
        assert np.median(fused_gaps) < 0.1

    def test_antipodal_directions_align(self):
        # Hemisphere alignment folds the sign ambiguity of per-plane
        # directions onto the anchor, so antipodal inputs reinforce instead
        # of canceling (the ambiguous-direction guard stays defensive: with
        # normalized weights the aligned sum always keeps norm >= 1/K).
        h1 = _hyp(Rotation.identity(), [1, 0, 0], 10, 0.5)
        h2 = _hyp(Rotation.identity(), [-1, 0, 0], 10, 0.5)
        fused = fuse_poses([h1, h2], FusionWeights([0.5, 0.5]))
        assert direction_angle(fused.direction, [1, 0, 0]) < 1e-9


    def test_rotation_only_is_the_same_chordal_mean(self):
        rng = np.random.default_rng(3)
        hyps = [
            _hyp(random_rotation(rng, 20.0), rng.standard_normal(3), 5 + i, 0.4)
            for i in range(5)
        ]
        weights = FusionWeights(np.array([1.0, 4.0, 2.0, 0.5, 3.0]))
        full = fuse_poses(hyps, weights)
        only = fuse_rotation_only(hyps, weights)
        assert np.array_equal(only.rotation.matrix, full.rotation.matrix)
        assert only.direction.tolist() == [0.0, 0.0, 1.0]


def _brute_force_selection(candidate_lists) -> list:
    """Every combination's disagreements computed and summed pair by pair."""
    best, best_cost = None, np.inf
    for combo in np.ndindex(*[len(lst) for lst in candidate_lists]):
        chosen = [lst[i] for lst, i in zip(candidate_lists, combo)]
        cost = 0.0
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                cost += fusion._pairwise_disagreement(chosen[i], chosen[j])
        cost += 1e-9 * sum(combo)
        if cost < best_cost:
            best, best_cost = chosen, cost
    return best


class TestSelectConsistent:
    @staticmethod
    def _lists(seed: int, sizes):
        rng = np.random.default_rng(seed)
        truth = random_rotation(rng, 10.0)
        lists = []
        for size in sizes:
            lst = []
            for _ in range(size):
                rotation = truth.compose(random_rotation(rng, 3.0))
                lst.append(_hyp(rotation, rng.normal(size=3)))
            lists.append(lst)
        return lists

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 1, 2), (2, 2, 2, 2), (1, 2, 2, 1, 2)])
    def test_picks_what_the_pairwise_sum_picks(self, sizes):
        for seed in range(5):
            lists = self._lists(seed, sizes)
            picked = fusion._select_consistent(lists, None)
            chosen = [lst[k] for lst, k in zip(lists, picked)]
            assert [id(h) for h in chosen] == [id(h) for h in _brute_force_selection(lists)]

    def test_each_cross_plane_pair_is_compared_once(self, monkeypatch):
        lists = self._lists(0, (2, 2, 2, 2))
        calls = []
        inner = fusion._pairwise_disagreement

        def counting(a, b):
            calls.append((id(a), id(b)))
            return inner(a, b)

        monkeypatch.setattr(fusion, "_pairwise_disagreement", counting)
        fusion._select_consistent(lists, None)
        assert len(calls) == len(set(calls)) == 6 * 2 * 2


class TestI2peConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"erosion_radius": -1},
            {"edge_sigma_frac": 0.0},
            {"edge_sigma_frac": -0.1},
            {"edge_sigma_frac": float("nan")},
        ],
    )
    def test_values_the_pipeline_rejects_are_invalid_input(self, kwargs):
        with pytest.raises(InvalidInputError):
            I2peConfig(**kwargs)

    def test_zero_erosion_is_accepted(self):
        assert I2peConfig(erosion_radius=0).erosion_radius == 0


class TestI2pe:
    def test_each_map_is_eroded_and_graphed_once(self, corner_observation, monkeypatch):
        # Counting wrappers on the names a tracer patches: the module's
        # erode_mask and the static PlaneGraph.from_mask.
        _, _, obs = corner_observation
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(plane_match, "erode_mask", counting("erode", plane_match.erode_mask))
        monkeypatch.setattr(
            PlaneGraph, "from_mask", staticmethod(counting("graph", PlaneGraph.from_mask))
        )
        ref, cur = PlaneSegmentMap(obs.mask_ref.labels), PlaneSegmentMap(obs.mask_cur.labels)
        radius = I2peConfig().erosion_radius
        i2pe(obs.correspondences, ref, cur, DESK_INTRINSICS)
        expected = [("erode", ref), ("erode", cur)]
        expected += [("graph", ref.eroded(radius)), ("graph", cur.eroded(radius))]
        assert sorted(map(id, (m for _, m in calls))) == sorted(map(id, (m for _, m in expected)))
        assert sorted(name for name, _ in calls) == ["erode", "erode", "graph", "graph"]
        calls.clear()
        i2pe(obs.correspondences, ref, cur, DESK_INTRINSICS)
        assert calls == []

    def test_candidate_spread_is_its_pair_inlier_spread(self, corner_observation):
        _, _, obs = corner_observation
        evidence = i2pe(
            obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS, I2peConfig()
        )
        size = (obs.mask_ref.width, obs.mask_ref.height)
        for candidates, inliers in zip(evidence.candidates, evidence.inliers):
            for cand in candidates:
                assert cand.spread == point_spread(inliers.a, size)

    def test_zero_noise_recovery(self, corner_observation):
        world, offset, obs = corner_observation
        est = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur, I2peConfig())
        assert rotation_angle(est.pose.rotation.compose(offset.rotation.inverse())) < 1e-5
        truth_d = offset.translation / np.linalg.norm(offset.translation)
        assert direction_angle(est.pose.direction, truth_d) < 1e-4
        assert not est.zero_motion
        assert len(est.plane_pairs) == 3

    def test_contamination_blindness(self, corner_observation):
        # Adding correspondences outside every matched plane changes the
        # output bit for bit not at all.
        world, offset, obs = corner_observation
        cfg = I2peConfig()
        base = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur, cfg)
        rng = np.random.default_rng(0)
        n_junk = 150
        junk_a = np.column_stack(
            [rng.uniform(0, 40, n_junk), rng.uniform(0, 40, n_junk)]
        )  # top-left corner, outside all regions
        junk_b = rng.uniform(0, 900, size=(n_junk, 2))
        c = obs.correspondences
        contaminated = CorrespondenceSet(
            np.vstack([c.a, junk_a]),
            np.vstack([c.b, junk_b]),
            np.concatenate([c.plane_label, np.zeros(n_junk, dtype=np.int64)]),
            np.concatenate(
                [c.track_id, np.arange(n_junk) + 10_000_000]
            ),
        )
        est = _agreed(contaminated, obs.mask_ref, obs.mask_cur, cfg)
        assert np.array_equal(est.pose.rotation.matrix, base.pose.rotation.matrix)
        assert np.array_equal(est.pose.direction, base.pose.direction)

    def test_occluded_plane_still_estimates(self, corner_observation):
        # Drop one plane from the current mask entirely (H < M path).
        world, offset, obs = corner_observation
        labels = obs.mask_cur.labels.copy()
        labels[labels == 3] = 0
        m_cur = PlaneSegmentMap(labels)
        est = _agreed(obs.correspondences, obs.mask_ref, m_cur, I2peConfig())
        assert rotation_angle(est.pose.rotation.compose(offset.rotation.inverse())) < 1e-5
        assert len(est.plane_pairs) == 2

    def test_zero_motion_signal(self, corner_observation):
        world, offset, obs = corner_observation
        identity_obs = observe(
            world, Pose.identity(), DESK_INTRINSICS, DESK_IMAGE_SIZE, seed=4
        )
        est = _agreed(
            identity_obs.correspondences,
            identity_obs.mask_ref,
            identity_obs.mask_cur,
            I2peConfig(),
        )
        assert est.zero_motion
        assert rotation_angle(est.pose.rotation) < 1e-6

    def test_report_is_json_ready(self, corner_observation):
        import json

        world, offset, obs = corner_observation
        est = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur, I2peConfig())
        doc = est.report()
        json.dumps(doc)
        assert len(doc["hypotheses"]) == len(est.plane_pairs)

    def test_reselection_keeps_pairs_with_their_hypotheses(
        self, corner_observation, monkeypatch
    ):
        # The middle of the three pairs turns zero-motion, so fusion drops
        # it; fusing another choice of the same candidates must drop the
        # same pair.
        world, offset, obs = corner_observation
        decompose = fusion.decompose_homography_candidates
        calls = []

        def middle_pair_zero_motion(*args, **kwargs):
            calls.append(args)
            candidates = decompose(*args, **kwargs)
            if len(calls) == 2:
                candidates = [replace(c, zero_motion=True) for c in candidates]
            return candidates

        monkeypatch.setattr(
            fusion, "decompose_homography_candidates", middle_pair_zero_motion
        )
        evidence = i2pe(
            obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS, I2peConfig()
        )
        assert len(evidence.plane_pairs) == len(evidence.candidates) == 3
        est = reselect_candidates(evidence, fusion._select_consistent)
        assert not est.zero_motion and len(calls) == 3
        assert len(est.plane_pairs) == len(est.hypotheses) == 2
        again = reselect_candidates(evidence, lambda candidates, inliers: [0] * len(candidates))
        assert again.plane_pairs == est.plane_pairs
        assert len(again.report()["hypotheses"]) == len(again.hypotheses) == 2
