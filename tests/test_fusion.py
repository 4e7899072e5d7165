"""Unit tests for the plane-pair weights, pose fusion and the i2pe pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from acrkit import fusion, plane_match
from acrkit.fusion import (
    PlaneCandidates,
    Refinement,
    i2pe,
    point_spread,
    refine_pose,
    reselect_candidates,
)
from acrkit.geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    direction_angle,
    rotation_angle,
)
from acrkit.plane_match import PlaneGraph, PlaneSegmentMap
from acrkit.pose_estimation import (
    CorrespondenceSet,
    PoseHypothesis,
    decompose_homography_candidates,
    estimate_homography_ransac,
)
from acrkit.simulator import DESK_INTRINSICS, corner_scene, generate_scene
from conftest import observe_world, plane_pair_set, random_rotation


def _hyp(rotation, direction, support=10):
    return PoseHypothesis(pose=DirectionalPose(rotation, direction), support=support)


def _fuse(hyps, raw):
    """The fused pose of ``hyps`` under the raw weights ``raw``."""
    return fusion._fuse(hyps, fusion._normalized(raw))


def _agreed(c, m_ref, m_cur):
    """The per-plane candidates of ``i2pe`` chosen by cross-plane agreement
    and fused, as ``acrkit estimate-pose`` does."""
    return reselect_candidates(i2pe(c, m_ref, m_cur, DESK_INTRINSICS), fusion._select_consistent)


@pytest.fixture(scope="module")
def corner_observation():
    world = generate_scene(corner_scene(seed=1))
    offset = Pose(Rotation.about_z(5.0), np.array([0.03, -0.02, 0.025]))
    obs = observe_world(world, offset, seed=3)
    return world, offset, obs


class TestHypothesisWeight:
    def test_product(self, corner_observation):
        # Each kept pair's raw weight is its consensus size times the
        # consensus's spread in the reference image, as one float product.
        _, _, obs = corner_observation
        evidence = i2pe(obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS)
        size = (obs.mask_ref.width, obs.mask_ref.height)
        assert len(evidence.weights) == len(evidence.inliers) == 3
        for weight, s, candidates in zip(evidence.weights, evidence.inliers, evidence.candidates):
            assert type(weight) is float
            assert weight == len(s) * point_spread(s.a, size)
            assert all(c.support == len(s) for c in candidates)

    def test_zero_spread_kills_weight(self):
        w = fusion._normalized([0.0, 50.0, 0.0])
        assert w.tolist() == [0.0, 1.0, 0.0]

    def test_equal_hypotheses_equal_weights(self):
        w = fusion._normalized([6.0] * 3)
        np.testing.assert_allclose(w, [1 / 3] * 3)

    def test_all_zero_weights_are_uniform_and_read_only(self):
        w = fusion._normalized(np.zeros(4))
        assert w.tolist() == [0.25] * 4
        assert not w.flags.writeable
        assert not fusion._normalized([1.0, 3.0]).flags.writeable


_directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)
_raw_weights = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


class TestFusePoses:
    def test_single_hypothesis_unchanged(self):
        h = _hyp(Rotation.about_z(7.0), [0, 1, 0])
        fused = _fuse([h], [1.0])
        np.testing.assert_allclose(fused.rotation.matrix, h.pose.rotation.matrix, atol=1e-12)
        np.testing.assert_allclose(fused.direction, h.pose.direction, atol=1e-12)

    def test_identical_hypotheses_idempotent(self):
        h = _hyp(Rotation.about_x(11.0), [0.6, 0.8, 0.0])
        fused = _fuse([h, h], [0.9, 0.1])
        np.testing.assert_allclose(fused.rotation.matrix, h.pose.rotation.matrix, atol=1e-10)
        np.testing.assert_allclose(fused.direction, h.pose.direction, atol=1e-12)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(0)
        hyps = [_hyp(random_rotation(rng, 10.0), rng.standard_normal(3)) for _ in range(4)]
        raw = np.array([2.0, 1.0, 3.0, 0.5])
        a = _fuse(hyps, raw)
        b = _fuse(hyps, raw * 17.0)
        np.testing.assert_allclose(a.rotation.matrix, b.rotation.matrix, atol=1e-12)
        np.testing.assert_allclose(a.direction, b.direction, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        hyps = [_hyp(random_rotation(rng, 5.0), rng.standard_normal(3), 5 + i) for i in range(4)]
        w = np.array([1.0, 2.0, 3.0, 4.0])
        a = _fuse(hyps, w)
        order = [2, 0, 3, 1]
        b = _fuse([hyps[i] for i in order], w[order])
        np.testing.assert_allclose(a.rotation.matrix, b.rotation.matrix, atol=1e-10)
        np.testing.assert_allclose(a.direction, b.direction, atol=1e-10)

    def test_monte_carlo_near_truth(self):
        # Perturbed hypotheses around a known pose: fused result beats the
        # worst input and lands close to the truth.
        rng = np.random.default_rng(7)
        truth_r = Rotation.about_z(4.0)
        truth_d = np.array([0.0, 0.6, 0.8])
        fused_gaps = []
        for _ in range(30):
            hyps = []
            for _ in range(3):
                perturb = random_rotation(rng, 0.2)
                d = truth_d + rng.normal(0, 0.003, 3)
                hyps.append(_hyp(perturb.compose(truth_r), d, int(rng.integers(30, 200))))
            fused = _fuse(hyps, [0.5 * h.support for h in hyps])
            errors = [
                rotation_angle(h.pose.rotation.compose(truth_r.inverse()))
                for h in hyps
            ]
            fused_err = rotation_angle(fused.rotation.compose(truth_r.inverse()))
            assert fused_err <= max(errors) + 1e-12
            fused_gaps.append(fused_err)
        assert np.median(fused_gaps) < 0.1

    def test_antipodal_directions_align(self):
        # Hemisphere alignment folds the sign ambiguity of per-plane
        # directions onto the anchor, so antipodal inputs reinforce instead
        # of canceling.
        h1 = _hyp(Rotation.identity(), [1, 0, 0])
        h2 = _hyp(Rotation.identity(), [-1, 0, 0])
        fused = _fuse([h1, h2], [0.5, 0.5])
        assert direction_angle(fused.direction, [1, 0, 0]) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.tuples(
                st.lists(_directions, min_size=k, max_size=k),
                st.lists(_raw_weights, min_size=k, max_size=k),
            )
        )
    )
    @example(([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [0.0, 0.0, 0.0]))
    @example(([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)], [2.0, 2.0]))
    def test_the_direction_sum_never_vanishes(self, case):
        # Every aligned direction has a non-negative component along the
        # anchor's, and the weights sum to 1, so the summed direction's
        # component along the anchor is at least the largest weight, at
        # least 1/K, while its norm is at most 1.  The fused direction's
        # component along the anchor keeps that bound.
        directions, raw = case
        hyps = [_hyp(Rotation.identity(), d) for d in directions]
        w = fusion._normalized(raw)
        fused = fusion._fuse(hyps, w)
        anchor = hyps[int(np.argmax(w))].pose.direction
        assert w.max() >= 1.0 / len(w)
        assert np.isfinite(fused.direction).all()
        assert float(fused.direction @ anchor) >= w.max() - 1e-12

    def test_rotation_only_is_the_same_chordal_mean(self):
        # Zero-motion picks holding most of the weight: only the rotation
        # is fused, with the moving fusion's chordal mean bit for bit.
        rng = np.random.default_rng(3)
        hyps = [
            replace(_hyp(random_rotation(rng, 20.0), rng.standard_normal(3), 5 + i), zero_motion=True)
            for i in range(5)
        ]
        raw = (1.0, 4.0, 2.0, 0.5, 3.0)
        evidence = PlaneCandidates(
            plane_pairs=tuple((k, k) for k in range(5)),
            candidates=tuple((h,) for h in hyps),
            inliers=(None,) * 5,
            weights=raw,
            inlier_track_ids=np.arange(0),
            intrinsics=DESK_INTRINSICS,
        )
        est = reselect_candidates(evidence, lambda candidates, inliers: [0] * len(candidates))
        assert est.zero_motion and est.refinement is None
        assert np.array_equal(est.weights, fusion._normalized(raw))
        full = fusion._fuse(hyps, est.weights)
        assert np.array_equal(est.pose.rotation.matrix, full.rotation.matrix)
        assert est.pose.direction.tolist() == [0.0, 0.0, 1.0]

    def test_chordal_mean_equals_scipys_weighted_mean(self):
        # scipy averages quaternions (Markley et al., 2007); its inputs
        # here carry quaternions of both signs, which neither mean may see.
        rng = np.random.default_rng(11)
        signs_mixed = 0
        for _ in range(200):
            k = int(rng.integers(1, 7))
            hyps = [_hyp(random_rotation(rng, 60.0), [0, 0, 1]) for _ in range(k)]
            w = rng.uniform(0.05, 1.0, size=k)
            quats = ScipyRotation.from_matrix([h.pose.rotation.matrix for h in hyps]).as_quat()
            quats *= rng.choice([-1.0, 1.0], size=(k, 1))
            signs_mixed += len(set(np.sign(quats @ quats[0]))) > 1
            expected = ScipyRotation.from_quat(quats).mean(weights=w).as_matrix()
            mean = fusion._chordal_mean(hyps, w)
            np.testing.assert_allclose(mean.matrix, expected, atol=1e-12)
        assert signs_mixed > 100


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


class TestI2pe:
    def test_each_map_is_eroded_once_and_no_graph_is_built(self, corner_observation, monkeypatch):
        # Counting wrappers on the names a tracer patches: the module's
        # erode_mask and the static PlaneGraph.from_mask, which the count
        # rule never calls.  Erosion is queried at the correspondences, so
        # every call erodes each map once again: nothing is cached.
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
        i2pe(obs.correspondences, ref, cur, DESK_INTRINSICS)
        assert sorted(map(id, (m for _, m in calls))) == sorted(map(id, (ref, cur)))
        assert sorted(name for name, _ in calls) == ["erode", "erode"]
        first = list(calls)
        calls.clear()
        i2pe(obs.correspondences, ref, cur, DESK_INTRINSICS)
        assert calls == first

    def test_labels_are_looked_up_once_per_side(self, corner_observation, monkeypatch):
        # The matcher counts the labels that i2pe then selects pairs by:
        # each input map's, looked up once and then eroded at the points.
        _, _, obs = corner_observation
        calls = []
        label_at = PlaneSegmentMap.label_at

        def counting(m, points_xy):
            calls.append(m)
            return label_at(m, points_xy)

        monkeypatch.setattr(PlaneSegmentMap, "label_at", counting)
        i2pe(obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS)
        assert calls == [obs.mask_ref, obs.mask_cur]

    def test_candidate_spread_is_its_pair_inlier_spread(self, corner_observation):
        # A pair's weight over its consensus size is the spread of that
        # pair's own inliers in the reference image: not of another pair's
        # inliers, nor of its inliers in the current image.
        _, _, obs = corner_observation
        evidence = i2pe(obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS)
        size = (obs.mask_ref.width, obs.mask_ref.height)
        spreads = [point_spread(s.a, size) for s in evidence.inliers]
        assert len(set(spreads)) == len(spreads) == 3
        for k, (weight, s) in enumerate(zip(evidence.weights, evidence.inliers)):
            assert 0.0 < spreads[k] <= 1.0
            assert weight / len(s) == pytest.approx(spreads[k], rel=1e-12)
            assert weight / len(s) != pytest.approx(point_spread(s.b, size), rel=1e-12)
            others = spreads[:k] + spreads[k + 1 :]
            assert all(weight / len(s) != pytest.approx(o, rel=1e-12) for o in others)

    def test_zero_noise_recovery(self, corner_observation):
        world, offset, obs = corner_observation
        est = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur)
        assert rotation_angle(est.pose.rotation.compose(offset.rotation.inverse())) < 1e-5
        truth_d = offset.translation / np.linalg.norm(offset.translation)
        assert direction_angle(est.pose.direction, truth_d) < 1e-4
        assert not est.zero_motion
        assert len(est.plane_pairs) == 3

    def test_contamination_blindness(self, corner_observation):
        # Adding correspondences outside every matched plane changes the
        # output bit for bit not at all.
        world, offset, obs = corner_observation
        base = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur)
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
            np.concatenate(
                [c.track_id, np.arange(n_junk) + 10_000_000]
            ),
        )
        est = _agreed(contaminated, obs.mask_ref, obs.mask_cur)
        assert np.array_equal(est.pose.rotation.matrix, base.pose.rotation.matrix)
        assert np.array_equal(est.pose.direction, base.pose.direction)

    def test_occluded_plane_still_estimates(self, corner_observation):
        # Drop one plane from the current mask entirely (H < M path).
        world, offset, obs = corner_observation
        labels = obs.mask_cur.labels.copy()
        labels[labels == 3] = 0
        m_cur = PlaneSegmentMap(labels)
        est = _agreed(obs.correspondences, obs.mask_ref, m_cur)
        assert rotation_angle(est.pose.rotation.compose(offset.rotation.inverse())) < 1e-5
        assert len(est.plane_pairs) == 2

    def test_zero_motion_signal(self, corner_observation):
        world, offset, obs = corner_observation
        identity_obs = observe_world(world, Pose.identity(), seed=4)
        est = _agreed(
            identity_obs.correspondences,
            identity_obs.mask_ref,
            identity_obs.mask_cur,
        )
        assert est.zero_motion
        assert rotation_angle(est.pose.rotation) < 1e-6

    def test_report_is_json_ready(self, corner_observation):
        import json

        world, offset, obs = corner_observation
        est = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur)
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
            obs.correspondences, obs.mask_ref, obs.mask_cur, DESK_INTRINSICS
        )
        assert len(evidence.plane_pairs) == len(evidence.candidates) == 3
        est = reselect_candidates(evidence, fusion._select_consistent)
        assert not est.zero_motion and len(calls) == 3
        assert len(est.plane_pairs) == len(est.hypotheses) == 2
        again = reselect_candidates(evidence, lambda candidates, inliers: [0] * len(candidates))
        assert again.plane_pairs == est.plane_pairs
        assert len(again.report()["hypotheses"]) == len(again.hypotheses) == 2


# Three planes facing the camera at different tilts and depths, A frame.
_PLANES = (([0.1, 0.0, 1.0], 2.0), ([0.8, 0.1, 0.6], 1.5), ([-0.6, 0.2, 0.8], 1.8))
_INTR = Intrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=480.0)


def _evidence(rotation, translation, planes, noise_px=0.0, seed=0):
    """``i2pe``'s evidence for correspondences of ``planes`` under the pose,
    each pair fitted, decomposed and weighted as ``i2pe`` does in an image
    centred on the principal point; the B pixels get Gaussian noise of
    ``noise_px``."""
    rng = np.random.default_rng(seed)
    candidates, inliers = [], []
    size = (2.0 * _INTR.cx, 2.0 * _INTR.cy)
    for k, (normal, distance) in enumerate(planes):
        c, _ = plane_pair_set(
            _INTR, rotation, translation, normal, distance, count=130, seed=100 * seed + k, extent=0.5
        )
        c = CorrespondenceSet(c.a, c.b + rng.normal(0.0, noise_px, c.b.shape), c.track_id + 1000 * k)
        h, mask = estimate_homography_ransac(c, threshold_px=1.0 + 4.0 * noise_px, seed=k)
        inliers.append(c.subset(mask))
        candidates.append(tuple(decompose_homography_candidates(h, _INTR, inliers[-1])))
    return PlaneCandidates(
        plane_pairs=tuple((k + 1, k + 1) for k in range(len(planes))),
        candidates=tuple(candidates),
        inliers=tuple(inliers),
        weights=tuple(len(s) * point_spread(s.a, size) for s in inliers),
        inlier_track_ids=np.unique(np.concatenate([c.track_id for c in inliers])),
        intrinsics=_INTR,
    )


def _errors(pose, rotation, translation):
    return (
        rotation_angle(pose.rotation.compose(rotation.inverse())),
        direction_angle(pose.direction, translation),
    )


class TestRefinePose:
    @pytest.mark.parametrize("count", [2, 3])
    def test_exact_on_clean_pairs_from_a_perturbed_start(self, count):
        rotation, translation = Rotation.about_y(4.0), np.array([0.08, -0.03, 0.05])
        evidence = _evidence(rotation, translation, _PLANES[:count])
        start = DirectionalPose(
            Rotation.about_x(0.5).compose(rotation), translation + [0.0, 0.004, -0.003]
        )
        assert min(_errors(start, rotation, translation)) > 0.4
        refined, refinement = refine_pose(start, evidence.inliers, _INTR)
        assert max(_errors(refined, rotation, translation)) <= 1e-8
        assert refinement.iterations > 0
        assert refinement.rms_after_px < 1e-9 < refinement.rms_before_px

    def test_beats_the_fused_rotation_under_noise(self):
        fused_errors, refined_errors = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rotation = random_rotation(rng, 3.0)
            translation = rng.normal(size=3) * 0.03
            evidence = _evidence(rotation, translation, _PLANES, noise_px=0.5, seed=seed)
            est = reselect_candidates(evidence, fusion._select_consistent)
            fused = fusion._fuse(est.hypotheses, est.weights)
            fused_errors.append(_errors(fused, rotation, translation)[0])
            refined_errors.append(_errors(est.pose, rotation, translation)[0])
        assert np.median(refined_errors) < 0.5 * np.median(fused_errors)

    def test_the_transfer_cost_never_rises(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            rotation = random_rotation(rng, 3.0)
            translation = rng.normal(size=3) * 0.03
            evidence = _evidence(rotation, translation, _PLANES, noise_px=1.0, seed=seed)
            for _ in range(3):  # starts up to several degrees off
                start = DirectionalPose(
                    random_rotation(rng, 2.0).compose(rotation),
                    translation + rng.normal(size=3) * 0.01,
                )
                refined, refinement = refine_pose(start, evidence.inliers, _INTR)
                assert refinement.rms_after_px <= refinement.rms_before_px
                if refinement.iterations == 0:
                    assert refined is start

    def test_zero_motion_estimate_comes_back_unchanged(self, corner_observation):
        world, _, _ = corner_observation
        obs = observe_world(world, Pose.identity(), seed=4)
        est = _agreed(obs.correspondences, obs.mask_ref, obs.mask_cur)
        assert est.zero_motion and est.refinement is None
        fused = fusion._chordal_mean(est.hypotheses, est.weights)
        assert np.array_equal(est.pose.rotation.matrix, fused.matrix)
        assert est.report()["refinement"] is None

    def test_singular_start_keeps_the_fused_pose(self):
        # Points on one line of one plane: their rays span a plane through
        # the camera centre, so the plane vector's normal matrix is
        # singular.
        rotation, translation = Rotation.about_y(4.0), np.array([0.08, -0.03, 0.05])
        c, _ = plane_pair_set(_INTR, rotation, translation, [0.1, 0.0, 1.0], 2.0, count=50)
        line = c.a[:, 0] - c.a[0, 0]
        on_line = CorrespondenceSet(
            np.column_stack([c.a[:, 0], c.a[0, 1] + 0.3 * line]),
            np.column_stack([c.b[:, 0], c.b[0, 1] + 0.3 * line]),
        )
        start = DirectionalPose(rotation, translation)
        refined, refinement = refine_pose(start, [on_line], _INTR)
        assert refined is start
        assert refinement == Refinement(0, None, None)

    def test_the_direction_stays_on_the_sphere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            basis = fusion._tangent_basis(t)
            np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(basis.T @ t, 0.0, atol=1e-15)
            step = rng.normal(size=2)
            moved = fusion._retract(t, basis, step)
            assert abs(np.linalg.norm(moved) - 1.0) < 1e-15
            assert np.linalg.det(np.column_stack([t, basis @ step, moved])) == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(fusion._retract(t, basis, np.zeros(2)), t, rtol=0, atol=4e-16)
