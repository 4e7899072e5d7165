"""Unit tests for homography/epipolar pose estimation."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from acrkit.errors import (
    CheiralityError,
    DegenerateModelError,
    InsufficientDataError,
    InvalidInputError,
)
from acrkit.geometry import (
    DirectionalPose,
    Rotation,
    direction_angle,
    rotation_angle,
)
from acrkit import pose_estimation
from acrkit.fusion import point_spread
from acrkit.pose_estimation import (
    CorrespondenceSet,
    Homography,
    _adaptive_iters,
    _essential_from_rays,
    _rays,
    _sampson_scorer,
    _transfer_scorer,
    decompose_homography,
    decompose_homography_candidates,
    estimate_epipolar,
    estimate_homography_ransac,
    homography_dlt,
    join_on_tracks,
)
from conftest import general_pair_set, plane_pair_set, project_pixels


def _pixel_homography(intr, rotation, translation, normal, distance):
    k = intr.matrix()
    h_cal = rotation.matrix + np.outer(
        np.asarray(translation) / distance, np.asarray(normal)
    )
    return k @ h_cal @ intr.inverse_matrix()


class TestCorrespondenceSet:
    def test_json_round_trip(self, tmp_path):
        c = CorrespondenceSet(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([[5.0, 6.0], [7.0, 8.0]]),
            track_id=np.array([10, 20]),
        )
        path = tmp_path / "c.json"
        c.save(path)
        back = CorrespondenceSet.load(path)
        np.testing.assert_allclose(back.a, c.a)
        np.testing.assert_allclose(back.b, c.b)
        assert back.track_id.tolist() == [10, 20]
        import json

        doc = json.loads(path.read_text())
        assert "plane_label" not in doc
        assert doc["pairs"][0] == [1.0, 2.0, 5.0, 6.0]

    def test_file_with_plane_labels_still_loads(self):
        # Files written before the labels were dropped carry them.
        back = CorrespondenceSet.from_json_dict(
            {"pairs": [[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]], "plane_label": [3, None]}
        )
        assert back.a.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert back.track_id.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "tracks, message",
        [([1.5, 1.9], "integers"), ([2.0, 3.0], "integers"), ([4, 7, 4], "duplicate")],
    )
    def test_file_track_ids_are_distinct_integers(self, tracks, message):
        doc = {"pairs": [[1.0, 2.0, 3.0, 4.0]] * len(tracks), "track_id": tracks}
        with pytest.raises(InvalidInputError, match=message):
            CorrespondenceSet.from_json_dict(doc)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_saved_non_finite_pixel_is_refused_on_load(self, value, tmp_path):
        # save writes NaN and Infinity tokens, which plain JSON parsing reads back.
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        a[1, 0] = value
        path = tmp_path / "c.json"
        CorrespondenceSet(a, a + 1.0).save(path)
        with pytest.raises(InvalidInputError, match=r"pairs\[1\] must be finite"):
            CorrespondenceSet.load(path)

    def test_empty_pairs_give_an_empty_set(self):
        c = CorrespondenceSet.from_json_dict({"pairs": []})
        assert len(c) == 0 and c.a.shape == c.b.shape == (0, 2)

    @pytest.mark.parametrize(
        "pairs", [[[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0, 4.0, 5.0]], [1.0, 2.0, 3.0, 4.0]]
    )
    def test_rows_not_four_wide_are_invalid(self, pairs):
        with pytest.raises(InvalidInputError, match=r"rows of \[uA, vA, uB, vB\]"):
            CorrespondenceSet.from_json_dict({"pairs": pairs})

    def test_shape_validation(self):
        with pytest.raises(Exception):
            CorrespondenceSet(np.zeros((3, 2)), np.zeros((4, 2)))


class TestPointSpread:
    def test_full_image(self):
        pts = np.array([[0, 0], [100, 0], [0, 50], [100, 50]], dtype=float)
        assert point_spread(pts, (100, 50)) == pytest.approx(1.0)

    def test_identical_points(self):
        assert point_spread(np.array([[5.0, 5.0]] * 4), (100, 50)) == 0.0

    def test_one_quadrant(self):
        pts = np.array([[0, 0], [50, 0], [0, 25], [50, 25]], dtype=float)
        assert point_spread(pts, (100, 50)) == pytest.approx(0.25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            point_spread(np.zeros((0, 2)), (10, 10))


class TestHomographyRansac:
    def test_exact_four_pairs(self, intr):
        rng = np.random.default_rng(0)
        h_true = _pixel_homography(
            intr, Rotation.about_z(8.0), [0.1, -0.05, 0.02], [0.1, 0.0, 1.0], 2.0
        )
        a = rng.uniform(100, 1000, size=(4, 2))
        ah = np.hstack([a, np.ones((4, 1))]) @ h_true.T
        b = ah[:, :2] / ah[:, 2:]
        c = CorrespondenceSet(a, b)
        h, mask = estimate_homography_ransac(c, 1.0, 100, seed=0)
        assert mask.all()
        got = h.matrix / h.matrix[2, 2]
        expected = h_true / h_true[2, 2]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_identity_correspondences(self, intr):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1000, size=(30, 2))
        c = CorrespondenceSet(a, a)
        h, mask = estimate_homography_ransac(c, 1.0, 100, seed=0)
        got = h.matrix / h.matrix[2, 2]
        np.testing.assert_allclose(got, np.eye(3), atol=1e-9)

    def test_outliers_excluded(self, intr):
        c, _ = plane_pair_set(
            intr, Rotation.about_z(4.0), [0.08, 0.0, 0.02], [0, 0, 1], 2.0, count=70
        )
        rng = np.random.default_rng(5)
        n_out = 30
        a_out = rng.uniform(0, 1200, size=(n_out, 2))
        b_out = rng.uniform(0, 900, size=(n_out, 2))
        full = CorrespondenceSet(
            np.vstack([c.a, a_out]), np.vstack([c.b, b_out])
        )
        h, mask = estimate_homography_ransac(full, 1.0, 2000, seed=2)
        assert not mask[70:].any(), "all planted outliers must be excluded"
        assert mask[:70].sum() >= 66

    def test_deterministic_mask(self, intr):
        c, _ = plane_pair_set(
            intr, Rotation.about_z(4.0), [0.08, 0.0, 0.02], [0, 0, 1], 2.0, count=60
        )
        _, m1 = estimate_homography_ransac(c, 1.0, 500, seed=9)
        _, m2 = estimate_homography_ransac(c, 1.0, 500, seed=9)
        assert np.array_equal(m1, m2)

    def test_too_few_pairs(self, intr):
        c = CorrespondenceSet(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_homography_ransac(c, 1.0, 10, 0)

    def test_exact_crease_returns_dominant_plane(self, intr):
        # Two planes meet at the crease x = 0: the dominant one at z = 2,
        # the other receding behind it.  Exact pairs of the second plane
        # near the crease fall within the 1 px gate of the dominant
        # homography; a robust estimator must still return that homography
        # exactly, even with a single refit.
        rng = np.random.default_rng(7)
        rotation = Rotation.from_axis_angle([0.2, 1.0, 0.1], 3.0)
        t = np.array([0.1, -0.05, 0.03])
        dominant = np.column_stack(
            [
                rng.uniform(0.0, 0.6, 150),
                rng.uniform(-0.5, 0.5, 150),
                np.full(150, 2.0),
            ]
        )
        x_side = np.concatenate(
            [[-0.005, -0.01, -0.015, -0.02], rng.uniform(-0.6, 0.0, 40)]
        )
        side = np.column_stack(
            [x_side, rng.uniform(-0.5, 0.5, x_side.size), 2.0 - x_side]
        )
        pts_a = np.vstack([dominant, side])
        pts_b = pts_a @ rotation.matrix.T + t
        k = intr.matrix()
        c = CorrespondenceSet(project_pixels(k, pts_a), project_pixels(k, pts_b))
        h_true = _pixel_homography(intr, rotation, t, [0.0, 0.0, 1.0], 2.0)
        crease = _transfer_scorer(c.a[150:], c.b[150:])(h_true) <= 1.0
        assert crease.sum() >= 4, "the data must put crease pairs inside the gate"

        h, mask = estimate_homography_ransac(
            c, 1.0, 500, seed=0, refine_iters=1
        )
        got = h.matrix / np.linalg.norm(h.matrix)
        expected = h_true / np.linalg.norm(h_true)
        expected *= np.sign(np.sum(got * expected))
        assert np.abs(got - expected).max() < 1e-9
        assert mask[:150].all()


class TestSymmetricTransfer:
    def test_zero_for_exact(self, intr):
        h = _pixel_homography(
            intr, Rotation.about_z(3.0), [0.05, 0, 0], [0, 0, 1.0], 2.0
        )
        rng = np.random.default_rng(2)
        a = rng.uniform(100, 900, size=(20, 2))
        ah = np.hstack([a, np.ones((20, 1))]) @ h.T
        b = ah[:, :2] / ah[:, 2:]
        err = _transfer_scorer(a, b)(h)
        assert err.max() < 1e-9

    def test_detects_displacement(self):
        h = np.eye(3)
        a = np.array([[10.0, 10.0]])
        b = np.array([[13.0, 14.0]])
        # Forward and backward displacements are both 5 px.
        assert _transfer_scorer(a, b)(h)[0] == pytest.approx(
            np.sqrt(50.0), abs=1e-12
        )


class TestDecomposeHomography:
    def test_identity_reports_zero_motion(self, intr):
        rng = np.random.default_rng(0)
        a = rng.uniform(100, 1000, size=(12, 2))
        c = CorrespondenceSet(a, a)
        h, mask = estimate_homography_ransac(c, 1.0, 100, seed=0)
        hyp = decompose_homography(h, intr, c)
        assert hyp.zero_motion
        assert rotation_angle(hyp.pose.rotation) < 1e-6

    def test_forward_model_recovery(self, intr):
        rotation = Rotation.about_z(5.0)
        c, _ = plane_pair_set(intr, rotation, [0.1, 0, 0], [0, 0, 1], 2.0)
        h, mask = estimate_homography_ransac(c, 1.0, 500, seed=0)
        hyp = decompose_homography(h, intr, c.subset(mask))
        assert rotation_angle(hyp.pose.rotation.compose(rotation.inverse())) < 1e-6
        assert direction_angle(hyp.pose.direction, [1, 0, 0]) < 1e-4
        assert direction_angle(hyp.plane_normal, [0, 0, 1]) < 1e-3

    def test_forward_model_sweep(self, intr):
        rng = np.random.default_rng(4)
        for trial in range(15):
            rot = Rotation.from_axis_angle(rng.standard_normal(3), rng.uniform(1, 18))
            t = rng.uniform(-0.25, 0.25, 3)
            if np.linalg.norm(t) < 0.02:
                t = np.array([0.1, 0.0, 0.0])
            n = rng.standard_normal(3)
            n[2] = abs(n[2]) + 1.5
            n /= np.linalg.norm(n)
            c, _ = plane_pair_set(intr, rot, t, n, rng.uniform(1.0, 3.0), seed=trial)
            h, mask = estimate_homography_ransac(c, 1.0, 500, seed=trial)
            cands = decompose_homography_candidates(h, intr, c.subset(mask))
            errors = [
                rotation_angle(x.pose.rotation.compose(rot.inverse())) for x in cands
            ]
            assert min(errors) < 1e-5, "true factorization missing from candidates"
            assert errors[0] < 1e-5, "tie-break picked the spurious twin"

    def test_scale_invariance(self, intr):
        c, _ = plane_pair_set(intr, Rotation.about_z(5.0), [0.1, 0, 0], [0, 0, 1], 2.0)
        h, mask = estimate_homography_ransac(c, 1.0, 200, seed=0)
        inl = c.subset(mask)
        hyp1 = decompose_homography(h, intr, inl)
        hyp2 = decompose_homography(Homography(-3.7 * h.matrix), intr, inl)
        np.testing.assert_allclose(
            hyp1.pose.rotation.matrix, hyp2.pose.rotation.matrix, atol=1e-9
        )
        np.testing.assert_allclose(hyp1.pose.direction, hyp2.pose.direction, atol=1e-9)

    def test_noisy_planar_beats_epipolar(self, intr):
        # Same contaminated planar data into both estimators.
        rotation = Rotation.about_z(6.0)
        t = np.array([0.12, -0.04, 0.03])
        c, _ = plane_pair_set(intr, rotation, t, [0, 0, 1], 2.0, count=400, seed=8)
        rng = np.random.default_rng(8)
        b = c.b.copy()
        corrupt = rng.choice(len(c), size=len(c) // 2, replace=False)
        b[corrupt] += rng.uniform(-10, 10, size=(len(corrupt), 2))
        noisy = CorrespondenceSet(c.a, b)
        h, mask = estimate_homography_ransac(noisy, 1.0, 2000, seed=1)
        deh = decompose_homography(h, intr, noisy.subset(mask))
        deh_err = rotation_angle(deh.pose.rotation.compose(rotation.inverse()))
        epi = estimate_epipolar(noisy, intr, 1.0, 2000, seed=1)
        epi_err = rotation_angle(epi.pose.rotation.compose(rotation.inverse()))
        assert deh_err < epi_err

    def test_cheirality_failure_raised(self, intr):
        # Build pairs that straddle the plane horizon of every candidate
        # normal: no factorization can then put all points in front.
        rotation = Rotation.about_y(6.0)
        t = np.array([0.04, 0.0, 0.01])
        n = np.array([0.9, 0.0, 0.436])
        n = n / np.linalg.norm(n)
        d = float(n @ np.array([0.0, 0.0, 2.0]))
        h_pix = _pixel_homography(intr, rotation, t, n, d)
        k_inv = intr.inverse_matrix()

        # Valid patch on the positive side to enumerate candidate normals.
        rng = np.random.default_rng(3)
        a_ok = np.column_stack([rng.uniform(400, 900, 40), rng.uniform(200, 700, 40)])
        bh = np.hstack([a_ok, np.ones((40, 1))]) @ h_pix.T
        c_ok = CorrespondenceSet(a_ok, bh[:, :2] / bh[:, 2:])
        h = Homography(h_pix)
        normals = [
            x.plane_normal for x in decompose_homography_candidates(h, intr, c_ok)
        ]

        # Now pick pixels on both sides of every candidate's horizon.
        u_grid = np.linspace(-3000, 3000, 400)
        pixels = np.column_stack([u_grid, np.full_like(u_grid, 480.0)])
        rays = np.hstack([pixels, np.ones((len(pixels), 1))]) @ k_inv.T
        chosen = []
        for nn in normals:
            side = rays @ nn
            chosen.append(pixels[np.argmax(side)])
            chosen.append(pixels[np.argmin(side)])
        a_bad = np.array(chosen)
        bh = np.hstack([a_bad, np.ones((len(a_bad), 1))]) @ h_pix.T
        c_bad = CorrespondenceSet(a_bad, bh[:, :2] / bh[:, 2:])
        with pytest.raises(CheiralityError):
            decompose_homography(h, intr, c_bad)


class TestEstimateEpipolar:
    def test_noiseless_general_position(self, intr):
        rotation = Rotation.about_z(10.0)
        t = np.array([0.0, 0.2, 0.0])
        c, _ = general_pair_set(intr, rotation, t)
        hyp = estimate_epipolar(c, intr, 1.0, 500, seed=3)
        assert rotation_angle(hyp.pose.rotation.compose(rotation.inverse())) < 1e-4
        assert direction_angle(hyp.pose.direction, t / np.linalg.norm(t)) < 1e-3
        assert not hyp.unstable_translation

    def test_identity_raises_unstable_flag(self, intr):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1200, size=(60, 2))
        hyp = estimate_epipolar(CorrespondenceSet(a, a), intr, 1.0, 200, seed=0)
        assert hyp.unstable_translation

    def test_planar_noise_much_worse_than_deh(self, intr):
        rotation = Rotation.about_z(6.0)
        t = np.array([0.12, 0.03, 0.0])
        c, _ = plane_pair_set(
            intr, rotation, t, [0, 0, 1], 1.8, count=500, seed=5, extent=0.95
        )
        rng = np.random.default_rng(5)
        b = c.b + rng.uniform(-2, 2, size=c.b.shape)
        noisy = CorrespondenceSet(c.a, b)
        # Same data and same settings into both paths; the gate matches the
        # noise magnitude.
        epi = estimate_epipolar(noisy, intr, 2.0, 1000, seed=2)
        epi_err = rotation_angle(epi.pose.rotation.compose(rotation.inverse()))
        h, mask = estimate_homography_ransac(noisy, 2.0, 1000, seed=2)
        deh = decompose_homography(h, intr, noisy.subset(mask))
        deh_err = rotation_angle(deh.pose.rotation.compose(rotation.inverse()))
        assert epi_err >= 10.0 * deh_err

    def test_too_few_pairs(self, intr):
        c = CorrespondenceSet(np.zeros((7, 2)), np.zeros((7, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_epipolar(c, intr, 1.0, 10, 0)

    def test_sampson_zero_for_exact(self, intr):
        rotation = Rotation.about_y(7.0)
        t = np.array([0.15, 0.05, 0.02])
        c, _ = general_pair_set(intr, rotation, t, count=50)
        t_unit = t / np.linalg.norm(t)
        tx = np.array(
            [
                [0, -t_unit[2], t_unit[1]],
                [t_unit[2], 0, -t_unit[0]],
                [-t_unit[1], t_unit[0], 0],
            ]
        )
        e = tx @ rotation.matrix
        k_inv = intr.inverse_matrix()
        f = k_inv.T @ e @ k_inv
        assert _sampson_scorer(c.a, c.b)(f).max() < 1e-6


class TestHomographyType:
    def test_middle_singular_value_normalized(self):
        h = Homography(np.diag([4.0, 2.0, 1.0]))
        svals = np.linalg.svd(h.matrix, compute_uv=False)
        assert svals[1] == pytest.approx(1.0)

    def test_singular_rejected(self):
        with pytest.raises(DegenerateModelError):
            Homography(np.diag([1.0, 1.0, 0.0]))

    def test_dlt_degenerate_rejected(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateModelError):
            homography_dlt(a, a)


class TestRefusals:
    """Each bad input is refused with its typed error and that error's code."""

    @staticmethod
    def _refused(error, code, call):
        with pytest.raises(error) as info:
            call()
        assert info.value.code == code

    def test_track_array_of_another_length(self):
        pts = np.zeros((3, 2))
        self._refused(InvalidInputError, "invalid-input", lambda: CorrespondenceSet(pts, pts, [0, 1]))

    def test_join_without_a_shared_track(self):
        pts = np.zeros((2, 2))
        first, second = CorrespondenceSet(pts, pts, [0, 1]), CorrespondenceSet(pts, pts, [2, 3])
        self._refused(InsufficientDataError, "insufficient-data", lambda: join_on_tracks(first, second))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9,), (1, 3, 3)])
    def test_homography_not_3x3(self, shape):
        self._refused(InvalidInputError, "invalid-input", lambda: Homography(np.ones(shape)))

    @pytest.mark.parametrize("shape", [(3, 2), (5, 3, 2)])
    def test_dlt_on_fewer_than_four_pairs(self, shape):
        pts = np.random.default_rng(0).uniform(0.0, 100.0, shape)
        self._refused(InsufficientDataError, "insufficient-data", lambda: homography_dlt(pts, pts))

    def test_decomposition_without_correspondences(self, intr):
        empty = CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)))
        h = Homography(np.eye(3))
        self._refused(
            InsufficientDataError, "insufficient-data", lambda: decompose_homography(h, intr, empty)
        )


class TestEightPointMinimal:
    def test_eight_exact_pairs_fit_the_whole_scene(self, intr):
        rotation = Rotation.from_axis_angle([0.3, 1.0, -0.2], 6.0)
        t = np.array([0.12, -0.05, 0.04])
        c, _ = general_pair_set(intr, rotation, t)
        xa, xb = _rays(intr, c.a), _rays(intr, c.b)
        e = _essential_from_rays(xa[:8], xb[:8])
        e = e / np.linalg.norm(e)
        xa /= np.linalg.norm(xa, axis=1, keepdims=True)
        xb /= np.linalg.norm(xb, axis=1, keepdims=True)
        assert np.abs(np.einsum("ij,jk,ik->i", xb, e, xa)).max() < 1e-9

    def test_exact_general_data_is_all_support(self, intr):
        c, _ = general_pair_set(
            intr, Rotation.about_y(7.0), np.array([0.15, 0.05, 0.02]), count=120
        )
        hyp = estimate_epipolar(c, intr, 1.0, 200, seed=0, refine_iters=1)
        assert hyp.support == len(c)


def _per_draw_homography(c, threshold_px, max_iters, seed):
    """The draw-by-draw consensus loop that the chunked driver replaces."""
    n = len(c)
    rng = np.random.default_rng(seed)
    best_mask, best_count = None, -1
    target = max(1, int(max_iters))
    it = 0
    while it < target:
        it += 1
        idx = rng.choice(n, size=4, replace=False)
        try:
            h = pose_estimation.homography_dlt(c.a[idx], c.b[idx])
        except DegenerateModelError:
            continue
        mask = _transfer_scorer(c.a, c.b)(h) <= threshold_px
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
            target = min(target, _adaptive_iters(count / n, 4))
    return best_mask, best_count


def _per_draw_epipolar(c, intr, threshold_px, max_iters, seed):
    """The draw-by-draw consensus loop that the chunked driver replaces."""
    n = len(c)
    rng = np.random.default_rng(seed)
    xa, xb = _rays(intr, c.a), _rays(intr, c.b)
    k_inv = intr.inverse_matrix()
    best_mask, best_count = None, -1
    target = max(1, int(max_iters))
    it = 0
    while it < target:
        it += 1
        idx = rng.choice(n, size=8, replace=False)
        e = _essential_from_rays(xa[idx], xb[idx])
        err = _sampson_scorer(c.a, c.b)(k_inv.T @ e @ k_inv)
        mask = err <= threshold_px
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
            target = min(target, _adaptive_iters(count / n, 8))
    return best_mask, best_count


def _run(estimate):
    try:
        return estimate()
    except DegenerateModelError as exc:
        return type(exc)


def _both(monkeypatch, c, intr, method, max_iters, seed):
    """(driver result, reference result) of one estimator on ``c``.

    The reference runs the whole estimator with its consensus taken from the
    draw-by-draw loop instead of the chunked driver.
    """
    kwargs = dict(threshold_px=1.0, max_iters=max_iters, seed=seed, refine_iters=2)
    if method == "homography":
        estimate = lambda: estimate_homography_ransac(c, **kwargs)
        reference = lambda *args: _per_draw_homography(c, 1.0, max_iters, seed)
    else:
        estimate = lambda: estimate_epipolar(c, intr, **kwargs)
        reference = lambda *args: _per_draw_epipolar(c, intr, 1.0, max_iters, seed)
    got = _run(estimate)
    with monkeypatch.context() as m:
        m.setattr(pose_estimation, "_ransac_consensus", reference)
        expected = _run(estimate)
    return got, expected


def _assert_same(got, expected):
    if isinstance(expected, type):
        assert got is expected
    elif isinstance(expected, tuple):
        assert np.array_equal(got[0].matrix, expected[0].matrix)
        assert np.array_equal(got[1], expected[1])
    else:
        assert np.array_equal(got.pose.rotation.matrix, expected.pose.rotation.matrix)
        assert np.array_equal(got.pose.direction, expected.pose.direction)
        assert got.support == expected.support
        assert got.unstable_translation == expected.unstable_translation


def _contaminated(intr, method, count, inlier_ratio, seed):
    rng = np.random.default_rng(seed)
    rotation = Rotation.from_axis_angle(rng.standard_normal(3), 5.0)
    t = np.array([0.1, -0.04, 0.03])
    if method == "homography":
        c, _ = plane_pair_set(intr, rotation, t, [0.1, 0.0, 1.0], 2.0, count, seed)
    else:
        c, _ = general_pair_set(intr, rotation, t, count, seed)
    b = c.b + rng.normal(0.0, 0.3, c.b.shape)
    out = rng.random(len(c)) >= inlier_ratio
    b[out] = rng.uniform(0.0, 1000.0, (int(out.sum()), 2))
    return CorrespondenceSet(c.a, b)


def _degenerate(intr, method, seed):
    # A third of the pairs repeat one pair and a third lie on one line in
    # both images: many minimal samples are rank deficient.
    c = _contaminated(intr, method, 90, 0.8, seed)
    a, b = c.a.copy(), c.b.copy()
    a[:30], b[:30] = a[0], b[0]
    s = np.linspace(0.0, 1.0, 30)[:, None]
    a[30:60] = [100.0, 200.0] + s * [600.0, 300.0]
    b[30:60] = [120.0, 180.0] + s * [580.0, 330.0]
    return CorrespondenceSet(a, b)


METHODS = ("homography", "epipolar")


class TestChunkedRansac:
    def test_an_all_inlier_consensus_needs_one_draw(self):
        # The ratio is clipped below 1, and the iteration formula itself
        # gives one draw there for both minimal sample sizes.
        assert _adaptive_iters(1.0, 4) == _adaptive_iters(1.0, 8) == 1

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("inlier_ratio", [0.3, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("max_iters", [1, 7, 30, 64, 65, 200])
    def test_same_result_as_per_draw_loop(self, monkeypatch, intr, method, inlier_ratio, max_iters):
        for seed in range(6):
            c = _contaminated(intr, method, 80, inlier_ratio, seed)
            _assert_same(*_both(monkeypatch, c, intr, method, max_iters, seed))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("max_iters", [1, 7, 30, 64, 65, 200])
    def test_degenerate_samples(self, monkeypatch, intr, method, max_iters):
        for seed in range(3):
            c = _degenerate(intr, method, seed)
            _assert_same(*_both(monkeypatch, c, intr, method, max_iters, seed))

    @pytest.mark.parametrize(
        "method, n", [("homography", 4), ("homography", 8), ("epipolar", 8)]
    )
    @pytest.mark.parametrize("max_iters", [1, 7, 30, 64, 65, 200])
    def test_minimal_set_sizes(self, monkeypatch, intr, method, n, max_iters):
        for seed in range(3):
            c = _contaminated(intr, method, 40, 0.9, seed).subset(np.arange(n))
            _assert_same(*_both(monkeypatch, c, intr, method, max_iters, seed))

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_data_draws_one_sample(self, monkeypatch, intr, method):
        rotation, t = Rotation.about_y(7.0), np.array([0.15, 0.05, 0.02])
        if method == "homography":
            c, _ = plane_pair_set(intr, rotation, t, [0, 0, 1], 2.0, count=150)
        else:
            c, _ = general_pair_set(intr, rotation, t, count=150)
        samples = _count_samples(monkeypatch)
        if method == "homography":
            _, mask = estimate_homography_ransac(c, 1.0, 200, seed=0)
            assert mask.all()
        else:
            assert estimate_epipolar(c, intr, 1.0, 200, seed=0).support == len(c)
        assert len(samples) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_draws_stop_at_the_budget(self, monkeypatch, intr, method):
        # At 30 % inliers the adaptive target stays above a budget of 7,
        # which chunks of 1 and 64 would overrun.
        c = _contaminated(intr, method, 80, 0.3, 0)
        samples = _count_samples(monkeypatch)
        if method == "homography":
            _run(lambda: estimate_homography_ransac(c, 1.0, 7, seed=0))
        else:
            _run(lambda: estimate_epipolar(c, intr, 1.0, 7, seed=0))
        assert len(samples) == 7

    def test_growing_chunks_fit_a_plane_in_few_stacks(self, monkeypatch, intr):
        # 131 of 200 pairs are exact: the adaptive target ends at 46 draws,
        # which chunks of 1 and 64 reach in two stacked fits, chunks of 1,
        # 7 and 56 in three and chunks of 1, 1, 2, 4, ... in seven.
        c, _ = plane_pair_set(
            intr, Rotation.about_y(7.0), [0.15, 0.05, 0.02], [0.1, 0.0, 1.0], 2.0, 200, seed=1
        )
        rng = np.random.default_rng(1)
        b = c.b.copy()
        out = rng.random(200) >= 0.66
        b[out] = rng.uniform(0.0, 1000.0, (int(out.sum()), 2))
        c = CorrespondenceSet(c.a, b)
        real_fit = pose_estimation.homography_dlt
        stacks = []

        def counting_fit(a, b):
            if np.ndim(a) == 3:
                stacks.append(len(a))
            return real_fit(a, b)

        real_rng = np.random.default_rng
        choices = []

        class Recording:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def integers(self, *args, **kwargs):
                return self._rng.integers(*args, **kwargs)

            def choice(self, *args, **kwargs):
                choices.append(args)
                return self._rng.choice(*args, **kwargs)

        monkeypatch.setattr(pose_estimation, "homography_dlt", counting_fit)
        monkeypatch.setattr(np.random, "default_rng", Recording)
        _, mask = estimate_homography_ransac(c, 1.0, 2000, seed=1)
        assert np.array_equal(mask, ~out)
        assert len(stacks) <= 2
        assert choices == []


def _count_samples(monkeypatch) -> list:
    """Record every minimal sample that ``_ChoiceSampler.draw`` hands out."""
    real = pose_estimation._ChoiceSampler.draw
    samples = []

    def counting(self, k):
        drawn = real(self, k)
        samples.extend(drawn)
        return drawn

    monkeypatch.setattr(pose_estimation._ChoiceSampler, "draw", counting)
    return samples


# Chunk sizes for the sampler oracle: the one-sample chunk that starts every
# RANSAC call, then growing chunks.
ORACLE_CHUNKS = (1, 1, 2, 4, 8, 16, 32)
ORACLE_DRAWS = [
    (n, size)
    for n in (4, 5, 8, 9, 37, 199, 500, 10000, 3 * 10**9)
    for size in (4, 8)
    if size <= n
]


class TestBatchedDraws:
    @pytest.mark.parametrize("n, size", ORACLE_DRAWS)
    def test_equals_successive_choice_calls(self, n, size):
        # Bounded draws per sample: one per Floyd step but j = 0, one per swap.
        width = 2 * size - 1 - (n == size)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sampler = pose_estimation._ChoiceSampler(n, size, seed)
            for k in ORACLE_CHUNKS:
                expected = [rng.choice(n, size, replace=False) for _ in range(k)]
                assert np.array_equal(sampler.draw(k), expected)
                # The stream stands where ``choice`` leaves it, spare half
                # word included.
                assert sampler._rng.bit_generator.state == rng.bit_generator.state
            if n == 3 * 10**9:
                # Lemire's test rejects about 30 % of the words bounded near
                # 3e9, so the chunks read past their width in 32-bit words.
                words = np.random.default_rng(seed)
                words.integers(0, 1 << 32, sum(ORACLE_CHUNKS) * width)
                assert words.bit_generator.state != rng.bit_generator.state

    @pytest.mark.parametrize("size", [4, 8])
    def test_n_equal_to_size_takes_no_word_for_j_zero(self, size):
        rng = np.random.default_rng(0)
        sampler = pose_estimation._ChoiceSampler(size, size, 0)
        assert np.array_equal(sampler.draw(1)[0], rng.choice(size, size, replace=False))
        # 2 * size - 2 words, an even count: both sides drew the same 64-bit
        # outputs and neither keeps a half back.
        assert sampler._rng.bit_generator.state == rng.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 0

    def test_draws_64_bit_words_past_two_to_the_32(self):
        n = (1 << 32) + 5
        rng = np.random.default_rng(3)
        expected = [rng.choice(n, 4, replace=False) for _ in range(8)]
        sampler = pose_estimation._ChoiceSampler(n, 4, 3)
        assert np.array_equal(sampler.draw(8), expected)
        assert sampler._rng.bit_generator.state == rng.bit_generator.state

    def test_rejects_samples_numpy_draws_from_a_shuffled_arange(self):
        with pytest.raises(ValueError):
            pose_estimation._ChoiceSampler(20000, 401, 3)
        pose_estimation._ChoiceSampler(20000, 400, 3)


# ---------------------------------------------------------------------------
# Oracles: the minimal-sample kernels as solved before their closed forms.
# ---------------------------------------------------------------------------


def _svd_four_point_dlt(a, b):
    """The 4-point DLT as the last right singular vector of its full 8x9 SVD,
    with the flags of a rank-deficient system."""
    an, ta = pose_estimation._normalize_points(a)
    bn, tb = pose_estimation._normalize_points(b)
    m = np.zeros(a.shape[:-2] + (8, 9))
    x, y = an[..., 0], an[..., 1]
    u, v = bn[..., 0], bn[..., 1]
    m[..., 0::2, 0] = x
    m[..., 0::2, 1] = y
    m[..., 0::2, 2] = 1.0
    m[..., 0::2, 6] = -u * x
    m[..., 0::2, 7] = -u * y
    m[..., 0::2, 8] = -u
    m[..., 1::2, 3] = x
    m[..., 1::2, 4] = y
    m[..., 1::2, 5] = 1.0
    m[..., 1::2, 6] = -v * x
    m[..., 1::2, 7] = -v * y
    m[..., 1::2, 8] = -v
    _, svals, vt = np.linalg.svd(m)
    h = np.linalg.inv(tb) @ vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3)) @ ta
    return h, svals[..., -2] < 1e-10 * svals[..., 0]


def _inverse_transfer_error(h, a, b):
    """Symmetric transfer error through a LAPACK inverse and two-column products."""

    def squared(m, src, dst):
        p = m[..., :, :2] @ src.T + m[..., :, 2:]
        d = p[..., :2, :] / p[..., 2:, :] - dst.T
        return d[..., 0, :] * d[..., 0, :] + d[..., 1, :] * d[..., 1, :]

    return np.sqrt(squared(h, a, b) + squared(np.linalg.inv(h), b, a))


def _einsum_sampson(f, a, b):
    """Sampson distance over (N, 3) point rows and an einsum numerator."""
    ah = np.hstack([a, np.ones((a.shape[0], 1))])
    bh = np.hstack([b, np.ones((b.shape[0], 1))])
    fa = ah @ np.swapaxes(f, -1, -2)
    ftb = bh @ f
    num = np.einsum("...ij,...ij->...i", bh, fa)
    den = fa[..., 0] ** 2 + fa[..., 1] ** 2 + ftb[..., 0] ** 2 + ftb[..., 1] ** 2
    return np.abs(num) / np.sqrt(den)


def _four_triangulation_votes(r1, r2, t, xa, xb):
    """Positive-depth votes from one batched 4x4 SVD triangulation per candidate."""
    votes = []
    for r_m, t_c in ((r1, t), (r1, -t), (r2, t), (r2, -t)):
        x = pose_estimation._triangulate(r_m, t_c, xa, xb)
        votes.append(int(np.sum((x[:, 2] > 0) & (x @ r_m[2] + t_c[2] > 0))))
    return votes


def _unit_sign(h):
    """(..., 3, 3) models scaled to unit norm with a positive largest entry."""
    h = h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)
    flat = h.reshape(h.shape[:-2] + (9,))
    big = np.take_along_axis(flat, np.abs(flat).argmax(axis=-1)[..., None], axis=-1)
    return h * np.sign(big)[..., None]


def _quadruples(seed, count):
    """``count`` (4, 2) pixel quadruples in general position and their images
    under a seeded homography, each pair jittered so the models differ."""
    rng = np.random.default_rng(seed)
    h = np.eye(3) + rng.normal(0.0, [[0.05, 0.05, 20.0], [0.05, 0.05, 20.0], [2e-5, 2e-5, 0.0]])
    a = rng.uniform([0.0, 0.0], [1280.0, 960.0], (count, 4, 2))
    bh = np.concatenate([a, np.ones((count, 4, 1))], axis=-1) @ h.T
    b = bh[..., :2] / bh[..., 2:] + rng.normal(0.0, 3.0, (count, 4, 2))
    return a, b


def _hartley_oracle(pts):
    """Hartley normalization through ``mean``, ``linalg.norm`` and a 3x3
    transform filled entry by entry."""
    centroid = pts.mean(axis=-2)
    d = np.linalg.norm(pts - centroid[..., None, :], axis=-1).mean(axis=-1)
    scale = np.sqrt(2.0) / np.where(d > 1e-12, d, np.sqrt(2.0))
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = scale
    t[..., 0, 2] = -scale * centroid[..., 0]
    t[..., 1, 1] = scale
    t[..., 1, 2] = -scale * centroid[..., 1]
    t[..., 2, 2] = 1.0
    return (pts - centroid[..., None, :]) * scale[..., None, None], t


class TestNormalizePoints:
    @pytest.mark.parametrize("shape", [(4, 2), (1, 4, 2), (37, 4, 2), (5, 8, 2), (3, 200, 2), (2, 3, 9, 2)])
    def test_bits_equal_the_oracle(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-2])
        pts = rng.uniform(-50.0, 1500.0, shape)
        if pts.ndim > 2:
            pts[..., 0, :, :] = pts[..., 0, :1, :]  # coincident points: scale 1
            pts[..., -1, :, :] = 1e-16 * pts[..., -1, :, :]  # spread under the 1e-12 floor
        for got, want in zip(pose_estimation._normalize_points(pts), _hartley_oracle(pts)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_coincident_points_keep_scale_one(self):
        pts = np.full((4, 2), 321.5)
        normalized, t = pose_estimation._normalize_points(pts)
        assert not normalized.any()
        np.testing.assert_array_equal(t, [[1.0, 0.0, -321.5], [0.0, 1.0, -321.5], [0.0, 0.0, 1.0]])


class TestFourPointHomography:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_svd_oracle(self, seed):
        a, b = _quadruples(seed, 200)
        expected, degenerate = _svd_four_point_dlt(a, b)
        assert not degenerate.any()
        got = homography_dlt(a, b)
        assert np.abs(_unit_sign(got) - _unit_sign(expected)).max() < 1e-9
        for k in range(0, 200, 37):
            alone = homography_dlt(a[k], b[k])
            assert np.array_equal(alone, got[k])

    @pytest.mark.parametrize("seed", range(4))
    def test_maps_its_four_pairs_exactly(self, seed):
        a, b = _quadruples(seed, 50)
        # The SVD oracle reaches 2.4e-9 px on the worst-conditioned of these.
        for h, qa, qb in zip(homography_dlt(a, b), a, b):
            assert _transfer_scorer(qa, qb)(h).max() < 1e-8

    @staticmethod
    def _degenerate_cases():
        good = np.array([[100.0, 120.0], [900.0, 150.0], [850.0, 800.0], [150.0, 700.0]])
        cases = {}
        for triple in ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)):
            q = good.copy()
            q[triple[2]] = 0.25 * q[triple[0]] + 0.75 * q[triple[1]]
            cases[f"a-collinear-{triple}"] = (q, good)
            cases[f"b-collinear-{triple}"] = (good, q)
        q = good.copy()
        q[3] = q[1]
        cases["repeated-point"] = (q, good)
        line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]) * 200.0 + 50.0
        cases["four-collinear"] = (line, line)
        return cases

    def test_degenerate_quadruples_raise_alone(self):
        for name, (a, b) in self._degenerate_cases().items():
            with pytest.raises(DegenerateModelError):
                homography_dlt(a, b)

    def test_degenerate_quadruples_are_nan_in_a_stack(self):
        cases = list(self._degenerate_cases().values())
        a_good, b_good = _quadruples(9, len(cases))
        # Valid and degenerate samples alternate in one stack.
        a = np.stack([q for case, g in zip(cases, a_good) for q in (g, case[0])])
        b = np.stack([q for case, g in zip(cases, b_good) for q in (g, case[1])])
        h = homography_dlt(a, b)
        assert np.isnan(h[1::2]).all()
        assert not np.isnan(h[0::2]).any()
        for k in range(0, len(a), 2):
            assert np.array_equal(h[k], homography_dlt(a[k], b[k]))


class TestStackedScoring:
    @staticmethod
    def _models(k, seed):
        a, b = _quadruples(seed, k)
        return homography_dlt(a, b)

    @pytest.mark.parametrize("k", [1, 2, 7, 65])
    def test_transfer_error_stack_matches_single_calls(self, k):
        rng = np.random.default_rng(k)
        a = rng.uniform(0.0, 1280.0, (90, 2))
        b = a + rng.normal(0.0, 5.0, a.shape)
        models = self._models(k, k)
        score = _transfer_scorer(a, b)
        stacked = score(models)
        assert stacked.shape == (k, 90)
        for j in range(k):
            assert np.array_equal(stacked[j], score(models[j]))
        np.testing.assert_allclose(stacked, _inverse_transfer_error(models, a, b), rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 7, 65])
    def test_sampson_stack_matches_single_calls(self, k, intr):
        c, _ = general_pair_set(intr, Rotation.about_y(7.0), [0.15, 0.05, 0.02], count=90)
        rng = np.random.default_rng(k)
        xa, xb = _rays(intr, c.a), _rays(intr, c.b)
        idx = np.array([rng.choice(len(c), 8, replace=False) for _ in range(k)])
        k_inv = intr.inverse_matrix()
        f = k_inv.T @ _essential_from_rays(xa[idx], xb[idx]) @ k_inv
        b = c.b + rng.normal(0.0, 2.0, c.b.shape)
        score = _sampson_scorer(c.a, b)
        stacked = score(f)
        assert stacked.shape == (k, len(c))
        for j in range(k):
            assert np.array_equal(stacked[j], score(f[j]))
        np.testing.assert_allclose(stacked, _einsum_sampson(f, c.a, b), rtol=1e-9)

    def test_point_at_infinity_is_never_an_inlier(self):
        # The first point maps onto the line at infinity of the model.
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]])
        a = np.array([[-1000.0, 5.0], [10.0, 5.0]])
        err = _transfer_scorer(a, a)(h)
        assert err[0] == np.inf and np.isfinite(err[1])


def _allocating_transfer_error(h, a, b):
    """Symmetric transfer error as scored on fresh temporaries at every step."""

    def squared(m, src, dst):
        rows = pose_estimation._homogeneous_rows(src)
        p = (m.reshape(-1, 3) @ rows).reshape(m.shape[:-1] + (len(src),))
        d = p[..., :2, :]
        d /= p[..., 2:, :]
        d -= dst.T
        d *= d
        return d[..., 0, :] + d[..., 1, :]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        err = squared(h, a, b)
        err += squared(pose_estimation._adjugate(h), b, a)
        np.sqrt(err, out=err)
    return np.where(np.isfinite(err), err, np.inf)


def _allocating_sampson(f, a, b):
    """Sampson distance as scored on fresh temporaries at every step."""
    ah, bh = pose_estimation._homogeneous_rows(a), pose_estimation._homogeneous_rows(b)
    fa = (f.reshape(-1, 3) @ ah).reshape(f.shape[:-1] + (len(a),))
    ft = np.swapaxes(f, -1, -2)
    ftb = (ft.reshape(-1, 3) @ bh).reshape(f.shape[:-1] + (len(b),))
    num = bh[0] * fa[..., 0, :]
    num += bh[1] * fa[..., 1, :]
    num += fa[..., 2, :]
    fa *= fa
    ftb *= ftb
    den = fa[..., 0, :] + fa[..., 1, :]
    den += ftb[..., 0, :]
    den += ftb[..., 1, :]
    np.maximum(den, 1e-18, out=den)
    np.sqrt(den, out=den)
    np.abs(num, out=num)
    num /= den
    return num


def _scoring_case(method, k, n, seed):
    """(scorer, oracle, models, a, b): k models on n pairs, with a NaN model
    among them when k > 1, and pairs that a model sends to infinity or that
    give 0 / 0 (homography) or that overflow (Sampson)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1280.0, (n, 2))
    if method == "homography":
        models = homography_dlt(*_quadruples(seed, k))
        b = a + rng.normal(0.0, 2.0, a.shape)
        # (-1000, 5) lies on the line at infinity of the first model and
        # (-1, 7) maps to (0, 7, 0) under the second, a singular one.
        models[0] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]]
        a[:2] = [[-1000.0, 5.0], [-1.0, 7.0]]
        if k > 2:
            models[1] = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
        scorer, oracle = _transfer_scorer, _allocating_transfer_error
    else:
        models = rng.normal(0.0, 1e-3, (k, 3, 3))
        b = a + rng.normal(0.0, 2.0, a.shape)
        a[0] = [1e200, -1e200]
        scorer, oracle = _sampson_scorer, _allocating_sampson
    if k > 1:
        models[k // 2] = np.nan
    return scorer, oracle, models, a, b


class TestScoringWorkspace:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [1, 7, 65])
    @pytest.mark.parametrize("n", [90, 1000])
    def test_masks_equal_the_allocating_scores(self, method, k, n):
        self._check_masks(*_scoring_case(method, k, n, k + n), method)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_chunk_past_the_cap_scores_on_fresh_memory(self, monkeypatch, method):
        # One model on more pairs than RANSAC_CHUNK_ELEMENTS: the workspace
        # hands out memory it does not keep.
        n = 70_000
        assert n > pose_estimation.RANSAC_CHUNK_ELEMENTS
        kept = pose_estimation._ScoreWorkspace()
        monkeypatch.setattr(pose_estimation, "_WORKSPACE", kept)
        self._check_masks(*_scoring_case(method, 1, n, n), method)
        assert kept.floats.size == 0 and kept.mask.size == 0

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("layout", ["every-other-row", "fortran"])
    def test_strided_pairs_score_like_contiguous_ones(self, method, layout):
        scorer, oracle, models, a, b = _scoring_case(method, 7, 1000, 7)
        if layout == "every-other-row":
            a2, b2 = np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0)
            a, b = a2[::2], b2[::2]
        else:
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        assert not (a.flags.c_contiguous or b.flags.c_contiguous)
        self._check_masks(scorer, oracle, models, a, b, method)

    @staticmethod
    def _check_masks(scorer, oracle, models, a, b, method):
        """The scores of ``models`` on (a, b), fresh and in the workspace,
        equal the allocating ones byte for byte, and so do their masks."""
        k, n = len(models), len(a)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = oracle(models, np.ascontiguousarray(a), np.ascontiguousarray(b))
            score = scorer(a, b)
            fresh = score(models)
            work, mask = pose_estimation._WORKSPACE.take(k, n)
            work[:] = np.nan  # stale contents must not show
            scored = score(models, work)
        assert fresh.tobytes() == expected.tobytes()
        assert scored.shape == (k, n) and np.shares_memory(scored, work)
        assert scored.tobytes() == expected.tobytes()
        if method == "homography":
            assert not np.isnan(scored).any() and np.isinf(scored).any()
        for threshold in (1.0, 4.0, np.inf):
            np.less_equal(scored, threshold, out=mask)
            assert np.array_equal(mask, expected <= threshold)

    @pytest.mark.parametrize("method", METHODS)
    def test_calls_of_any_size_in_turn_give_fresh_results(self, monkeypatch, intr, method):
        # Big, small, big: each call reads only what it wrote, even when
        # the workspace holds another call's rows or garbage.
        sets = [
            _contaminated(intr, method, count, 0.5, seed)
            for count, seed in ((1000, 0), (90, 1), (1000, 2))
        ]

        def estimate(c):
            if method == "homography":
                return estimate_homography_ransac(c, 1.0, 200, seed=3)
            return estimate_epipolar(c, intr, 1.0, 200, seed=3)

        got = []
        for c in sets:
            got.append(_run(lambda: estimate(c)))
            pose_estimation._WORKSPACE.floats[:] = np.nan
            pose_estimation._WORKSPACE.mask[:] = True
        for c, result in zip(sets, got):
            monkeypatch.setattr(pose_estimation, "_WORKSPACE", pose_estimation._ScoreWorkspace())
            _assert_same(result, _run(lambda: estimate(c)))

    def test_chunks_without_a_model_score_nothing(self):
        # Every sample degenerate: chunks of 1, 64, 65, 65 and 5 draws (65
        # is the chunk cap on 1000 pairs) score empty stacks into the
        # workspace.
        n = 1000
        a = np.random.default_rng(0).uniform(0.0, 1280.0, (n, 2))
        drawn, scored = [], []
        transfer = _transfer_scorer(a, a)

        def fit(idx):
            drawn.append(len(idx))
            return np.full((len(idx), 3, 3), np.nan)

        def score(models, work):
            scored.append(len(models))
            return transfer(models, work)

        mask, count = pose_estimation._ransac_consensus(n, 4, fit, score, 1.0, 200, 0)
        assert (mask, count) == (None, -1)
        assert drawn == [1, 64, 65, 65, 5]
        assert scored == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize("method", METHODS)
    def test_a_warm_full_budget_call_allocates_less_than_one_chunk(self, intr, method):
        # 30 % inliers keep the adaptive target above the budget of 200
        # draws, so chunks of 1, 64, 65, 65 and 5 models are scored.
        c = _contaminated(intr, method, 1000, 0.3, 0)
        if method == "homography":
            estimate = lambda: estimate_homography_ransac(c, 1.0, 200, seed=0)
        else:
            estimate = lambda: estimate_epipolar(c, intr, 1.0, 200, seed=0)
        estimate()
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 65 * 3 * 1000 * 8


class TestRefitScores:
    @pytest.mark.parametrize("refine_iters", [1, 2, 3])
    def test_refit_errors_are_its_models_own(self, intr, refine_iters):
        # Noisy pairs keep changing the mask until the refits run out; exact
        # ones stop on an unchanged mask.
        exact = [plane_pair_set(intr, Rotation.about_y(7.0), [0.15, 0.05, 0.02], [0, 0, 1], 2.0, 150)[0]]
        noisy = [_contaminated(intr, "homography", 200, 0.6, seed) for seed in range(3)]
        stopped = []
        for c in exact + noisy:
            score = _transfer_scorer(c.a, c.b)
            fit = lambda idx: homography_dlt(c.a[idx], c.b[idx])
            model, _, err = pose_estimation._ransac_refit(
                len(c), 4, fit, score, 1.0, 200, 0, refine_iters
            )
            stopped.append(err is not None)
            if err is not None:
                assert np.array_equal(err, score(model, None))
        assert stopped == [refine_iters > 1] + [False] * len(noisy)

    def test_exact_plane_scores_its_final_model_once(self, monkeypatch, intr):
        c, _ = plane_pair_set(intr, Rotation.about_y(7.0), [0.15, 0.05, 0.02], [0, 0, 1], 2.0, 150)
        real = pose_estimation._transfer_scorer
        single = []

        def counting(a, b):
            score = real(a, b)

            def counted(h, work=None):
                if work is None:
                    single.append(h.shape)
                return score(h, work)

            return counted

        monkeypatch.setattr(pose_estimation, "_transfer_scorer", counting)
        _, mask = estimate_homography_ransac(c, 1.0, 200, seed=0)
        assert mask.all()
        # The refit stops on an unchanged mask; its scores serve the
        # local-optimisation gate, which keeps every pair and refits nothing.
        assert single == [(3, 3)]


def _essential_candidates(xa, xb):
    """The four (R, t) candidates of the pairs' essential matrix, as
    ``estimate_epipolar`` builds them."""
    u, _, vt = np.linalg.svd(_essential_from_rays(xa, xb))
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1
    if np.linalg.det(vt) < 0:
        vt[-1] *= -1
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return u @ w @ vt, u @ w.T @ vt, u[:, 2]


class TestCheiralityVote:
    ROTATION = Rotation.from_axis_angle([0.3, 1.0, -0.2], 6.0)
    T = np.array([0.12, -0.05, 0.04])

    @staticmethod
    def _votes(intr, c):
        xa, xb = _rays(intr, c.a), _rays(intr, c.b)
        r1, r2, t = _essential_candidates(xa, xb)
        return (
            pose_estimation._cheirality_votes((r1, r2), t, xa, xb),
            _four_triangulation_votes(r1, r2, t, xa, xb),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_general_and_coplanar_pairs_pick_the_oracle_candidate(self, intr, seed):
        general, _ = general_pair_set(intr, self.ROTATION, self.T, count=150, seed=seed)
        plane, _ = plane_pair_set(intr, self.ROTATION, self.T, [0.1, 0, 1], 2.0, 150, seed)
        for c in (general, plane):
            got, expected = self._votes(intr, c)
            assert got.tolist() == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_pairs_pick_the_oracle_candidate(self, intr, seed):
        c, _ = general_pair_set(intr, self.ROTATION, self.T, count=150, seed=seed)
        rng = np.random.default_rng(seed)
        noisy = CorrespondenceSet(c.a, c.b + rng.uniform(-2.0, 2.0, c.b.shape))
        got, expected = self._votes(intr, noisy)
        assert np.argmax(got) == np.argmax(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_parallax_picks_the_oracle_rotation(self, intr, seed):
        # Without translation every pair is parallel under the true rotation,
        # so neither sign of t is measured: the oracle splits its votes
        # between them by the sign of rounding noise, while every pair
        # votes for both here.  The rotation both pick is the true one.
        rng = np.random.default_rng(seed)
        a = rng.uniform([0.0, 0.0], [1280.0, 960.0], (60, 2))
        pure, _ = general_pair_set(intr, self.ROTATION, np.zeros(3), count=150, seed=seed)
        for c in (CorrespondenceSet(a, a), pure):
            got, expected = self._votes(intr, c)
            assert np.argmax(got) // 2 == np.argmax(expected) // 2
            assert got[np.argmax(got) ^ 1] == got.max() == len(c)

    def test_pure_rotation_estimate_is_unstable_without_warnings(self, intr):
        c, _ = general_pair_set(intr, self.ROTATION, np.zeros(3), count=150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hyp = estimate_epipolar(c, intr, 1.0, 200, seed=0)
        assert rotation_angle(hyp.pose.rotation.compose(self.ROTATION.inverse())) < 1e-9
        assert hyp.unstable_translation


class TestEightPointNullVector:
    def test_coplanar_pairs_keep_the_full_svd_null_vector(self, intr):
        # Eight pairs of one plane leave the 8x9 system a 3-D null space;
        # the solve must return the projection of the full SVD's last right
        # singular vector, not another member of that space.
        c, _ = plane_pair_set(intr, Rotation.about_z(4.0), [0.1, -0.03, 0.02], [0.1, 0, 1], 2.0, 8)
        xa, xb = _rays(intr, c.a), _rays(intr, c.b)
        m = (xb[:, :, None] * xa[:, None, :]).reshape(8, 9)
        svals = np.linalg.svd(m, compute_uv=False)
        assert svals[-2] < 1e-9 * svals[0]
        u, s, vt = np.linalg.svd(np.linalg.svd(m)[2][-1].reshape(3, 3))
        if np.linalg.det(u) < 0:
            u[:, -1] *= -1.0
        if np.linalg.det(vt) < 0:
            vt[-1] *= -1.0
        sm = 0.5 * (s[0] + s[1])
        expected = u @ np.diag([sm, sm, 0.0]) @ vt
        assert np.array_equal(_essential_from_rays(xa, xb), expected)
        assert np.array_equal(_essential_from_rays(xa[None], xb[None])[0], expected)


def _faugeras_oracle(h_cal):
    """All eight factorizations, candidate by candidate: a list of
    (R, t, n) triples, empty below the zero-baseline spread."""
    u, d, vt = np.linalg.svd(h_cal)
    d1, d2, d3 = d
    if (d1 - d3) / d2 < pose_estimation.ZERO_MOTION_SPREAD:
        return []
    s = np.linalg.det(u) * np.linalg.det(vt)
    v = vt.T
    denom = d1 * d1 - d3 * d3
    x1 = np.sqrt(max((d1 * d1 - d2 * d2) / denom, 0.0))
    x3 = np.sqrt(max((d2 * d2 - d3 * d3) / denom, 0.0))
    candidates = []
    aux_st = np.sqrt(max((d1 * d1 - d2 * d2) * (d2 * d2 - d3 * d3), 0.0)) / ((d1 + d3) * d2)
    ct = (d2 * d2 + d1 * d3) / ((d1 + d3) * d2)
    for e1 in (1.0, -1.0):
        for e3 in (1.0, -1.0):
            st = e1 * e3 * aux_st
            rp = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])
            tp = (d1 - d3) * np.array([e1 * x1, 0.0, -e3 * x3])
            npl = np.array([e1 * x1, 0.0, e3 * x3])
            candidates.append((s * (u @ rp @ vt), (u @ tp) / (s * d2), v @ npl))
    if d1 - d3 > 1e-12 * d2:
        aux_sp = np.sqrt(max((d1 * d1 - d2 * d2) * (d2 * d2 - d3 * d3), 0.0)) / ((d1 - d3) * d2)
        cp = (d1 * d3 - d2 * d2) / ((d1 - d3) * d2)
        for e1 in (1.0, -1.0):
            for e3 in (1.0, -1.0):
                sp = e1 * e3 * aux_sp
                rp = np.array([[cp, 0.0, sp], [0.0, -1.0, 0.0], [sp, 0.0, -cp]])
                tp = (d1 + d3) * np.array([e1 * x1, 0.0, e3 * x3])
                npl = np.array([e1 * x1, 0.0, e3 * x3])
                candidates.append((s * (u @ rp @ vt), (u @ tp) / (-s * d2), v @ npl))
    return candidates


def _decompose_oracle(h, intr, c):
    """The cheirality and residual loop over all eight candidates, kept as
    the reference for the two-candidate decomposition's output bits."""
    k, k_inv = intr.matrix(), intr.inverse_matrix()
    h_cal = k_inv @ h.matrix @ k
    rays_a, rays_b = _rays(intr, c.a), _rays(intr, c.b)
    mean_ray = rays_a.mean(axis=0)
    mean_ray = mean_ray / np.linalg.norm(mean_ray)
    if np.median(np.einsum("ij,ij->i", rays_b, rays_a @ h_cal.T)) < 0:
        h_cal = -h_cal
    candidates = _faugeras_oracle(h_cal)
    if not candidates:
        r = Rotation.from_matrix(h_cal / np.linalg.svd(h_cal, compute_uv=False)[1])
        return [
            pose_estimation.PoseHypothesis(
                pose=DirectionalPose(r, np.array([0.0, 0.0, 1.0])),
                support=len(c),
                zero_motion=True,
            )
        ]
    surviving = []
    for r_m, t, n in candidates:
        n_norm, t_norm = np.linalg.norm(n), np.linalg.norm(t)
        if n_norm < 1e-12 or t_norm < 1e-12:
            continue
        n = n / n_norm
        front = rays_a @ n
        if np.median(front) < 0:
            n, t, front = -n, -t, -front
        if np.any(front <= 0):
            continue
        pts_b = (rays_a * (1.0 / front)[:, None]) @ r_m.T + t
        if np.any(pts_b[:, 2] <= 0):
            continue
        h_cand = k @ (r_m + np.outer(t, n)) @ k_inv
        residual = float(np.mean(_transfer_scorer(c.a, c.b)(h_cand)))
        t_dir = t / np.linalg.norm(t)
        if not any(
            np.abs(o[1] - r_m).max() < 1e-9 and float(o[2] @ t_dir) > 1.0 - 1e-12
            for o in surviving
        ):
            surviving.append((residual, r_m, t_dir, n, float(n @ mean_ray)))
    if not surviving:
        raise CheiralityError("no decomposition with full positive-depth support")
    surviving.sort(key=lambda item: (round(item[0], 9), -item[4]))
    return [
        pose_estimation.PoseHypothesis(
            pose=DirectionalPose(Rotation.from_matrix(r_m), t_dir),
            plane_normal=n,
            support=len(c),
        )
        for _, r_m, t_dir, n, _ in surviving
    ]


def _assert_same_hypotheses(got, expected):
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        np.testing.assert_array_equal(x.pose.rotation.matrix, y.pose.rotation.matrix)
        np.testing.assert_array_equal(x.pose.direction, y.pose.direction)
        if y.plane_normal is None:
            assert x.plane_normal is None
        else:
            np.testing.assert_array_equal(x.plane_normal, y.plane_normal)
        assert (x.support, x.zero_motion) == (y.support, y.zero_motion)


def _random_plane_motion(seed):
    rng = np.random.default_rng(seed)
    rot = Rotation.from_axis_angle(rng.standard_normal(3), rng.uniform(1, 18))
    t = rng.uniform(-0.25, 0.25, 3)
    n = rng.standard_normal(3)
    n[2] = abs(n[2]) + 1.5
    return rot, t, n / np.linalg.norm(n), rng.uniform(1.0, 3.0)


def _plane_between_motion(angle_deg):
    """The plane z = 2 between the camera centres: B sits at z = 3.6 and
    turns about y to look back at it, so det H < 0 and the factorization
    takes d' = -d2."""
    rot = Rotation.about_y(angle_deg)
    centre_b = np.array([0.3, -0.1, 3.6])
    return rot, -rot.matrix @ centre_b, np.array([0.0, 0.0, 1.0]), 2.0


def _signed_det(h, intr, c):
    """det of the calibrated homography after the decomposition's sign fix:
    its sign is s = det U det V of the factorization."""
    h_cal = intr.inverse_matrix() @ h.matrix @ intr.matrix()
    signs = np.einsum("ij,ij->i", _rays(intr, c.b), _rays(intr, c.a) @ h_cal.T)
    return np.linalg.det(h_cal) * (-1.0 if np.median(signs) < 0 else 1.0)


class TestStackedDecomposition:
    """The two candidates that can pass cheirality, tested as one stack,
    give the eight-candidate loop's hypotheses bit for bit, in its order."""

    @pytest.mark.parametrize("seed", range(12))
    def test_general_motion_equals_oracle(self, intr, seed):
        rot, t, n, dist = _random_plane_motion(seed)
        c, _ = plane_pair_set(intr, rot, t, n, dist, seed=seed)
        h, mask = estimate_homography_ransac(c, 1.0, 300, seed=seed)
        inl = c.subset(mask)
        expected = _decompose_oracle(h, intr, inl)
        _assert_same_hypotheses(decompose_homography_candidates(h, intr, inl), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_inliers_equal_oracle(self, intr, seed):
        rot, t, n, dist = _random_plane_motion(100 + seed)
        c, _ = plane_pair_set(intr, rot, t, n, dist, count=300, seed=seed)
        rng = np.random.default_rng(seed)
        noisy = CorrespondenceSet(c.a, c.b + rng.normal(0.0, 0.7, size=c.b.shape))
        h, mask = estimate_homography_ransac(noisy, 2.0, 300, seed=seed)
        inl = noisy.subset(mask)
        _assert_same_hypotheses(decompose_homography_candidates(h, intr, inl), _decompose_oracle(h, intr, inl))

    def test_pure_rotation_takes_the_zero_motion_path(self, intr):
        rot = Rotation.from_axis_angle([0.2, 1.0, 0.1], 4.0)
        c, _ = plane_pair_set(intr, rot, [0.0, 0.0, 0.0], [0, 0, 1], 2.0)
        h = Homography(_pixel_homography(intr, rot, [0.0, 0.0, 0.0], [0, 0, 1], 2.0))
        got = decompose_homography_candidates(h, intr, c)
        assert len(got) == 1 and got[0].zero_motion
        _assert_same_hypotheses(got, _decompose_oracle(h, intr, c))

    def test_coincident_twins_merge_into_one(self, intr):
        # Translation along the normal of a fronto-parallel plane: the two
        # factorizations are the same solution, returned once.
        rot, t = Rotation.identity(), [0.0, 0.0, -0.3]
        c, _ = plane_pair_set(intr, rot, t, [0, 0, 1], 2.0)
        h = Homography(_pixel_homography(intr, rot, t, [0, 0, 1], 2.0))
        got = decompose_homography_candidates(h, intr, c)
        assert len(got) == 1 and not got[0].zero_motion
        _assert_same_hypotheses(got, _decompose_oracle(h, intr, c))

    def test_cheirality_rejections_equal_oracle(self, intr):
        # A patch on one side of the plane: the oracle's tests drop most of
        # its eight candidates, and the twins left come back in its order.
        rot, t = Rotation.about_y(6.0), np.array([0.04, 0.0, 0.01])
        n = np.array([0.9, 0.0, 0.436]) / np.linalg.norm([0.9, 0.0, 0.436])
        h_pix = _pixel_homography(intr, rot, t, n, float(n @ [0.0, 0.0, 2.0]))
        rng = np.random.default_rng(3)
        a = np.column_stack([rng.uniform(400, 900, 40), rng.uniform(200, 700, 40)])
        bh = np.hstack([a, np.ones((40, 1))]) @ h_pix.T
        c = CorrespondenceSet(a, bh[:, :2] / bh[:, 2:])
        expected = _decompose_oracle(Homography(h_pix), intr, c)
        assert 1 <= len(expected) < 8
        _assert_same_hypotheses(decompose_homography_candidates(Homography(h_pix), intr, c), expected)

        # Pairs on both sides of every surviving normal's horizon: the
        # stack raises where the loop raises.
        u_grid = np.linspace(-3000, 3000, 400)
        pixels = np.column_stack([u_grid, np.full_like(u_grid, 480.0)])
        side = _rays(intr, pixels) @ np.array([x.plane_normal for x in expected]).T
        bad = pixels[np.concatenate([side.argmax(axis=0), side.argmin(axis=0)])]
        bh = np.hstack([bad, np.ones((len(bad), 1))]) @ h_pix.T
        c_bad = CorrespondenceSet(bad, bh[:, :2] / bh[:, 2:])
        with pytest.raises(CheiralityError):
            _decompose_oracle(Homography(h_pix), intr, c_bad)
        with pytest.raises(CheiralityError):
            decompose_homography_candidates(Homography(h_pix), intr, c_bad)

    @pytest.mark.parametrize("angle", [150.0, 165.0, 180.0])
    @pytest.mark.parametrize("noise_px", [0.0, 0.5])
    def test_plane_between_the_cameras_equals_oracle(self, intr, angle, noise_px):
        rot, t, n, dist = _plane_between_motion(angle)
        c, _ = plane_pair_set(intr, rot, t, n, dist, count=300, seed=5)
        rng = np.random.default_rng(5)
        c = CorrespondenceSet(c.a, c.b + rng.normal(0.0, noise_px, size=c.b.shape))
        h, mask = estimate_homography_ransac(c, 2.0, 300, seed=5)
        inl = c.subset(mask)
        assert _signed_det(h, intr, inl) < 0
        got = decompose_homography_candidates(h, intr, inl)
        _assert_same_hypotheses(got, _decompose_oracle(h, intr, inl))
        errors = [rotation_angle(x.pose.rotation.compose(rot.inverse())) for x in got]
        assert min(errors) < (1e-6 if noise_px == 0 else 0.5)

    @pytest.mark.parametrize(
        "motion",
        [_random_plane_motion(200 + seed) for seed in range(6)]
        + [_plane_between_motion(angle) for angle in (150.0, 165.0, 180.0)],
        ids=[str(seed) for seed in range(6)] + ["between-150", "between-165", "between-180"],
    )
    def test_candidate_stack_equals_the_loop(self, motion):
        # The two built are the loop's e1 = +1 pair on the side of s:
        # entries 0, 1 (d' = +d2) or 4, 5 (d' = -d2).
        rot, t, n, dist = motion
        h_cal = rot.matrix + np.outer(t / dist, n)
        u, _, vt = np.linalg.svd(h_cal)
        s = np.linalg.det(u) * np.linalg.det(vt)
        rotations, translations, normals = pose_estimation._faugeras_candidates(h_cal)
        expected = _faugeras_oracle(h_cal)
        assert len(expected) == 8 and len(rotations) == 2
        for k, (r_m, t_k, n_k) in enumerate(expected[:2] if s > 0 else expected[4:6]):
            np.testing.assert_array_equal(rotations[k], r_m)
            np.testing.assert_array_equal(translations[k], t_k)
            np.testing.assert_array_equal(normals[k], n_k)
