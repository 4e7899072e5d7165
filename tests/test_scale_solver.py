"""Unit tests for the depth/scale linear system and the metric chain."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from acrkit.errors import (
    AmbiguousNullspaceError,
    CheiralityError,
    DegenerateInitError,
    InsufficientDataError,
    InvalidInputError,
    MissingDepthError,
)
from acrkit.geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    compose,
)
from acrkit.pose_estimation import CorrespondenceSet
from acrkit.scale_solver import (
    _BLOCK,
    _SIGN,
    MAX_SYSTEM_POINTS,
    ScaleSolution,
    SparseDepthMap,
    _EPS,
    _arrowhead_eigen,
    _checked_solution,
    _secular_root,
    coefficient_arrays,
    depth_map_current,
    depth_map_reference,
    init_scale,
    iteration_scale,
    solve_scale_system,
)
from conftest import project_pixels

UNIT_INTR = Intrinsics(1.0, 1.0, 0.0, 0.0)


def assemble_system(coefficients) -> np.ndarray:
    """Oracle: the dense 3N x (2N+1) stationarity system of (N, 6)
    coefficients.

    Row triple i carries ``(a_i, -b_i, g_i)``, ``(-b_i, d_i, -e_i)`` and
    ``(g_i, -e_i, z_i)`` in columns (2i, 2i+1, 2N).
    """
    arr = np.asarray(coefficients, dtype=float)
    n = arr.shape[0]
    m = arr[:, _BLOCK] * _SIGN
    a = np.zeros((n, 3, 2 * n + 1))
    rows = np.arange(n)
    a[rows, :, 2 * rows] = m[:, :, 0]
    a[rows, :, 2 * rows + 1] = m[:, :, 1]
    a[:, :, 2 * n] = m[:, :, 2]
    return a.reshape(3 * n, 2 * n + 1)


def solve_nullspace(a, track_id=None) -> ScaleSolution:
    """Oracle: the minimum non-zero solution of an assembled system, from a
    dense eigensolve of the normal matrix, checked as the O(N) solve checks
    its own eigenpair.  The tracks are numbered from 0 unless given."""
    w, v = scipy.linalg.eigh(a.T @ a, subset_by_index=[0, 1])
    tracks = np.arange(a.shape[1] // 2) if track_id is None else track_id
    return _checked_solution(w, v[:, 0], tracks)


def _two_view(intr, rotation, translation, count=30, seed=3, depth_range=(1.5, 2.5)):
    """Correspondences plus ground-truth depths in both frames."""
    rng = np.random.default_rng(seed)
    pts_a = np.column_stack(
        [
            rng.uniform(-0.6, 0.6, count),
            rng.uniform(-0.4, 0.4, count),
            rng.uniform(*depth_range, count),
        ]
    )
    pts_b = pts_a @ rotation.matrix.T + np.asarray(translation, dtype=float)
    k = intr.matrix()
    c = CorrespondenceSet(project_pixels(k, pts_a), project_pixels(k, pts_b))
    return c, pts_a[:, 2], pts_b[:, 2]


def _coefficients(qa, qb, intr, pose) -> np.ndarray:
    """(alpha, beta, gamma, delta, epsilon, zeta) of one pixel pair."""
    return coefficient_arrays(np.array([qa], float), np.array([qb], float), intr, pose)[0]


def _energy(coefficients, da, db, s) -> float:
    """Value of one correspondence's warping quadratic F at (da, db, s)."""
    alpha, beta, gamma, delta, epsilon, zeta = coefficients
    return (
        0.5 * alpha * da * da
        - beta * da * db
        + gamma * da * s
        + 0.5 * delta * db * db
        - epsilon * db * s
        + 0.5 * zeta * s * s
    )


class TestCoefficientBlock:
    """One correspondence's row of :func:`coefficient_arrays`."""

    def test_lateral_direction_unit_rays(self):
        b = _coefficients(
            (0, 0), (0, 0), UNIT_INTR, DirectionalPose(Rotation.identity(), [1, 0, 0])
        )
        assert b.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_axial_direction_unit_rays(self):
        b = _coefficients(
            (0, 0), (0, 0), UNIT_INTR, DirectionalPose(Rotation.identity(), [0, 0, 1])
        )
        assert b.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_random_inputs_match_dense_oracle(self, intr):
        # Oracle: the six quadratic forms written out with explicit dense
        # matrix products.
        rng = np.random.default_rng(1)
        for _ in range(20):
            qa = np.array([rng.uniform(0, 1280), rng.uniform(0, 960), 1.0])
            qb = np.array([rng.uniform(0, 1280), rng.uniform(0, 960), 1.0])
            axis = rng.standard_normal(3)
            rot = Rotation.from_axis_angle(axis, rng.uniform(0, 40))
            t_dir = rng.standard_normal(3)
            t_dir /= np.linalg.norm(t_dir)
            k_inv = intr.inverse_matrix()
            r_inv = np.linalg.inv(rot.matrix)
            expected = (
                qa @ k_inv.T @ k_inv @ qa,
                qa @ k_inv.T @ r_inv @ k_inv @ qb,
                qa @ k_inv.T @ r_inv @ t_dir,
                qb @ k_inv.T @ r_inv.T @ r_inv @ k_inv @ qb,
                qb @ k_inv.T @ r_inv.T @ r_inv @ t_dir,
                t_dir @ r_inv.T @ r_inv @ t_dir,
            )
            got = _coefficients(qa[:2], qb[:2], intr, DirectionalPose(rot, t_dir))
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_positivity_of_quadratic_terms(self, intr):
        rng = np.random.default_rng(2)
        rot = Rotation.about_y(12.0)

        for _ in range(10):
            alpha, _, _, delta, _, zeta = _coefficients(
                (rng.uniform(0, 1280), rng.uniform(0, 960)),
                (rng.uniform(0, 1280), rng.uniform(0, 960)),
                intr,
                DirectionalPose(rot, rng.standard_normal(3)),
            )
            assert alpha > 0 and delta > 0 and zeta > 0


class TestAssembleSystem:
    def test_single_block_layout(self):
        a = assemble_system([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        expected = np.array([[1.0, -2.0, 3.0], [-2.0, 4.0, -5.0], [3.0, -5.0, 6.0]])
        np.testing.assert_allclose(a, expected)

    def test_two_blocks_disjoint_columns(self):
        a = assemble_system([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
        assert a.shape == (6, 5)
        assert np.all(a[0:3, 2:4] == 0)
        assert np.all(a[3:6, 0:2] == 0)
        np.testing.assert_allclose(a[3], [0, 0, 7, -8, 9])
        np.testing.assert_allclose(a[:, 4], [3, -5, 6, 9, -11, 12])

    def test_three_nonzeros_per_row(self):
        rng = np.random.default_rng(0)
        blocks = rng.uniform(0.5, 2.0, size=(9, 6))
        a = assemble_system(blocks)
        assert a.shape == (27, 19)
        assert (np.count_nonzero(a, axis=1) == 3).all()


class TestSolveNullspace:
    def test_noiseless_ratios(self, intr):
        rotation = Rotation.about_z(4.0).compose(Rotation.about_x(-3.0))
        s_true = 0.08
        t_dir = np.array([0.6, -0.3, 0.74])
        t_dir /= np.linalg.norm(t_dir)
        c, d_a, d_b = _two_view(intr, rotation, t_dir * s_true, count=20)
        sol = solve_scale_system(c, intr, DirectionalPose(rotation, t_dir))
        np.testing.assert_allclose(sol.d_a / sol.s, d_a / s_true, rtol=1e-8)
        np.testing.assert_allclose(sol.d_b / sol.s, d_b / s_true, rtol=1e-8)
        assert sol.residual < 1e-6

    def test_pure_rotation_is_ambiguous(self, intr):
        rotation = Rotation.about_z(5.0)
        c, _, _ = _two_view(intr, rotation, [0, 0, 0], count=25)
        with pytest.raises(AmbiguousNullspaceError):
            solve_scale_system(c, intr, DirectionalPose(rotation, [0, 0, 1]))

    def test_noise_keeps_ratios_within_percent(self, intr):
        # Monte-Carlo oracle: ground-truth depth/scale ratios from the
        # generating geometry, 100 noisy trials.
        rotation = Rotation.about_y(3.0)
        s_true = 0.1
        t_dir = np.array([0.8, 0.2, 0.566])
        t_dir /= np.linalg.norm(t_dir)
        medians = []
        for trial in range(100):
            c, d_a, _ = _two_view(
                intr, rotation, t_dir * s_true, count=30, seed=trial,
                depth_range=(1.2, 2.0),
            )
            rng = np.random.default_rng(1000 + trial)
            noisy = CorrespondenceSet(
                c.a, c.b + rng.normal(0.0, 0.5, size=c.b.shape)
            )
            sol = solve_scale_system(noisy, intr, DirectionalPose(rotation, t_dir))
            rel = np.abs((sol.d_a / sol.s) / (d_a / s_true) - 1.0)
            medians.append(np.median(rel))
        assert float(np.median(medians)) < 0.01

    def test_scene_scale_gauge_invariance(self, intr):
        rotation = Rotation.about_x(2.0)
        t_dir = np.array([1.0, 0.0, 0.0])
        c1, _, _ = _two_view(intr, rotation, t_dir * 0.05, count=15, seed=5)
        # Scaling every depth and the scale by the same constant leaves the
        # pixels (hence the system and its solution) unchanged.
        rng = np.random.default_rng(5)
        pts_a = np.column_stack(
            [rng.uniform(-0.6, 0.6, 15), rng.uniform(-0.4, 0.4, 15), rng.uniform(1.5, 2.5, 15)]
        )
        k = intr.matrix()
        scale_factor = 3.7
        pts_b = pts_a @ rotation.matrix.T + t_dir * 0.05
        c2 = CorrespondenceSet(
            project_pixels(k, pts_a * scale_factor),
            project_pixels(k, pts_b * scale_factor),
        )
        dp = DirectionalPose(rotation, t_dir)
        sol1 = solve_scale_system(c1, intr, dp)
        sol2 = solve_scale_system(c2, intr, dp)
        np.testing.assert_allclose(sol1.y, sol2.y, atol=1e-9)

    def test_dense_matrix_input(self, intr):
        rotation = Rotation.about_z(3.0)
        t_dir = np.array([0.0, 1.0, 0.0])
        c, d_a, _ = _two_view(intr, rotation, t_dir * 0.05, count=10)
        arr = coefficient_arrays(c.a, c.b, intr, DirectionalPose(rotation, t_dir))
        sol = solve_nullspace(assemble_system(arr))
        np.testing.assert_allclose(sol.d_a / sol.s, d_a / 0.05, rtol=1e-7)

    def test_minimum_points_enforced(self, intr):
        c = CorrespondenceSet(np.zeros((5, 2)), np.zeros((5, 2)))
        with pytest.raises(InsufficientDataError):
            solve_scale_system(c, intr, DirectionalPose(Rotation.identity(), [1, 0, 0]))

    def test_every_pair_is_solved(self, intr):
        # The solve takes no sample: 700 pairs, past the init depth map's
        # cap, give 700 tracks in their order, each with its true depth.
        rotation = Rotation.about_z(3.0)
        t_dir = np.array([1.0, 0.0, 0.0])
        c, d_a, _ = _two_view(intr, rotation, t_dir * 0.05, count=700)
        assert len(c) > MAX_SYSTEM_POINTS
        sol = solve_scale_system(c, intr, DirectionalPose(rotation, t_dir))
        np.testing.assert_array_equal(sol.track_id, c.track_id)
        np.testing.assert_allclose(sol.d_a / sol.s, d_a / 0.05, rtol=1e-7)


def _svd_oracle(arr):
    """Two smallest singular values and the last right singular vector (with
    s >= 0) of the assembled dense system."""
    _, s, vt = np.linalg.svd(assemble_system(arr), full_matrices=False)
    v = vt[-1] if vt[-1][-1] >= 0 else -vt[-1]
    return s[::-1][:2], v


def _unit(y, like):
    y = np.asarray(y) / np.linalg.norm(y)
    return y if y @ like >= 0 else -y


def _noisy_arrays(intr, count, seed):
    """Coefficients of a noisy two-view set and the pose that produced them."""
    rotation = Rotation.about_y(3.0)
    t_dir = np.array([0.8, 0.2, 0.566])
    t_dir /= np.linalg.norm(t_dir)
    c, _, _ = _two_view(intr, rotation, t_dir * 0.1, count=count, seed=seed)
    rng = np.random.default_rng(100 + seed)
    noisy = CorrespondenceSet(c.a, c.b + rng.normal(0.0, 0.5, size=c.b.shape))
    pose = DirectionalPose(rotation, t_dir)
    arr = coefficient_arrays(noisy.a, noisy.b, intr, pose)
    return noisy, pose, arr


class TestArrowheadSolve:
    """The O(N) secular solve against the dense SVD of the assembled system.

    Both are backward stable; on these systems the two smallest singular
    values differ by more than 1e-2 of the largest of them, so 1e-9 leaves
    orders of magnitude of margin over rounding.
    """

    @pytest.mark.parametrize("n", [8, 100, 512])
    def test_random_arrays_match_dense_svd(self, n):
        arr = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 6))
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(np.sqrt(w), s, rtol=1e-9)
        np.testing.assert_allclose(_unit(y, v), v, atol=1e-9)

    @pytest.mark.parametrize("n", [8, 100, 512])
    def test_noisy_geometry_matches_dense_solve(self, intr, n):
        c, pose, arr = _noisy_arrays(intr, n, seed=n)
        sol = solve_scale_system(c, intr, pose)
        ref = solve_nullspace(assemble_system(arr), track_id=c.track_id)
        np.testing.assert_allclose(sol.y, ref.y, atol=1e-9)
        np.testing.assert_array_equal(sol.track_id, ref.track_id)

    def test_duplicated_tracks_repeat_every_pole(self, intr):
        # Each track twice: every pole is repeated, so the second eigenvalue
        # is the first pole itself, not a secular root.
        _, _, arr = _noisy_arrays(intr, 30, seed=4)
        arr = np.repeat(arr, 2, axis=0)
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(np.sqrt(w), s, rtol=1e-9)
        np.testing.assert_allclose(_unit(y, v), v, atol=1e-9)
        sol = _checked_solution(w, y, np.arange(len(arr)))
        np.testing.assert_allclose(sol.d_a[0::2], sol.d_a[1::2], rtol=1e-12)

    def test_zero_weight_pole_above_the_root(self, intr):
        # gamma = epsilon = 0: the track's rays are orthogonal to the
        # translation, so both its poles carry zero weight and its depths
        # drop out of the minimiser, which then fails cheirality.
        _, _, arr = _noisy_arrays(intr, 30, seed=5)
        arr[7] = [2.0, 0.5, 0.0, 1.5, 0.0, arr[0, 5]]
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(np.sqrt(w), s, rtol=1e-9)
        np.testing.assert_allclose(_unit(y, v), v, atol=1e-9)
        assert y[14] == y[15] == 0.0
        with pytest.raises(CheiralityError):
            _checked_solution(w, y, np.arange(len(arr)))
        with pytest.raises(CheiralityError):
            solve_nullspace(assemble_system(arr))

    def test_zero_weight_pole_below_the_root(self, intr):
        # A singular zero-weight block puts an eigenvalue 0 under the
        # secular root: the minimiser has s = 0, reported as cheirality.
        _, _, arr = _noisy_arrays(intr, 30, seed=6)
        arr[3] = [1.0, 1.0, 0.0, 1.0, 0.0, arr[0, 5]]
        w, y = _arrowhead_eigen(arr)
        s, _ = _svd_oracle(arr)
        tol = 64 * np.finfo(float).eps * np.linalg.norm(assemble_system(arr))
        assert np.sqrt(w[0]) < tol and s[0] < tol
        np.testing.assert_allclose(np.sqrt(w[1]), s[1], rtol=1e-9)
        assert y[-1] == 0.0
        with pytest.raises(CheiralityError):
            _checked_solution(w, y, np.arange(len(arr)))
        with pytest.raises(CheiralityError):
            solve_nullspace(assemble_system(arr))

    def test_pure_rotation_is_ambiguous_at_scale(self, intr):
        rotation = Rotation.about_z(5.0)
        c, _, _ = _two_view(intr, rotation, [0, 0, 0], count=200)
        with pytest.raises(AmbiguousNullspaceError):
            solve_scale_system(c, intr, DirectionalPose(rotation, [0, 0, 1]))


def _block_ratios(arr):
    sv = np.linalg.svd((arr[:, _BLOCK] * _SIGN)[:, :, :2], compute_uv=False)
    return sv[:, 1] / sv[:, 0]


def _near_converged_arrays(intr, fraction, seed=5):
    """Coefficients of an exact two-view set whose translation is the given
    fraction of the ~2 m depth: each track's two rays nearly coincide, as at
    the end of a relocalization."""
    rotation = Rotation.about_y(0.5)
    t_dir = np.array([0.6, -0.3, 0.74]) / np.linalg.norm([0.6, -0.3, 0.74])
    c, _, _ = _two_view(intr, rotation, t_dir * 2.0 * fraction, count=120, seed=seed)
    return coefficient_arrays(c.a, c.b, intr, DirectionalPose(rotation, t_dir))


class TestNearConvergedSolve:
    """The secular solve against the dense SVD where track blocks are nearly
    rank one.

    A block whose da/db columns are within ``s2 / s1`` of parallel leaves
    every backward-stable factorization an error of about ``eps s1 / s2``
    along its smaller singular vector, and two such solves differ by up to
    that much.  1e-9 on the unit ``y`` holds while every block keeps
    ``s2 / s1`` above about 1e-6; nearer convergence the bound is
    ``eps / min(s2 / s1)``.
    """

    @pytest.mark.parametrize("fraction", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_matches_dense_solve(self, intr, fraction):
        arr = _near_converged_arrays(intr, fraction)
        assert _block_ratios(arr).min() > 1e-7
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(_unit(y, v), v, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.sqrt(w[1]), s[1], rtol=1e-9)

    @pytest.mark.parametrize("fraction, below", [(1e-6, 1e-7), (1e-8, 1e-9)])
    def test_matches_dense_solve_within_the_block_bound(self, intr, fraction, below):
        # At 1e-8 the nearest block has s2 / s1 ~ 3e-10.
        arr = _near_converged_arrays(intr, fraction)
        ratio = _block_ratios(arr).min()
        assert ratio < below
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(_unit(y, v), v, rtol=0, atol=np.finfo(float).eps / ratio)
        assert y[-1] * v[-1] > 0
        np.testing.assert_allclose(np.sqrt(w[1]), s[1], rtol=1e-6)

    @pytest.mark.parametrize("k", [1.0 + 1e-12, -(1.0 + 1e-12)])
    def test_nearly_parallel_block(self, intr, k):
        # b2 = k b1 in one track, s2 / s1 ~ 1e-17; the rest of the system is
        # ordinary noisy geometry.
        _, _, arr = _noisy_arrays(intr, 60, seed=7)
        a, g = 1.3, 0.2
        arr[11] = [a, k * a, g, k * k * a, k * g, arr[0, 5]]
        assert _block_ratios(arr)[11] < 1e-11
        w, y = _arrowhead_eigen(arr)
        s, v = _svd_oracle(arr)
        np.testing.assert_allclose(_unit(y, v), v, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.sqrt(w[1]), s[1], rtol=1e-9)


def _svd_arrowhead_eigen(arr):
    """The secular solve with every track block factored by LAPACK's SVD:
    the reference for the closed-form block factors."""
    m = arr[:, _BLOCK] * _SIGN
    v, sv, uh = np.linalg.svd(m[:, :, :2])
    q = np.einsum("nji,nj->ni", v, m[:, :, 2])
    mu, g, q2 = (sv * sv).ravel(), (sv * q[:, :2]).ravel(), (q[:, :2] ** 2).ravel()
    live = (mu > 0) & (q2 > _EPS**2 * np.repeat((q * q).sum(axis=1), 2))
    rho = float((q[:, 2] ** 2).sum() + q2[~live].sum())
    bound = 2.0 * float(mu.sum() + (q * q).sum())
    p1, p2 = np.partition(np.where(live, mu, bound), 1)[:2]
    mu_l, q2_l = mu[live], q2[live]
    lam1 = _secular_root(rho, mu_l, q2_l, 0.0, p1, 0.0)
    lam2 = p1
    if p2 - p1 > 4 * _EPS * p2:
        lam2 = _secular_root(rho, mu_l, q2_l, p1, p2, 0.5 * (p1 + p2))
    dead = np.where(live, np.inf, mu)
    x = np.zeros(mu.size)
    s = float(dead.min() >= lam1)
    if s:
        x[live] = -g[live] / (mu_l - lam1)
    else:
        x[np.argmin(dead)] = 1.0
    y = np.einsum("nji,nj->ni", uh, x.reshape(-1, 2)).ravel()
    return np.partition(np.append(dead, [lam1, lam2]), 1)[:2], np.append(y, s)


class TestClosedFormBlocks:
    """The closed-form block factors against the per-block SVD.

    Near convergence the smallest eigenvalue is a rounding residue in both
    solves, so the eigenvalues are compared on the scale of the second.
    """

    @pytest.mark.parametrize("n", [8, 100, 512])
    def test_random_arrays_match_the_svd_path(self, n):
        self._check(np.random.default_rng(10 + n).uniform(-1.0, 1.0, size=(n, 6)))

    @pytest.mark.parametrize("fraction", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_near_converged_arrays_match_the_svd_path(self, intr, fraction):
        self._check(_near_converged_arrays(intr, fraction, seed=9))

    def test_noisy_geometry_matches_the_svd_path(self, intr):
        self._check(_noisy_arrays(intr, 233, seed=8)[2])

    @staticmethod
    def _check(arr):
        w, y = _arrowhead_eigen(arr)
        w_ref, y_ref = _svd_arrowhead_eigen(arr)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-8 * w_ref[1])
        np.testing.assert_allclose(_unit(y, y_ref), y_ref / np.linalg.norm(y_ref), rtol=0, atol=1e-8)


class TestGradientIdentity:
    def test_rows_match_finite_differences(self, intr):
        # Independent oracle: central differences of the per-point warping
        # quadratic; the stacked system rows are its per-point gradient.
        rng = np.random.default_rng(8)
        rotation = Rotation.about_y(7.0)
        t_dir = np.array([0.3, -0.2, 0.93])
        t_dir /= np.linalg.norm(t_dir)
        c, _, _ = _two_view(intr, rotation, t_dir * 0.07, count=6)
        blocks = coefficient_arrays(c.a, c.b, intr, DirectionalPose(rotation, t_dir))
        a = assemble_system(blocks)
        n = len(blocks)
        eps = 1e-6
        for _ in range(20):
            y = rng.uniform(0.5, 2.0, 2 * n + 1)
            product = a @ y
            for i, block in enumerate(blocks):
                da, db, s = y[2 * i], y[2 * i + 1], y[-1]
                grads = []
                for index in range(3):
                    point = [da, db, s]
                    plus = point.copy()
                    minus = point.copy()
                    plus[index] += eps
                    minus[index] -= eps
                    grads.append(
                        (_energy(block, *plus) - _energy(block, *minus)) / (2 * eps)
                    )
                np.testing.assert_allclose(
                    product[3 * i : 3 * i + 3], grads, rtol=1e-6, atol=1e-8
                )


class TestMetricChain:
    def test_init_scale_unit_denominator(self):
        dp = DirectionalPose(Rotation.identity(), [0, 0, 1])
        assert init_scale([0, 0, 0.05], dp) == pytest.approx(0.05)

    def test_init_scale_norm(self):
        dp = DirectionalPose(Rotation.identity(), [1, 0, 0])
        assert init_scale([0.03, 0.04, 0], dp) == pytest.approx(0.05)

    def test_init_scale_zero_rejected(self):
        with pytest.raises(DegenerateInitError):
            init_scale([0, 0, 0], DirectionalPose(Rotation.identity(), [1, 0, 0]))

    def test_depth_map_current_ratio(self):
        sol = ScaleSolution(
            y=np.array([10.0, 11.0, 0.5]) / np.linalg.norm([10.0, 11.0, 0.5]),
            residual=0.0,
            track_id=[0],
        )
        d = depth_map_current(sol, 0.05)
        assert d.lookup([0])[0] == pytest.approx(1.0)

    def test_depth_map_current_rejects_negative(self):
        y = np.array([-10.0, 11.0, 0.5])
        sol = ScaleSolution.__new__(ScaleSolution)
        object.__setattr__(sol, "y", y / np.linalg.norm(y))
        object.__setattr__(sol, "track_id", np.array([0]))
        with pytest.raises(CheiralityError):
            depth_map_current(sol, 0.05)

    def test_depth_map_reference_ratio(self):
        y = np.array([2.0, 1.0, 0.2])
        sol = ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=[7])
        d0 = SparseDepthMap([7], [1.0])
        dref = depth_map_reference(sol, d0)
        assert dref.lookup([7])[0] == pytest.approx(2.0)

    def test_depth_map_reference_missing_track(self):
        y = np.array([2.0, 1.0, 0.2])
        sol = ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=[7])
        with pytest.raises(MissingDepthError):
            depth_map_reference(sol, SparseDepthMap([8], [1.0]))

    def test_iteration_scale_formula(self):
        y = np.array([0.8, 0.9, 0.2])
        sol = ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=[3])
        dref = SparseDepthMap([3], [2.0])
        # s * D_ref / d_ref with the common normalization canceling.
        expected = (y[2] / np.linalg.norm(y)) * 2.0 / (y[0] / np.linalg.norm(y))
        assert iteration_scale(sol, dref) == pytest.approx(expected)

    def test_iteration_scale_mean_of_constant(self):
        y = np.array([1.0, 1.1, 2.0, 2.2, 0.1])
        sol = ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=[1, 2])
        dref = SparseDepthMap([1, 2], [10.0, 20.0])
        # Both tracks give the identical ratio, the mean equals it exactly.
        assert iteration_scale(sol, dref) == pytest.approx(0.1 * 10.0 / 1.0)

    def test_iteration_scale_no_shared_tracks(self):
        y = np.array([1.0, 1.0, 0.5])
        sol = ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=[1])
        with pytest.raises(MissingDepthError):
            iteration_scale(sol, SparseDepthMap([9], [1.0]))

    def test_iteration_scale_averages_only_shared_tracks(self):
        # Tracks 4 and 6 carry reference depths, track 5 does not.
        y = np.array([1.0, 1.0, 3.0, 3.0, 2.0, 2.0, 0.5])
        sol = ScaleSolution(
            y=y / np.linalg.norm(y), residual=0.0, track_id=[4, 5, 6]
        )
        dref = SparseDepthMap([6, 4, 8], [8.0, 1.0, 99.0])
        # Ratios s * D_ref / d: 0.5 * 1 / 1 for track 4, 0.5 * 8 / 2 for 6.
        assert iteration_scale(sol, dref) == pytest.approx(0.5 * (0.5 + 2.0))

    def test_chain_matches_per_track_loop(self):
        # The elementwise chain against the per-track arithmetic it replaced,
        # bit for bit: the same operations in the same order per element.
        rng = np.random.default_rng(5)

        def solution(tracks):
            y = rng.uniform(0.5, 2.0, 2 * len(tracks) + 1)
            return ScaleSolution(y=y / np.linalg.norm(y), residual=0.0, track_id=tracks)

        init = solution(rng.permutation(60))
        d0 = depth_map_current(init, 0.05)
        factor = 0.05 / init.s
        loop_d0 = {int(t): float(init.d_a[i] * factor) for i, t in enumerate(init.track_id)}
        assert d0.lookup(list(loop_d0)).tolist() == list(loop_d0.values())

        ref = solution(rng.choice(60, 40, replace=False))
        dref = depth_map_reference(ref, d0)
        loop_dref = {
            int(t): loop_d0[int(t)] * float(ref.d_a[i] / ref.d_b[i])
            for i, t in enumerate(ref.track_id)
        }
        assert dref.lookup(list(loop_dref)).tolist() == list(loop_dref.values())

        it = solution(rng.choice(80, 50, replace=False))  # some tracks unknown
        ratios = [
            it.s * loop_dref[int(t)] / float(it.d_a[i])
            for i, t in enumerate(it.track_id)
            if int(t) in loop_dref
        ]
        assert 0 < len(ratios) < 50
        assert iteration_scale(it, dref) == float(np.mean(ratios))

    def test_full_chain_noiseless(self, intr):
        # ref at identity, current at E0, init translation in camera terms.
        e0 = Pose(Rotation.about_z(3.0), np.array([0.02, -0.03, 0.04]))
        t_01 = Pose(Rotation.identity(), np.array([0.015, -0.025, 0.03]))
        e_init = compose(t_01, e0)
        rng = np.random.default_rng(3)
        pts = np.column_stack(
            [rng.uniform(-0.6, 0.6, 40), rng.uniform(-0.4, 0.4, 40), rng.uniform(1.5, 2.5, 40)]
        )
        k = intr.matrix()

        def view(pose):
            cam = pts @ pose.rotation.matrix.T + pose.translation
            return project_pixels(k, cam), cam[:, 2]

        p_ref, d_ref_true = view(Pose.identity())
        p_0, d_0_true = view(e0)
        p_init, _ = view(e_init)

        sol1 = solve_scale_system(
            CorrespondenceSet(p_0, p_init),
            intr,
            DirectionalPose(t_01.rotation, t_01.translation),
        )
        s_init = init_scale(
            t_01.translation, DirectionalPose(t_01.rotation, t_01.translation)
        )
        d0 = depth_map_current(sol1, s_init)
        np.testing.assert_allclose(d0.lookup(np.arange(40)), d_0_true, atol=1e-8)

        sol2 = solve_scale_system(
            CorrespondenceSet(p_ref, p_0),
            intr,
            DirectionalPose(e0.rotation, e0.translation),
        )
        dref = depth_map_reference(sol2, d0)
        np.testing.assert_allclose(dref.lookup(np.arange(40)), d_ref_true, atol=1e-7)

        s_i = iteration_scale(sol2, dref)
        truth = float(np.linalg.norm(e0.translation))
        assert abs(s_i - truth) / truth < 1e-3



class TestSparseDepthMap:
    def test_unsorted_input_comes_back_sorted(self):
        d = SparseDepthMap([11, 3, 7], [0.75, 1.25, 2.0])
        np.testing.assert_array_equal(d.track_id, [3, 7, 11])
        np.testing.assert_array_equal(d.depth, [1.25, 2.0, 0.75])

    def test_known_and_lookup_keep_query_order(self):
        d = SparseDepthMap([11, 3, 7], [0.75, 1.25, 2.0])
        np.testing.assert_array_equal(
            d.known([7, 4, 11, 12, 3, -1]), [True, False, True, False, True, False]
        )
        np.testing.assert_array_equal(d.lookup([11, 3, 7, 3]), [0.75, 1.25, 2.0, 1.25])

    @pytest.mark.parametrize("ids", [[], [5], [-3, 0, 4, 9, 20]])
    def test_known_and_lookup_agree_with_isin(self, ids):
        # An empty map, ids past both ends, negative ids and repeats in the query.
        d = SparseDepthMap(ids, np.arange(1.0, len(ids) + 1.0))
        query = np.array([-4, -3, -3, 0, 1, 4, 5, 9, 9, 20, 21, 10**12, -(10**12)])
        known = d.known(query)
        np.testing.assert_array_equal(known, np.isin(query, ids))
        np.testing.assert_array_equal(d.known(query[:0]), np.zeros(0, dtype=bool))
        np.testing.assert_array_equal(
            d.lookup(query[known]), [ids.index(t) + 1.0 for t in query[known]]
        )

    def test_lookup_unknown_track_raises(self):
        d = SparseDepthMap([3, 7], [1.0, 2.0])
        with pytest.raises(MissingDepthError, match="track 5"):
            d.lookup([3, 5])

    def test_duplicate_track_rejected(self):
        with pytest.raises(InvalidInputError):
            SparseDepthMap([3, 7, 3], [1.0, 2.0, 1.5])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_depth_rejected(self, bad):
        with pytest.raises(CheiralityError):
            SparseDepthMap([3, 7], [1.0, bad])

    @pytest.mark.parametrize(
        "tracks, depths",
        [([1, 2], [1.0]), ([1, 2], [[1.0, 2.0]]), ([[1, 2]], [[1.0, 2.0]])],
    )
    def test_shape_mismatch_rejected(self, tracks, depths):
        with pytest.raises(InvalidInputError):
            SparseDepthMap(tracks, depths)

    def test_arrays_are_read_only(self):
        d = SparseDepthMap([3, 7], [1.0, 2.0])
        with pytest.raises(ValueError):
            d.depth[0] = 5.0
