"""Unit tests for the rigid-body and projection primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit import cli
from acrkit.errors import (
    DegenerateDirectionError,
    InvalidInputError,
)
from acrkit.geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    compose,
    direction_angle,
    project_points,
    rotation_angle,
)
from conftest import project_pixels, random_pose_sample, random_rotation

angles = st.floats(min_value=-179.0, max_value=179.0)
coords = st.floats(min_value=-5.0, max_value=5.0)


def _pose_strategy():
    return st.builds(
        lambda ax, ay, az, deg, tx, ty, tz: Pose(
            Rotation.from_axis_angle((ax + 0.1, ay, az), deg), np.array([tx, ty, tz])
        ),
        coords,
        coords,
        coords,
        angles,
        coords,
        coords,
        coords,
    )


class TestRotation:
    def test_identity(self):
        np.testing.assert_allclose(Rotation.identity().matrix, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            Rotation(np.eye(3) * 1.01)

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            Rotation(m)

    def test_axis_angle_about_z(self):
        m = Rotation.about_z(90.0).matrix
        np.testing.assert_allclose(m @ [1, 0, 0], [0, 1, 0], atol=1e-12)


class TestCompose:
    def test_identity_composition(self):
        p = compose(Pose.identity(), Pose.identity())
        np.testing.assert_allclose(p.matrix(), np.eye(4), atol=1e-15)

    def test_inverse_composition(self):
        rng = np.random.default_rng(1)
        p = random_pose_sample(rng, 120.0, 2.0)
        result = compose(p, p.inverse())
        np.testing.assert_allclose(result.matrix(), np.eye(4), atol=1e-9)

    def test_z_rotations_add(self):
        # Oracle: plain matrix product of the two rotation matrices.
        a = Pose(Rotation.about_z(30.0), np.zeros(3))
        b = Pose(Rotation.about_z(60.0), np.zeros(3))
        expected = a.rotation.matrix @ b.rotation.matrix
        got = compose(a, b)
        np.testing.assert_allclose(got.rotation.matrix, expected, atol=1e-14)
        np.testing.assert_allclose(
            got.rotation.matrix, Rotation.about_z(90.0).matrix, atol=1e-12
        )

    def test_applies_b_then_a(self):
        a = Pose(Rotation.about_z(90.0), np.array([1.0, 0.0, 0.0]))
        b = Pose(Rotation.identity(), np.array([0.0, 1.0, 0.0]))
        point = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            compose(a, b).apply(point), a.apply(b.apply(point)), atol=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(_pose_strategy(), _pose_strategy(), _pose_strategy())
    def test_associativity(self, a, b, c):
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.abs(left.matrix() - right.matrix()).max() < 1e-8


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(Pose.identity().inverse().matrix(), np.eye(4))

    def test_pure_translation(self):
        p = Pose(Rotation.identity(), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p.inverse().translation, [-1.0, -2.0, -3.0])

    def test_random_pose_composition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_pose_sample(rng, 170.0, 3.0)
            np.testing.assert_allclose(
                compose(p, p.inverse()).matrix(), np.eye(4), atol=1e-9
            )


class TestRotationAngle:
    def test_identity_is_zero(self):
        assert rotation_angle(Rotation.identity()) == 0.0

    def test_axis_aligned(self):
        assert rotation_angle(Rotation.about_z(90.0)) == pytest.approx(90.0, abs=1e-10)

    def test_half_turn(self):
        assert rotation_angle(Rotation.about_x(180.0)) == pytest.approx(180.0, abs=1e-9)

    def test_small_angle_quaternion_oracle(self):
        # Independent oracle: quaternion magnitude angle via scipy.
        from scipy.spatial.transform import Rotation as ScipyRotation

        r = Rotation.about_z(0.1).compose(Rotation.about_x(0.1))
        expected = ScipyRotation.from_matrix(r.matrix).magnitude()
        assert rotation_angle(r) == pytest.approx(math.degrees(expected), abs=1e-9)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            r = random_rotation(rng, 179.0)
            s = random_rotation(rng, 179.0)
            conjugated = s.compose(r).compose(s.inverse())
            assert rotation_angle(conjugated) == pytest.approx(
                rotation_angle(r), abs=1e-9
            )

    @settings(max_examples=50, deadline=None)
    @given(angles, coords, coords, coords)
    def test_range(self, deg, ax, ay, az):
        r = Rotation.from_axis_angle((ax + 0.1, ay, az), deg)
        assert 0.0 <= rotation_angle(r) <= 180.0


class TestDirectionAngle:
    def test_parallel(self):
        assert direction_angle([1, 0, 0], [1, 0, 0]) == 0.0

    def test_orthogonal(self):
        assert direction_angle([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)

    def test_antiparallel(self):
        assert direction_angle([1, 0, 0], [-1, 0, 0]) == pytest.approx(180.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            direction_angle([0, 0, 0], [1, 0, 0])


class TestProject:
    def test_unit_intrinsics(self):
        px, depths = project_points(
            Intrinsics(1, 1, 0, 0), Pose.identity(), np.array([[0, 0, 1.0]])
        )
        assert px[0].tolist() == [0.0, 0.0] and depths.tolist() == [1.0]

    def test_focal_and_principal_point(self):
        px, _ = project_points(
            Intrinsics(100, 100, 50, 50), Pose.identity(), np.array([[0.1, 0, 1]])
        )
        assert px[0] == pytest.approx((60.0, 50.0))

    def test_behind_camera(self):
        px, depths = project_points(
            Intrinsics(100, 100, 50, 50), Pose.identity(), np.array([[0, 0, -1.0], [0, 0, 1.0]])
        )
        assert np.isnan(px[0]).all() and depths[0] == -1.0
        assert px[1].tolist() == [50.0, 50.0]

    def test_vectorized_matches_scalar(self, intr):
        # Oracles: each point projected alone, and K (R X + t) divided by
        # its third row.
        rng = np.random.default_rng(5)
        pose = random_pose_sample(rng, 20.0, 0.2)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), rng.uniform(2, 3, 10)]
        )
        px, depths = project_points(intr, pose, pts)
        for i in range(10):
            single, depth = project_points(intr, pose, pts[i : i + 1])
            np.testing.assert_allclose(px[i], single[0], atol=1e-12)
            assert depths[i] == pytest.approx(depth[0])
        xc = pose.apply(pts)
        np.testing.assert_allclose(px, project_pixels(intr.matrix(), xc), atol=1e-9)
        np.testing.assert_allclose(depths, xc[:, 2], atol=1e-15)


class TestDirectionalPose:
    def test_normalizes_direction(self):
        d = DirectionalPose(Rotation.identity(), [0, 0, 2.0])
        assert np.linalg.norm(d.direction) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_direction(self):
        with pytest.raises(DegenerateDirectionError):
            DirectionalPose(Rotation.identity(), [0, 0, 0])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = random_rotation(rng, 100.0)
            d = rng.standard_normal(3)
            dp = DirectionalPose(r, d)
            back = dp.inverse().inverse()
            np.testing.assert_allclose(back.rotation.matrix, dp.rotation.matrix, atol=1e-12)
            np.testing.assert_allclose(back.direction, dp.direction, atol=1e-12)


class TestSerialization:
    def test_pose_json_round_trip(self):
        # The CLI's pose reader is the one that reads the layout back.
        rng = np.random.default_rng(9)
        p = random_pose_sample(rng, 75.0, 1.0)
        q = cli._rigid(p.to_json_dict(), "pose")
        np.testing.assert_allclose(q.matrix(), p.matrix(), atol=1e-12)

    def test_json_layout(self):
        doc = Pose(Rotation.about_z(90.0), np.array([1.0, 2.0, 3.0])).to_json_dict()
        assert set(doc) == {"r", "t"}
        assert len(doc["r"]) == 9 and len(doc["t"]) == 3
        # Row-major: first row of Rz(90) is (0, -1, 0).
        assert doc["r"][1] == pytest.approx(-1.0)


class TestImmutability:
    def test_arrays_are_frozen(self):
        p = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            p.translation[0] = 5.0
        with pytest.raises(ValueError):
            p.rotation.matrix[0, 0] = 5.0
