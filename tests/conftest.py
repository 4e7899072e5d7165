"""Shared synthetic-geometry helpers for the test suite."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from acrkit import simulator
from acrkit.geometry import Intrinsics, Pose, Rotation
from acrkit.pose_estimation import CorrespondenceSet

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result depends on the code alone.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# Hypothesis still caches the constants it collects from the tested modules;
# keep that cache in a directory of this session, not in the checkout.
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _hypothesis_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _hypothesis_storage.name


@pytest.fixture
def intr() -> Intrinsics:
    return Intrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=480.0)


def project_pixels(k: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pinhole projection of camera-frame points, (N, 2) pixels."""
    p = points @ k.T
    return p[:, :2] / p[:, 2:3]


def plane_pair_set(
    intr: Intrinsics,
    rotation: Rotation,
    translation,
    normal,
    distance: float,
    count: int = 200,
    seed: int = 1,
    extent: float = 0.7,
):
    """Correspondences of points on the plane n.x = distance (A frame).

    The pose maps A-camera coordinates into B-camera coordinates; returns
    (CorrespondenceSet, points-in-A-frame).
    """
    rng = np.random.default_rng(seed)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e_u = np.cross(helper, n)
    e_u /= np.linalg.norm(e_u)
    e_v = np.cross(n, e_u)
    uv = rng.uniform(-extent, extent, size=(count, 2))
    pts_a = distance * n + uv[:, :1] * e_u + uv[:, 1:] * e_v
    pts_b = pts_a @ rotation.matrix.T + np.asarray(translation, dtype=float)
    assert (pts_a[:, 2] > 0).all() and (pts_b[:, 2] > 0).all()
    k = intr.matrix()
    return CorrespondenceSet(project_pixels(k, pts_a), project_pixels(k, pts_b)), pts_a


def general_pair_set(
    intr: Intrinsics,
    rotation: Rotation,
    translation,
    count: int = 250,
    seed: int = 3,
    depth_range=(1.2, 3.0),
):
    """Correspondences of points in general position (non-planar)."""
    rng = np.random.default_rng(seed)
    pts_a = np.column_stack(
        [
            rng.uniform(-0.8, 0.8, count),
            rng.uniform(-0.55, 0.55, count),
            rng.uniform(depth_range[0], depth_range[1], count),
        ]
    )
    pts_b = pts_a @ rotation.matrix.T + np.asarray(translation, dtype=float)
    keep = (pts_a[:, 2] > 0) & (pts_b[:, 2] > 0)
    pts_a = pts_a[keep]
    pts_b = pts_b[keep]
    k = intr.matrix()
    return CorrespondenceSet(project_pixels(k, pts_a), project_pixels(k, pts_b)), pts_a


def random_rotation(rng, max_degrees: float) -> Rotation:
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-9:
        axis = rng.standard_normal(3)
    return Rotation.from_axis_angle(axis, rng.uniform(0.0, max_degrees))


def random_pose_sample(rng, max_rotation_deg: float, max_offset_m: float) -> Pose:
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    return Pose(
        random_rotation(rng, max_rotation_deg), d * rng.uniform(0.0, max_offset_m)
    )


def observe_world(
    world,
    pose: Pose,
    intr: Intrinsics = simulator.DESK_INTRINSICS,
    image_size=simulator.DESK_IMAGE_SIZE,
    **kwargs,
):
    """``simulator.observe`` of ``world`` at ``pose``, from a reference view
    through ``intr`` and ``image_size`` built with its plane mask."""
    reference = simulator.reference_view(world, intr, image_size, True)
    return simulator.observe(reference, pose, **kwargs)
