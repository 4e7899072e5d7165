"""Rigid-body and pinhole-projection primitives.

Conventions used throughout the toolkit:

* A :class:`Pose` is a rigid map ``x_out = R @ x_in + t``.  Camera poses are
  extrinsics (world frame to camera frame).  The relative pose attached to a
  correspondence pair ``(image A, image B)`` maps A-camera coordinates into
  B-camera coordinates.
* Rotations are stored as 3x3 row-major orthonormal matrices with
  determinant +1, and every operation on them, averaging included, works
  on the matrices.
* Image coordinates are ``(u, v)`` pixels with ``u`` along the image width.

All types are immutable values and all operations are pure functions, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDirectionError,
    InvalidInputError,
    InvalidIntrinsicsError,
)

ORTHONORMAL_TOL = 1e-9


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise InvalidInputError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("array contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
        r = u @ vt
    return r


def rodrigues(k: np.ndarray, sin: float, cos: float) -> np.ndarray:
    """Rodrigues' formula ``I + sin K + (1 - cos) K^2``: the rotation by the
    angle of sine ``sin`` and cosine ``cos`` about the unit axis ``k``, whose
    cross-product matrix is ``K``."""
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + sin * kx + (1.0 - cos) * (kx @ kx)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Element of SO(3), stored as a 3x3 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.matrix, (3, 3))
        drift = np.abs(m.T @ m - np.eye(3)).max()
        if drift > ORTHONORMAL_TOL or abs(np.linalg.det(m) - 1.0) > ORTHONORMAL_TOL:
            raise InvalidInputError(
                f"matrix is not orthonormal with determinant +1 (drift {drift:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        """The rotation nearest to ``m`` in the Frobenius sense, so that an
        estimate or a parsed matrix with rounding drift still wraps; use the
        constructor to require ``m`` itself to be a rotation."""
        return Rotation(_project_to_so3(np.asarray(m, dtype=float)))

    @staticmethod
    def from_axis_angle(axis, degrees: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm < 1e-15:
            raise InvalidInputError("rotation axis must be nonzero")
        theta = math.radians(degrees)
        return Rotation(rodrigues(axis / norm, math.sin(theta), math.cos(theta)))

    @staticmethod
    def about_x(degrees: float) -> "Rotation":
        return Rotation.from_axis_angle((1.0, 0.0, 0.0), degrees)

    @staticmethod
    def about_y(degrees: float) -> "Rotation":
        return Rotation.from_axis_angle((0.0, 1.0, 0.0), degrees)

    @staticmethod
    def about_z(degrees: float) -> "Rotation":
        return Rotation.from_axis_angle((0.0, 0.0, 1.0), degrees)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def compose(self, other: "Rotation") -> "Rotation":
        m = self.matrix @ other.matrix
        if np.abs(m.T @ m - np.eye(3)).max() > ORTHONORMAL_TOL:
            m = _project_to_so3(m)
        return Rotation(m)

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform ``x_out = R @ x_in + t``, translation in meters."""

    rotation: Rotation
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(
            self, "translation", _frozen_array(self.translation, (3,))
        )

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.matrix.T + self.translation

    def inverse(self) -> "Pose":
        rt = self.rotation.matrix.T
        return Pose(Rotation(rt), -rt @ self.translation)

    def to_json_dict(self) -> dict:
        return {
            "r": [float(v) for v in self.rotation.matrix.reshape(-1)],
            "t": [float(v) for v in self.translation],
        }


@dataclass(frozen=True, eq=False)
class DirectionalPose:
    """Rotation plus a unit translation direction (scale-free relative pose)."""

    rotation: Rotation
    direction: np.ndarray

    def __post_init__(self):
        d = np.array(self.direction, dtype=float)
        if d.shape != (3,):
            raise InvalidInputError("direction must be a 3-vector")
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise DegenerateDirectionError("translation direction has zero norm")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)

    def inverse(self) -> "DirectionalPose":
        rt = self.rotation.matrix.T
        return DirectionalPose(Rotation(rt), -(rt @ self.direction))


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidIntrinsicsError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def inverse_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


def compose(a: Pose, b: Pose) -> Pose:
    """Composition: the result applies ``b`` first, then ``a``."""
    r = a.rotation.compose(b.rotation)
    t = a.rotation.matrix @ b.translation + a.translation
    return Pose(r, t)


def rotation_angle(r: Rotation) -> float:
    """Rotation angle in degrees, in [0, 180].

    Uses atan2 of the skew-part magnitude against the trace-derived cosine,
    which stays accurate near both 0 and 180 degrees.
    """
    m = r.matrix
    skew = 0.5 * np.array(
        [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    )
    s = min(float(np.linalg.norm(skew)), 1.0)
    c = 0.5 * (np.trace(m) - 1.0)
    return math.degrees(math.atan2(s, c))


def direction_angle(a, b) -> float:
    """Angle between two unit 3-vectors in degrees, in [0, 180]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateDirectionError("direction with zero norm")
    a = a / na
    b = b / nb
    return math.degrees(math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b)))


def project_points(intr: Intrinsics, pose: Pose, points: np.ndarray):
    """Vectorized projection.

    Returns:
        (pixels, depths): ``(N, 2)`` pixel array and ``(N,)`` camera-frame
        depths.  Points behind the camera get non-positive depths; their
        pixel rows are NaN.
    """
    xc = pose.apply(points)
    depths = xc[:, 2].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * xc[:, 0] / depths + intr.cx
        v = intr.fy * xc[:, 1] / depths + intr.cy
    px = np.stack([u, v], axis=1)
    px[depths <= 0] = np.nan
    return px, depths
