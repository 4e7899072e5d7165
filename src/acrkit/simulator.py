"""Synthetic ground-truth world for exercising the relocalization stack.

A scene is a set of planar patches (plus optional free clutter points)
observed by a virtual pinhole camera.  Observations pair the reference view
(extrinsic identity) with a current view and degrade the current pixels two
ways:

* uniform matching noise: a chosen fraction of pixels receives additive
  U(-r, r) per axis;
* an illumination-contamination proxy: correspondences whose track lies
  outside the detected plane regions turn into uniform in-image outliers at
  a high rate, in-plane ones at a low rate, and a dropout fraction vanishes
  entirely.  This encodes the premise that descriptors on planar regions
  survive lighting change while others mismatch, without simulating
  photometry.

Every observation is made from a :class:`ReferenceView`: the world, the
camera, the image size and what the reference camera sees, its plane mask
included when the view has one.

The :class:`SimulatedExecutor` drives the relocalization loop through a
hidden hand-eye pose: every commanded hand motion is conjugated by it
before moving the camera, and the executor never reveals it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .acr_loop import Observation, ObservationTruth
from .errors import (
    AcrError,
    EmptyObservationError,
    InvalidInputError,
    InvalidSceneError,
)
from .geometry import (
    Intrinsics,
    Pose,
    Rotation,
    compose,
    direction_angle,
    project_points,
    rotation_angle,
)
from .plane_match import PlaneSegmentMap
from .pose_estimation import (
    RANSAC_THRESHOLD_PX,
    CorrespondenceSet,
    decompose_homography,
    estimate_epipolar,
    estimate_homography_ransac,
)

# Virtual full-frame body: 5760x3840 px, 36x24 mm sensor, 35 mm lens.
CANON_IMAGE_SIZE = (5760, 3840)
CANON_INTRINSICS = Intrinsics(fx=5600.0, fy=5600.0, cx=2880.0, cy=1920.0)

# A plane polygon's least area over its bounding box's: the sampler draws in
# the box by rejection, and a thinner polygon would stall it.
MIN_POLYGON_FILL = 1e-4


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """One planar patch: ``normal . X = offset`` with a convex polygon.

    The polygon lives in plane-local (u, v) coordinates (meters) around
    ``center`` (a point on the plane, defaulting to ``offset * normal``).
    ``detected`` states whether the segmentation knows this plane; points
    of undetected planes count as off-plane for the lighting proxy.
    """

    normal: tuple
    offset: float
    half_extents: tuple = (0.2, 0.15)
    polygon: tuple = None  # overrides half_extents when given
    count: int = 250
    center: tuple = None
    detected: bool = True

    def unit_normal(self) -> np.ndarray:
        return self._frame[0]

    def local_polygon(self) -> np.ndarray:
        """(K, 2) (u, v) vertices, strictly convex and at least MIN_POLYGON_FILL full."""
        if self.polygon is None:
            hu, hv = float(self.half_extents[0]), float(self.half_extents[1])
            if not (0 < hu < math.inf and 0 < hv < math.inf):
                raise InvalidSceneError("degenerate polygon extents")
            return np.array([[-hu, -hv], [hu, -hv], [hu, hv], [-hu, hv]])
        poly = np.asarray(self.polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
            raise InvalidSceneError("polygon needs at least 3 (u, v) vertices")
        edge = np.roll(poly, -1, axis=0) - poly
        after = np.roll(edge, -1, axis=0)
        turn = edge[:, 0] * after[:, 1] - edge[:, 1] * after[:, 0]
        winding = np.arctan2(turn, (edge * after).sum(axis=1)).sum()
        area = abs((poly[:, 0] * edge[:, 1] - poly[:, 1] * edge[:, 0]).sum()) / 2
        if not (((turn > 0).all() or (turn < 0).all()) and abs(winding) < 3 * math.pi
                and area >= MIN_POLYGON_FILL * np.ptp(poly, axis=0).prod()):
            raise InvalidSceneError("polygon must be strictly convex, with a positive area")
        return poly

    def basis(self):
        """(origin, e_u, e_v) of the local frame; deterministic in normal."""
        return self._frame[1:]

    # The spec is frozen, so its geometry is computed once, on first use
    # (an invalid spec raises then, and again on every later use), and
    # handed out read-only.
    @cached_property
    def _frame(self):
        """(unit normal, origin, e_u, e_v)."""
        n = np.asarray(self.normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise InvalidSceneError("plane normal must be nonzero")
        n = n / norm
        helper = (
            np.array([0.0, 0.0, 1.0])
            if abs(n[2]) < 0.9
            else np.array([1.0, 0.0, 0.0])
        )
        e_u = np.cross(helper, n)
        e_u = e_u / np.linalg.norm(e_u)
        e_v = np.cross(n, e_u)
        if self.center is not None:
            origin = np.asarray(self.center, dtype=float)
            # Keep the origin exactly on the plane.
            origin = origin + (self.offset - float(n @ origin)) * n
        else:
            origin = self.offset * n
        for a in (n, origin, e_u, e_v):
            a.flags.writeable = False
        return n, origin, e_u, e_v

    @cached_property
    def _world_polygon(self) -> np.ndarray:
        """The polygon's vertices in the world frame, (K, 3)."""
        origin, e_u, e_v = self.basis()
        poly = self.local_polygon()
        verts = origin + poly[:, 0:1] * e_u + poly[:, 1:2] * e_v
        verts.flags.writeable = False
        return verts


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Scene description: planar patches plus optional free clutter points."""

    planes: tuple
    seed: int = 0
    clutter_count: int = 0
    clutter_box: tuple = None  # ((x0,x1),(y0,y1),(z0,z1)) in meters

    def __post_init__(self):
        if not self.planes and self.clutter_count == 0:
            raise InvalidSceneError("scene needs at least one plane or clutter")
        for p in self.planes:
            if p.count < 4:
                raise InvalidSceneError("each plane needs at least 4 points")
            if p.offset <= 0:
                raise InvalidSceneError(
                    "plane offsets must be positive (in front of the reference)"
                )
        if self.clutter_count and self.clutter_box is None:
            raise InvalidSceneError("clutter_count needs a clutter_box")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Uniform matching noise: a mu-fraction of pixels gets U(-r, r)."""

    magnitude_r: float = 0.0
    ratio_mu: float = 0.0

    def __post_init__(self):
        if not 0 <= self.magnitude_r < np.inf:
            raise InvalidInputError("noise magnitude must be non-negative and finite")
        if not 0.0 <= self.ratio_mu <= 1.0:
            raise InvalidInputError("noise ratio must be within [0, 1]")


@dataclass(frozen=True, eq=False)
class LightingProxySpec:
    """Differential contamination standing in for illumination change."""

    off_plane_outlier_fraction: float = 0.0
    in_plane_outlier_fraction: float = 0.0
    dropout_fraction: float = 0.0

    def __post_init__(self):
        for v in (
            self.off_plane_outlier_fraction,
            self.in_plane_outlier_fraction,
            self.dropout_fraction,
        ):
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError("lighting fractions must be within [0, 1]")
        if self.in_plane_outlier_fraction > self.off_plane_outlier_fraction:
            raise InvalidInputError(
                "in-plane contamination must not exceed off-plane contamination"
            )


@dataclass(frozen=True, eq=False)
class RigSpec:
    """Camera intrinsics plus the hidden hand-eye pose of the platform."""

    hand_eye: Pose
    intrinsics: Intrinsics
    image_size: tuple


@dataclass(frozen=True, eq=False)
class World:
    """Sampled scene: points in the reference-camera (world) frame."""

    points: np.ndarray  # (N, 3)
    plane_index: np.ndarray  # (N,) 1-based plane id, 0 for clutter
    track_id: np.ndarray  # (N,)
    spec: SceneSpec

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def detected_plane_ids(self) -> list:
        return [
            i + 1 for i, p in enumerate(self.spec.planes) if p.detected
        ]

    def in_plane_tracks(self) -> np.ndarray:
        detected = np.asarray(self.detected_plane_ids, dtype=np.int64)
        return np.isin(self.plane_index, detected)


def _sample_polygon(rng, polygon: np.ndarray, count: int) -> np.ndarray:
    """Uniform rejection sampling inside a convex polygon (local coords)."""
    lo = polygon.min(axis=0)
    hi = polygon.max(axis=0)
    out = np.empty((count, 2))
    filled = 0
    while filled < count:
        draw = rng.uniform(lo, hi, size=(max(count - filled, 16) * 2, 2))
        good = draw[_inside_convex(polygon, draw[:, 0], draw[:, 1])]
        take = min(count - filled, good.shape[0])
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def generate_scene(spec: SceneSpec) -> World:
    """Deterministic world sampling: uniform points per plane polygon plus
    uniform clutter in its box, with stable track ids in generation order."""
    rng = np.random.default_rng(spec.seed)
    points = []
    labels = []
    for index, plane in enumerate(spec.planes):
        origin, e_u, e_v = plane.basis()
        uv = _sample_polygon(rng, plane.local_polygon(), plane.count)
        pts = origin + uv[:, 0:1] * e_u + uv[:, 1:2] * e_v
        points.append(pts)
        labels.append(np.full(plane.count, index + 1, dtype=np.int64))
    if spec.clutter_count:
        box = np.asarray(spec.clutter_box, dtype=float)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(spec.clutter_count, 3))
        points.append(pts)
        labels.append(np.zeros(spec.clutter_count, dtype=np.int64))
    all_points = np.vstack(points)
    all_labels = np.concatenate(labels)
    return World(
        points=all_points,
        plane_index=all_labels,
        track_id=np.arange(all_points.shape[0], dtype=np.int64),
        spec=spec,
    )


def _half_planes(polygon: np.ndarray, margin: float) -> list:
    """The edges of a convex polygon as half-planes ``(x, y, ex, ey, orient,
    limit)``: a point (u, v) passes an edge when it lies on the polygon's
    side of the edge's line, or within ``margin`` of it, which
    :func:`_passes` decides."""
    area = 0.0
    k = polygon.shape[0]
    for i in range(k):
        j = (i + 1) % k
        area += polygon[i, 0] * polygon[j, 1] - polygon[j, 0] * polygon[i, 1]
    orient = 1.0 if area > 0 else -1.0
    edges = []
    for i in range(k):
        j = (i + 1) % k
        ex, ey = polygon[j] - polygon[i]
        edges.append((polygon[i, 0], polygon[i, 1], ex, ey, orient, -margin * math.hypot(ex, ey)))
    return edges


def _passes(edge, u, v):
    """Elementwise half-plane test of one :func:`_half_planes` edge.

    Along a row (v fixed) the test is monotone in u even in floating
    point: each operation on u rounds monotonically.
    """
    x, y, ex, ey, orient, limit = edge
    return orient * (ex * (v - y) - ey * (u - x)) >= limit


def _inside_convex(
    polygon: np.ndarray, u: np.ndarray, v: np.ndarray, margin: float = 0.0
) -> np.ndarray:
    """Points (u, v) inside a convex polygon, or within ``margin`` of it.

    The margin is a distance to each edge's line, in the polygon's units.
    """
    inside = np.ones(np.shape(u), dtype=bool)
    for edge in _half_planes(polygon, margin):
        inside &= _passes(edge, u, v)
    return inside


# Pixel centres this close to a projected patch edge count as covered:
# just over half the pixel diagonal, so a point inside a patch never rounds
# to a pixel its patch does not cover.
COVER_MARGIN_PX = 0.71


def _projected_polygon(plane: PlaneSpec, extrinsic: Pose, intr: Intrinsics):
    """Pixel vertices of a patch; None when one lies behind the camera."""
    px, depths = project_points(intr, extrinsic, plane._world_polygon)
    if np.any(depths <= 1e-9):
        return None
    return px


def _in_camera(plane: PlaneSpec, extrinsic: Pose):
    """A patch's plane in the camera frame of a view: ``(n_c, c_c)`` with
    ``n_c . X = c_c``."""
    n_c = extrinsic.rotation.matrix @ plane.unit_normal()
    return n_c, plane.offset + float(n_c @ extrinsic.translation)


def _ray_terms(n_c, intr: Intrinsics, u, v):
    """The three terms whose sum, left to right, is :func:`_ray_depth`'s
    denominator along the rays of pixels (u, v)."""
    return (
        n_c[..., 0] * ((u - intr.cx) / intr.fx),
        n_c[..., 1] * ((v - intr.cy) / intr.fy),
        n_c[..., 2],
    )


def _ray_depth(plane_c, intr: Intrinsics, u, v):
    """Elementwise depth of a plane ``(n_c, c_c)`` from :func:`_in_camera`
    along the rays of pixels (u, v).  A stack of planes, ``n_c`` (..., 3)
    and ``c_c`` (...), broadcasts against u and v, with the same bits.

    The denominator is affine in u, so along a row it is monotone, also in
    floating point.
    """
    n_c, c_c = plane_c
    t0, t1, t2 = _ray_terms(n_c, intr, u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return c_c / (t0 + t1 + t2)


def _cover(plane: PlaneSpec, extrinsic: Pose, intr: Intrinsics, verts_px, u, v):
    """Which pixels (u, v) a patch covers in a view, and its depth there.

    The one visibility rule of the simulator: a patch covers a pixel when
    the pixel centre lies within ``COVER_MARGIN_PX`` of its projected
    polygon ``verts_px`` (from :func:`_projected_polygon`; None covers
    nothing) and inside its pixel bounding box, and its plane lies in front
    of the camera along the pixel's ray.  The box, the vertices' extremes
    rounded outwards, ends the margin past a vertex sharper than 90
    degrees, where the edges' lines reach out beyond it.  The depth is that
    of the plane along the ray, computed elementwise so that a pixel gets
    the same depth bit for bit whatever array it comes in.
    """
    depth = _ray_depth(_in_camera(plane, extrinsic), intr, u, v)
    if verts_px is None:
        return np.zeros(np.shape(u), dtype=bool), depth
    (x0, y0), (x1, y1) = np.floor(verts_px.min(axis=0)), np.ceil(verts_px.max(axis=0))
    in_box = (x0 <= u) & (u <= x1) & (y0 <= v) & (v <= y1)
    return in_box & _inside_convex(verts_px, u, v, COVER_MARGIN_PX) & (depth > 0), depth


def _occluded(
    world: World, extrinsic: Pose, intr: Intrinsics, px: np.ndarray, depths: np.ndarray
) -> np.ndarray:
    """True for tracks that another plane patch hides in this view.

    Patches are opaque.  A track is hidden when another patch covers its
    rounded pixel (as :func:`_cover`, and so :func:`render_plane_mask`,
    defines covering) and, along that pixel's ray, lies nearer than the
    track's own plane; for a free clutter point, nearer than the point
    itself.  Both depths are taken on the same ray, as the mask's z-buffer
    takes them, so coplanar patches never hide each other, and a visible
    track's rounded pixel is never labelled with another, nearer patch.
    """
    u, v = np.rint(px[:, 0]), np.rint(px[:, 1])
    covers = [
        _cover(plane, extrinsic, intr, _projected_polygon(plane, extrinsic, intr), u, v)
        for plane in world.spec.planes
    ]
    own = depths  # a clutter point's own depth
    for plane_id, (_, depth) in enumerate(covers, 1):
        own = np.where(world.plane_index == plane_id, depth, own)
    occluded = np.zeros(own.shape, dtype=bool)
    for plane_id, (covered, depth) in enumerate(covers, 1):
        occluded |= covered & (depth < own) & (world.plane_index != plane_id)
    return occluded


def _edge_end(edge, t, v, step: int, x0: int, x1: int) -> np.ndarray:
    """The last column, walking by ``step`` from inside the polygon, that
    passes ``edge`` in each row v, starting from a guess ``t``; it ends
    one column short of ``x0`` or past ``x1`` when no column passes.

    The test is monotone along a row, so walking out while the next column
    passes and then back while the current one fails ends exactly.
    """
    for out in (True, False):
        while True:
            probe = t + step if out else t
            move = (x0 <= probe) & (probe <= x1)
            move[move] = _passes(edge, probe[move].astype(float), v[move]) == out
            if not move.any():
                break
            t = np.where(move, t + (step if out else -step), t)
    return t


def _cover_rows(plane: PlaneSpec, extrinsic: Pose, intr: Intrinsics, w: int, h: int):
    """The run of columns a patch covers in each row of a w x h view, as
    :func:`_cover` decides covering, with a finite depth; the ends
    ``(lo, hi)`` per row read lo > hi where it covers nothing.  Returns
    ``(lo, hi, plane_c)`` with the plane from :func:`_in_camera`, or None
    when the patch covers no pixel.
    """
    px = _projected_polygon(plane, extrinsic, intr)
    if px is None:
        return None
    lo_px = np.floor(px.min(axis=0)).astype(int)
    hi_px = np.ceil(px.max(axis=0)).astype(int)
    x0, y0 = max(lo_px[0], 0), max(lo_px[1], 0)
    x1, y1 = min(hi_px[0], w - 1), min(hi_px[1], h - 1)
    if x1 < x0 or y1 < y0:
        return None
    v = np.arange(y0, y1 + 1, dtype=float)
    lo = np.full(v.shape, x0, dtype=np.int64)
    hi = np.full(v.shape, x1, dtype=np.int64)
    for edge in _half_planes(px, COVER_MARGIN_PX):
        x, y, ex, ey, orient, limit = edge
        s = orient * ey
        if s == 0:  # parallel to the rows: a row passes whole or not at all
            hi[~_passes(edge, float(x0), v)] = x0 - 1
            continue
        # Where the line, moved out by the margin, crosses each row: an
        # upper end where s > 0 and a lower end where s < 0.
        at = x + (orient * ex * (v - y) - limit) / s
        if s > 0:
            guess = np.floor(np.clip(at, x0 - 1, x1)).astype(np.int64)
            hi = np.minimum(hi, _edge_end(edge, guess, v, 1, x0, x1))
        else:
            guess = np.ceil(np.clip(at, x0, x1 + 1)).astype(np.int64)
            lo = np.maximum(lo, _edge_end(edge, guess, v, -1, x0, x1))
    # The depth is finite and positive over a whole run when it is at both
    # ends (its denominator is monotone); other rows go pixel by pixel.
    plane_c = _in_camera(plane, extrinsic)
    rows = np.flatnonzero(lo <= hi)
    d_lo = _ray_depth(plane_c, intr, lo[rows].astype(float), v[rows])
    d_hi = _ray_depth(plane_c, intr, hi[rows].astype(float), v[rows])
    u = np.arange(x0, x1 + 1, dtype=float)
    for r in rows[~((0 < d_lo) & (d_lo < np.inf) & (0 < d_hi) & (d_hi < np.inf))]:
        covered, d = _cover(plane, extrinsic, intr, px, u, np.full(u.shape, v[r]))
        run = np.flatnonzero(covered & (d < np.inf))  # an interval: both tests are monotone
        lo[r], hi[r] = (x0 + run[0], x0 + run[-1]) if run.size else (x0, x0 - 1)
    if not (lo <= hi).any():
        return None
    lo_all, hi_all = np.full(h, w, dtype=np.int64), np.full(h, -1, dtype=np.int64)
    lo_all[y0 : y1 + 1], hi_all[y0 : y1 + 1] = lo, hi
    return lo_all, hi_all, plane_c


def _crossing_cuts(lo: np.ndarray, hi: np.ndarray, planes: np.ndarray, intr: Intrinsics):
    """Cuts around the depth crossings of every two drawn patches.

    ``lo`` and ``hi`` are (K, h) run ends as in :func:`_row_segments` and
    ``planes`` the (K, 4) planes ``(*n_c, c_c)`` from :func:`_in_camera`.
    Along row v a plane's ray-depth denominator is ``alpha * u + beta(v)``
    in real numbers, so two planes' depths cross at the one root of
    ``c_p * den_q(u) = c_q * den_p(u)``.  Where it falls inside the two
    patches' shared run, the cuts at ``floor(root)``, ``+ 1`` and ``+ 2``
    make the two pixels nearest it segments of their own.  Returns the
    cuts' rows and columns.  The roots only place cuts;
    :func:`_nearest_segments` certifies every label.
    """
    p, q = np.array(list(itertools.combinations(range(len(planes)), 2)), np.int64).reshape(-1, 2).T
    shared_lo, shared_hi = np.maximum(lo[p], lo[q]), np.minimum(hi[p], hi[q])
    pair, row = np.nonzero(shared_lo < shared_hi)
    p, q = p[pair], q[pair]
    n, c = planes[:, :3], planes[:, 3]
    alpha = n[:, 0] / intr.fx
    beta = n[:, 1] * ((row[:, None] - intr.cy) / intr.fy) + (n[:, 2] - alpha * intr.cx)
    at = np.arange(len(row))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = (c[q] * beta[at, p] - c[p] * beta[at, q]) / (c[p] * alpha[q] - c[q] * alpha[p])
        cuts = np.floor(root)[:, None] + np.arange(3)  # nan where the depths never cross
        inside = (shared_lo[pair, row, None] < cuts) & (cuts <= shared_hi[pair, row, None])
    return np.repeat(row, 3)[inside.ravel()], cuts[inside].astype(np.int64)


def _row_segments(lo: np.ndarray, hi: np.ndarray, cuts, w: int):
    """Every row of a w-wide view cut at the ends of the drawn runs and at
    ``cuts``.

    ``lo`` and ``hi`` are (K, h): row by row, the run ends of each drawn
    patch from :func:`_cover_rows`; ``cuts`` holds the rows and columns of
    more cuts.  Returns the segments that a patch covers, in raster order,
    as ``(row, first column, length)`` arrays: a segment lies wholly inside
    or wholly outside every run.  How many runs cover a segment is a
    running count over the cuts in order, each run adding one at its start
    and taking it back past its end.
    """
    h = lo.shape[1]
    ran = lo <= hi
    # A cut at (row, column) of kind c sorts by (row * (w + 1) + column) *
    # 4 + c.  Kind 0 is a plain cut, 1 starts a run and 2 ends one, and
    # kind 3 ends a row, so that it comes last among the cuts at a row's
    # end.
    at = np.arange(h) * (w + 1)
    keys = np.concatenate([
        at * 4, (at + w) * 4 + 3, (cuts[0] * (w + 1) + cuts[1]) * 4,
        ((at + np.where(ran, lo, w)) * 4 + ran).ravel(),
        ((at + np.where(ran, hi + 1, w)) * 4 + 2 * ran).ravel(),
    ])
    keys.sort()
    position, kind = np.divmod(keys, 4)
    covers = np.cumsum(np.array([0, 1, -1, 0])[kind])[:-1]
    cut = np.flatnonzero((np.diff(position) > 0) & (kind[:-1] < 3) & (covers > 0))
    row, first = np.divmod(position[cut], w + 1)
    return row, first, position[cut + 1] - position[cut]


# A patch is nearer than another over a whole piece of a row when its depth
# is below 1 - _DEPTH_MARGIN times the other's at both piece ends.  The
# margin holds against _ray_depth's rounding wherever the magnitudes of its
# denominator's terms sum to at most _CONDITION_LIMIT times the denominator
# (see _nearest_segments).
_DEPTH_MARGIN = 1e-9
_CONDITION_LIMIT = _DEPTH_MARGIN / (32 * np.finfo(float).eps)


def _nearest_segments(row, first, length, covered, planes_c, intr: Intrinsics):
    """The covering patch nearest over each whole segment, with that
    patch's id (its index in ``covered`` + 1); a segment that no test
    decides is halved until one does.

    ``planes_c`` stacks the K planes from :func:`_in_camera` to broadcast
    over (K, 2, n) segment ends.  A patch wins a segment when, against
    every other covering patch, one of three certificates shows it nearer
    at every pixel, strictly so against an earlier patch and at most
    equally against a later one: pixel by pixel, the strict ``<`` of a
    z-buffer pass in patch order.

    * Equal planes.  A later patch whose plane equals the patch's bit for
      bit has the same depth bits on every ray, so it never wins a tie.
    * End depths.  Along a covered run a plane's depth is monotone in
      floating point (see :func:`_ray_depth`), so its values at the two end
      pixels bound it.  The patch's largest end depth lies below the
      other's smallest.  On one pixel both ends are the pixel, so this is
      the z-buffer's own test and always decides.
    * End ratios.  The patch's depth is below ``1 - _DEPTH_MARGIN`` times
      the other's at both ends.  In real numbers the ratio of two depths
      along a row, ``c_k den_j(u) / (c_j den_k(u))``, is a ratio of affine
      functions, and it has no pole where the denominators keep their
      signs, so it is monotone and its end values bound it.  In floating
      point each of the denominator's terms (:func:`_ray_terms`) carries
      at most three roundings and their sum two more, so with R the sum
      of the terms' magnitudes over the denominator's, a computed depth is
      the real one within a relative ``(5 R + 1) eps / 2``.  R is a convex
      function over an affine one, so its end values bound it too.  Both
      patches' R must stay within ``_CONDITION_LIMIT`` at both ends; then
      the denominators keep their signs, and the roundings at an end and
      at any pixel inside together stay below a third of the margin.

    :func:`_crossing_cuts` gives each crossing's nearest pixels their own
    segments, so one pass decides all but near-parallel patches.  Returns
    ``(row, first, length, winner)`` in no particular order.
    """
    out = []
    k = len(covered)
    order = np.arange(k)
    later = (order[:, None] < order)[:, :, None]  # later[k, j]: j comes after k
    n_c, c_c = planes_c
    bits = np.hstack([n_c.reshape(k, 3), c_c.reshape(k, 1)]).view(np.int64)
    # given[k, j]: j is k itself or a later patch on k's plane, bit for bit.
    given = (order[:, None] <= order) & (bits[:, None] == bits[None]).all(axis=2)
    while row.size:
        ends = np.stack([first, first + length - 1]).astype(float)
        t0, t1, t2 = _ray_terms(n_c, intr, ends, row.astype(float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = t0 + t1 + t2
            d = c_c / den  # _ray_depth's bits, (K, 2, n)
            size = np.abs(t0) + np.abs(t1) + np.abs(t2)
            sure = (size <= _CONDITION_LIMIT * np.abs(den)).all(axis=1)
            near, far = d.min(axis=1)[None], d.max(axis=1)[:, None]
            beats = (far < near) | (later & (far <= near)) | given[:, :, None] | ~covered[None]
            ratio = (d[:, None] < (1.0 - _DEPTH_MARGIN) * d[None]).all(axis=2)
            beats |= sure[:, None] & sure[None] & ratio
        wins = covered & beats.all(axis=1)
        won = wins.any(axis=0)
        out.append((row[won], first[won], length[won], wins[:, won].argmax(axis=0) + 1))
        row, first, length, covered = row[~won], first[~won], length[~won], covered[:, ~won]
        half = length // 2
        row, first = np.concatenate([row, row]), np.concatenate([first, first + half])
        length, covered = np.concatenate([half, length - half]), np.hstack([covered, covered])
    return tuple(np.concatenate(parts) for parts in zip(*out))


def render_plane_mask(
    world: World, extrinsic: Pose, intr: Intrinsics, image_size
) -> PlaneSegmentMap:
    """Label map from the projected plane polygons (detected planes only).

    Each pixel is labelled with the nearest detected patch that covers it
    along its ray (a z-buffer in plane order with a strict ``<``; see
    :func:`_cover` for covering, with its 0.71 px edge margin, so sampled
    points never round out of their own region).  A patch is convex, so it
    covers one run of columns per row.  The run's ends come from the
    patch's edge lines and are then settled by the edge tests of
    :func:`_inside_convex` itself, so the 0.71 px margin is decided exactly
    as there; the plane's depth is checked at the two ends alone.

    The z-buffer works on row segments, not on pixels: each row is cut at
    every run end and around every two patches' depth crossing
    (:func:`_crossing_cuts`), and only the segments that a patch covers are
    kept (:func:`_row_segments`).  One test decides every segment
    (:func:`_nearest_segments`): depths are taken at segment ends only, a
    segment that one patch covers is that patch's, a patch keeps what it
    shares with later patches on its own plane, bit for bit, and only the
    segments of near-parallel patches are halved.  The map is built
    straight from the decided segments: neighbours in a row with one label
    merge into that label's run, and no per-pixel array is painted.  Ids
    are contiguous in plane order over the patches that keep a pixel, and
    the region areas are the run lengths.
    """
    w, h = int(image_size[0]), int(image_size[1])
    drawn = []  # (lo, hi, plane_c) of each patch that covers a pixel
    for plane in world.spec.planes:
        runs = _cover_rows(plane, extrinsic, intr, w, h) if plane.detected else None
        if runs is not None:
            drawn.append(runs)
    if not drawn:
        return PlaneSegmentMap._of_runs((h, w), np.zeros((4, 0), np.int64), 0)
    lo = np.array([runs[0] for runs in drawn])
    hi = np.array([runs[1] for runs in drawn])
    planes = np.array([(*n_c, c_c) for _, _, (n_c, c_c) in drawn])  # (K, 4)
    row, first, length = _row_segments(lo, hi, _crossing_cuts(lo, hi, planes, intr), w)
    covered = (np.take(lo, row, axis=1) <= first) & (first <= np.take(hi, row, axis=1))
    row, first, length, label = _nearest_segments(
        row, first, length, covered, (planes[:, None, None, :3], planes[:, None, None, 3]), intr
    )
    order = np.argsort(row * w + first)
    row, first, length, label = row[order], first[order], length[order], label[order]
    # A run starts wherever the label or the row changes: a patch covers
    # one run of columns per row, so no background lies between two
    # segments of one label in a row.
    starts = np.flatnonzero(np.diff(label, prepend=-1) | np.diff(row, prepend=-1))
    last = (first + length - 1)[np.append(starts[1:], len(row)) - 1]
    runs = np.stack([row[starts], first[starts], last, label[starts]])
    return PlaneSegmentMap._of_runs((h, w), runs, len(planes))


def _in_view(px: np.ndarray, depths: np.ndarray, image_size) -> np.ndarray:
    """Tracks in front of a camera whose pixels lie inside its image."""
    w, h = int(image_size[0]), int(image_size[1])
    return (
        (depths > 1e-9)
        & (px[:, 0] >= 0)
        & (px[:, 0] <= w - 1)
        & (px[:, 1] >= 0)
        & (px[:, 1] <= h - 1)
    )


@dataclass(frozen=True, eq=False)
class ReferenceView:
    """What every observation of a world takes from the reference view
    (extrinsic identity), built once by :func:`reference_view`.

    ``world``, ``intr`` and ``image_size`` (w, h) are what it was built
    for, and what every observation from it sees through.  ``pixels`` are
    the tracks' reference pixels, (N, 2); ``seen`` marks the tracks the
    reference camera sees, in front of it, inside the image and hidden by
    no other patch (:func:`_occluded`); ``in_plane`` marks the tracks on
    detected planes; ``mask`` is the reference plane mask, or None when the
    view was built without it, and then observations come without masks.
    """

    world: World
    intr: Intrinsics
    image_size: tuple
    pixels: np.ndarray
    seen: np.ndarray
    in_plane: np.ndarray
    mask: PlaneSegmentMap | None


def reference_view(world: World, intr: Intrinsics, image_size, render_mask: bool) -> ReferenceView:
    """The reference view of ``world`` through a camera ``intr`` with
    ``image_size``, with its plane mask when ``render_mask``."""
    reference = Pose.identity()
    px, depths = project_points(intr, reference, world.points)
    seen = _in_view(px, depths, image_size) & ~_occluded(world, reference, intr, px, depths)
    in_plane = world.in_plane_tracks()
    for a in (px, seen, in_plane):
        a.flags.writeable = False
    mask = render_plane_mask(world, reference, intr, image_size) if render_mask else None
    size = (int(image_size[0]), int(image_size[1]))
    return ReferenceView(world, intr, size, px, seen, in_plane, mask)


def observe(
    reference: ReferenceView,
    camera_pose: Pose,
    noise: NoiseSpec = None,
    lighting: LightingProxySpec = None,
    seed: int = 0,
) -> Observation:
    """One observation of the current view paired against the reference.

    The world, the camera and the image size are those ``reference`` was
    built for (:func:`reference_view`); a caller that observes one world
    many times builds the view once.  ``camera_pose`` is the current
    extrinsic in the world frame, which is the reference camera's
    (extrinsic identity).  Tracks must be visible (positive depth, inside
    the image, hidden by no other patch) in both views to appear.  Noise
    and the lighting proxy corrupt only the current-view pixels.  The
    plane masks come with the observation when the view holds its own:
    mask rendering dominates the cost at full resolution.
    """
    noise = noise or NoiseSpec()
    lighting = lighting or LightingProxySpec()
    world, intr, (w, h) = reference.world, reference.intr, reference.image_size
    rng = np.random.default_rng(seed)

    px_cur, d_cur = project_points(intr, camera_pose, world.points)
    visible = reference.seen & _in_view(px_cur, d_cur, reference.image_size)
    if visible.any():
        visible &= ~_occluded(world, camera_pose, intr, px_cur, d_cur)
    if not visible.any():
        raise EmptyObservationError("no track visible in both views")

    idx = np.flatnonzero(visible)
    a = reference.pixels[idx]
    b_clean = px_cur[idx]
    b = b_clean.copy()
    tracks = world.track_id[idx]
    n = idx.size

    # Matching noise on a mu-fraction of current pixels.
    n_noisy = int(round(noise.ratio_mu * n))
    if n_noisy and noise.magnitude_r > 0:
        chosen = rng.choice(n, size=n_noisy, replace=False)
        b[chosen] += rng.uniform(
            -noise.magnitude_r, noise.magnitude_r, size=(n_noisy, 2)
        )
    elif n_noisy:
        rng.choice(n, size=n_noisy, replace=False)  # keep the stream aligned

    # Lighting proxy: replace fractions of in-plane and off-plane pixels.
    in_plane = reference.in_plane[idx]
    for selector, fraction in (
        (~in_plane, lighting.off_plane_outlier_fraction),
        (in_plane, lighting.in_plane_outlier_fraction),
    ):
        pool = np.flatnonzero(selector)
        n_out = int(round(fraction * pool.size))
        if n_out:
            chosen = rng.choice(pool, size=n_out, replace=False)
            b[chosen, 0] = rng.uniform(0, w - 1, size=n_out)
            b[chosen, 1] = rng.uniform(0, h - 1, size=n_out)

    keep = np.arange(n)
    n_drop = int(round(lighting.dropout_fraction * n))
    if n_drop:
        dropped = rng.choice(n, size=n_drop, replace=False)
        keep = np.setdiff1d(keep, dropped)
        if keep.size == 0:
            raise EmptyObservationError("dropout removed every correspondence")

    correspondences = CorrespondenceSet(a[keep], b[keep], tracks[keep])
    truth = ObservationTruth(relative_pose=camera_pose, clean_a=a[keep], clean_b=b_clean[keep])
    if reference.mask is None:
        return Observation(correspondences, None, None, truth)
    mask_cur = render_plane_mask(world, camera_pose, intr, reference.image_size)
    return Observation(correspondences, reference.mask, mask_cur, truth)


def random_pose(rng, max_rotation_deg: float, max_offset_m: float) -> Pose:
    """Uniform random axis, rotation angle and offset within the bounds."""
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-9:
        axis = rng.standard_normal(3)
    angle = rng.uniform(0.0, max_rotation_deg)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    offset = direction * rng.uniform(0.0, max_offset_m)
    return Pose(Rotation.from_axis_angle(axis, angle), offset)


class SimulatedExecutor:
    """MotionExecutor backed by the synthetic world.

    Commands pass through the hidden hand-eye pose X: a hand motion M
    induces the camera motion X M X^-1.  The executor tracks the current
    camera extrinsic and returns observations against the reference view;
    the ground truth goes only into the observation sidecar.  The reference
    view, its plane mask included, is built once, on construction
    (:func:`reference_view`); it holds the world, the camera and the image
    size, and every observation is made from it, masks included.
    """

    def __init__(
        self,
        world: World,
        rig: RigSpec,
        initial_offset: Pose,
        noise: NoiseSpec = None,
        lighting: LightingProxySpec = None,
        seed: int = 0,
    ):
        self._rig = rig
        self._extrinsic = initial_offset  # maps reference frame to current
        self._noise = noise or NoiseSpec()
        self._lighting = lighting or LightingProxySpec()
        self._seed = seed
        self._observations = 0
        self.motions_executed = 0
        self._reference = reference_view(world, rig.intrinsics, rig.image_size, True)

    @property
    def intrinsics(self) -> Intrinsics:
        return self._rig.intrinsics

    @property
    def image_size(self) -> tuple:
        return self._rig.image_size

    @property
    def true_residual(self) -> Pose:
        """Ground-truth current extrinsic, by which tests and perfbench's
        converged-residual check judge where a run ended; the loop gets the
        equivalent through observation sidecars."""
        return self._extrinsic

    def observe(self) -> Observation:
        child = np.random.default_rng(
            np.random.SeedSequence((self._seed, self._observations))
        )
        self._observations += 1
        seed = int(child.integers(0, 2**63 - 1))
        return observe(self._reference, self._extrinsic, self._noise, self._lighting, seed)

    def execute(self, command: Pose) -> Observation:
        x = self._rig.hand_eye
        camera_motion = compose(compose(x, command), x.inverse())
        self._extrinsic = compose(camera_motion.inverse(), self._extrinsic)
        self.motions_executed += 1
        return self.observe()


# ---------------------------------------------------------------------------
# Ready-made scenes
# ---------------------------------------------------------------------------

DESK_IMAGE_SIZE = (1280, 960)
DESK_INTRINSICS = Intrinsics(fx=1200.0, fy=1200.0, cx=640.0, cy=480.0)


def corner_scene(seed: int = 0) -> SceneSpec:
    """Three mutually tilted patches (a desk corner), 240 points on each:
    good epipolar geometry."""
    n_left = (0.70, 0.0, 0.714)
    n_top = (0.0, 0.70, 0.714)
    planes = (
        PlaneSpec(
            normal=(0.0, 0.0, 1.0),
            offset=0.6,
            center=(0.0, 0.0, 0.6),
            half_extents=(0.21, 0.15),
            count=240,
        ),
        PlaneSpec(
            normal=n_left,
            offset=float(np.array(n_left) @ np.array((-0.17, 0.0, 0.62))),
            center=(-0.17, 0.0, 0.62),
            half_extents=(0.10, 0.13),
            count=240,
        ),
        PlaneSpec(
            normal=n_top,
            offset=float(np.array(n_top) @ np.array((0.15, -0.13, 0.63))),
            center=(0.15, -0.13, 0.63),
            half_extents=(0.10, 0.10),
            count=240,
        ),
    )
    return SceneSpec(planes=planes, seed=seed)


MURAL_IMAGE_SIZE = (1706, 1280)
MURAL_INTRINSICS = Intrinsics(fx=2400.0, fy=2400.0, cx=853.0, cy=640.0)


def mural_scene(seed: int = 0) -> SceneSpec:
    """A flat heritage wall: detected patches plus undetected texture.

    Three detected segments of 350 points lie on one tilted wall plane
    together with a large undetected background region of the same wall
    (700 points: the texture a segmentation would miss) and 80 points of
    true 3-D clutter.  Because the
    clean geometry is dominated by a single plane, the unrestricted
    epipolar path is structurally degenerate here while the plane-mediated
    path remains perfectly posed; this is the regime where the
    illumination proxy separates the two.
    """
    n = np.array([np.sin(np.radians(17.0)), 0.12, np.cos(np.radians(17.0))])
    n = n / np.linalg.norm(n)
    wall_point = np.array([0.0, 0.0, 0.62])
    offset = float(n @ wall_point)

    def patch(center_uv, extents, count, detected=True):
        # Centers given in wall-local (u, v) meters around the wall point.
        helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e_u = np.cross(helper, n)
        e_u = e_u / np.linalg.norm(e_u)
        e_v = np.cross(n, e_u)
        center = wall_point + center_uv[0] * e_u + center_uv[1] * e_v
        return PlaneSpec(
            normal=tuple(n),
            offset=offset,
            center=tuple(center),
            half_extents=extents,
            count=count,
            detected=detected,
        )

    planes = (
        patch((-0.14, 0.08), (0.105, 0.080), 350),
        patch((0.14, 0.07), (0.105, 0.080), 350),
        patch((0.0, -0.12), (0.115, 0.075), 350),
        patch((0.0, 0.0), (0.30, 0.22), 700, detected=False),
    )
    return SceneSpec(
        planes=planes,
        seed=seed,
        clutter_count=80,
        clutter_box=((-0.24, 0.24), (-0.18, 0.18), (0.56, 0.66)),
    )


def single_plane_scene(seed: int = 0) -> SceneSpec:
    """The noise-benchmark scene: one fronto-parallel plane of 1000 points,
    Canon optics."""
    return SceneSpec(
        planes=(
            PlaneSpec(
                normal=(0.0, 0.0, 1.0),
                offset=1.5,
                center=(0.0, 0.0, 1.5),
                half_extents=(0.20, 0.14),
                count=1000,
            ),
        ),
        seed=seed,
    )


BENCH_MOTION = Pose(
    Rotation.from_axis_angle((0.3, 0.8, 0.52), 10.0),
    np.array([0.26, -0.17, 0.10]),
)

# The RANSAC budget of the benchmark estimators.  The SLAM-library
# homography initializer this path mirrors draws 200 minimal samples, and
# the benchmark keeps that: at 90% contamination a 200-draw search almost
# never lands on the clean minimal set, which is the regime the benchmark
# is meant to expose.  The library-wide default elsewhere remains
# RANSAC_MAX_ITERS (2000).
# For the same reason the benchmark keeps the single consensus refit of
# that implementation rather than the iterated consensus re-stabilization
# the relocalization loop uses; the homography path then adds its one
# local-optimisation refit (see estimate_homography_ransac), which only
# sharpens a consensus already found and so leaves that regime intact.
BENCH_RANSAC_ITERS = 200
BENCH_REFINE_ITERS = 1


# ---------------------------------------------------------------------------
# Noise-robustness benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    """One benchmark measurement."""

    r: float
    mu: float
    trial: int
    method: str
    rot_err_deg: float
    dir_err_deg: float


def _bench_errors(
    c: CorrespondenceSet, intr: Intrinsics, motion: Pose, seed, threshold_px, max_iters
) -> list:
    """(method, rotation error deg, direction error deg) of both estimators
    on one observation's correspondences, NaN where an estimator fails."""
    truth_r = motion.rotation
    truth_dir = motion.translation / np.linalg.norm(motion.translation)
    ransac = dict(
        threshold_px=threshold_px,
        max_iters=max_iters,
        seed=seed,
        refine_iters=BENCH_REFINE_ITERS,
    )
    try:
        h, mask = estimate_homography_ransac(c, **ransac)
        hyp = decompose_homography(h, intr, c.subset(mask))
        rot_err = rotation_angle(hyp.pose.rotation.compose(truth_r.inverse()))
        dir_err = (
            float("nan")
            if hyp.zero_motion
            else direction_angle(hyp.pose.direction, truth_dir)
        )
    except AcrError:
        rot_err, dir_err = float("nan"), float("nan")
    errors = [("de-h", rot_err, dir_err)]
    try:
        hyp = estimate_epipolar(c, intr, **ransac)
        rot_err = rotation_angle(hyp.pose.rotation.compose(truth_r.inverse()))
        dir_err = direction_angle(hyp.pose.direction, truth_dir)
    except AcrError:
        rot_err, dir_err = float("nan"), float("nan")
    return errors + [("epipolar", rot_err, dir_err)]


def bench_noise_sweep(
    scene: SceneSpec,
    motion: Pose,
    r_values,
    mu_values,
    trials: int,
    seed: int = 0,
    intr: Intrinsics = CANON_INTRINSICS,
    image_size=CANON_IMAGE_SIZE,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    max_iters: int = BENCH_RANSAC_ITERS,
) -> list:
    """Rotation/direction errors of both estimators over a noise grid.

    For every (r, mu, trial) cell a fresh contaminated observation of the
    fixed motion is generated and both estimators run on the identical
    data.  Deterministic per seed.
    """
    world = generate_scene(scene)
    reference = reference_view(world, intr, image_size, False)
    rows = []
    for i_r, r in enumerate(r_values):
        for i_mu, mu in enumerate(mu_values):
            for trial in range(trials):
                cell = np.random.SeedSequence((seed, i_r, i_mu, trial))
                obs_seed = int(np.random.default_rng(cell).integers(0, 2**63 - 1))
                noise = NoiseSpec(magnitude_r=float(r), ratio_mu=float(mu))
                obs = observe(reference, motion, noise=noise, seed=obs_seed)
                errors = _bench_errors(
                    obs.correspondences,
                    intr,
                    motion,
                    seed=obs_seed,
                    threshold_px=threshold_px,
                    max_iters=max_iters,
                )
                rows += [BenchRow(float(r), float(mu), trial, *e) for e in errors]
    return rows
