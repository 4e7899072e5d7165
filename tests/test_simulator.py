"""Unit tests for the synthetic world, observations and the executor."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit import simulator
from acrkit.acr_loop import run_acr
from acrkit.errors import EmptyObservationError, InvalidInputError, InvalidSceneError
from acrkit.geometry import Intrinsics, Pose, Rotation, compose, project_points, rotation_angle
from acrkit.plane_match import PlaneSegmentMap
from acrkit.simulator import (
    BENCH_MOTION,
    DESK_IMAGE_SIZE,
    DESK_INTRINSICS,
    MURAL_IMAGE_SIZE,
    MURAL_INTRINSICS,
    LightingProxySpec,
    NoiseSpec,
    PlaneSpec,
    RigSpec,
    SceneSpec,
    SimulatedExecutor,
    bench_noise_sweep,
    corner_scene,
    generate_scene,
    mural_scene,
    observe,
    random_pose,
    render_plane_mask,
    single_plane_scene,
)
from conftest import observe_world


def _counted(scene: SceneSpec, count: int) -> SceneSpec:
    """``scene`` with ``count`` points on every plane."""
    planes = tuple(dataclasses.replace(p, count=count) for p in scene.planes)
    return dataclasses.replace(scene, planes=planes)


class TestGenerateScene:
    def test_points_lie_on_their_planes(self):
        world = generate_scene(_counted(single_plane_scene(), 500))
        plane = world.spec.planes[0]
        n = plane.unit_normal()
        residual = np.abs(world.points @ n - plane.offset)
        assert residual.max() < 1e-12

    def test_deterministic_regeneration(self):
        a = generate_scene(corner_scene(seed=5))
        b = generate_scene(corner_scene(seed=5))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.plane_index, b.plane_index)

    def test_label_histogram(self):
        scene = _counted(corner_scene(seed=2), 111)
        world = generate_scene(scene)
        counts = np.bincount(world.plane_index)
        assert counts[1] == counts[2] == counts[3] == 111

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidSceneError):
            PlaneSpec(normal=(0, 0, 1), offset=1.0, half_extents=(0.0, 0.1)).local_polygon()

    @pytest.mark.parametrize(
        "polygon",
        [
            [[0, 0], [0.1, 0.1], [0.2, 0.2]],  # collinear: no area
            [[0, 0], [0.1, 0.1], [0.1, 0], [0, 0.1]],  # self-crossing
            [[0, 0], [0.2, 0], [0.2, 0.05], [0.05, 0.05], [0.05, 0.2], [0, 0.2]],  # an L
            [[math.cos(a), math.sin(a)] for a in np.arange(5) * 0.8 * math.pi],  # a pentagram
            [[0, 0], [0.1, 0.3], [0.3, 0.9]],  # collinear up to rounding
        ],
        ids=["collinear", "self-crossing", "l-shape", "pentagram", "rounded-collinear"],
    )
    def test_polygon_not_strictly_convex_is_invalid(self, polygon):
        # The sampler draws inside the polygon by rejection and the renderer
        # takes it as convex: a collinear or crossing polygon never filled
        # the sampler, and an L was drawn inside its corner square only.
        with pytest.raises(InvalidSceneError):
            PlaneSpec(normal=(0, 0, 1), offset=1.0, polygon=polygon).local_polygon()

    def test_off_plane_classification(self):
        world = generate_scene(dataclasses.replace(mural_scene(seed=0), clutter_count=25))
        in_plane = world.in_plane_tracks()
        detected = world.detected_plane_ids
        assert set(detected) == {1, 2, 3}
        assert not in_plane[world.plane_index == 0].any()
        assert not in_plane[world.plane_index == 4].any()  # undetected wall
        assert in_plane[world.plane_index == 1].all()


def _fresh_geometry(plane):
    """The plane's unit normal, basis and world polygon, computed afresh as
    the simulator computed them before it cached them."""
    n = np.asarray(plane.normal, dtype=float)
    n = n / np.linalg.norm(n)
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e_u = np.cross(helper, n)
    e_u = e_u / np.linalg.norm(e_u)
    e_v = np.cross(n, e_u)
    if plane.center is not None:
        origin = np.asarray(plane.center, dtype=float)
        origin = origin + (plane.offset - float(n @ origin)) * n
    else:
        origin = plane.offset * n
    poly = plane.local_polygon()
    return n, origin, e_u, e_v, origin + poly[:, 0:1] * e_u + poly[:, 1:2] * e_v


class TestPlaneSpecGeometry:
    PLANES = (
        corner_scene(seed=3).planes
        + mural_scene(seed=3).planes
        + single_plane_scene().planes
        + (PlaneSpec(normal=(0.1, 0.2, 0.97), offset=0.8, polygon=((0, 0), (0.2, 0), (0.1, 0.3))),)
    )

    @pytest.mark.parametrize("index", range(len(PLANES)))
    def test_cached_equals_fresh_and_is_read_only(self, index):
        plane = self.PLANES[index]
        cached = (plane.unit_normal(), *plane.basis(), plane._world_polygon)
        for got, want in zip(cached, _fresh_geometry(plane)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert plane.unit_normal() is cached[0] and plane.basis()[0] is cached[1]

    def test_zero_normal_raises_on_every_use(self):
        plane = PlaneSpec(normal=(0.0, 0.0, 0.0), offset=1.0)
        for use in (plane.unit_normal, plane.basis, plane.unit_normal):
            with pytest.raises(InvalidSceneError):
                use()


class TestObserve:
    def test_identity_motion_zero_noise(self):
        world = generate_scene(corner_scene(seed=1))
        obs = observe_world(world, Pose.identity(), seed=0)
        np.testing.assert_allclose(obs.correspondences.a, obs.correspondences.b)
        assert rotation_angle(obs.truth.relative_pose.rotation) == 0.0

    def test_noise_bound_and_mean(self):
        world = generate_scene(corner_scene(seed=1))
        pose = Pose(Rotation.about_z(2.0), np.array([0.02, 0.0, 0.01]))
        obs = observe_world(world, pose, noise=NoiseSpec(magnitude_r=10.0, ratio_mu=1.0), seed=3)
        delta = obs.correspondences.b - obs.truth.clean_b
        n = delta.shape[0]
        assert np.abs(delta).max() <= 10.0 + 1e-9
        assert np.abs(delta.mean()) < 3.0 * 10.0 / np.sqrt(12.0 * n)

    def test_lighting_rates_within_two_percent(self):
        # Large population for a tight statistical check.
        scene = SceneSpec(
            planes=(
                PlaneSpec(
                    normal=(0.0, 0.0, 1.0),
                    offset=0.6,
                    center=(0.0, 0.0, 0.6),
                    half_extents=(0.2, 0.15),
                    count=5000,
                ),
            ),
            seed=1,
            clutter_count=5000,
            clutter_box=((-0.2, 0.2), (-0.15, 0.15), (0.5, 0.7)),
        )
        world = generate_scene(scene)
        pose = Pose(Rotation.identity(), np.array([0.01, 0.0, 0.0]))
        lighting = LightingProxySpec(
            off_plane_outlier_fraction=0.6, in_plane_outlier_fraction=0.05
        )
        obs = observe_world(world, pose, lighting=lighting, seed=9)
        moved = (
            np.abs(obs.correspondences.b - obs.truth.clean_b).max(axis=1) > 1e-9
        )
        in_plane = np.isin(obs.correspondences.track_id, world.track_id[world.in_plane_tracks()])
        off_rate = moved[~in_plane].mean()
        in_rate = moved[in_plane].mean()
        assert abs(off_rate - 0.6) < 0.02
        assert abs(in_rate - 0.05) < 0.02

    def test_dropout_removes_pairs(self):
        world = generate_scene(corner_scene(seed=1))
        base = observe_world(world, Pose.identity(), seed=0)
        dropped = observe_world(
            world, Pose.identity(), lighting=LightingProxySpec(dropout_fraction=0.25), seed=0
        )
        assert len(dropped.correspondences) == pytest.approx(
            0.75 * len(base.correspondences), abs=1.0
        )

    def test_reference_pixels_inside_reference_regions(self):
        # Visibility consistency for in-plane tracks.
        world = generate_scene(corner_scene(seed=1))
        pose = Pose(Rotation.about_z(3.0), np.array([0.02, -0.01, 0.01]))
        obs = observe_world(world, pose, seed=2)
        c = obs.correspondences
        own = world.plane_index[c.track_id]
        in_plane = own > 0
        labels = obs.mask_ref.label_at(c.a[in_plane])
        assert (labels == own[in_plane]).all()

    def test_mask_ids_contiguous_when_plane_out_of_view(self):
        scene = corner_scene(seed=1)
        world = generate_scene(scene)
        # Look far sideways so that some planes leave the frame.
        pose = Pose(Rotation.about_y(25.0), np.array([0.3, 0.0, 0.0]))
        mask = render_plane_mask(world, pose, DESK_INTRINSICS, DESK_IMAGE_SIZE)
        present = np.unique(mask.labels)
        present = present[present > 0]
        assert present.tolist() == list(range(1, len(present) + 1))

    def test_occluded_points_are_culled(self):
        # A small patch in front of a big one: big-plane tracks behind the
        # small patch must not produce correspondences.
        scene = SceneSpec(
            planes=(
                PlaneSpec(
                    normal=(0.0, 0.0, 1.0),
                    offset=0.4,
                    center=(0.0, 0.0, 0.4),
                    half_extents=(0.05, 0.05),
                    count=50,
                ),
                PlaneSpec(
                    normal=(0.0, 0.0, 1.0),
                    offset=0.8,
                    center=(0.0, 0.0, 0.8),
                    half_extents=(0.3, 0.25),
                    count=800,
                ),
            ),
            seed=0,
        )
        world = generate_scene(scene)
        obs = observe_world(world, Pose.identity(), seed=0)
        c = obs.correspondences
        behind = world.plane_index[c.track_id] == 2
        labels_at = obs.mask_ref.label_at(c.a[behind])
        assert not (labels_at == 1).any()

    def test_masks_come_exactly_with_a_view_that_holds_one(self):
        world = generate_scene(corner_scene(seed=1))
        pose = Pose(Rotation.about_z(2.0), np.array([0.02, 0.0, 0.01]))
        noise, lighting = NoiseSpec(1.0, 0.5), LightingProxySpec(0.5, 0.3, 0.2)
        plain, masked = (
            simulator.reference_view(world, DESK_INTRINSICS, DESK_IMAGE_SIZE, render_mask)
            for render_mask in (False, True)
        )
        assert plain.mask is None and plain.image_size == tuple(DESK_IMAGE_SIZE)
        without = observe(plain, pose, noise=noise, lighting=lighting, seed=4)
        with_masks = observe(masked, pose, noise=noise, lighting=lighting, seed=4)
        assert without.mask_ref is None and without.mask_cur is None
        assert with_masks.mask_ref is masked.mask
        _assert_same_mask(
            with_masks.mask_cur, render_plane_mask(world, pose, DESK_INTRINSICS, DESK_IMAGE_SIZE)
        )
        for got, expected in (
            (without.correspondences.a, with_masks.correspondences.a),
            (without.correspondences.b, with_masks.correspondences.b),
            (without.correspondences.track_id, with_masks.correspondences.track_id),
        ):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "pose, lighting, message",
        [
            (Pose(Rotation.identity(), np.array([3.0, 0.0, 0.0])), None, "no track visible"),
            (Pose.identity(), LightingProxySpec(dropout_fraction=1.0), "dropout removed"),
        ],
    )
    def test_empty_observation_is_typed(self, pose, lighting, message):
        world = generate_scene(corner_scene(seed=1))
        view = simulator.reference_view(world, DESK_INTRINSICS, DESK_IMAGE_SIZE, False)
        with pytest.raises(EmptyObservationError, match=message) as info:
            observe(view, pose, lighting=lighting, seed=0)
        assert info.value.code == "empty-observation"

    def test_a_start_that_sees_nothing_fails_the_loop(self):
        world = generate_scene(corner_scene(seed=1))
        rig = RigSpec(Pose.identity(), DESK_INTRINSICS, DESK_IMAGE_SIZE)
        start = Pose(Rotation.identity(), np.array([3.0, 0.0, 0.0]))
        trace = run_acr(SimulatedExecutor(world, rig, start, seed=0))
        assert trace.status == "failed" and trace.iterations == 0
        assert trace.failure.startswith("empty-observation:")


class TestVisibilityRule:
    """Culling and the plane masks follow one rule: a track is hidden when
    another patch covers its rounded pixel and lies nearer on that ray."""

    def test_coplanar_patches_never_occlude(self):
        # Every patch of the mural lies on one wall; without clutter every
        # track in view must survive.
        world = generate_scene(dataclasses.replace(mural_scene(seed=0), clutter_count=0))
        obs = observe_world(world, Pose.identity(), MURAL_INTRINSICS, MURAL_IMAGE_SIZE, seed=0)
        w, h = MURAL_IMAGE_SIZE
        k = MURAL_INTRINSICS.matrix()
        px = world.points @ k.T
        px = px[:, :2] / px[:, 2:3]
        in_view = (px >= 0).all(axis=1) & (px[:, 0] <= w - 1) & (px[:, 1] <= h - 1)
        assert len(obs.correspondences) == int(in_view.sum())

    def test_current_view_behind_small_patch(self):
        scene = SceneSpec(
            planes=(
                PlaneSpec(
                    normal=(0.0, 0.0, 1.0),
                    offset=0.4,
                    center=(0.0, 0.0, 0.4),
                    half_extents=(0.05, 0.05),
                    count=50,
                ),
                PlaneSpec(
                    normal=(0.0, 0.0, 1.0),
                    offset=0.8,
                    center=(0.0, 0.0, 0.8),
                    half_extents=(0.3, 0.25),
                    count=800,
                ),
            ),
            seed=0,
        )
        world = generate_scene(scene)
        pose = Pose(Rotation.about_y(3.0), np.array([0.03, -0.01, 0.0]))
        obs = observe_world(world, pose, seed=0)
        c = obs.correspondences
        assert set(np.unique(obs.mask_cur.labels)) == {0, 1, 2}
        behind = world.plane_index[c.track_id] == 2
        assert behind.sum() > 100
        assert not (obs.mask_cur.label_at(c.b[behind]) == 1).any()

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_visible_tracks_carry_their_own_label(self, seed):
        # Near the creases of the corner scene, the track's own patch and a
        # neighbouring one both cover the rounded pixel; the track stays
        # only where the mask names its own patch, in both views.
        world = generate_scene(corner_scene(seed=seed))
        pose = random_pose(np.random.default_rng(seed), 6.0, 0.06)
        obs = observe_world(world, pose, seed=seed)
        c = obs.correspondences
        assert obs.mask_cur.num_planes == 3
        own = world.plane_index[c.track_id]
        np.testing.assert_array_equal(obs.mask_ref.label_at(c.a), own)
        np.testing.assert_array_equal(obs.mask_cur.label_at(c.b), own)

    def test_culling_agrees_with_the_mask_past_a_sharp_vertex(self):
        # Past the thin triangle's sharp vertex, its edges' margin lines
        # reach pixels outside its box; the mask gives those to the square
        # behind it, so the square's tracks there must not be culled.
        triangle = ((-0.2003, 0.0), (0.2, -0.03), (0.2, 0.03))
        spec = SceneSpec(
            planes=(
                _patch((0.0, 0.0, 1.0), (0.1, 0.1), polygon=triangle),
                _patch((0.0, 0.0, 2.0), (0.6, 0.6)),
            ),
            seed=0,
        )
        # One track of the square behind at every pixel centre.
        w, h = SMALL_IMAGE_SIZE
        intr = SMALL_INTRINSICS
        u, v = (a.ravel().astype(float) for a in np.meshgrid(np.arange(w), np.arange(h)))
        points = 2.0 * np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, np.ones(u.size)], axis=1)
        world = simulator.World(points, np.full(u.size, 2), np.arange(u.size), spec)
        px, depths = project_points(intr, Pose.identity(), points)
        hidden = simulator._occluded(world, Pose.identity(), intr, px, depths)
        labels = render_plane_mask(world, Pose.identity(), intr, SMALL_IMAGE_SIZE).label_at(px)
        np.testing.assert_array_equal(hidden, labels == 1)
        assert hidden.sum() > 50 and labels[95 * w + 80] == 2


def _oracle_labels(world, extrinsic, intr, image_size):
    """Pixel-by-pixel z-buffer over each detected patch's bounding box, in
    plane order, with the simulator's covering rule; ids as plane index + 1,
    before any recompaction."""
    w, h = int(image_size[0]), int(image_size[1])
    labels = np.zeros((h, w), dtype=np.int32)
    zbuf = np.full((h, w), np.inf)
    for index, plane in enumerate(world.spec.planes):
        if not plane.detected:
            continue
        px = simulator._projected_polygon(plane, extrinsic, intr)
        if px is None:
            continue
        lo = np.floor(px.min(axis=0)).astype(int)
        hi = np.ceil(px.max(axis=0)).astype(int)
        x0, y0 = max(lo[0], 0), max(lo[1], 0)
        x1, y1 = min(hi[0], w - 1), min(hi[1], h - 1)
        if x1 < x0 or y1 < y0:
            continue
        gx, gy = np.meshgrid(
            np.arange(x0, x1 + 1, dtype=float), np.arange(y0, y1 + 1, dtype=float)
        )
        covered, depth = simulator._cover(plane, extrinsic, intr, px, gx, gy)
        sub_l = labels[y0 : y1 + 1, x0 : x1 + 1]
        sub_z = zbuf[y0 : y1 + 1, x0 : x1 + 1]
        visible = covered & (depth < sub_z)
        sub_l[visible] = index + 1
        sub_z[visible] = depth[visible]
    return labels


def _oracle_mask(world, extrinsic, intr, image_size) -> PlaneSegmentMap:
    labels = _oracle_labels(world, extrinsic, intr, image_size)
    present = np.bincount(labels.ravel()) > 0
    present[0] = False
    lut = np.zeros(present.size, dtype=labels.dtype)
    lut[present] = np.arange(1, int(present.sum()) + 1)
    return PlaneSegmentMap(lut[labels])


def _assert_same_mask(mask: PlaneSegmentMap, expected: PlaneSegmentMap):
    np.testing.assert_array_equal(mask.labels, expected.labels)
    assert mask.labels.dtype == np.int32 and not mask.labels.flags.writeable
    # The trusted constructor's counts equal a full validation's.
    checked = PlaneSegmentMap(mask.labels)
    assert mask.num_planes == checked.num_planes == expected.num_planes
    np.testing.assert_array_equal(mask._areas, checked._areas)
    assert mask._areas.dtype == checked._areas.dtype


SMALL_INTRINSICS = Intrinsics(fx=150.0, fy=150.0, cx=80.0, cy=60.0)
SMALL_IMAGE_SIZE = (160, 120)


def _patch(center, half_extents, normal=(0.0, 0.0, 1.0), detected=True, polygon=None):
    n = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
    return PlaneSpec(
        normal=tuple(n),
        offset=float(n @ np.asarray(center, dtype=float)),
        center=tuple(center),
        half_extents=half_extents,
        polygon=polygon,
        count=8,
        detected=detected,
    )


def _random_stack(seed: int, count: int) -> tuple:
    """Patches of random centre, size and tilt in front of the small camera."""
    rng = np.random.default_rng(seed)
    return tuple(
        _patch(
            (rng.uniform(-0.25, 0.25), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.5)),
            tuple(rng.uniform(0.05, 0.25, size=2)),
            normal=(*rng.uniform(-0.6, 0.6, size=2), 1.0),
        )
        for _ in range(count)
    )


def _hinged(plane: PlaneSpec, direction) -> PlaneSpec:
    """A patch that shares ``plane``'s first edge, swung out of its plane
    along ``direction``."""
    v0, v1 = plane._world_polygon[:2]
    normal = np.cross(v1 - v0, direction)
    base = _patch(v0, (0.1, 0.1), normal=normal if normal @ v0 > 0 else -normal)
    origin, e_u, e_v = base.basis()
    quad = np.array([v0, v1, v1 + direction, v0 + direction]) - origin
    return dataclasses.replace(base, polygon=tuple(zip(quad @ e_u, quad @ e_v)))


def _stress_stack(seed: int, count: int, hinged: bool, near_parallel: bool, coplanar: bool):
    """``count`` patches in random order: a random stack, and with it, as
    asked and while the count allows, a patch sharing an edge with the
    stack's first patch, a near-parallel patch through its centre and a
    coplanar copy of it shifted inside its plane."""
    rng = np.random.default_rng(seed)
    wanted = [hinged, near_parallel, coplanar][: count - 1]
    planes = list(_random_stack(seed, count - sum(wanted)))
    first = planes[0]
    n, (origin, e_u, e_v) = first.unit_normal(), first.basis()
    extras = (
        lambda: _hinged(first, rng.uniform(-0.2, 0.2, size=3)),
        lambda: _patch(
            origin, tuple(rng.uniform(0.05, 0.25, size=2)), normal=n + rng.normal(scale=1e-7, size=3)
        ),
        lambda: dataclasses.replace(
            first, center=tuple(origin + rng.uniform(-0.1, 0.1) * e_u + rng.uniform(-0.1, 0.1) * e_v)
        ),
    )
    planes += [make() for make, want in zip(extras, wanted) if want]
    return tuple(planes[i] for i in rng.permutation(count))


def _drawn_runs(planes, pose: Pose) -> tuple:
    """The run ends and camera-frame planes ``(*n_c, c_c)`` of the patches
    that cover a pixel of the small view, stacked as the renderer stacks
    them."""
    drawn = [simulator._cover_rows(p, pose, SMALL_INTRINSICS, *SMALL_IMAGE_SIZE) for p in planes]
    drawn = [runs for runs in drawn if runs is not None]
    return (
        np.array([lo for lo, _, _ in drawn]),
        np.array([hi for _, hi, _ in drawn]),
        np.array([(*n_c, c_c) for _, _, (n_c, c_c) in drawn]),
    )


# Scenes for the small camera, each built to reach one branch of the
# renderer; test_cases_cover_what_they_name checks that they do.
_BACKDROP = _patch((0.0, 0.0, 1.5), (0.1, 0.1))
_TILTED = _patch((0.0, 0.0, 1.0), (0.2, 0.15), normal=(0.3, 0.2, 1.0))
RENDER_CASES = {
    "clipped-left": (_patch((-0.5, 0.0, 1.0), (0.3, 0.2)),),
    "clipped-right": (_patch((0.5, 0.0, 1.0), (0.3, 0.2)),),
    "clipped-top": (_patch((0.0, -0.4, 1.0), (0.3, 0.2)),),
    "clipped-bottom": (_patch((0.0, 0.4, 1.0), (0.3, 0.2)),),
    "off-image": (_patch((2.0, 0.0, 1.0), (0.3, 0.2)), _BACKDROP),
    "nothing-drawn": (
        _patch((2.0, 0.0, 1.0), (0.3, 0.2)),
        _patch((0.0, 0.0, 1.0), (0.1, 0.1), detected=False),
    ),
    "vertex-behind": (
        _patch((0.0, 0.3, 0.5), (1.0, 1.0), normal=(0.0, 0.95, 0.3)),
        _BACKDROP,
    ),
    # A floor that runs out to 10 km under a slightly rolled camera: the
    # margin band of its far edge straddles the horizon, so some rows
    # change depth sign inside their run.
    "grazing": (
        _patch(
            (0.0, 0.2, 0.0),
            None,
            normal=(0.01, 1.0, 0.0),
            polygon=((-1e4, 0.6), (1e4, 0.6), (1e4, 1e4), (-1e4, 1e4)),
        ),
    ),
    "hidden": (
        _patch((0.0, 0.0, 2.0), (0.2, 0.2)),
        _patch((0.0, 0.0, 1.0), (0.2, 0.15)),
        _patch((0.4, 0.3, 1.2), (0.05, 0.05)),
    ),
    "undetected": (
        _patch((0.0, 0.0, 0.8), (0.1, 0.1), detected=False),
        _patch((0.0, 0.0, 1.0), (0.2, 0.15)),
        _patch((0.05, 0.0, 1.0), (0.2, 0.15)),  # coplanar: ties keep the first
    ),
    "sub-pixel": (_patch((0.0, 0.0, 1.0), (0.0005, 0.0005)), _BACKDROP),
    # Two tilted patches through one point: their crease runs diagonally,
    # so it crosses each row inside the shared run.
    "crease": (
        _patch((0.0, 0.0, 1.0), (0.2, 0.15), normal=(0.4, 0.5, 1.0)),
        _patch((0.0, 0.0, 1.0), (0.2, 0.15), normal=(-0.4, -0.2, 1.0)),
    ),
    # A tilted plane one ulp farther, then the plane itself: along a ray
    # their depths tie or differ by an ulp, so only single pixels decide.
    "near-parallel": (
        dataclasses.replace(_TILTED, offset=float(np.nextafter(_TILTED.offset, np.inf))),
        dataclasses.replace(_TILTED, center=(0.05, 0.0, 1.0)),
    ),
    # Tilted coplanar patches with a wide overlap: equal planes give equal
    # depth bits, so the first keeps the overlap without a depth test.
    "coplanar-wide": (_TILTED, dataclasses.replace(_TILTED, center=(0.1, 0.03, 1.0))),
    "five-stacked": (
        _patch((0.0, 0.0, 1.2), (0.3, 0.2), normal=(0.2, -0.1, 1.0)),
        _patch((-0.1, 0.0, 1.0), (0.15, 0.15), normal=(0.5, 0.0, 1.0)),
        _patch((0.1, 0.0, 1.05), (0.15, 0.15), normal=(-0.5, 0.1, 1.0)),
        _patch((0.0, 0.05, 0.95), (0.2, 0.08), normal=(0.0, 0.6, 1.0)),
        _patch((0.0, -0.05, 1.1), (0.12, 0.12)),
    ),
    "random-stack": _random_stack(seed=7, count=8),
}
_CASE_POSES = (Pose.identity(), Pose(Rotation.about_z(7.0), np.array([0.01, -0.02, 0.0])))


def _case_world(name):
    return generate_scene(SceneSpec(planes=RENDER_CASES[name], seed=0))


def _record_contests(monkeypatch) -> list:
    """Record each call of the segment z-buffer as ``(length, covered,
    result)`` in the list returned."""
    calls = []
    nearest = simulator._nearest_segments

    def record(row, first, length, covered, *args):
        result = nearest(row, first, length, covered, *args)
        calls.append((length, covered, result))
        return result

    monkeypatch.setattr(simulator, "_nearest_segments", record)
    return calls


class TestRenderPlaneMask:
    """The row-interval renderer against the pixel-by-pixel z-buffer."""

    @pytest.mark.parametrize("scene", ["corner", "mural"])
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_oracle_on_scene_renders(self, scene, seed):
        if scene == "corner":
            spec, intr, size = corner_scene(seed=seed), DESK_INTRINSICS, DESK_IMAGE_SIZE
        else:
            spec, intr, size = mural_scene(seed=seed), MURAL_INTRINSICS, MURAL_IMAGE_SIZE
        world = generate_scene(spec)
        rng = np.random.default_rng(1000 + seed)
        poses = [Pose.identity(), random_pose(rng, 6.0, 0.06), random_pose(rng, 12.0, 0.12)]
        for pose in poses:
            _assert_same_mask(
                render_plane_mask(world, pose, intr, size),
                _oracle_mask(world, pose, intr, size),
            )

    @pytest.mark.parametrize("name", sorted(RENDER_CASES))
    def test_equals_oracle_on_named_cases(self, name):
        world = _case_world(name)
        for pose in _CASE_POSES:
            _assert_same_mask(
                render_plane_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
                _oracle_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
            )

    @pytest.mark.parametrize("name", sorted(RENDER_CASES))
    def test_runs_equal_the_oracle_extraction(self, name):
        # The renderer merges its segments into runs itself: they must be
        # the maximal runs that a label array yields.
        world = _case_world(name)
        for pose in _CASE_POSES:
            mask = render_plane_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)
            expected = _oracle_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)
            np.testing.assert_array_equal(mask.runs, expected.runs)
            assert mask.runs.dtype == np.int64 and not mask.runs.flags.writeable

    def test_edge_ends_settle_from_any_guess(self):
        # The edge lines give each run end a first guess; the walk that
        # follows must land on the exact end wherever the guess starts.
        rng = np.random.default_rng(0)
        v = np.arange(0.0, 41.0)
        columns = np.arange(0, 41)
        for _ in range(20):
            triangle = rng.uniform(0.0, 40.0, size=(3, 2))
            for edge in simulator._half_planes(triangle, simulator.COVER_MARGIN_PX):
                x, y, ex, ey, orient, limit = edge
                passes = simulator._passes(edge, columns[None, :].astype(float), v[:, None])
                if orient * ey > 0:  # passes up to an upper end
                    step, guesses = 1, (-1, 0, 17, 40)
                    expected = np.where(passes.any(axis=1), passes.sum(axis=1) - 1, -1)
                else:  # passes from a lower end on
                    step, guesses = -1, (0, 23, 40, 41)
                    expected = np.where(passes.any(axis=1), 41 - passes.sum(axis=1), 41)
                for guess in guesses:
                    t = np.full(v.shape, guess, dtype=np.int64)
                    ends = simulator._edge_end(edge, t, v, step, 0, 40)
                    np.testing.assert_array_equal(ends, expected)

    def test_cases_cover_what_they_name(self, monkeypatch):
        w = SMALL_IMAGE_SIZE[0]
        pose = Pose.identity()

        def raw(name):
            return _oracle_labels(_case_world(name), pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)

        def projected(name, index=0):
            plane = RENDER_CASES[name][index]
            return simulator._projected_polygon(plane, pose, SMALL_INTRINSICS)

        edges = {
            "clipped-left": lambda lab: lab[:, 0],
            "clipped-right": lambda lab: lab[:, -1],
            "clipped-top": lambda lab: lab[0],
            "clipped-bottom": lambda lab: lab[-1],
        }
        for name, edge in edges.items():
            lab = raw(name)
            assert edge(lab).any() and (lab == 0).any(), name
        px = projected("off-image")
        assert px is not None and px[:, 0].min() > w
        assert set(np.unique(raw("off-image"))) == {0, 2}
        assert not raw("nothing-drawn").any()
        assert projected("vertex-behind") is None
        assert set(np.unique(raw("vertex-behind"))) == {0, 2}
        lab = raw("hidden")
        assert set(np.unique(lab)) == {0, 2, 3}  # the far patch lost every pixel
        lab = raw("undetected")
        assert set(np.unique(lab)) == {0, 2, 3}
        assert (lab[60, 70:100] == 2).all()  # the coplanar overlap keeps patch 2
        px = projected("sub-pixel")
        assert np.ptp(px, axis=0).max() < 1.0
        assert 1 <= np.count_nonzero(raw("sub-pixel") == 1) <= 4
        # The grazing floor's horizon rows fall back to the per-pixel rule.
        assert (raw("grazing") == 1).any()
        mixed = []
        cover = simulator._cover

        def spy(*args):
            covered, depth = cover(*args)
            mixed.append(0 < np.count_nonzero(depth > 0) < depth.size)
            return covered, depth

        monkeypatch.setattr(simulator, "_cover", spy)
        render_plane_mask(_case_world("grazing"), pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)
        assert any(mixed)

        # The segment z-buffer: one call decides every covered segment.
        calls = _record_contests(monkeypatch)
        contests = {}
        for name in ("crease", "near-parallel", "coplanar-wide", "five-stacked", "random-stack"):
            render_plane_mask(_case_world(name), pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)
            contests[name] = calls[-1]
        assert len(calls) == len(contests)
        # The crease: which patch wins changes inside the shared runs, at a
        # column that moves from row to row.  Among the segments that both
        # patches cover, every change falls on a cut at the two planes'
        # depth crossing, and one pass decides every segment: the contest
        # returns its segments as they came.
        length, covered, (row, first, pieces, winner) = contests["crease"]
        np.testing.assert_array_equal(pieces, length)
        shared = covered.sum(axis=0) >= 2
        row, first, winner = row[shared], first[shared], winner[shared]
        lo, hi, planes = _drawn_runs(RENDER_CASES["crease"], pose)
        cut_row, cut_column = simulator._crossing_cuts(lo, hi, planes, SMALL_INTRINSICS)
        switches = []
        for r in np.intersect1d(row[winner == 1], row[winner == 2]):
            in_row = np.flatnonzero(row == r)
            in_row = in_row[np.argsort(first[in_row])]
            changes = in_row[1:][np.diff(winner[in_row]) != 0]
            assert np.isin(first[changes], cut_column[cut_row == r]).all()
            switches += first[changes].tolist()
        assert len(switches) > 20 and np.unique(switches).size > 10
        # Near-parallel planes: no certificate holds over more than one
        # pixel, so the halving still runs over the shared runs, down to
        # single pixels, and both patches win some of them.
        length, covered, (row, first, pieces, winner) = contests["near-parallel"]
        assert pieces.size > length.size
        lo, hi, _ = _drawn_runs(RENDER_CASES["near-parallel"], pose)
        shared = ((lo[:, row] <= first) & (first <= hi[:, row])).all(axis=0)
        assert (pieces[shared] == 1).all()
        assert shared.sum() == length[covered.all(axis=0)].sum() > 1000
        assert set(winner[shared].tolist()) == {1, 2}
        # Coplanar patches: one pass gives the first the whole overlap (see
        # the next test).
        length, covered, (_, _, pieces, winner) = contests["coplanar-wide"]
        np.testing.assert_array_equal(pieces, length)
        shared = covered.all(axis=0)
        assert shared.any() and (winner[shared] == 1).all()
        # Five patches, three or more over one segment.
        length, covered, _ = contests["five-stacked"]
        assert covered.sum(axis=0).max() >= 3
        assert np.unique(raw("five-stacked")).size == 6
        # The random stack stacks three deep and hides a patch, and one pass
        # decides it: segments longer than a pixel win where their end
        # depths overlap another covering patch's, which only the end
        # ratios certify.
        length, covered, (row, first, pieces, winner) = contests["random-stack"]
        np.testing.assert_array_equal(pieces, length)
        assert covered.sum(axis=0).max() >= 3
        assert 0 < np.unique(raw("random-stack")).size - 1 < len(RENDER_CASES["random-stack"])
        lo, hi, planes = _drawn_runs(RENDER_CASES["random-stack"], pose)
        ends = np.stack([first, first + length - 1]).astype(float)
        stack = (planes[:, None, None, :3], planes[:, None, None, 3])
        d = simulator._ray_depth(stack, SMALL_INTRINSICS, ends, row.astype(float))
        near = np.where(covered, d.min(axis=1), np.inf)
        far = d.max(axis=1)[winner - 1, np.arange(len(row))]
        near[winner - 1, np.arange(len(row))] = np.inf
        assert ((length > 1) & (far >= near.min(axis=0))).any()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_random_stacks_equal_the_oracle(self, seed, count, hinged, near_parallel, coplanar):
        planes = _stress_stack(seed, count, hinged, near_parallel, coplanar)
        world = generate_scene(SceneSpec(planes=planes, seed=0))
        pose = random_pose(np.random.default_rng(seed), 10.0, 0.1)
        _assert_same_mask(
            render_plane_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
            _oracle_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
        )

    @pytest.mark.parametrize("gap, one_pass", [(0.5, True), (1e-4, False)])
    def test_ill_conditioned_ends_fall_back_to_halving(self, gap, one_pass):
        # Two parallel planes, the first a quarter as far as the second,
        # that the rays of row 0 meet ever more obliquely towards column
        # 10 + gap: their end depths overlap over the 11-pixel segment, so
        # only the end ratios can decide it in one pass.  With the last
        # ray 1e-4 px short of parallel, the denominators are too small
        # against their terms for the ratios' rounding bound, and the
        # halving decides instead.
        n = np.array([[1.0, 0.0, (80.0 - 10.0 - gap) / 150.0]] * 2)
        c = np.array([-1.0, -4.0])
        planes_c = (n[:, None, None, :], c[:, None, None])
        one = np.zeros(1, np.int64)
        row, first, length, winner = simulator._nearest_segments(
            one, one, one + 11, np.ones((2, 1), bool), planes_c, SMALL_INTRINSICS
        )
        assert (len(row) == 1) == one_pass
        assert length.sum() == 11 and (winner == 1).all()
        u = np.arange(11.0)
        d = simulator._ray_depth((n[:, None, :], c[:, None]), SMALL_INTRINSICS, u, np.zeros(11))
        assert (d[0] < d[1]).all() and d[0].max() > d[1].min()

    def test_misplaced_crossing_cuts_change_no_label(self, monkeypatch):
        # The roots only place cuts; the certificates decide every label.
        # Cuts moved off the crossings, or none at all, leave the masks as
        # they were, and the halving decides what one pass cannot.
        cuts, w = simulator._crossing_cuts, SMALL_IMAGE_SIZE[0]
        rng = np.random.default_rng(5)
        moves = (
            lambda c: (c[0][:0], c[1][:0]),
            lambda c: (c[0], np.clip(c[1] + rng.integers(-3, 4, len(c[1])), 0, w)),
        )
        for move in moves:
            monkeypatch.setattr(simulator, "_crossing_cuts", lambda *args: move(cuts(*args)))
            for name in ("crease", "five-stacked", "random-stack"):
                world = _case_world(name)
                for pose in _CASE_POSES:
                    _assert_same_mask(
                        render_plane_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
                        _oracle_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE),
                    )

    def test_coplanar_overlap_is_not_split(self, monkeypatch):
        # Along the rows of a tilted plane the depth changes from pixel to
        # pixel, so end depths alone would split the overlap of two coplanar
        # patches down to single pixels.  Equal planes give equal depth bits,
        # so the first patch keeps the overlap, one segment per row, in the
        # first pass.
        planes = RENDER_CASES["coplanar-wide"]
        world = _case_world("coplanar-wide")
        second = generate_scene(SceneSpec(planes=planes[1:], seed=0))
        contests = _record_contests(monkeypatch)
        for pose in _CASE_POSES:
            labels = render_plane_mask(world, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE).labels
            alone = _oracle_labels(second, pose, SMALL_INTRINSICS, SMALL_IMAGE_SIZE)
            assert np.count_nonzero((alone == 1) & (labels == 1)) > 1000
            length, covered, (row, _, pieces, winner) = contests[-1]
            np.testing.assert_array_equal(pieces, length)
            shared = covered.all(axis=0)
            assert np.unique(row[shared]).size == shared.sum() > 50
            assert (winner[shared] == 1).all()
        assert len(contests) == len(_CASE_POSES)


class TestSimulatedExecutor:
    def _rig(self, x):
        return RigSpec(hand_eye=x, intrinsics=DESK_INTRINSICS, image_size=DESK_IMAGE_SIZE)

    def test_identity_hand_eye_pure_translation(self):
        world = generate_scene(corner_scene(seed=1))
        ex = SimulatedExecutor(world, self._rig(Pose.identity()), Pose.identity(), seed=1)
        t = np.array([0.01, -0.02, 0.03])
        obs = ex.execute(Pose(Rotation.identity(), t))
        rel = obs.truth.relative_pose
        assert rotation_angle(rel.rotation) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(rel.translation), np.linalg.norm(t), atol=1e-15)

    def test_rotated_hand_eye_preserves_norm(self):
        world = generate_scene(corner_scene(seed=1))
        x = Pose(Rotation.about_z(90.0), np.array([0.05, 0.02, -0.04]))
        ex = SimulatedExecutor(world, self._rig(x), Pose.identity(), seed=1)
        t = np.array([0.01, 0.0, 0.0])
        obs = ex.execute(Pose(Rotation.identity(), t))
        rel = obs.truth.relative_pose
        assert rotation_angle(rel.rotation) < 1e-12
        assert np.linalg.norm(rel.translation) == pytest.approx(0.01, abs=1e-15)
        # Camera translation of the relative pose is -R_x t (frame A to B).
        np.testing.assert_allclose(
            rel.translation, -(x.rotation.matrix @ t), atol=1e-12
        )

    def test_exact_inverse_command_relocates(self):
        world = generate_scene(corner_scene(seed=1))
        rng = np.random.default_rng(4)
        x = random_pose(rng, 45.0, 0.1)
        offset = random_pose(rng, 8.0, 0.05)
        ex = SimulatedExecutor(world, self._rig(x), offset, seed=2)
        # Command the hand motion whose conjugated camera motion cancels
        # the offset exactly.
        command = compose(compose(x.inverse(), offset), x)
        obs = ex.execute(command)
        rel = obs.truth.relative_pose
        assert rotation_angle(rel.rotation) < 1e-9
        assert np.linalg.norm(rel.translation) < 1e-12

    def test_conjugation_matches_frame_chain_oracle(self):
        # Oracle: direct 4x4 homogeneous-matrix chain for the hidden
        # hand-eye conjugation the executor applies.
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = random_pose(rng, 90.0, 0.3)
            command = random_pose(rng, 30.0, 0.1)
            expected = np.linalg.inv(
                x.matrix() @ command.matrix() @ np.linalg.inv(x.matrix())
            )
            camera_motion = compose(compose(x, command), x.inverse())
            np.testing.assert_allclose(
                np.linalg.inv(camera_motion.matrix()), expected, atol=1e-12
            )

    def test_executor_state_matches_conjugation(self):
        world = generate_scene(_counted(corner_scene(seed=1), 60))
        rng = np.random.default_rng(12)
        x = random_pose(rng, 60.0, 0.2)
        start = random_pose(rng, 5.0, 0.03)
        ex = SimulatedExecutor(world, self._rig(x), start, seed=0)
        command = random_pose(rng, 10.0, 0.02)
        ex.execute(command)
        camera_motion = compose(compose(x, command), x.inverse())
        expected = compose(camera_motion.inverse(), start)
        np.testing.assert_allclose(
            ex.true_residual.matrix(), expected.matrix(), atol=1e-12
        )

    def test_full_run_bit_reproducible(self):
        world = generate_scene(corner_scene(seed=3))
        x = Pose(Rotation.about_y(10.0), np.array([0.03, 0.0, 0.0]))
        traces = []
        for _ in range(2):
            ex = SimulatedExecutor(
                world,
                self._rig(x),
                Pose(Rotation.about_z(2.0), np.array([0.01, 0.0, 0.0])),
                noise=NoiseSpec(1.0, 0.5),
                seed=77,
            )
            obs1 = ex.observe()
            obs2 = ex.execute(Pose(Rotation.identity(), np.array([0, 0, 0.02])))
            traces.append((obs1.correspondences.b.copy(), obs2.correspondences.b.copy()))
        assert np.array_equal(traces[0][0], traces[1][0])
        assert np.array_equal(traces[0][1], traces[1][1])

    def test_identity_command_statistically_stable(self):
        world = generate_scene(corner_scene(seed=3))
        ex = SimulatedExecutor(
            world, self._rig(Pose.identity()), Pose.identity(), seed=5
        )
        before = ex.observe()
        after = ex.execute(Pose.identity())
        np.testing.assert_allclose(before.truth.clean_b, after.truth.clean_b, atol=1e-12)


class TestBenchSweep:
    def test_noiseless_general_scene_both_accurate(self):
        # On a non-degenerate scene both estimators are essentially exact
        # at zero noise.
        rows = bench_noise_sweep(
            _counted(corner_scene(seed=2), 120),
            Pose(Rotation.about_z(4.0), np.array([0.03, -0.02, 0.02])),
            r_values=[0.0],
            mu_values=[0.0],
            trials=2,
            seed=1,
            intr=DESK_INTRINSICS,
            image_size=DESK_IMAGE_SIZE,
        )
        for row in rows:
            assert row.rot_err_deg < 1e-4

    def test_row_count_and_determinism(self):
        args = dict(
            scene=_counted(single_plane_scene(), 300),
            motion=BENCH_MOTION,
            r_values=[0, 10],
            mu_values=[0.1, 0.5],
            trials=2,
            seed=5,
        )
        rows1 = bench_noise_sweep(**args)
        rows2 = bench_noise_sweep(**args)
        assert len(rows1) == 2 * 2 * 2 * 2
        for a, b in zip(rows1, rows2):
            assert a == b


class TestSpecValidation:
    def test_noise_spec_bounds(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(magnitude_r=-1.0)
        with pytest.raises(InvalidInputError):
            NoiseSpec(ratio_mu=1.5)
        for r in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="finite"):
                NoiseSpec(magnitude_r=r, ratio_mu=0.5)

    def test_lighting_ordering(self):
        with pytest.raises(InvalidInputError):
            LightingProxySpec(
                off_plane_outlier_fraction=0.1, in_plane_outlier_fraction=0.5
            )

    def test_scene_requires_positive_offsets(self):
        with pytest.raises(InvalidSceneError):
            SceneSpec(
                planes=(PlaneSpec(normal=(0, 0, 1), offset=-1.0),), seed=0
            )
