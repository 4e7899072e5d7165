"""Unit tests for plane-region matching."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.ndimage
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit import plane_match, simulator
from acrkit.errors import InvalidInputError, OrientationError
from acrkit.geometry import Intrinsics, Pose, Rotation
from acrkit.plane_match import (
    PlaneGraph,
    PlaneSegmentMap,
    _spectral_matching,
    assemble_affinity,
    disk_structuring_element,
    erode_mask,
    match_plane_maps,
    solve_matching,
)
from acrkit.pose_estimation import CorrespondenceSet
from conftest import observe_world


def _mask(shape, regions):
    lab = np.zeros(shape, dtype=np.int32)
    for plane_id, sl in regions.items():
        lab[sl] = plane_id
    return PlaneSegmentMap(lab)


def _random_mask(seed: int, max_planes: int = 12, max_side: int = 40) -> PlaneSegmentMap:
    """Median-filtered random labels, ids recompacted: ragged regions of
    every size, many touching each other and the image border."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, max_side + 1, 2)
    lab = rng.integers(0, rng.integers(1, max_planes + 1) + 1, (h, w))
    lab = scipy.ndimage.median_filter(lab, size=int(rng.integers(1, 6)))
    present = np.bincount(lab.ravel())[1:] > 0
    return PlaneSegmentMap(np.concatenate([[0], np.cumsum(present)])[lab])


def _erosion_oracle(m: PlaneSegmentMap, radius) -> np.ndarray:
    """Per-label scipy binary erosion by the disk, ids recompacted."""
    disk = disk_structuring_element(radius)
    expected = np.zeros_like(m.labels)
    next_id = 0
    for plane_id in m.plane_ids:
        ref = scipy.ndimage.binary_erosion(
            m.labels == plane_id, structure=disk, border_value=0
        )
        if ref.any():
            next_id += 1
            expected[ref] = next_id
    return expected


def _graph_oracle(m: PlaneSegmentMap) -> np.ndarray:
    """Brute-force minimum distance over every pixel pair of two regions."""
    pixels = [np.argwhere(m.labels == pid) for pid in m.plane_ids]
    d = np.zeros((m.num_planes, m.num_planes))
    for i, j in itertools.combinations(range(m.num_planes), 2):
        diff = pixels[i][:, None, :] - pixels[j][None, :, :]
        dmin = float(np.sqrt((diff * diff).sum(axis=2).min()))
        d[i, j] = d[j, i] = 0.0 if dmin <= np.sqrt(2.0) + 1e-12 else dmin
    return d


def _small_render(scene: simulator.SceneSpec) -> PlaneSegmentMap:
    # The desk rig scaled down 8x: the same view at 160 x 120 pixels.
    world = simulator.generate_scene(scene)
    intr = Intrinsics(fx=150.0, fy=150.0, cx=80.0, cy=60.0)
    return simulator.render_plane_mask(world, Pose.identity(), intr, (160, 120))


def _posed_render(seed: int) -> PlaneSegmentMap:
    """The corner (even seeds) or the mural (odd ones) on the desk rig scaled
    down 16x, 80 x 60 pixels, from a random pose within 8 degrees and 5 cm
    of the reference."""
    world = simulator.generate_scene((simulator.corner_scene, simulator.mural_scene)[seed % 2](seed=seed))
    rng = np.random.default_rng(seed)
    pose = Pose(Rotation.from_axis_angle(rng.standard_normal(3), rng.uniform(0, 8)), rng.uniform(-0.05, 0.05, 3))
    return simulator.render_plane_mask(world, pose, Intrinsics(fx=75.0, fy=75.0, cx=40.0, cy=30.0), (80, 60))


def _twelve_planes() -> PlaneSegmentMap:
    lab = np.zeros((40, 60), dtype=np.int32)
    for k in range(12):
        row, col = divmod(k, 4)
        lab[row * 13 + 1 : row * 13 + 4 + 2 * col + row, col * 15 : col * 15 + 14] = k + 1
    return PlaneSegmentMap(lab)


def _random_width_mask(seed: int, width: int) -> PlaneSegmentMap:
    """A ``_random_mask``-style map of the given width, 14 rows tall."""
    rng = np.random.default_rng(seed)
    lab = rng.integers(0, 4, (14, width))
    lab = scipy.ndimage.median_filter(lab, size=3)
    present = np.bincount(lab.ravel())[1:] > 0
    return PlaneSegmentMap(np.concatenate([[0], np.cumsum(present)])[lab])


def _aliasing_stripes() -> PlaneSegmentMap:
    """300 stripes 3 px wide and 3 rows tall, with id k + 256 right of id k:
    read as uint8, each such pair would merge into one region."""
    order = [i for k in range(1, 45) for i in (k, k + 256)] + list(range(45, 257))
    return PlaneSegmentMap(np.repeat(np.array(order, dtype=np.int32), 3)[None].repeat(3, 0))


def _whole_image_graph(m: PlaneSegmentMap) -> np.ndarray:
    """Distances from a whole-image scan: boundary pixels of the full int32
    label map, one kd-tree per region.  An oracle for maps too large to
    compare pixel pair by pixel pair."""
    h = m.num_planes
    d = np.zeros((h, h))
    lab, c = m.labels, m.labels[1:-1, 1:-1]
    boundary = lab > 0
    boundary[1:-1, 1:-1] &= (
        (c != lab[:-2, 1:-1]) | (c != lab[2:, 1:-1]) | (c != lab[1:-1, :-2]) | (c != lab[1:-1, 2:])
    )
    pixels = [np.argwhere(boundary & (lab == pid)) for pid in m.plane_ids]
    for i, j in itertools.combinations(range(h), 2):
        dist, _ = scipy.spatial.cKDTree(pixels[i]).query(pixels[j], k=1)
        dmin = float(dist.min())
        d[i, j] = d[j, i] = 0.0 if dmin <= np.sqrt(2.0) + 1e-12 else dmin
    return d


@pytest.fixture(scope="module")
def full_corner() -> PlaneSegmentMap:
    """The corner scene at the desk rig's 1280 x 960, seen from a pose whose
    labelled box touches the top image border only."""
    world = simulator.generate_scene(simulator.corner_scene(seed=0))
    pose = Pose(Rotation.about_x(3.0), np.zeros(3))
    return simulator.render_plane_mask(
        world, pose, simulator.DESK_INTRINSICS, simulator.DESK_IMAGE_SIZE
    )


# Mask builders, so that collecting the tests renders nothing.
EROSION_CASES = {
    # Together the regions touch all four borders.
    "borders": lambda: _mask(
        (24, 30),
        {
            1: (slice(0, 12), slice(0, 30)),
            2: (slice(12, 24), slice(0, 15)),
            3: (slice(12, 24), slice(15, 30)),
        },
    ),
    "whole-image": lambda: PlaneSegmentMap(np.ones((17, 23), dtype=np.int32)),
    # Plane 1 is a 3 px stripe: it vanishes from r = 2 and plane 2 becomes 1.
    "thin-stripe": lambda: _mask(
        (30, 30), {1: (slice(2, 28), slice(2, 5)), 2: (slice(6, 28), slice(8, 28))}
    ),
    # A ring with a hole that holds a second plane.
    "hole": lambda: _mask(
        (32, 32), {1: (slice(1, 31), slice(1, 31)), 2: (slice(11, 21), slice(11, 21))}
    ),
    "one-row": lambda: PlaneSegmentMap(np.array([[0] + [1] * 7 + [2] * 3 + [0] + [3] * 4])),
    "one-column": lambda: PlaneSegmentMap(np.array([[1] * 9 + [0] + [2] * 6]).T),
    "twelve-planes": _twelve_planes,
    # The labelled box sits inside the image; each side of it is touched
    # by a region that reaches no image border.
    "inner-box": lambda: _mask(
        (30, 70),
        {
            1: (slice(4, 20), slice(3, 40)),
            2: (slice(12, 26), slice(40, 66)),
            3: (slice(20, 26), slice(3, 20)),
        },
    ),
    # Regions on the top and left image borders only, then bottom and right.
    "top-left": lambda: _mask(
        (26, 90), {1: (slice(0, 9), slice(0, 70)), 2: (slice(9, 20), slice(0, 12))}
    ),
    "bottom-right": lambda: _mask(
        (26, 90), {1: (slice(14, 26), slice(20, 90)), 2: (slice(3, 14), slice(77, 90))}
    ),
    # Random regions of widths around 64 and 128 that reach both side borders.
    **{f"width-{w}": (lambda w=w: _random_width_mask(w, w)) for w in (63, 64, 65, 127, 129)},
    "aliasing-stripes": _aliasing_stripes,
    "background": lambda: PlaneSegmentMap(np.zeros((9, 70), dtype=np.int32)),
    "one-pixel": lambda: PlaneSegmentMap(np.ones((1, 1), dtype=np.int32)),
    "lone-pixel": lambda: _mask((9, 70), {1: (slice(4, 5), slice(66, 67))}),
    "corner-render": lambda: _small_render(simulator.corner_scene(seed=0)),
    "mural-render": lambda: _small_render(simulator.mural_scene(seed=0)),
}
RADII = [0, 1, 2, 2.5, 3, 4, 5, 6, 7]
# Maps from each source of row runs: a label array, the renderer and
# erosion.  The label maps hold up to 800 planes on at most 48 x 48 pixels;
# test_sources_cover_what_they_name checks what they reach.
RUN_SOURCES = {
    "labels": lambda seed: _random_mask(seed, max_planes=800, max_side=48),
    "render": _posed_render,
    "erosion": lambda seed: erode_mask(_random_mask(seed, max_side=60), 1),
}
SOURCE_SEEDS = range(8)
# The cases small enough for the pixel-pair oracle of the plane graph.
GRAPH_CASES = sorted(set(EROSION_CASES) - {"corner-render", "mural-render"})


class TestPlaneSegmentMap:
    def test_contiguity_enforced(self):
        lab = np.zeros((5, 5), dtype=int)
        lab[0, 0] = 2  # id 1 missing
        with pytest.raises(InvalidInputError):
            PlaneSegmentMap(lab)

    def test_label_lookup_out_of_image(self):
        m = _mask((10, 10), {1: (slice(2, 5), slice(2, 5))})
        labels = m.label_at(np.array([[3.0, 3.0], [-5.0, 3.0], [100.0, 3.0]]))
        assert labels.tolist() == [1, 0, 0]

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        lab = np.zeros((24, 31), dtype=np.int32)
        lab[3:9, 4:12] = 1
        lab[15:22, 18:28] = 2
        m = PlaneSegmentMap(lab)
        path = tmp_path / "m.pgm"
        m.save(path)
        back = PlaneSegmentMap.load(path)
        assert np.array_equal(back.labels, m.labels)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n31 24\n65535\n")

    def test_pgm_wide_values(self, tmp_path):
        lab = np.zeros((4, 4), dtype=np.int32)
        for k in range(1, 5):
            lab[k - 1, :] = k
        lab[3, 3] = 4
        m = PlaneSegmentMap(lab)
        back = PlaneSegmentMap.from_pgm_bytes(m.to_pgm_bytes())
        assert np.array_equal(back.labels, m.labels)

    def test_rendered_map_round_trips_through_pgm(self, tmp_path):
        m = _posed_render(3)
        m.save(tmp_path / "m.pgm")
        back = PlaneSegmentMap.load(tmp_path / "m.pgm")
        np.testing.assert_array_equal(back.labels, m.labels)
        np.testing.assert_array_equal(back.runs, m.runs)
        np.testing.assert_array_equal(back._areas, m._areas)

    def test_graph_cached_per_map(self):
        m = _mask(
            (12, 12), {1: (slice(0, 3), slice(0, 3)), 2: (slice(6, 9), slice(7, 9))}
        )
        g = m.graph()
        assert m.graph() is g
        assert g.plane_ids == (1, 2)
        np.testing.assert_array_equal(g.distances, PlaneGraph.from_mask(m).distances)


class TestErodeMask:
    def test_radius_zero_is_identity(self):
        m = _mask((20, 20), {1: (slice(5, 15), slice(5, 15))})
        assert erode_mask(m, 0) is m

    def test_square_by_disk(self):
        m = _mask((20, 20), {1: (slice(5, 15), slice(5, 15))})
        e = erode_mask(m, 2)
        assert int((e.labels == 1).sum()) == 36
        rows, cols = np.nonzero(e.labels == 1)
        assert rows.min() == 7 and rows.max() == 12

    def test_small_region_dropped_and_recompacted(self):
        m = _mask((20, 20), {1: (slice(1, 4), slice(1, 4)), 2: (slice(8, 18), slice(8, 18))})
        e = erode_mask(m, 2)
        assert e.num_planes == 1
        assert set(np.unique(e.labels)) == {0, 1}

    def test_matches_binary_erosion_oracle(self):
        # Oracle: scipy binary erosion with the same disk, on random blobs.
        rng = np.random.default_rng(3)
        lab = np.zeros((48, 48), dtype=np.int32)
        for plane_id in (1, 2):
            r0, c0 = rng.integers(2, 18, 2)
            blob = rng.random((20, 20)) > 0.35
            blob = scipy.ndimage.binary_closing(blob)
            region = np.zeros_like(lab, dtype=bool)
            region[r0 : r0 + 20, c0 + 22 * (plane_id - 1) : c0 + 20 + 22 * (plane_id - 1)] = blob
            lab[region] = plane_id
        m = PlaneSegmentMap(lab)
        radius = 2
        eroded = erode_mask(m, radius)
        disk = disk_structuring_element(radius)
        expected = np.zeros_like(lab)
        next_id = 0
        for plane_id in m.plane_ids:
            ref = scipy.ndimage.binary_erosion(
                m.labels == plane_id, structure=disk, border_value=0
            )
            if ref.any():
                next_id += 1
                expected[ref] = next_id
        assert np.array_equal(eroded.labels, expected)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("case", sorted(EROSION_CASES))
    def test_equals_per_label_oracle(self, case, radius):
        m = EROSION_CASES[case]()
        np.testing.assert_array_equal(erode_mask(m, radius).labels, _erosion_oracle(m, radius))

    @pytest.mark.parametrize("case", sorted(EROSION_CASES))
    def test_counts_equal_a_full_validation(self, case):
        # Erosion builds its maps without recounting them; the counts it
        # carries over must be those a validating construction takes.
        m = EROSION_CASES[case]()
        for radius in RADII + [40, math.inf, math.nan]:
            e = erode_mask(m, radius)
            checked = PlaneSegmentMap(e.labels)
            assert e.num_planes == checked.num_planes
            np.testing.assert_array_equal(e._areas, checked._areas)
            assert e._areas.dtype == checked._areas.dtype
            assert e.labels.dtype == np.int32 and not e.labels.flags.writeable

    def test_cases_cover_what_they_name(self):
        assert EROSION_CASES["twelve-planes"]().num_planes == 12
        assert EROSION_CASES["corner-render"]().num_planes == 3
        assert EROSION_CASES["mural-render"]().num_planes >= 2
        thin = erode_mask(EROSION_CASES["thin-stripe"](), 2)
        assert thin.num_planes == 1 and thin.labels[15, 15] == 1
        for w in (63, 64, 65, 127, 129):
            m = EROSION_CASES[f"width-{w}"]()
            assert m.width == w and m.num_planes >= 2
            assert m.labels[:, 0].any() and m.labels[:, -1].any()
        inner = EROSION_CASES["inner-box"]().labels
        assert not (inner[0].any() or inner[-1].any() or inner[:, 0].any() or inner[:, -1].any())
        stripes = EROSION_CASES["aliasing-stripes"]()
        assert stripes.num_planes == 300 and stripes.labels[0, 3] == 257
        assert erode_mask(stripes, 1).num_planes == 300

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(RADII))
    def test_random_masks_equal_oracle(self, seed, radius):
        m = _random_mask(seed)
        np.testing.assert_array_equal(erode_mask(m, radius).labels, _erosion_oracle(m, radius))

    def test_full_size_corner_render(self, full_corner):
        m = full_corner
        rows = np.flatnonzero(m.labels.any(axis=1))
        assert m.num_planes == 3 and rows[0] == 0 and rows[-1] < m.height - 1
        e = erode_mask(m, 5)
        np.testing.assert_array_equal(e.labels, _erosion_oracle(m, 5))
        np.testing.assert_array_equal(e._areas, np.bincount(e.labels.ravel())[1:])

    def test_keys_hold_65535_labels_on_a_5760_by_3840_frame(self):
        # 3 x 3 blocks, the last in the bottom-right corner, where the
        # interval keys are largest; a radius-1 disk keeps each centre.
        # Built from runs, so that no 22 Mpx label array is made.
        k = np.arange(65535)
        top, left = 3837 - 3 * (k // 1920), 5757 - 3 * (k % 1920)
        rows = (top + np.arange(3)[:, None]).T.ravel()
        runs = np.stack([rows, np.repeat(left, 3), np.repeat(left + 2, 3), np.repeat(65535 - k, 3)])
        order = np.argsort(runs[0] * 5760 + runs[1])
        m = PlaneSegmentMap._of_runs((3840, 5760), runs[:, order], 65535)
        e = erode_mask(m, 1)
        assert e.num_planes == 65535
        centres = np.column_stack([left + 1, top + 1])
        np.testing.assert_array_equal(e.label_at(centres), 65535 - k)
        np.testing.assert_array_equal(e.runs[2] - e.runs[1], 0)

    def test_negative_radius_rejected(self):
        m = _mask((10, 10), {1: (slice(2, 8), slice(2, 8))})
        with pytest.raises(InvalidInputError):
            erode_mask(m, -1)


class TestMinRegionDistance:
    """Region distances as the cached plane graph holds them: entry
    (a - 1, b - 1) of ``m.graph().distances``."""

    def test_touching_regions(self):
        m = _mask((10, 10), {1: (slice(0, 3), slice(0, 3)), 2: (slice(0, 3), slice(3, 6))})
        assert m.graph().distances[0, 1] == 0.0

    def test_three_four_five(self):
        lab = np.zeros((10, 10), dtype=np.int32)
        lab[0, 0] = 1
        lab[4, 3] = 2
        assert PlaneSegmentMap(lab).graph().distances[0, 1] == pytest.approx(5.0)

    def test_unknown_id(self):
        # The graph covers exactly the map's ids: no entry for id 3.
        g = _mask((10, 10), {1: (slice(0, 3), slice(0, 3))}).graph()
        assert g.plane_ids == (1,)
        assert g.distances.shape == (1, 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            lab = np.zeros((36, 36), dtype=np.int32)
            lab[2 : 2 + rng.integers(3, 8), 3 : 3 + rng.integers(3, 9)] = 1
            lab[20 : 20 + rng.integers(3, 9), 19 : 19 + rng.integers(3, 10)] = 2
            m = PlaneSegmentMap(lab)
            pa = np.argwhere(lab == 1)
            pb = np.argwhere(lab == 2)
            brute = min(
                float(np.linalg.norm(p - q)) for p in pa for q in pb
            )
            if brute <= np.sqrt(2.0) + 1e-12:
                brute = 0.0
            assert m.graph().distances[0, 1] == pytest.approx(brute)


class TestPlaneGraphFromMask:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("case", GRAPH_CASES)
    def test_cases_equal_brute_force(self, case, radius):
        m = erode_mask(EROSION_CASES[case](), radius)
        g = PlaneGraph.from_mask(m)
        assert g.plane_ids == tuple(m.plane_ids)
        np.testing.assert_allclose(g.distances, _graph_oracle(m), rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_masks_equal_brute_force(self, seed):
        m = _random_mask(seed, max_planes=6, max_side=24)
        g = PlaneGraph.from_mask(m)
        assert g.plane_ids == tuple(m.plane_ids)
        np.testing.assert_allclose(g.distances, _graph_oracle(m), rtol=0, atol=1e-12)

    def test_full_size_corner_render(self, full_corner):
        for m in (full_corner, erode_mask(full_corner, 5)):
            np.testing.assert_array_equal(PlaneGraph.from_mask(m).distances, _whole_image_graph(m))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_eroded_runs_equal_a_fresh_extraction(self, seed):
        world = simulator.generate_scene(simulator.corner_scene(seed=seed))
        offset = Pose(Rotation.about_y(2.0), np.array([0.02, -0.01, 0.01]))
        obs = observe_world(world, offset, seed=seed)
        for eroded in (obs.mask_ref.eroded(), obs.mask_cur.eroded(), erode_mask(_aliasing_stripes(), 1)):
            self._same_as_a_fresh_extraction(eroded)

    @staticmethod
    def _same_as_a_fresh_extraction(eroded):
        fresh = PlaneSegmentMap(eroded.labels)
        assert eroded.runs.dtype == fresh.runs.dtype == np.int64
        np.testing.assert_array_equal(eroded.runs, fresh.runs)
        graph, fresh_graph = PlaneGraph.from_mask(eroded), PlaneGraph.from_mask(fresh)
        assert graph.plane_ids == fresh_graph.plane_ids
        assert graph.distances.tobytes() == fresh_graph.distances.tobytes()

    def test_diagonal_contact_reads_zero(self):
        lab = np.zeros((8, 8), dtype=np.int32)
        lab[0:3, 0:3] = 1
        lab[3:6, 3:6] = 2
        lab[7, 0] = 3
        g = PlaneGraph.from_mask(PlaneSegmentMap(lab))
        assert g.distances[0, 1] == 0.0
        assert g.distances[0, 2] == pytest.approx(5.0)
        np.testing.assert_allclose(g.distances, _graph_oracle(PlaneSegmentMap(lab)))


class TestRunSources:
    """The erosion and graph oracles, and the per-pixel label lookup, on
    maps whose runs come from each source."""

    @pytest.mark.parametrize("seed", SOURCE_SEEDS)
    @pytest.mark.parametrize("source", sorted(RUN_SOURCES))
    def test_erosion_equals_oracle(self, source, seed):
        m = RUN_SOURCES[source](seed)
        for radius in RADII:
            np.testing.assert_array_equal(erode_mask(m, radius).labels, _erosion_oracle(m, radius))

    @pytest.mark.parametrize("seed", SOURCE_SEEDS)
    @pytest.mark.parametrize("source", sorted(RUN_SOURCES))
    def test_graph_equals_brute_force(self, source, seed):
        for m in (RUN_SOURCES[source](seed), erode_mask(RUN_SOURCES[source](seed), 2)):
            g = PlaneGraph.from_mask(m)
            assert g.plane_ids == tuple(m.plane_ids)
            np.testing.assert_allclose(g.distances, _graph_oracle(m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", SOURCE_SEEDS)
    @pytest.mark.parametrize("source", sorted(RUN_SOURCES))
    def test_runs_equal_a_fresh_extraction(self, source, seed):
        m = RUN_SOURCES[source](seed)
        fresh = PlaneSegmentMap(m.labels)
        np.testing.assert_array_equal(m.runs, fresh.runs)
        np.testing.assert_array_equal(m._areas, fresh._areas)
        assert m.runs.dtype == np.int64 and not m.runs.flags.writeable
        assert m.labels.dtype == np.int32 and not m.labels.flags.writeable

    @pytest.mark.parametrize("seed", SOURCE_SEEDS)
    @pytest.mark.parametrize("source", sorted(RUN_SOURCES))
    def test_label_at_equals_indexing_the_labels(self, source, seed):
        m = RUN_SOURCES[source](seed)
        rows, cols = np.mgrid[0 : m.height, 0 : m.width]
        pixels = np.column_stack([cols.ravel(), rows.ravel()]).astype(float)
        np.testing.assert_array_equal(m.label_at(pixels), m.labels.ravel())
        rng = np.random.default_rng(seed)
        off = rng.uniform(-3, 3, (400, 2)) + rng.choice([[0, 0], [m.width, m.height]], 400)
        off = np.concatenate([off, [[-1, 0], [0, -1], [m.width, 0], [0, m.height]]])
        halves = np.concatenate([pixels + 0.5, pixels - 0.5, pixels + [0.5, -0.5]])
        for pts in (off, halves, rng.uniform(-2, max(m.width, m.height) + 2, (500, 2))):
            col, row = np.rint(pts).astype(int).T
            inside = (row >= 0) & (row < m.height) & (col >= 0) & (col < m.width)
            expected = np.zeros(len(pts), dtype=np.int32)
            expected[inside] = m.labels[row[inside], col[inside]]
            np.testing.assert_array_equal(m.label_at(pts), expected)

    def test_sources_cover_what_they_name(self):
        maps = {name: [build(seed) for seed in SOURCE_SEEDS] for name, build in RUN_SOURCES.items()}
        for m in maps["labels"]:
            row, lo, hi, label = m.runs
            # Several runs of one label in a row, and regions on all four borders.
            assert len(np.unique(row * m.width + label)) < len(label)
            assert row[0] == 0 and row[-1] == m.height - 1 and lo.min() == 0 and hi.max() == m.width - 1
        assert max(m.num_planes for m in maps["labels"]) > 255
        assert all(erode_mask(m, 1).num_planes < m.num_planes for m in maps["labels"])
        assert any(len(np.unique(m.runs[0] * m.width + m.runs[3])) < m.runs.shape[1] for m in maps["erosion"])
        assert all(m.num_planes >= 2 for m in maps["render"])


def _parallel_lines(bump: bool) -> PlaneSegmentMap:
    """Two 200 px lines 10 rows apart, so that the row ends already sit at
    the minimum and every pixel of the second line ties the bound; with
    ``bump`` one pixel comes a row nearer, below the bound at a pair the
    bound does not hold."""
    lab = np.zeros((16, 220), dtype=np.int32)
    lab[2, 10:210] = 1
    lab[12, 10:210] = 2
    if bump:
        lab[11, 15] = 2
    return PlaneSegmentMap(lab)


def _u_wrap() -> PlaneSegmentMap:
    """Region 2 is a U wrapping regions 1 and 3: two runs in each of its
    upper rows, and a column span that bounds nothing (gap 0).  Region 3's
    first row stops short of the U's right arm, and the U's row ends are
    its outer edges, so the bound is loose and only the arm's run, right
    of region 3's runs, holds the minimum."""
    lab = np.zeros((30, 40), dtype=np.int32)
    lab[:, :5] = lab[:, 35:] = lab[25:] = 2
    lab[2:9, 8:21] = 1
    lab[14, 22:27] = lab[15:21, 22:32] = 3
    return PlaneSegmentMap(lab)


def _far_pair_full_size() -> PlaneSegmentMap:
    """Region 1 is two blocks at the top and bottom left corners of a
    1280 x 960 map, region 2 a block midway down the right edge: of the
    rows that region 2's runs visit, only the two ends hold a run of
    region 1."""
    lab = np.zeros((960, 1280), dtype=np.int32)
    lab[0:10, 0:10] = lab[950:960, 0:10] = 1
    lab[475:485, 1270:1280] = 2
    return PlaneSegmentMap(lab)


# Maps on which the bounded run visits of PlaneGraph.from_mask must give
# the unbounded whole-image kd-tree distances bit for bit.
BOUNDED_QUERY_CASES = {
    "touching": lambda: _mask(
        (12, 20), {1: (slice(0, 6), slice(0, 10)), 2: (slice(0, 6), slice(10, 20)),
                   3: (slice(6, 12), slice(10, 20))}
    ),
    "diagonal-contact": lambda: _mask(
        (10, 10), {1: (slice(0, 4), slice(0, 4)), 2: (slice(4, 8), slice(4, 8))}
    ),
    "far-pair": lambda: _mask(
        (40, 360), {1: (slice(5, 35), slice(0, 30)), 2: (slice(10, 30), slice(330, 360))}
    ),
    # 8 boundary pixels.
    "few-boundary-pixels": lambda: _mask(
        (60, 90), {1: (slice(5, 55), slice(0, 50)), 2: (slice(20, 23), slice(80, 83))}
    ),
    "single-pixel": lambda: _mask(
        (60, 90), {1: (slice(40, 41), slice(85, 86)), 2: (slice(5, 55), slice(0, 50)),
                   3: (slice(0, 1), slice(89, 90))}
    ),
    "tie-at-bound": lambda: _parallel_lines(bump=False),
    "below-bound-off-sample": lambda: _parallel_lines(bump=True),
    "aliasing-stripes": _aliasing_stripes,
    "u-wrap": _u_wrap,
    # No shared row: the nearest pair is corner to corner.
    "stacked-diagonal": lambda: _mask(
        (25, 50), {1: (slice(0, 10), slice(0, 20)), 2: (slice(15, 25), slice(30, 50))}
    ),
    "far-pair-full-size": _far_pair_full_size,
}


class TestBoundedGraphQueries:
    """The row-end bound prunes the run visits without moving a minimum:
    each map's distances equal the unbounded oracle's bits."""

    @pytest.mark.parametrize("case", sorted(BOUNDED_QUERY_CASES))
    def test_equals_unbounded_oracle(self, case):
        m = BOUNDED_QUERY_CASES[case]()
        np.testing.assert_array_equal(PlaneGraph.from_mask(m).distances, _whole_image_graph(m))

    def test_cases_read_what_they_name(self):
        d = {name: PlaneGraph.from_mask(build()).distances for name, build in BOUNDED_QUERY_CASES.items()}
        assert (d["touching"][np.triu_indices(3, 1)] == 0.0).all()
        assert d["diagonal-contact"][0, 1] == 0.0
        assert d["far-pair"][0, 1] == 301.0
        assert d["few-boundary-pixels"][0, 1] == 31.0
        assert d["single-pixel"][0, 1] == 36.0 and d["single-pixel"][0, 2] == math.hypot(40, 4)
        assert d["tie-at-bound"][0, 1] == 10.0
        assert d["below-bound-off-sample"][0, 1] == 9.0
        assert len(d["aliasing-stripes"]) == 300
        assert d["u-wrap"][0, 1] == d["u-wrap"][1, 2] == 4.0
        assert d["u-wrap"][0, 2] == math.hypot(6, 2)
        assert d["stacked-diagonal"][0, 1] == math.hypot(6, 11)
        assert d["far-pair-full-size"][0, 1] == math.hypot(466, 1261)

    def test_ties_at_the_bound_are_kept(self):
        # The row-end bound equals the minimum, which every pixel of the
        # second line ties: pruning at the bound must keep the tie.
        m = _parallel_lines(bump=False)
        row, lo, hi, label = m.runs  # one run per region: raster order is region order
        ends = plane_match._row_ends(row, lo, hi, label - 1)
        first = np.searchsorted(ends[3], np.arange(3))
        np.testing.assert_array_equal(plane_match._row_end_bounds(ends, first, 0), [10**2])
        assert PlaneGraph.from_mask(m).distances[0, 1] == 10.0


def _spy_affinity(monkeypatch) -> list:
    """The arguments of every ``assemble_affinity`` call that
    ``match_plane_maps`` makes, recorded as it passes them on."""
    calls = []

    def spy(node_aff, graph_ref, graph_cur, sigma):
        calls.append((np.array(node_aff), graph_ref, graph_cur))
        return assemble(node_aff, graph_ref, graph_cur, sigma)

    assemble = plane_match.assemble_affinity
    monkeypatch.setattr(plane_match, "assemble_affinity", spy)
    return calls


class TestAffinities:
    def test_node_affinity_counts(self, monkeypatch):
        m_ref = _mask((30, 30), {1: (slice(2, 9), slice(2, 9)), 2: (slice(18, 25), slice(18, 25))})
        m_cur = m_ref
        # Labels 0 (background) on either side count nowhere.
        labels_ref = np.array([1] * 12 + [2] * 5 + [0, 1])
        labels_cur = np.array([2] * 12 + [1] * 5 + [1, 0])
        calls = _spy_affinity(monkeypatch)
        match_plane_maps(m_ref, m_cur, labels_ref, labels_cur)
        np.testing.assert_array_equal(calls[0][0], [[0.0, 12.0], [5.0, 0.0]])

    def test_node_affinity_empty(self, monkeypatch):
        m = _mask((10, 10), {1: (slice(2, 8), slice(2, 8))})
        calls = _spy_affinity(monkeypatch)
        none = np.zeros(0, np.int32)
        assert match_plane_maps(m, m, none, none) == [(1, 1)]
        np.testing.assert_array_equal(calls[0][0], [[0.0]])

    def test_counts_transpose_when_the_reference_has_more_planes(self, monkeypatch):
        m_ref = _mask((30, 30), {k: (slice(2, 6), slice(8 * k - 6, 8 * k - 2)) for k in (1, 2, 3)})
        m_cur = _mask((30, 30), {1: (slice(20, 25), slice(2, 9)), 2: (slice(20, 25), slice(18, 25))})
        labels_ref = np.array([1] * 4 + [2] * 3 + [3] * 7)
        labels_cur = np.array([2] * 4 + [1] * 3 + [1] * 7)
        calls = _spy_affinity(monkeypatch)
        pairs = match_plane_maps(m_ref, m_cur, labels_ref, labels_cur)
        (counts, graph_first, graph_second), = calls
        np.testing.assert_array_equal(counts, [[0.0, 3.0, 7.0], [4.0, 0.0, 0.0]])
        assert graph_first is m_cur.graph() and graph_second is m_ref.graph()
        # Ascending current id, each with the reference plane it drew.
        assert pairs == [(3, 1), (1, 2)]

    def test_edge_affinity_values(self):
        # Edge (1, 2) of the reference graph is 5 px long; the current
        # graph offers edges of 5, 15 and 1e9 px.  The equal-length pair
        # scores exp(0) = 1, the class maximum, so normalization keeps
        # the others at exp(-|d_ref - d_cur| / sigma).
        g_ref = PlaneGraph((1, 2), np.array([[0.0, 5.0], [5.0, 0.0]]))
        d_cur = np.array([[0.0, 5.0, 15.0], [5.0, 0.0, 1e9], [15.0, 1e9, 0.0]])
        g_cur = PlaneGraph((1, 2, 3), d_cur)
        w = assemble_affinity(np.ones((2, 3)), g_ref, g_cur, sigma=10.0)
        # (a, c) -> c * 2 + a; ((0, c), (1, d)) carries edge (c, d).
        assert w[0, 3] == pytest.approx(1.0)
        assert w[0, 5] == pytest.approx(np.exp(-1.0))
        assert w[2, 5] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(InvalidInputError):
            assemble_affinity(np.ones((2, 3)), g_ref, g_cur, sigma=0.0)


def _loop_edges(graph_ref: PlaneGraph, graph_cur: PlaneGraph, sigma: float) -> np.ndarray:
    """The unscaled edge block of W, filled by a loop over (a, b), then c:
    the construction ``assemble_affinity`` used before it broadcast."""
    h, m = len(graph_ref.plane_ids), len(graph_cur.plane_ids)
    edges = np.zeros((h * m, h * m))
    for a in range(h):
        for b in range(h):
            if a == b:
                continue
            diff = np.abs(graph_ref.distances[a, b] - graph_cur.distances)
            sim = np.exp(-diff / sigma)
            for c_i in range(m):
                vals = sim[c_i].copy()
                vals[c_i] = 0.0
                edges[c_i * h + a, np.arange(m) * h + b] = vals
    return edges


class TestAssembleAffinity:
    def test_edges_equal_the_loop_oracle_bit_for_bit(self):
        # Zero node affinities leave W the scaled edge block alone.
        rng = np.random.default_rng(0)
        for _ in range(300):
            h = int(rng.integers(1, 6))
            m = int(rng.integers(h, 8))
            graphs = []
            for k in (h, m):
                d = rng.uniform(0, 400, size=(k, k)) * (rng.random((k, k)) < 0.8)
                graphs.append(PlaneGraph(tuple(range(1, k + 1)), np.triu(d, 1) + np.triu(d, 1).T))
            sigma = float(rng.choice([0.5, 8.0, 160.0]))
            edges = _loop_edges(*graphs, sigma)
            expected = edges / edges.max() if edges.max() > 0 else edges
            assert np.array_equal(assemble_affinity(np.zeros((h, m)), *graphs, sigma), expected)

    def test_one_by_one(self):
        g = PlaneGraph((1,), np.zeros((1, 1)))
        w = assemble_affinity(np.array([[7.0]]), g, g, sigma=5.0)
        np.testing.assert_allclose(w, [[1.0]])  # scaled by the node maximum

    def test_two_by_two_hand_expansion(self):
        # Hand-expanded affinity for H = M = 2 with known distances.
        node = np.array([[3.0, 1.0], [0.0, 2.0]])
        g_ref = PlaneGraph((1, 2), np.array([[0.0, 10.0], [10.0, 0.0]]))
        g_cur = PlaneGraph((1, 2), np.array([[0.0, 14.0], [14.0, 0.0]]))
        sigma = 4.0
        w = assemble_affinity(node, g_ref, g_cur, sigma)
        assert w.shape == (4, 4)
        # Column-major index: (a, c) -> c*2 + a.  Each class is scaled by
        # its maximum: the nodes by 3, the edges (all exp(-4 / 4)) by
        # themselves.
        np.testing.assert_allclose(np.diag(w), np.array([3.0, 0.0, 1.0, 2.0]) / 3.0)
        # ((a=0,c=0),(b=1,d=1)) and symmetric mirror entries.
        assert w[0, 3] == pytest.approx(1.0)
        assert w[3, 0] == pytest.approx(1.0)
        assert w[1, 2] == pytest.approx(1.0)
        # Same reference plane or same current plane is infeasible: zero.
        assert w[0, 1] == 0.0 and w[0, 2] == 0.0
        np.testing.assert_allclose(w, w.T)

    def test_objective_matches_two_sum(self):
        # Oracle: the explicit node-sum plus ordered edge-sum, each over
        # its class maximum, for every feasible assignment on small sizes.
        rng = np.random.default_rng(4)
        for h, m in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            node = rng.uniform(0, 5, size=(h, m))
            d_ref = rng.uniform(0, 30, size=(h, h))
            d_ref = (d_ref + d_ref.T) / 2
            np.fill_diagonal(d_ref, 0.0)
            d_cur = rng.uniform(0, 30, size=(m, m))
            d_cur = (d_cur + d_cur.T) / 2
            np.fill_diagonal(d_cur, 0.0)
            sigma = 8.0
            w = assemble_affinity(
                node,
                PlaneGraph(tuple(range(1, h + 1)), d_ref),
                PlaneGraph(tuple(range(1, m + 1)), d_cur),
                sigma,
            )

            def edge(a, b, c, d):
                return math.exp(-abs(d_ref[a, b] - d_cur[c, d]) / sigma)

            edge_max = max(
                edge(a, b, c, d)
                for a, b in itertools.permutations(range(h), 2)
                for c, d in itertools.permutations(range(m), 2)
            )
            for columns in itertools.permutations(range(m), h):
                expected = sum(node[a, columns[a]] for a in range(h)) / node.max()
                for a, b in itertools.permutations(range(h), 2):
                    expected += edge(a, b, columns[a], columns[b]) / edge_max
                assert _objective(w, columns) == pytest.approx(expected)

    def test_orientation_error(self):
        node = np.zeros((3, 2))
        g3 = PlaneGraph((1, 2, 3), np.zeros((3, 3)))
        g2 = PlaneGraph((1, 2), np.zeros((2, 2)))
        with pytest.raises(OrientationError):
            assemble_affinity(node, g3, g2, sigma=1.0)


def _objective(w: np.ndarray, columns) -> float:
    """Quadratic objective u^T W u, u the column expansion of the binary
    assignment matrix that puts row ``a`` in column ``columns[a]``."""
    h = len(columns)
    u = np.zeros((h, len(w) // h))
    u[np.arange(h), list(columns)] = 1.0
    u = u.T.reshape(-1)
    return float(u @ w @ u)


class TestSolveMatching:
    def test_single_assignment(self):
        w = np.array([[2.0]])
        assert solve_matching(w, 1, 1) == [0]

    @pytest.mark.parametrize("budget", [math.perm(6, 4), 0], ids=["exact", "spectral"])
    def test_every_row_gets_one_distinct_column(self, monkeypatch, budget):
        monkeypatch.setattr(plane_match, "EXACT_ENUMERATION_BUDGET", budget)
        rng = np.random.default_rng(5)
        for h, m in [(1, 4), (2, 2), (3, 5), (4, 4), (4, 6)]:
            w = rng.uniform(0, 1, size=(h * m, h * m))
            columns = solve_matching((w + w.T) / 2, h, m)
            assert len(columns) == h
            assert len(set(columns)) == h and set(columns) <= set(range(m))

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for h, m in [(2, 2), (3, 3), (3, 5), (4, 5), (5, 5)]:
            w = rng.uniform(0, 1, size=(h * m, h * m))
            w = (w + w.T) / 2
            best_score = _objective(w, solve_matching(w, h, m))
            for columns in itertools.permutations(range(m), h):
                assert best_score >= _objective(w, columns) - 1e-12

    def test_spectral_feasible_and_bounded(self):
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(40):
            h, m = 3, 5
            w = rng.uniform(0, 1, size=(h * m, h * m))
            w = (w + w.T) / 2
            exact = solve_matching(w, h, m)
            spectral = _spectral_matching(w, h)
            assert len(spectral) == h and len(set(spectral)) == h
            se = _objective(w, spectral)
            ee = _objective(w, exact)
            assert se <= ee + 1e-12
            gaps.append(se / ee)
        # Soft quality check: logged, not asserted (relaxation quality is
        # data-dependent).
        print(f"spectral/exact objective ratio: median {np.median(gaps):.3f}")

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        h = m = 3
        node = rng.uniform(0, 10, size=(h, m))
        d_ref = rng.uniform(1, 20, size=(h, h))
        d_ref = (d_ref + d_ref.T) / 2
        np.fill_diagonal(d_ref, 0)
        d_cur = rng.uniform(1, 20, size=(m, m))
        d_cur = (d_cur + d_cur.T) / 2
        np.fill_diagonal(d_cur, 0)
        w = assemble_affinity(
            node, PlaneGraph((1, 2, 3), d_ref), PlaneGraph((1, 2, 3), d_cur), 5.0
        )
        base = solve_matching(w, h, m)
        perm = np.array([2, 0, 1])  # relabel the reference planes
        node_p = node[perm]
        d_ref_p = d_ref[np.ix_(perm, perm)]
        w_p = assemble_affinity(
            node_p, PlaneGraph((1, 2, 3), d_ref_p), PlaneGraph((1, 2, 3), d_cur), 5.0
        )
        permuted = solve_matching(w_p, h, m)
        assert _objective(w_p, permuted) == pytest.approx(
            _objective(w, base)
        )
        for a_new, c in enumerate(permuted):
            assert base[perm[a_new]] == c


class TestMatchPlaneMaps:
    def test_simple_crossed_match(self):
        m = _mask(
            (30, 30),
            {1: (slice(3, 8), slice(3, 8)), 2: (slice(18, 23), slice(18, 23))},
        )
        a = np.array([[5.0, 5.0]] * 7 + [[20.0, 20.0]] * 9)
        b = np.array([[20.0, 20.0]] * 7 + [[5.0, 5.0]] * 9)
        pairs = match_plane_maps(m, m, m.label_at(a), m.label_at(b))
        assert sorted(pairs) == [(1, 2), (2, 1)]

    def test_swap_when_ref_has_more_planes(self):
        m_ref = _mask(
            (40, 40),
            {
                1: (slice(2, 8), slice(2, 8)),
                2: (slice(2, 8), slice(20, 26)),
                3: (slice(20, 26), slice(2, 8)),
            },
        )
        m_cur = _mask(
            (40, 40),
            {1: (slice(2, 8), slice(2, 8)), 2: (slice(2, 8), slice(20, 26))},
        )
        a = np.array([[4.0, 4.0]] * 6 + [[22.0, 4.0]] * 6)
        b = np.array([[4.0, 4.0]] * 6 + [[22.0, 4.0]] * 6)
        pairs = match_plane_maps(m_ref, m_cur, m_ref.label_at(a), m_cur.label_at(b))
        assert len(pairs) == 2
        assert (1, 1) in pairs and (2, 2) in pairs

    def test_empty_masks(self):
        empty = PlaneSegmentMap(np.zeros((10, 10), dtype=np.int32))
        m = _mask((10, 10), {1: (slice(2, 8), slice(2, 8))})
        none = np.zeros(0, np.int32)
        assert match_plane_maps(empty, m, none, none) == []


class TestMethodChoice:
    """match_plane_maps solves exactly while the injection count is within
    the budget and by the spectral relaxation past it."""

    # Correspondences from reference plane i to current plane j, on a case
    # where the relaxation keeps another injection than exact enumeration.
    COUNTS = [[4, 1, 1], [5, 1, 1]]
    CENTERS = [(5.0, 5.0), (23.0, 5.0), (5.0, 23.0)]
    BOXES = [(slice(2, 8), slice(2, 8)), (slice(2, 8), slice(20, 26)), (slice(20, 26), slice(2, 8))]

    def _case(self):
        ref = _mask((32, 32), dict(enumerate(self.BOXES[:2], start=1)))
        cur = _mask((32, 32), dict(enumerate(self.BOXES, start=1)))
        a, b = [], []
        for i, row in enumerate(self.COUNTS):
            for j, n in enumerate(row):
                a += [self.CENTERS[i]] * n
                b += [self.CENTERS[j]] * n
        labels = ref.label_at(np.array(a)), cur.label_at(np.array(b))
        node = np.array(self.COUNTS, dtype=float)
        w = assemble_affinity(node, ref.graph(), cur.graph(), 0.1 * math.hypot(32, 32))
        return ref, cur, labels, w

    @staticmethod
    def _brute_force(w, h, m) -> list:
        """The first best injection, by the objective, in column order."""
        best, best_score = None, -np.inf
        for columns in itertools.permutations(range(m), h):
            score = _objective(w, columns)
            if score > best_score:
                best, best_score = columns, score
        return [(a + 1, c + 1) for a, c in enumerate(best)]

    @pytest.mark.parametrize("swap", [False, True], ids=["ref-fewer", "ref-more"])
    @pytest.mark.parametrize("over", [0, 1], ids=["at-budget", "past-budget"])
    def test_budget_boundary(self, monkeypatch, swap, over):
        ref, cur, (labels_ref, labels_cur), w = self._case()
        exact = self._brute_force(w, 2, 3)
        spectral = [(a + 1, c + 1) for a, c in enumerate(_spectral_matching(w, 2))]
        assert exact != spectral  # the case tells the two methods apart
        monkeypatch.setattr(plane_match, "EXACT_ENUMERATION_BUDGET", math.perm(3, 2) - over)
        expected = spectral if over else exact
        if swap:
            pairs = match_plane_maps(cur, ref, labels_cur, labels_ref)
            expected = [(j, i) for i, j in expected]
        else:
            pairs = match_plane_maps(ref, cur, labels_ref, labels_cur)
        assert pairs == expected

