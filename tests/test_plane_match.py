"""Unit tests for plane-region matching."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit import fusion, simulator
from acrkit.errors import InvalidInputError
from acrkit.geometry import Intrinsics, Pose, Rotation
from acrkit.plane_match import (
    EROSION_RADIUS,
    PlaneSegmentMap,
    erode_mask,
    match_plane_maps,
)
from conftest import observe_world


def _mask(shape, regions):
    lab = np.zeros(shape, dtype=np.int32)
    for plane_id, sl in regions.items():
        lab[sl] = plane_id
    return PlaneSegmentMap(lab)


def _compacted(lab: np.ndarray) -> PlaneSegmentMap:
    """The map of ``lab`` with its ids recompacted to 1..H."""
    present = np.bincount(lab.ravel())[1:] > 0
    return PlaneSegmentMap(np.concatenate([[0], np.cumsum(present)])[lab])


def _random_mask(seed: int, max_planes: int = 12, max_side: int = 40) -> PlaneSegmentMap:
    """Median-filtered random labels, ids recompacted: ragged regions of
    every size, many touching each other and the image border."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, max_side + 1, 2)
    lab = rng.integers(0, rng.integers(1, max_planes + 1) + 1, (h, w))
    return _compacted(scipy.ndimage.median_filter(lab, size=int(rng.integers(1, 6))))


def _disk(radius) -> np.ndarray:
    """Boolean disk of the offsets whose Euclidean length is within ``radius``."""
    r = int(radius)
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    return np.sqrt(yy * yy + xx * xx) <= radius


def _erosion_oracle(m: PlaneSegmentMap, radius) -> np.ndarray:
    """Per-label scipy binary erosion by the disk, each region keeping its id."""
    expected = np.zeros_like(m.labels)
    for plane_id in range(1, m.num_planes + 1):
        kept = scipy.ndimage.binary_erosion(m.labels == plane_id, _disk(radius), border_value=0)
        expected[kept] = plane_id
    return expected


def _eroded_everywhere(m: PlaneSegmentMap, radius) -> np.ndarray:
    """:func:`erode_mask` queried at every pixel centre, as a label array."""
    rows, cols = np.mgrid[0 : m.height, 0 : m.width]
    pixels = np.column_stack([cols.ravel(), rows.ravel()]).astype(float)
    return erode_mask(m, radius, pixels).reshape(m.height, m.width)


def _eroded_map(m: PlaneSegmentMap, radius) -> PlaneSegmentMap:
    """The oracle's eroded map, ids recompacted: a source of ragged runs."""
    return _compacted(_erosion_oracle(m, radius))


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
    return _compacted(scipy.ndimage.median_filter(rng.integers(0, 4, (14, width)), size=3))


def _aliasing_stripes() -> PlaneSegmentMap:
    """300 stripes 3 px wide and 3 rows tall, with id k + 256 right of id k:
    read as uint8, each such pair would merge into one region."""
    order = [i for k in range(1, 45) for i in (k, k + 256)] + list(range(45, 257))
    return PlaneSegmentMap(np.repeat(np.array(order, dtype=np.int32), 3)[None].repeat(3, 0))


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
    # Plane 1 is a 3 px stripe: it vanishes from r = 2, and plane 2 keeps id 2.
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
# Maps from each source of row runs: a label array, the renderer and the
# eroded labels of a random map, whose regions come out ragged and split.
# The label maps hold up to 800 planes on at most 48 x 48 pixels;
# test_sources_cover_what_they_name checks what they reach.
RUN_SOURCES = {
    "labels": lambda seed: _random_mask(seed, max_planes=800, max_side=48),
    "render": _posed_render,
    "erosion": lambda seed: _eroded_map(_random_mask(seed, max_side=60), 1),
}
SOURCE_SEEDS = range(8)


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


class TestErodeMask:
    """Erosion as the loop reads it: the labels under given points.  Every
    comparison with an oracle queries every pixel centre of the map."""

    def test_radius_zero_is_identity(self):
        m = _mask((20, 20), {1: (slice(5, 15), slice(5, 15)), 2: (slice(0, 4), slice(0, 20))})
        np.testing.assert_array_equal(_eroded_everywhere(m, 0), m.labels)
        pts = np.array([[-1.0, 3.0], [20.0, 3.0], [2.4, -0.6], [7.5, 7.5], [10.2, 14.6]])
        np.testing.assert_array_equal(erode_mask(m, 0, pts), m.label_at(pts))

    def test_square_by_disk(self):
        m = _mask((20, 20), {1: (slice(5, 15), slice(5, 15))})
        e = _eroded_everywhere(m, 2)
        assert int((e == 1).sum()) == 36
        rows, cols = np.nonzero(e == 1)
        assert rows.min() == 7 and rows.max() == 12

    def test_small_region_reads_background_and_ids_stay(self):
        m = _mask((20, 20), {1: (slice(1, 4), slice(1, 4)), 2: (slice(8, 18), slice(8, 18))})
        e = _eroded_everywhere(m, 2)
        assert set(np.unique(e)) == {0, 2}
        assert (e[m.labels == 1] == 0).all()

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
        expected = np.zeros_like(lab)
        for plane_id in range(1, m.num_planes + 1):
            ref = scipy.ndimage.binary_erosion(lab == plane_id, structure=_disk(2), border_value=0)
            expected[ref] = plane_id
        np.testing.assert_array_equal(_eroded_everywhere(m, 2), expected)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("case", sorted(EROSION_CASES))
    def test_equals_per_label_oracle(self, case, radius):
        m = EROSION_CASES[case]()
        np.testing.assert_array_equal(_eroded_everywhere(m, radius), _erosion_oracle(m, radius))

    @pytest.mark.parametrize("case", sorted(EROSION_CASES))
    def test_counts_equal_a_full_validation(self, case):
        # Each label's survivors over every pixel centre are the oracle's,
        # also past every disk that fits (40), and none for inf and nan.
        m = EROSION_CASES[case]()
        for radius in RADII + [40, math.inf, math.nan]:
            e = _eroded_everywhere(m, radius)
            expected = _erosion_oracle(m, radius) if math.isfinite(radius) else np.zeros_like(e)
            counts = [np.bincount(a.ravel(), minlength=m.num_planes + 1) for a in (e, expected)]
            np.testing.assert_array_equal(*counts)
            assert e.dtype == np.int32

    def test_cases_cover_what_they_name(self):
        assert EROSION_CASES["twelve-planes"]().num_planes == 12
        assert EROSION_CASES["corner-render"]().num_planes == 3
        assert EROSION_CASES["mural-render"]().num_planes >= 2
        thin = _eroded_everywhere(EROSION_CASES["thin-stripe"](), 2)
        assert set(np.unique(thin)) == {0, 2} and thin[15, 15] == 2
        for w in (63, 64, 65, 127, 129):
            m = EROSION_CASES[f"width-{w}"]()
            assert m.width == w and m.num_planes >= 2
            assert m.labels[:, 0].any() and m.labels[:, -1].any()
        inner = EROSION_CASES["inner-box"]().labels
        assert not (inner[0].any() or inner[-1].any() or inner[:, 0].any() or inner[:, -1].any())
        stripes = EROSION_CASES["aliasing-stripes"]()
        assert stripes.num_planes == 300 and stripes.labels[0, 3] == 257
        assert len(np.unique(_eroded_everywhere(stripes, 1))) == 301

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(RADII))
    def test_random_masks_equal_oracle(self, seed, radius):
        m = _random_mask(seed)
        np.testing.assert_array_equal(_eroded_everywhere(m, radius), _erosion_oracle(m, radius))

    def test_full_size_corner_render(self, full_corner):
        m = full_corner
        rows = np.flatnonzero(m.labels.any(axis=1))
        assert m.num_planes == 3 and rows[0] == 0 and rows[-1] < m.height - 1
        np.testing.assert_array_equal(_eroded_everywhere(m, 5), _erosion_oracle(m, 5))

    def test_keys_hold_65535_labels_on_a_5760_by_3840_frame(self):
        # 3 x 3 blocks, the last in the bottom-right corner, where the run
        # keys are largest; a radius-1 disk keeps each centre and nothing
        # else.  Built from runs, so that no 22 Mpx label array is made;
        # every pixel of every block is queried.
        k = np.arange(65535)
        top, left = 3837 - 3 * (k // 1920), 5757 - 3 * (k % 1920)
        rows = (top + np.arange(3)[:, None]).T.ravel()
        runs = np.stack([rows, np.repeat(left, 3), np.repeat(left + 2, 3), np.repeat(65535 - k, 3)])
        order = np.argsort(runs[0] * 5760 + runs[1])
        m = PlaneSegmentMap._of_runs((3840, 5760), runs[:, order], 65535)
        dy, dx = np.divmod(np.arange(9), 3)
        pixels = np.stack([left[:, None] + dx, top[:, None] + dy], axis=-1).reshape(-1, 2)
        expected = np.where((dy == 1) & (dx == 1), (65535 - k)[:, None], 0).ravel()
        np.testing.assert_array_equal(erode_mask(m, 1, pixels.astype(float)), expected)

    def test_negative_radius_rejected(self):
        m = _mask((10, 10), {1: (slice(2, 8), slice(2, 8))})
        with pytest.raises(InvalidInputError):
            erode_mask(m, -1, np.array([[5.0, 5.0]]))

    @pytest.mark.parametrize("scene", [simulator.corner_scene, simulator.mural_scene])
    def test_i2pe_counts_the_oracle_labels_at_every_correspondence(self, scene, monkeypatch):
        # The labels i2pe hands the matcher are the oracle's eroded labels
        # under each correspondence (0 off the image), on both sides.
        world = simulator.generate_scene(scene(seed=2))
        offset = Pose(Rotation.about_y(2.0), np.array([0.02, -0.01, 0.01]))
        obs = observe_world(world, offset, seed=2)
        c, seen, match = obs.correspondences, [], fusion.match_plane_maps
        monkeypatch.setattr(fusion, "match_plane_maps", lambda *a: seen.append(a) or match(*a))
        fusion.i2pe(c, obs.mask_ref, obs.mask_cur, simulator.DESK_INTRINSICS)
        [(m_ref, m_cur, labels_ref, labels_cur)] = seen
        assert m_ref is obs.mask_ref and m_cur is obs.mask_cur
        for m, pts, labels in ((m_ref, c.a, labels_ref), (m_cur, c.b, labels_cur)):
            oracle = np.pad(_erosion_oracle(m, EROSION_RADIUS), 1)  # a frame of 0 off the image
            col, row = np.clip(np.rint(pts).astype(int) + 1, 0, [m.width + 1, m.height + 1]).T
            np.testing.assert_array_equal(labels, oracle[row, col])
            assert len(np.unique(labels)) >= 3  # background and at least two planes


class TestRunSources:
    """The erosion oracle, the run extraction and the per-pixel label
    lookup, on maps whose runs come from each source."""

    @pytest.mark.parametrize("seed", SOURCE_SEEDS)
    @pytest.mark.parametrize("source", sorted(RUN_SOURCES))
    def test_erosion_equals_oracle(self, source, seed):
        m = RUN_SOURCES[source](seed)
        for radius in RADII:
            np.testing.assert_array_equal(_eroded_everywhere(m, radius), _erosion_oracle(m, radius))

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
        survivors = [np.count_nonzero(np.unique(_eroded_everywhere(m, 1))) for m in maps["labels"]]
        assert all(n < m.num_planes for n, m in zip(survivors, maps["labels"]))
        assert any(len(np.unique(m.runs[0] * m.width + m.runs[3])) < m.runs.shape[1] for m in maps["erosion"])
        assert all(m.num_planes >= 2 for m in maps["render"])


def _strip(k: int) -> PlaneSegmentMap:
    """A one-row map of ``k`` one-pixel regions: the matcher reads only a
    map's plane count."""
    return PlaneSegmentMap(np.arange(1, k + 1, dtype=np.int32)[None, :])


def _labels_of(counts: np.ndarray, rng) -> tuple:
    """Label vectors with ``counts[i, j]`` correspondences from region i + 1
    to region j + 1, shuffled, among correspondences on the background."""
    h, m = counts.shape
    labels = np.repeat(np.indices((h, m)).reshape(2, -1) + 1, counts.ravel(), axis=1)
    stray = rng.integers(0, [[h + 1], [m + 1]], size=(2, 6))
    stray[rng.integers(0, 2, 6), np.arange(6)] = 0  # background on one side at least
    labels = np.concatenate([labels, stray], axis=1)[:, rng.permutation(labels.shape[1] + 6)]
    return labels[0], labels[1]


def _first_best(counts: np.ndarray) -> list:
    """Brute force: the (ref_id, cur_id) pairs of the first injection, in
    lexicographic order of the smaller side's partners, with the largest
    summed count, in ascending id of the smaller side."""
    swap = counts.shape[0] > counts.shape[1]
    c = counts.T if swap else counts
    best, best_total = None, -1
    for columns in itertools.permutations(range(c.shape[1]), c.shape[0]):
        total = sum(int(c[a, col]) for a, col in enumerate(columns))
        if total > best_total:
            best, best_total = columns, total
    pairs = [(a + 1, col + 1) for a, col in enumerate(best)]
    return [(q, p) for p, q in pairs] if swap else pairs


class TestAffinities:
    """The pairs follow the correspondence counts alone."""

    def test_node_affinity_counts(self):
        m = _mask((30, 30), {1: (slice(2, 9), slice(2, 9)), 2: (slice(18, 25), slice(18, 25))})
        # Counts [[10, 12], [5, 10]]: the diagonal sums 20, the crossing 17.
        labels_ref = np.array([1] * 10 + [2] * 10 + [1] * 12 + [2] * 5)
        labels_cur = np.array([1] * 10 + [2] * 10 + [2] * 12 + [1] * 5)
        assert match_plane_maps(m, m, labels_ref, labels_cur) == [(1, 1), (2, 2)]
        # Background on either side counts nowhere; counted as the last
        # region, either kind would lift the crossing past the diagonal.
        for ref_side, cur_side in ([0, 1], [1, 0]):
            labels = np.append(labels_ref, [ref_side] * 6), np.append(labels_cur, [cur_side] * 6)
            assert match_plane_maps(m, m, *labels) == [(1, 1), (2, 2)]
        assert match_plane_maps(m, m, labels_ref[10:], labels_cur[10:]) == [(1, 2), (2, 1)]

    def test_node_affinity_empty(self):
        # No correspondence: every injection ties at 0 and the first wins.
        none = np.zeros(0, np.int32)
        m = _mask((10, 10), {1: (slice(2, 8), slice(2, 8))})
        assert match_plane_maps(m, m, none, none) == [(1, 1)]
        assert match_plane_maps(_strip(2), _strip(3), none, none) == [(1, 1), (2, 2)]
        assert match_plane_maps(_strip(3), _strip(2), none, none) == [(1, 1), (2, 2)]

    def test_counts_transpose_when_the_reference_has_more_planes(self):
        m_ref = _mask((30, 30), {k: (slice(2, 6), slice(8 * k - 6, 8 * k - 2)) for k in (1, 2, 3)})
        m_cur = _mask((30, 30), {1: (slice(20, 25), slice(2, 9)), 2: (slice(20, 25), slice(18, 25))})
        labels_ref = np.array([1] * 4 + [2] * 3 + [3] * 7)
        labels_cur = np.array([2] * 4 + [1] * 3 + [1] * 7)
        # Ascending current id, each with the reference plane it drew.
        assert match_plane_maps(m_ref, m_cur, labels_ref, labels_cur) == [(3, 1), (1, 2)]
        assert match_plane_maps(m_cur, m_ref, labels_cur, labels_ref) == [(1, 3), (2, 1)]

    def test_pairs_equal_the_brute_force_first_best(self):
        rng = np.random.default_rng(31)
        tied = 0
        for _ in range(200):
            h, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            counts = rng.integers(0, 4, size=(h, m))  # small counts: many ties
            labels_ref, labels_cur = _labels_of(counts, rng)
            expected = _first_best(counts)
            assert match_plane_maps(_strip(h), _strip(m), labels_ref, labels_cur) == expected
            swapped = match_plane_maps(_strip(m), _strip(h), labels_cur, labels_ref)
            assert swapped == _first_best(counts.T)
            c = counts.T if h > m else counts
            totals = [
                sum(c[a, col] for a, col in enumerate(columns))
                for columns in itertools.permutations(range(c.shape[1]), c.shape[0])
            ]
            tied += totals.count(max(totals)) > 1
        assert tied > 50  # the draw exercises the tie rule

    @pytest.mark.parametrize("h, m", [(8, 10), (10, 8)])
    def test_more_injections_than_the_limit_is_invalid_input(self, h, m):
        # perm(10, 8) = 1814400 injections, past the limit of 1000000.
        none = np.zeros(0, np.int32)
        with pytest.raises(InvalidInputError, match=f"{h} reference and {m} current planes"):
            match_plane_maps(_strip(h), _strip(m), none, none)


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
