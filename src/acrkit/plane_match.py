"""Plane-region matching across two segmentations.

Detected plane regions of the reference and current images are matched by
maximizing a quadratic assignment objective: node affinities count the
feature correspondences per region pair, from the two region labels under
each correspondence, and edge affinities compare the minimum inter-region
pixel distances within each image.  The assignment is a one-to-one mapping
of every plane of the side with fewer planes into the other side's: when
the reference has more, the counts are transposed and the graphs
exchanged.  It is found by enumerating every injection while their count
stays within ``EXACT_ENUMERATION_BUDGET``, and by a spectral relaxation
past it.  Every region is first eroded by ``EROSION_RADIUS`` pixels
(:meth:`PlaneSegmentMap.eroded`).

Region masks hold their row runs, the maximal stretches of one label
along a row (:class:`PlaneSegmentMap`); 0 is background and ids are
contiguous.  The file format is a 16-bit binary PGM whose pixel value is
the label id, and the per-pixel label array is built only for it or for a
caller that reads it.  Disk erosion works on the runs by interval coding
(:func:`erode_mask`), and so do the label lookup and the inter-region
distances.

Two runs ``dy`` rows apart with ``gap`` columns between them are
``sqrt(dy**2 + gap**2)`` apart, and the minimum over two regions' run pairs
is the minimum over their boundary pixels: a region's pixel nearest another
region is a boundary pixel, since from an interior one a step toward the
other region stays inside and comes nearer.  A bound from the regions'
row ends limits the run pairs compared: each row of one region against
the other's nearest rows above and below, by their leftmost and rightmost
pixels.  The bound is itself the distance of a real pixel pair, and the
comparison keeps every pair at or below it, so no tie at the bound is lost
(see :meth:`PlaneGraph.from_mask`).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OrientationError

# Injection counts up to this are enumerated exactly; past it the spectral
# relaxation solves the matching (see solve_matching).
EXACT_ENUMERATION_BUDGET = 1_000_000

# Disk radius (px) by which every plane region is eroded before matching
# (see PlaneSegmentMap.eroded): a correspondence near a region's edge may
# lie on its neighbour.
EROSION_RADIUS = 5

class PlaneSegmentMap:
    """Per-pixel plane labeling; 0 is background, ids run 1..H contiguously.

    A map holds its shape and its row runs: the maximal stretches of one
    nonzero label along a row, in raster order.  ``runs`` is a read-only
    (4, n) int64 array of their rows, first columns, last columns and
    labels.  The per-pixel ``labels`` array is built from the runs on first
    read; the constructor takes one and extracts the runs once.
    """

    def __init__(self, labels: np.ndarray):
        lab = np.asarray(labels)
        if lab.ndim != 2:
            raise InvalidInputError("label map must be 2-D")
        if lab.size and lab.min() < 0:
            raise InvalidInputError("labels must be non-negative")
        lab = lab.astype(np.int32, copy=True)
        runs = _row_runs(lab)
        areas = np.bincount(runs[3], weights=runs[2] - runs[1] + 1)[1:].astype(np.int64)
        if not areas.all():
            raise InvalidInputError("plane ids must be contiguous 1..H")
        lab.flags.writeable = False
        runs.flags.writeable = False
        self._shape, self._runs, self._areas, self._labels = lab.shape, runs, areas, lab

    @classmethod
    def _of_runs(cls, shape, runs: np.ndarray, num_labels: int) -> "PlaneSegmentMap":
        """A map the package built itself, without the checks.

        ``runs`` is a fresh (4, n) int64 array, laid out as :attr:`runs`, of
        the maximal row runs of a ``shape`` frame in raster order, with
        labels in 1..``num_labels``.  Labels that no run carries drop and
        the rest recompact; the areas (int64, pixels per region) are the
        run lengths summed.
        """
        areas = np.bincount(runs[3], weights=runs[2] - runs[1] + 1, minlength=num_labels + 1)
        areas = areas[1:].astype(np.int64)
        if not areas.all():  # a region has no run: recompact the ids
            runs[3] = np.concatenate([[0], np.cumsum(areas > 0)])[runs[3]]
            areas = areas[areas > 0]
        runs.flags.writeable = False
        m = object.__new__(cls)
        m._shape, m._runs, m._areas, m._labels = tuple(shape), runs, areas, None
        return m

    @property
    def runs(self) -> np.ndarray:
        return self._runs

    @property
    def labels(self) -> np.ndarray:
        """The (height, width) int32 label array, read-only; built on first
        read by a running sum of label steps at the run ends."""
        if self._labels is None:
            h, w = self._shape
            row, lo, hi, label = self._runs
            steps = np.zeros(h * w + 1, np.int32)
            steps[row * w + lo] = label
            steps[row * w + hi + 1] -= label  # after the starts: a run may end where one starts
            self._labels = np.cumsum(steps[:-1], dtype=np.int32).reshape(h, w)
            self._labels.flags.writeable = False
        return self._labels

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    @property
    def num_planes(self) -> int:
        return len(self._areas)

    @property
    def plane_ids(self) -> range:
        return range(1, self.num_planes + 1)

    def label_at(self, points_xy: np.ndarray) -> np.ndarray:
        """Labels under (u, v) pixel coordinates; out-of-image maps to 0.

        Each rounded pixel's raster key is looked up among the runs' start
        keys: the run starting at or before it holds the pixel when it also
        ends at or after it.  The runs' start and end keys are computed on
        the first call and kept, as the map is immutable.
        """
        pts = np.asarray(points_xy, dtype=float)
        col = np.rint(pts[:, 0]).astype(int)
        row = np.rint(pts[:, 1]).astype(int)
        inside = (row >= 0) & (row < self.height) & (col >= 0) & (col < self.width)
        out = np.zeros(len(pts), dtype=np.int32)
        if self.num_planes:
            run_keys = getattr(self, "_run_keys", None)
            if run_keys is None:
                r, lo, hi, _ = self._runs
                run_keys = self._run_keys = r * self.width + np.stack([lo, hi])
            starts, ends = run_keys
            key = row[inside] * self.width + col[inside]
            k = np.searchsorted(starts, key, side="right") - 1
            held = (k >= 0) & (ends[k] >= key)
            out[inside] = np.where(held, self._runs[3][k], 0)
        return out

    def to_pgm_bytes(self) -> bytes:
        if self.num_planes > 65535:
            raise InvalidInputError("more plane ids than a 16-bit PGM can hold")
        header = f"P5\n{self.width} {self.height}\n65535\n".encode("ascii")
        return header + self.labels.astype(">u2").tobytes()

    @staticmethod
    def from_pgm_bytes(data: bytes) -> "PlaneSegmentMap":
        m = re.match(
            rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data
        )
        if not m:
            raise InvalidInputError("not a binary PGM (P5) stream")
        width, height, maxval = (int(m.group(i)) for i in (1, 2, 3))
        pixels = data[m.end():]
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        size = width * height * dtype.itemsize
        if len(pixels) < size:
            raise InvalidInputError(
                f"PGM pixel block has {len(pixels)} bytes, its header needs {size}"
            )
        arr = np.frombuffer(pixels, dtype=dtype, count=width * height)
        return PlaneSegmentMap(arr.reshape(height, width).astype(np.int32))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_pgm_bytes())

    @staticmethod
    def load(path) -> "PlaneSegmentMap":
        with open(path, "rb") as fh:
            return PlaneSegmentMap.from_pgm_bytes(fh.read())

    def eroded(self) -> "PlaneSegmentMap":
        """Cached :func:`erode_mask` by :data:`EROSION_RADIUS`, the map that
        plane matching reads; safe because label maps are immutable."""
        eroded = getattr(self, "_eroded", None)
        if eroded is None:
            eroded = erode_mask(self, EROSION_RADIUS)
            self._eroded = eroded
        return eroded

    def graph(self) -> "PlaneGraph":
        """Cached :meth:`PlaneGraph.from_mask`, for the same reason."""
        graph = getattr(self, "_graph", None)
        if graph is None:
            graph = PlaneGraph.from_mask(self)
            self._graph = graph
        return graph


def disk_structuring_element(radius: float) -> np.ndarray:
    """Boolean disk of the offsets whose Euclidean length is within ``radius``."""
    r = int(radius)
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    return np.sqrt(yy * yy + xx * xx) <= radius


def _row_runs(lab: np.ndarray) -> np.ndarray:
    """The maximal row runs of ``lab``'s nonzero labels in raster order, as
    a (4, n) int64 array of rows, first columns, last columns and labels."""
    if not lab.size:
        return np.zeros((4, 0), np.int64)
    w = lab.shape[1]
    flat = lab.ravel()
    starts = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::w] = True
    start = np.flatnonzero(starts)
    end = np.append(start[1:], flat.size) - 1
    label = flat[start]
    start, end, label = start[label > 0], end[label > 0], label[label > 0]
    row = start // w
    return np.stack([row, start - row * w, end - row * w, label]).astype(np.int64, copy=False)


def erode_mask(m: PlaneSegmentMap, radius: float) -> PlaneSegmentMap:
    """Erode every region by a disk; empty regions drop, ids recompact.

    Equivalent to per-label binary erosion with :func:`disk_structuring_element`
    (pixels outside the image count as background), by interval coding on
    the row runs (Ji, Piper & Tang, Pattern Recognit. Lett. 1989).  A disk
    is a stack of row chords, of half width ``hw(dy)`` at row offset
    ``dy``: a pixel survives iff each of its ``2r + 1`` chords lies inside
    one run of its label.  A run ``[lo, hi]`` in row ``y`` holds the chord
    at offset ``dy`` of exactly the pixels ``[lo + hw(dy), hi - hw(dy)]`` of
    row ``y - dy``.  The runs of one label in one row are disjoint, so each
    chord row covers a pixel at most once, and the pixels covered
    ``2r + 1`` times survive: one sort of the interval ends, keyed by
    (label, row, column), and a running count find them.  Twice a key stays
    below 2**42 for 65535 labels on a 5760 x 3840 frame, so int64 holds it.
    """
    if radius < 0:
        raise InvalidInputError("erosion radius must be non-negative")
    if radius == 0 or m.num_planes == 0:
        return m
    row, lo, hi, label = m.runs
    h, w = m.height, m.width
    box_h, box_w = row[-1] - row[0] + 1, hi.max() - lo.min() + 1
    if not radius < (min(box_h, box_w) + 1) // 2:  # no disk fits; nan erodes everything too
        return PlaneSegmentMap._of_runs((h, w), np.zeros((4, 0), np.int64), 0)
    half_width = disk_structuring_element(radius).sum(axis=1)[:, None] // 2
    r = len(half_width) // 2  # chords sit at row offsets -r..r
    y = row - np.arange(-r, r + 1)[:, None]
    start, stop = lo + half_width, hi - half_width + 1  # (2r + 1, n) intervals
    sent = (start < stop) & (0 <= y) & (y < h)
    base = ((label * h + y) * (w + 1))[sent]
    # Twice the key, plus 1 at a start, so the low bit gives the step.  Ends
    # sort first at a tie, so the count reaches 2r + 1 only after a column's
    # last event; each such event starts a surviving run, the next ends it.
    keys = np.sort(np.concatenate([2 * (base + start[sent]) + 1, 2 * (base + stop[sent])]))
    count = np.cumsum(2 * (keys & 1) - 1)
    at = keys >> 1
    k = np.flatnonzero(count == 2 * r + 1)
    col, block = at[k] % (w + 1), at[k] // (w + 1)
    runs = np.stack([block % h, col, at[k + 1] % (w + 1) - 1, block // h])
    return PlaneSegmentMap._of_runs((h, w), runs[:, np.argsort(runs[0] * w + col)], m.num_planes)


@dataclass(frozen=True, eq=False)
class PlaneGraph:
    """Complete graph over region ids with min-distance edge weights."""

    plane_ids: tuple
    distances: np.ndarray  # (H, H) symmetric, zero diagonal

    @staticmethod
    def from_mask(m: PlaneSegmentMap) -> "PlaneGraph":
        """The minimum Euclidean pixel distance between every two regions.

        The distance of two regions is the minimum, over pairs of their row
        runs, of ``dy**2 + gap**2``: ``dy`` is the rows' difference and
        ``gap`` the columns between the runs (0 where they overlap).  That
        is the minimum over all their pixel pairs, hence over their
        boundary pixels, since a region's pixel nearest another region is
        always a boundary pixel (one step toward the other region from an
        interior pixel stays inside and comes nearer).  The square root of
        the integer ``d**2`` is the float a kd-tree over the boundary
        pixels returns.  Regions at most sqrt(2) apart touch and read 0.

        Region i is compared with all later regions at once.  Each later
        region j gets an upper bound ``U**2`` from :func:`_row_end_bounds`.
        A run r of j at horizontal gap ``hg`` from i's column span then
        visits only i's rows within ``sqrt(U**2 - hg**2)`` of its own row,
        and in each such row only i's run nearest to it, found by one
        ``searchsorted``.  The bound loses no tie: ``U**2`` is the squared
        distance of a real pixel pair and is j's starting minimum, which
        visits only lower, and every pair at most ``U**2`` apart has
        ``dy**2 + hg**2 <= U**2``, so its rows are visited.
        """
        ids = tuple(m.plane_ids)
        h = len(ids)
        d = np.zeros((h, h))
        if h < 2:
            return PlaneGraph(ids, d)
        w = m.width
        row, lo, hi, owner = m.runs[:, np.argsort(m.runs[3], kind="stable")]  # region by region
        owner = owner - 1
        first = np.searchsorted(owner, np.arange(h + 1))  # region k: first[k]:first[k + 1]
        ends = _row_ends(row, lo, hi, owner)
        first_end = np.searchsorted(ends[3], np.arange(h + 1))
        n = len(row)
        no_run = m.height + w  # a gap no pair of pixels in the frame reaches
        for i in range(h - 1):  # the last region is only ever visited
            a, later = slice(first[i], first[i + 1]), np.arange(first[i + 1], n)
            bound = _row_end_bounds(ends, first_end, i)
            hg = np.maximum(np.maximum(lo[later] - hi[a].max(), lo[a].min() - hi[later]), 0)
            reach2 = bound[owner[later] - i - 1] - hg * hg
            reach = np.where(reach2 < 0, -1, np.sqrt(np.maximum(reach2, 0)).astype(np.int64))
            top = np.maximum(row[later] - reach, row[first[i]])
            count = np.maximum(np.minimum(row[later] + reach, row[first[i + 1] - 1]) - top + 1, 0)
            run = np.repeat(later, count)
            y = np.repeat(top - np.cumsum(count) + count, count) + np.arange(len(run))
            # i's runs are in raster order, so row * w + lo sorts them;
            # k - 1 is i's last run in row y that starts at or left of the
            # visiting run's end, k the next one: the nearest on each side.
            k = np.searchsorted(row[a] * w + lo[a], y * w + hi[run], side="right") + first[i]
            gap = np.full(len(run), no_run)
            for c in (np.maximum(k - 1, first[i]), np.minimum(k, first[i + 1] - 1)):
                g = np.maximum(np.maximum(lo[c] - hi[run], lo[run] - hi[c]), 0)
                np.minimum(gap, np.where(row[c] == y, g, no_run), out=gap)
            np.minimum.at(bound, owner[run] - i - 1, (y - row[run]) ** 2 + gap * gap)
            dist = np.sqrt(bound)
            dist[bound <= 2] = 0.0
            d[i, i + 1 :] = d[i + 1 :, i] = dist
        return PlaneGraph(ids, d)


def _row_ends(row, lo, hi, owner):
    """Each region's leftmost and rightmost pixel in each of its rows, from
    its runs in raster order region by region: ``(row, left, right,
    owner)`` arrays, region by region and row by row."""
    start = np.flatnonzero(np.diff(row, prepend=-1) | np.diff(owner, prepend=-1))
    end = np.append(start[1:], len(row)) - 1  # runs of one row are disjoint, in order
    return row[start], lo[start], hi[end], owner[start]


def _row_end_bounds(ends, first, i) -> np.ndarray:
    """Squared distances of real pixel pairs, one per region after region
    ``i``, each at least that region's squared distance to ``i``.

    ``ends`` are :func:`_row_ends`, region k's rows at
    ``first[k]:first[k + 1]``.  Every row of a later region meets region
    i's nearest rows above and below it (the same row, where i has it):
    the end pixels of the two rows, four pairs a row, give the candidates.
    """
    row, left, right, _ = ends
    a, later = slice(first[i], first[i + 1]), slice(first[i + 1], None)
    k = np.searchsorted(row[a], row[later]) + first[i]
    d2 = []
    for c in (np.maximum(k - 1, first[i]), np.minimum(k, first[i + 1] - 1)):
        gap = np.minimum(
            np.minimum(np.abs(left[later] - left[c]), np.abs(left[later] - right[c])),
            np.minimum(np.abs(right[later] - left[c]), np.abs(right[later] - right[c])),
        )
        d2.append((row[later] - row[c]) ** 2 + gap * gap)
    return np.minimum.reduceat(np.minimum(*d2), first[i + 1 : -1] - first[i + 1])


def assemble_affinity(
    node_aff: np.ndarray,
    graph_ref: PlaneGraph,
    graph_cur: PlaneGraph,
    sigma: float,
) -> np.ndarray:
    """Affinity matrix W over the column expansion of the assignment.

    Index (a, c) maps to ``c * H + a``.  Diagonal entries carry the node
    affinities; entry ((a, c), (b, d)) with a != b and c != d carries the
    edge affinity ``exp(-|D_ref(a, b) - D_cur(c, d)| / sigma)``.  The node
    and edge classes are each scaled by their maximum so neither dominates
    by units alone.  The quadratic objective of an assignment U is
    ``u^T W u`` with u its column expansion.
    """
    node_aff = np.asarray(node_aff, dtype=float)
    h, m = node_aff.shape
    if h > m:
        raise OrientationError(
            "more reference planes than current planes; swap the inputs and"
            " transpose the assignment"
        )
    if len(graph_ref.plane_ids) != h or len(graph_cur.plane_ids) != m:
        raise InvalidInputError("graph sizes must match the affinity matrix")
    if not sigma > 0:
        raise InvalidInputError("sigma must be positive")
    nodes = node_aff.copy()
    if nodes.max() > 0:
        nodes = nodes / nodes.max()
    n = h * m
    w = np.zeros((n, n))
    idx_a, idx_c = np.meshgrid(np.arange(h), np.arange(m), indexing="ij")
    flat = idx_c.ravel() * h + idx_a.ravel()
    w[flat, flat] = nodes[idx_a.ravel(), idx_c.ravel()]
    if h > 1 and m > 1:
        # edges[c, a, d, b] is entry ((a, c), (b, d)); a == b or c == d is 0.
        ref, cur = graph_ref.distances, graph_cur.distances
        edges = np.exp(-np.abs(ref[None, :, None, :] - cur[:, None, :, None]) / sigma)
        edges[:, np.arange(h), :, np.arange(h)] = 0.0
        edges[np.arange(m), :, np.arange(m), :] = 0.0
        edges = edges.reshape(n, n)
        if edges.max() > 0:
            edges = edges / edges.max()
        w = w + edges  # edge entries never touch the diagonal (a != b)
    return w


def solve_matching(w: np.ndarray, h: int, m: int) -> list:
    """Maximize the quadratic assignment objective under the row/column
    constraints; returns each row's column, distinct and 0-based.

    The method follows the input size.  When the ``perm(M, H)`` injections
    of the H reference planes into the M current planes number at most
    :data:`EXACT_ENUMERATION_BUDGET` (read at call time), every one is
    scored and the first best, in lexicographic order of its columns, is
    kept.  Past the budget the spectral relaxation
    (:func:`_spectral_matching`) solves it; its score never exceeds the
    exact one.
    """
    w = np.asarray(w, dtype=float)
    if h > m:
        raise OrientationError("solve_matching requires H <= M")
    if w.shape != (h * m, h * m):
        raise InvalidInputError("W must be (H*M) x (H*M)")
    if math.perm(m, h) > EXACT_ENUMERATION_BUDGET:
        return _spectral_matching(w, h)
    best_score = -np.inf
    best = None
    for columns in itertools.permutations(range(m), h):
        sel = np.array([c * h + a for a, c in enumerate(columns)])
        score = float(w[np.ix_(sel, sel)].sum())
        if score > best_score:
            best_score = score
            best = columns
    return list(best)


def _spectral_matching(w: np.ndarray, h: int) -> list:
    """The leading eigenvector of W, discretized greedily into an injection:
    entries in descending magnitude, each kept while its row and its column
    are both free.  Every row gets a column, since H <= M."""
    lead = np.abs(np.linalg.eigh(w)[1][:, -1])
    columns = {}
    for flat in np.argsort(-lead):
        c, a = divmod(int(flat), h)
        if a not in columns and c not in columns.values():
            columns[a] = c
    return [columns[a] for a in range(h)]


def match_plane_maps(
    m_ref: PlaneSegmentMap,
    m_cur: PlaneSegmentMap,
    labels_ref: np.ndarray,
    labels_cur: np.ndarray,
) -> list:
    """(ref_id, cur_id) plane pairs between two already-eroded masks.

    ``labels_ref`` and ``labels_cur`` are the labels under each
    correspondence's reference and current pixel
    (:meth:`PlaneSegmentMap.label_at`), and their counts per region pair
    are the node affinities.  The solve needs H <= M, so when the reference
    mask has more planes the counts are transposed and the two graphs
    exchanged.  The normalized affinity goes to :func:`solve_matching`
    once, which picks exact enumeration or the spectral relaxation from the
    injection count.  The pairs come in ascending row of the solved
    orientation: ascending reference id, or ascending current id after a
    transpose (``i2pe`` seeds each pair's RANSAC by its position).  The
    edge affinity's ``sigma`` is 10% of the reference image diagonal.
    """
    h, m = m_ref.num_planes, m_cur.num_planes
    if not h or not m:
        return []
    counts = np.zeros((h, m))
    held = (labels_ref > 0) & (labels_cur > 0)
    np.add.at(counts, (labels_ref[held] - 1, labels_cur[held] - 1), 1.0)
    graphs = m_ref.graph(), m_cur.graph()
    swap = h > m
    if swap:
        counts, graphs = counts.T, graphs[::-1]
    sigma = 0.1 * math.hypot(m_ref.width, m_ref.height)
    w = assemble_affinity(counts, *graphs, sigma)
    pairs = [(a + 1, c + 1) for a, c in enumerate(solve_matching(w, *counts.shape))]
    return [(c, a) for a, c in pairs] if swap else pairs
