"""Plane-region matching across two segmentations.

Detected plane regions of the reference and current images are matched by
maximizing a quadratic assignment objective: node affinities count shared
feature correspondences between region pairs, edge affinities compare the
minimum inter-region pixel distances within each image.  The assignment is
constrained to a one-to-one mapping of all reference planes into the
(equal or larger) set of current planes.  It is found by enumerating every
injection while their count stays within ``EXACT_ENUMERATION_BUDGET``, and
by a spectral relaxation past it.  Every region is first eroded by
``EROSION_RADIUS`` pixels (:meth:`PlaneSegmentMap.eroded`).

Region masks are integer label maps (0 = background) with contiguous ids;
the file format is a 16-bit binary PGM whose pixel value is the label id.
Disk erosion and the inter-region distances each take one pass, not one
per region, over the bounding box of the labelled pixels, with the labels
cast to uint8 where they fit.  The erosion runs on rows packed 64 pixels
to a uint64 word.

The distances run on row runs, the maximal stretches of one label along a
row.  Two runs ``dy`` rows apart with ``gap`` columns between them are
``sqrt(dy**2 + gap**2)`` apart, and the minimum over two regions' run pairs
is the minimum over their boundary pixels: a region's pixel nearest another
region is a boundary pixel, since from an interior one a step toward the
other region stays inside and comes nearer.  A bound from a sample of run
ends limits the run pairs compared.  The bound is itself the distance of a
real pixel pair, and the comparison keeps every pair at or below it, so no
tie at the bound is lost (see :meth:`PlaneGraph.from_mask`).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OrientationError
from .pose_estimation import CorrespondenceSet

# Injection counts up to this are enumerated exactly; past it the spectral
# relaxation solves the matching (see solve_matching).
EXACT_ENUMERATION_BUDGET = 1_000_000

# Disk radius (px) by which every plane region is eroded before matching
# (see PlaneSegmentMap.eroded): a correspondence near a region's edge may
# lie on its neighbour.
EROSION_RADIUS = 5

_SUBSAMPLE_STRIDE = 32


@dataclass(frozen=True, eq=False)
class PlaneSegmentMap:
    """Per-pixel plane labeling; 0 is background, ids run 1..H contiguously."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise InvalidInputError("label map must be 2-D")
        if lab.size and lab.min() < 0:
            raise InvalidInputError("labels must be non-negative")
        lab = lab.astype(np.int32, copy=True)
        # A count per id is several times faster than np.unique here.
        areas = np.bincount(lab.ravel())[1:]
        present = np.flatnonzero(areas)
        h = int(present[-1]) + 1 if present.size else 0
        if present.size != h:
            raise InvalidInputError("plane ids must be contiguous 1..H")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "_num_planes", h)
        object.__setattr__(self, "_areas", areas)  # pixels per region

    @classmethod
    def _trusted(cls, labels: np.ndarray, areas: np.ndarray, box=None) -> "PlaneSegmentMap":
        """A map the package built itself, without the checks and the count.

        ``labels`` is a fresh int32 array that the map takes over, with ids
        1..len(areas), and ``areas`` (int64) holds each region's pixel
        count, every one positive.  ``box``, when given, is what
        :func:`_labelled_box` returns for these labels, which then reads it
        instead of scanning the frame.
        """
        m = object.__new__(cls)
        labels.flags.writeable = False
        object.__setattr__(m, "labels", labels)
        object.__setattr__(m, "_num_planes", len(areas))
        object.__setattr__(m, "_areas", areas)
        if box is not None:
            box[0].flags.writeable = False
            object.__setattr__(m, "_box", box)
        return m

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def num_planes(self) -> int:
        return self._num_planes

    @property
    def plane_ids(self) -> range:
        return range(1, self.num_planes + 1)

    def label_at(self, points_xy: np.ndarray) -> np.ndarray:
        """Labels under (u, v) pixel coordinates; out-of-image maps to 0."""
        pts = np.asarray(points_xy, dtype=float)
        col = np.rint(pts[:, 0]).astype(int)
        row = np.rint(pts[:, 1]).astype(int)
        inside = (row >= 0) & (row < self.height) & (col >= 0) & (col < self.width)
        out = np.zeros(len(pts), dtype=np.int32)
        out[inside] = self.labels[row[inside], col[inside]]
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
            object.__setattr__(self, "_eroded", eroded)
        return eroded

    def graph(self) -> "PlaneGraph":
        """Cached :meth:`PlaneGraph.from_mask`, for the same reason."""
        graph = getattr(self, "_graph", None)
        if graph is None:
            graph = PlaneGraph.from_mask(self)
            object.__setattr__(self, "_graph", graph)
        return graph


def disk_structuring_element(radius: float) -> np.ndarray:
    """Boolean disk of the offsets whose Euclidean length is within ``radius``."""
    r = int(radius)
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    return np.sqrt(yy * yy + xx * xx) <= radius


def _labelled_box(m: PlaneSegmentMap):
    """The labels inside the bounding box of ``m``'s labelled pixels, and
    the box's top-left (row, column).

    Every pixel outside the box is background.  The labels come as uint8,
    or as int32 past 255 planes, so that comparing them reads few bytes;
    the box is found after that cast, for the same reason.  ``m`` must hold
    at least one plane.  A map from :func:`erode_mask` carries its box,
    found while eroding, and the frame is not scanned again.
    """
    box = getattr(m, "_box", None)
    if box is not None:
        return box
    lab = m.labels.astype(np.uint8 if m.num_planes < 256 else np.int32)
    rows = np.flatnonzero(lab.any(axis=1))
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(lab[top:bottom].any(axis=0))
    return lab[top:bottom, cols[0] : cols[-1] + 1], (top, cols[0])


def _packed(bits: np.ndarray) -> np.ndarray:
    """Boolean rows, a multiple of 64 wide, packed 64 pixels to a word:
    pixel x is bit x % 64 of word x // 64."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _shifted(words: np.ndarray, s: int) -> np.ndarray:
    """Packed rows moved along the row so that pixel x holds pixel x + s;
    pixels from past either end read 0."""
    q, b = divmod(abs(s), 64)
    n = words.shape[1] - q
    out = np.zeros_like(words)
    if n <= 0:
        return out
    if s >= 0:
        out[:, :n] = words[:, q:] >> b
        if b:  # the low bits of the next word move in at the top
            out[:, : n - 1] |= words[:, q + 1 :] << (64 - b)
    else:
        out[:, q:] = words[:, :n] << b
        if b:
            out[:, q + 1 :] |= words[:, : n - 1] >> (64 - b)
    return out


def erode_mask(m: PlaneSegmentMap, radius: float) -> PlaneSegmentMap:
    """Erode every region by a disk; empty regions drop, ids recompact.

    Equivalent to per-label binary erosion with :func:`disk_structuring_element`
    (pixels outside the image count as background).  A disk is a stack of row
    chords: a pixel survives iff the column run through its disk and, at each
    row offset, the row run of that chord's half width carry its label.  Runs
    grow by running ANDs (van Herk, Pattern Recognit. Lett. 1992).

    The work stays inside the labelled box (:func:`_labelled_box`), whose
    outside is background like the outside of the image.  There, "carries
    the label of the pixel below" and "of the pixel to the right" are bit
    rows packed 64 pixels to a uint64 word: a column step ANDs whole word
    rows, a row step ANDs word rows shifted by one bit more.  Areas are the
    old ones less the pixels the erosion removed.
    """
    if radius < 0:
        raise InvalidInputError("erosion radius must be non-negative")
    if radius == 0 or m.num_planes == 0:
        return m
    box, (top, left) = _labelled_box(m)
    bh, bw = box.shape
    if not radius < (min(bh, bw) + 1) // 2:  # no disk fits; nan erodes everything too
        return PlaneSegmentMap._trusted(np.zeros_like(m.labels), m._areas[:0])
    half_width = disk_structuring_element(radius).sum(axis=1) // 2
    r = len(half_width) // 2  # chords sit at row offsets -r..r
    labelled, right, below = np.zeros((3, bh, 64 * -(-bw // 64)), dtype=bool)
    np.greater(box, 0, out=labelled[:, :bw])
    np.equal(box[:, 1:], box[:, :-1], out=right[:, : bw - 1])
    np.equal(box[1:], box[:-1], out=below[: bh - 1, :bw])
    right, below = _packed(right), _packed(below)
    keep = np.zeros_like(right)  # no column run fits the top and bottom r rows
    keep[r : bh - r] = _packed(labelled)[r : bh - r]
    for k in range(-r, r):
        keep[r : bh - r] &= below[r + k : bh - r + k]
    run = ~np.zeros_like(right)  # the row runs of half width w = 0, 1, ...
    for w in range(1, r + 1):
        run &= _shifted(right, -w) & _shifted(right, w - 1)
        for dy in np.flatnonzero(half_width == w) - r:
            keep[max(-dy, 0) : bh - max(dy, 0)] &= run[max(dy, 0) : bh + min(dy, 0)]
    kept = np.unpackbits(keep.view(np.uint8), axis=1, count=bw, bitorder="little").view(bool)
    # np.zeros, unlike zeros_like, leaves the pages outside the box untouched.
    out = np.zeros(m.labels.shape, m.labels.dtype)
    out_box = out[top : top + bh, left : left + bw]
    np.multiply(box, kept, out=out_box)
    lost = box[np.logical_xor(kept, labelled[:, :bw], out=kept)]
    areas = m._areas - np.bincount(lost, minlength=m.num_planes + 1)[1:]
    if not areas.all():  # a region vanished: recompact the ids
        out_box[...] = np.concatenate([[0], np.cumsum(areas > 0)]).astype(out.dtype)[out_box]
        areas = areas[areas > 0]
    # The eroded labels' own box, for _labelled_box: the rows with a kept
    # word, and the columns of the words ORed down the rows.
    rows = np.flatnonzero(keep.any(axis=1))
    if not rows.size:
        return PlaneSegmentMap._trusted(out, areas)
    column_bits = np.bitwise_or.reduce(keep, axis=0).view(np.uint8)
    cols = np.flatnonzero(np.unpackbits(column_bits, count=bw, bitorder="little"))
    inner = out_box[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    inner = inner.astype(np.uint8 if len(areas) < 256 else np.int32)
    return PlaneSegmentMap._trusted(out, areas, (inner, (top + rows[0], left + cols[0])))


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
        region j gets an upper bound ``U**2`` from :func:`_upper_bounds`.
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
        # Distances do not depend on where the box sits.
        lab, _ = _labelled_box(m)
        bh, bw = lab.shape
        row, lo, hi, owner = _row_runs(lab)
        first = np.searchsorted(owner, np.arange(h + 1))  # region k: first[k]:first[k + 1]
        n = len(row)
        no_run = bh + bw  # a gap no pair of pixels in the box reaches
        for i in range(h - 1):  # the last region is only ever visited
            a, later = slice(first[i], first[i + 1]), np.arange(first[i + 1], n)
            bound = _upper_bounds(row, lo, hi, owner, first, i)
            hg = np.maximum(np.maximum(lo[later] - hi[a].max(), lo[a].min() - hi[later]), 0)
            reach2 = bound[owner[later] - i - 1] - hg * hg
            reach = np.where(reach2 < 0, -1, np.sqrt(np.maximum(reach2, 0)).astype(np.int64))
            top = np.maximum(row[later] - reach, row[first[i]])
            count = np.maximum(np.minimum(row[later] + reach, row[first[i + 1] - 1]) - top + 1, 0)
            run = np.repeat(later, count)
            y = np.repeat(top - np.cumsum(count) + count, count) + np.arange(len(run))
            # i's runs are in raster order, so row * bw + lo sorts them;
            # k - 1 is i's last run in row y that starts at or left of the
            # visiting run's end, k the next one: the nearest on each side.
            k = np.searchsorted(row[a] * bw + lo[a], y * bw + hi[run], side="right") + first[i]
            gap = np.full(len(run), no_run)
            for c in (np.maximum(k - 1, first[i]), np.minimum(k, first[i + 1] - 1)):
                g = np.maximum(np.maximum(lo[c] - hi[run], lo[run] - hi[c]), 0)
                np.minimum(gap, np.where(row[c] == y, g, no_run), out=gap)
            np.minimum.at(bound, owner[run] - i - 1, (y - row[run]) ** 2 + gap * gap)
            dist = np.sqrt(bound)
            dist[bound <= 2] = 0.0
            d[i, i + 1 :] = d[i + 1 :, i] = dist
        return PlaneGraph(ids, d)


def _row_runs(lab: np.ndarray):
    """The row runs of ``lab``: maximal stretches of one nonzero label along
    a row, as (row, first column, last column, region index) int64 arrays.

    Runs are ordered by region (index = label - 1) and, within one region,
    in raster order.
    """
    bw = lab.shape[1]
    flat = lab.ravel()
    starts = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::bw] = True
    start = np.flatnonzero(starts)
    end = np.append(start[1:], flat.size) - 1
    label = flat[start].astype(np.int64)
    order = np.argsort(label, kind="stable")[np.count_nonzero(label == 0) :]
    start, end = start[order], end[order]
    row = start // bw
    return row, start - row * bw, end - row * bw, label[order] - 1


def _upper_bounds(row, lo, hi, owner, first, i) -> np.ndarray:
    """Squared distances of real pixel pairs, one per region after region
    ``i``, each at least that region's squared distance to ``i``.

    Both ends of every ``_SUBSAMPLE_STRIDE``-th later run, and of each
    later region's first run, against both ends of every run of ``i``.  The
    float64 products are exact integers while coordinates stay below 2**25.
    """
    a = slice(first[i], first[i + 1])
    sample = np.union1d(np.arange(first[i + 1], len(row), _SUBSAMPLE_STRIDE), first[i + 1 : -1])
    p, q = (
        np.column_stack([np.tile(row[s], 2), np.concatenate([lo[s], hi[s]])]).astype(float)
        for s in (sample, a)
    )
    sq = (p * p).sum(axis=1)[:, None] + (q * q).sum(axis=1) - 2.0 * (p @ q.T)
    bound = np.full(len(first) - i - 2, np.iinfo(np.int64).max)
    np.minimum.at(bound, np.tile(owner[sample], 2) - i - 1, sq.min(axis=1).astype(np.int64))
    return bound


def node_affinity_matrix(
    c: CorrespondenceSet, m_ref: PlaneSegmentMap, m_cur: PlaneSegmentMap
) -> np.ndarray:
    """(H, M) matrix of correspondence counts per region pair."""
    h, m = m_ref.num_planes, m_cur.num_planes
    la = m_ref.label_at(c.a)
    lb = m_cur.label_at(c.b)
    counts = np.zeros((h, m), dtype=float)
    valid = (la > 0) & (lb > 0)
    np.add.at(counts, (la[valid] - 1, lb[valid] - 1), 1.0)
    return counts


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


@dataclass(frozen=True, eq=False)
class Assignment:
    """Binary H x M matching matrix; rows sum to 1, columns to at most 1."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix)
        if u.ndim != 2 or not np.isin(u, (0, 1)).all():
            raise InvalidInputError("assignment must be a binary matrix")
        if not np.all(u.sum(axis=1) == 1) or np.any(u.sum(axis=0) > 1):
            raise InvalidInputError(
                "assignment must map every row to exactly one distinct column"
            )
        u = u.astype(np.uint8)
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)

    @property
    def pairs(self) -> list:
        """(row_id, col_id) pairs, 1-based to match plane ids."""
        rows, cols = np.nonzero(self.matrix)
        return [(int(r) + 1, int(c) + 1) for r, c in zip(rows, cols)]


def solve_matching(w: np.ndarray, h: int, m: int) -> Assignment:
    """Maximize the quadratic assignment objective under the row/column
    constraints.

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
        return _spectral_matching(w, h, m)
    best_score = -np.inf
    best = None
    for columns in itertools.permutations(range(m), h):
        sel = np.array([c * h + a for a, c in enumerate(columns)])
        score = float(w[np.ix_(sel, sel)].sum())
        if score > best_score:
            best_score = score
            best = columns
    u = np.zeros((h, m), dtype=np.uint8)
    u[np.arange(h), list(best)] = 1
    return Assignment(u)


def _spectral_matching(w: np.ndarray, h: int, m: int) -> Assignment:
    """The leading eigenvector of W, discretized greedily into an injection."""
    vals, vecs = np.linalg.eigh(w)
    lead = np.abs(vecs[:, -1])
    u = np.zeros((h, m), dtype=np.uint8)
    used_rows = set()
    used_cols = set()
    order = np.argsort(-lead)
    for flat in order:
        a = flat % h
        c = flat // h
        if a in used_rows or c in used_cols:
            continue
        u[a, c] = 1
        used_rows.add(a)
        used_cols.add(c)
        if len(used_rows) == h:
            break
    for a in range(h):  # rows starved by ties still need a column
        if a not in used_rows:
            c = next(i for i in range(m) if i not in used_cols)
            u[a, c] = 1
            used_cols.add(c)
    return Assignment(u)


def match_plane_maps(
    m_ref: PlaneSegmentMap, m_cur: PlaneSegmentMap, c: CorrespondenceSet
) -> list:
    """Full matching pipeline between two already-eroded masks.

    Returns (ref_id, cur_id) plane pairs.  When the reference mask has more
    planes than the current one the inputs are swapped internally and the
    assignment transposed, honoring the H <= M orientation.  The normalized
    affinity goes to :func:`solve_matching` once, which picks exact
    enumeration or the spectral relaxation from the injection count.  The
    pairs come in ascending row of the solved orientation: ascending
    reference id, or ascending current id after a swap (``i2pe`` seeds each
    pair's RANSAC by its position).  The edge affinity's ``sigma`` is 10% of
    the reference image diagonal.
    """
    if m_ref.num_planes == 0 or m_cur.num_planes == 0:
        return []
    sigma = 0.1 * math.hypot(m_ref.width, m_ref.height)
    swap = m_ref.num_planes > m_cur.num_planes
    if swap:
        m_ref, m_cur, c = m_cur, m_ref, c.swapped()
    node_aff = node_affinity_matrix(c, m_ref, m_cur)
    w = assemble_affinity(node_aff, m_ref.graph(), m_cur.graph(), sigma)
    assignment = solve_matching(w, *node_aff.shape)
    return [(r, c_id) for c_id, r in assignment.pairs] if swap else assignment.pairs
