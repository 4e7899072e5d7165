"""Plane-region matching across two segmentations.

Detected plane regions of the reference and current images are matched by
maximizing a quadratic assignment objective: node affinities count shared
feature correspondences between region pairs, edge affinities compare the
minimum inter-region pixel distances within each image.  The assignment is
constrained to a one-to-one mapping of all reference planes into the
(equal or larger) set of current planes.

Region masks are integer label maps (0 = background) with contiguous ids;
the file format is a 16-bit binary PGM whose pixel value is the label id.
Disk erosion and the inter-region distances each take one pass, not one
per region, over the bounding box of the labelled pixels, with the labels
cast to uint8 where they fit.  The erosion runs on rows packed 64 pixels
to a uint64 word.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BudgetExceededError,
    InvalidInputError,
    OrientationError,
)
from .pose_estimation import CorrespondenceSet

EXACT_ENUMERATION_BUDGET = 1_000_000

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
    def _trusted(cls, labels: np.ndarray, areas: np.ndarray) -> "PlaneSegmentMap":
        """A map the package built itself, without the checks and the count.

        ``labels`` is a fresh int32 array that the map takes over, with ids
        1..len(areas), and ``areas`` (int64) holds each region's pixel
        count, every one positive.
        """
        m = object.__new__(cls)
        labels.flags.writeable = False
        object.__setattr__(m, "labels", labels)
        object.__setattr__(m, "_num_planes", len(areas))
        object.__setattr__(m, "_areas", areas)
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
        if maxval > 255:
            arr = np.frombuffer(pixels, dtype=">u2", count=width * height)
        else:
            arr = np.frombuffer(pixels, dtype=np.uint8, count=width * height)
        return PlaneSegmentMap(arr.reshape(height, width).astype(np.int32))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_pgm_bytes())

    @staticmethod
    def load(path) -> "PlaneSegmentMap":
        with open(path, "rb") as fh:
            return PlaneSegmentMap.from_pgm_bytes(fh.read())

    def eroded(self, radius: int) -> "PlaneSegmentMap":
        """Cached :func:`erode_mask`; safe because label maps are immutable."""
        cache = getattr(self, "_eroded_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_eroded_cache", cache)
        if radius not in cache:
            cache[radius] = erode_mask(self, radius)
        return cache[radius]

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
    at least one plane.
    """
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
    lost = box[labelled[:, :bw] ^ kept]
    areas = m._areas - np.bincount(lost, minlength=m.num_planes + 1)[1:]
    box = box * kept
    if not areas.all():  # a region vanished: recompact the ids
        box = np.concatenate([[0], np.cumsum(areas > 0)]).astype(box.dtype)[box]
        areas = areas[areas > 0]
    out = np.zeros_like(m.labels)
    out[top : top + bh, left : left + bw] = box
    return PlaneSegmentMap._trusted(out, areas)


@dataclass(frozen=True, eq=False)
class PlaneGraph:
    """Complete graph over region ids with min-distance edge weights."""

    plane_ids: tuple
    distances: np.ndarray  # (H, H) symmetric, zero diagonal

    @staticmethod
    def from_mask(m: PlaneSegmentMap) -> "PlaneGraph":
        ids = tuple(m.plane_ids)
        h = len(ids)
        d = np.zeros((h, h))
        if h < 2:
            return PlaneGraph(ids, d)
        # Boundary pixels: on the labelled box's edge (outside it lies
        # background or the image edge) or 4-adjacent to another label.
        # Distances do not depend on where the box sits.
        lab, _ = _labelled_box(m)
        c = lab[1:-1, 1:-1]
        boundary = lab > 0
        boundary[1:-1, 1:-1] &= (
            (c != lab[:-2, 1:-1]) | (c != lab[2:, 1:-1])
            | (c != lab[1:-1, :-2]) | (c != lab[1:-1, 2:])
        )
        flat = np.flatnonzero(boundary)  # row-major, as np.nonzero
        owner = lab.ravel()[flat]
        flat = flat[np.argsort(owner, kind="stable")]
        split = np.cumsum(np.bincount(owner, minlength=h + 1)[1:-1])
        boundaries = np.split(np.column_stack(np.divmod(flat, lab.shape[1])), split)
        for i in range(h - 1):  # the last region is only ever queried
            tree = cKDTree(boundaries[i])
            for j in range(i + 1, h):
                # A subsample (one pixel in _SUBSAMPLE_STRIDE) bounds the
                # minimum from above; the full query then prunes every
                # subtree past that bound (pixel distances are square roots
                # of integers, so the margin loses no tie) and its minimum
                # stays exact.
                first, _ = tree.query(boundaries[j][::_SUBSAMPLE_STRIDE], k=1)
                bound = first.min() * (1 + 1e-9) + 1e-9
                dist, _ = tree.query(boundaries[j], k=1, distance_upper_bound=bound)
                dmin = float(dist.min())
                if dmin <= math.sqrt(2.0) + 1e-12:
                    dmin = 0.0
                d[i, j] = d[j, i] = dmin
        return PlaneGraph(ids, d)


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
        edges = np.zeros((n, n))
        for a in range(h):
            for b in range(h):
                if a == b:
                    continue
                d_ab = graph_ref.distances[a, b]
                diff = np.abs(d_ab - graph_cur.distances)  # (M, M) over (c, d)
                sim = np.exp(-diff / sigma)
                for c_i in range(m):
                    row = c_i * h + a
                    cols = np.arange(m) * h + b
                    vals = sim[c_i].copy()
                    vals[c_i] = 0.0  # c == d is infeasible
                    edges[row, cols] = vals
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


def _selection_indices(columns, h: int) -> np.ndarray:
    return np.array([c * h + a for a, c in enumerate(columns)])


def solve_matching(w: np.ndarray, h: int, m: int, mode: str = "exact") -> Assignment:
    """Maximize the quadratic assignment objective under the row/column
    constraints.

    ``exact`` enumerates every injection of the H reference planes into the
    M current planes (budget-limited); ``spectral`` takes the leading
    eigenvector of W and discretizes it greedily.  The spectral score never
    exceeds the exact one.

    Raises:
        BudgetExceededError: exact enumeration above the budget; callers
            fall back to spectral mode.
    """
    w = np.asarray(w, dtype=float)
    if h > m:
        raise OrientationError("solve_matching requires H <= M")
    if w.shape != (h * m, h * m):
        raise InvalidInputError("W must be (H*M) x (H*M)")
    if mode == "exact":
        count = math.perm(m, h)
        if count > EXACT_ENUMERATION_BUDGET:
            raise BudgetExceededError(
                f"{count} assignments exceed the exact enumeration budget"
            )
        best_score = -np.inf
        best = None
        for columns in itertools.permutations(range(m), h):
            sel = _selection_indices(columns, h)
            score = float(w[np.ix_(sel, sel)].sum())
            if score > best_score:
                best_score = score
                best = columns
        u = np.zeros((h, m), dtype=np.uint8)
        u[np.arange(h), list(best)] = 1
        return Assignment(u)
    if mode != "spectral":
        raise InvalidInputError(f"unknown matching mode {mode!r}")

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
    m_ref: PlaneSegmentMap,
    m_cur: PlaneSegmentMap,
    c: CorrespondenceSet,
    sigma: float = None,
) -> list:
    """Full matching pipeline between two already-eroded masks.

    Returns (ref_id, cur_id) plane pairs.  When the reference mask has more
    planes than the current one the inputs are swapped internally and the
    assignment transposed, honoring the H <= M orientation.  The normalized
    affinity is solved exactly, or spectrally when exact enumeration would
    exceed its budget.

    ``sigma`` defaults to 10% of the reference image diagonal.
    """
    if m_ref.num_planes == 0 or m_cur.num_planes == 0:
        return []
    if sigma is None:
        sigma = 0.1 * math.hypot(m_ref.width, m_ref.height)
    if m_ref.num_planes > m_cur.num_planes:
        swapped = match_plane_maps(m_cur, m_ref, c.swapped(), sigma=sigma)
        return [(r, c_id) for c_id, r in swapped]
    node_aff = node_affinity_matrix(c, m_ref, m_cur)
    w = assemble_affinity(node_aff, m_ref.graph(), m_cur.graph(), sigma)
    h, m = node_aff.shape
    try:
        assignment = solve_matching(w, h, m)
    except BudgetExceededError:
        assignment = solve_matching(w, h, m, mode="spectral")
    return assignment.pairs
