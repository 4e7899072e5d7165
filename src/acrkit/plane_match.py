"""Plane-region matching across two segmentations.

Detected plane regions of the reference and current images are paired by
their feature correspondences: each correspondence counts for the region
pair under its two pixels, and every plane of the side with fewer planes
goes to a distinct plane of the other side, by the injection with the
largest summed count (:func:`match_plane_maps`).  The injections are
enumerated, which at the paper's few planes is a handful; past
``MAX_INJECTIONS`` the matcher refuses the input.  Every region is first
eroded by ``EROSION_RADIUS`` pixels, at the correspondences only
(:meth:`PlaneSegmentMap.eroded`), so ids stay the mask's own.

Region masks are their row runs, the maximal stretches of one label
along a row (:class:`PlaneSegmentMap`); 0 is background and ids are
contiguous.  The file format is a 16-bit binary PGM whose pixel value is
the label id; no map keeps a pixel array, not even one read from a file,
unless a caller reads its labels.  Disk erosion at points works on the
runs by interval coding (:func:`erode_mask`), and so does the label lookup.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import InvalidInputError

# The most plane injections match_plane_maps compares; more is refused.
MAX_INJECTIONS = 1_000_000

# Disk radius (px) by which every plane region is eroded before its labels
# are counted (see PlaneSegmentMap.eroded): a correspondence near a
# region's edge may lie on its neighbour.
EROSION_RADIUS = 5

class PlaneSegmentMap:
    """Per-pixel plane labeling; 0 is background, ids run 1..H contiguously.

    A map holds its shape and its row runs, nothing per pixel: the maximal
    stretches of one nonzero label along a row, in raster order.  ``runs``
    is a read-only (4, n) int64 array of their rows, first columns, last
    columns and labels.  The constructor finds them on the label array as
    given; the int32 ``labels`` array is built from them on first read.
    """

    def __init__(self, labels: np.ndarray):
        lab = np.asarray(labels)
        if lab.ndim != 2:
            raise InvalidInputError("label map must be 2-D")
        ends, label = _row_runs(lab)
        if (lab.dtype.kind not in "biuf" or label.min(initial=0) < 0
                or not np.array_equal(np.trunc(label), label)):
            raise InvalidInputError("labels must be non-negative integers")
        # An id past the run count leaves a gap; refused before the cast, none wraps.
        top = label.max(initial=0)
        if top > label.size:
            raise InvalidInputError("plane ids must be contiguous 1..H")
        self._finish(lab.shape, np.vstack([ends, label.astype(np.int64)]), int(top))
        if self._num_planes < top:
            raise InvalidInputError("plane ids must be contiguous 1..H")

    @classmethod
    def _of_runs(cls, shape, runs: np.ndarray, num_labels: int) -> "PlaneSegmentMap":
        """A map the package built itself, unchecked: ``runs`` is a fresh
        (4, n) int64 array, laid out as :attr:`runs`, of a ``shape`` frame's
        maximal row runs in raster order, with labels in 1..``num_labels``."""
        m = object.__new__(cls)
        m._finish(shape, runs, num_labels)
        return m

    def _finish(self, shape, runs: np.ndarray, num_labels: int) -> None:
        """Hold ``runs`` as :meth:`_of_runs` takes them: labels that no run
        carries drop and the rest recompact."""
        present = np.bincount(runs[3], minlength=num_labels + 1)[1:] > 0
        if not present.all():
            runs[3] = np.concatenate([[0], np.cumsum(present)])[runs[3]]
        runs.flags.writeable = False
        self._shape, self._runs, self._labels = tuple(shape), runs, None
        self._num_planes = int(present.sum())
        self._run_keys = runs[0] * shape[1] + runs[1:3]  # raster keys of run ends

    @property
    def runs(self) -> np.ndarray:
        return self._runs

    @property
    def labels(self) -> np.ndarray:
        """The (height, width) int32 label array, read-only; built on first read."""
        if self._labels is None:
            self._labels = self._raster(np.int32)[:-1].reshape(self._shape)
            self._labels.flags.writeable = False
        return self._labels

    def _raster(self, dtype) -> np.ndarray:
        """The labels in raster order as ``dtype``, and one 0 past them: a
        running sum of label steps at the run ends, taken in place.  A sum
        that wraps in ``dtype`` still ends on each label."""
        h, w = self._shape
        row, lo, hi, label = self._runs
        steps = np.zeros(h * w + 1, dtype)
        steps[row * w + lo] = label
        # After the starts: a run may end where one starts.
        steps[row * w + hi + 1] -= label.astype(dtype)
        return np.cumsum(steps, dtype=dtype, out=steps)

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    @property
    def num_planes(self) -> int:
        return self._num_planes

    def label_at(self, points_xy: np.ndarray) -> np.ndarray:
        """Labels under (u, v) pixel coordinates; out-of-image maps to 0.

        Each rounded pixel's raster key is looked up among the runs' start
        keys: the run starting at or before it holds the pixel when it also
        ends at or after it.
        """
        pts = np.asarray(points_xy, dtype=float)
        col = np.rint(pts[:, 0]).astype(int)
        row = np.rint(pts[:, 1]).astype(int)
        inside = (row >= 0) & (row < self.height) & (col >= 0) & (col < self.width)
        out = np.zeros(len(pts), dtype=np.int32)
        if self.num_planes:
            starts, ends = self._run_keys
            key = row[inside] * self.width + col[inside]
            k = np.searchsorted(starts, key, side="right") - 1
            held = (k >= 0) & (ends[k] >= key)
            out[inside] = np.where(held, self._runs[3][k], 0)
        return out

    def to_pgm_bytes(self) -> bytes:
        """The map as a 16-bit PGM, its big-endian pixels summed straight
        from the runs; no label array is kept."""
        if self.num_planes > 65535:
            raise InvalidInputError("more plane ids than a 16-bit PGM can hold")
        header = f"P5\n{self.width} {self.height}\n65535\n".encode("ascii")
        pixels = self._raster(np.uint16)
        if np.little_endian:
            pixels.byteswap(inplace=True)
        return b"".join([header, pixels[:-1].data])

    @staticmethod
    def from_pgm_bytes(data: bytes) -> "PlaneSegmentMap":
        m = re.match(
            rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data
        )
        if not m:
            raise InvalidInputError("not a binary PGM (P5) stream")
        width, height, maxval = (int(m.group(i)) for i in (1, 2, 3))
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        size = width * height * dtype.itemsize
        given = len(data) - m.end()
        if given < size:
            raise InvalidInputError(f"PGM pixel block has {given} bytes, its header needs {size}")
        # Read in place: neither the pixel block nor the array is copied.
        arr = np.frombuffer(data, dtype=dtype, count=width * height, offset=m.end())
        return PlaneSegmentMap(arr.reshape(height, width))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_pgm_bytes())

    @staticmethod
    def load(path) -> "PlaneSegmentMap":
        with open(path, "rb") as fh:
            return PlaneSegmentMap.from_pgm_bytes(fh.read())

    def eroded(self, points_xy: np.ndarray) -> np.ndarray:
        """Labels under ``points_xy`` after :func:`erode_mask` by :data:`EROSION_RADIUS`."""
        return erode_mask(self, EROSION_RADIUS, points_xy)


def _row_runs(lab: np.ndarray):
    """The maximal row runs of ``lab``'s nonzero labels in raster order:
    a (3, n) int64 array of their rows, first columns and last columns,
    and their labels in ``lab``'s own dtype."""
    if not lab.size:
        return np.zeros((3, 0), np.int64), lab.ravel()
    w = lab.shape[1]
    flat = lab.ravel()
    starts = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::w] = True
    start = np.flatnonzero(starts)
    end = np.append(start[1:], flat.size) - 1
    label = flat[start]
    start, end, label = start[label != 0], end[label != 0], label[label != 0]
    row = start // w
    return np.stack([row, start - row * w, end - row * w]).astype(np.int64, copy=False), label


def erode_mask(m: PlaneSegmentMap, radius: float, points_xy: np.ndarray) -> np.ndarray:
    """Labels under (u, v) pixel coordinates after a disk erosion of every region.

    Per-label binary erosion by the disk of the offsets within ``radius``
    (pixels outside the image count as background), each region keeping its
    id, at the points only, by the chord rule of interval coding (Ji, Piper
    & Tang, Pattern Recognit. Lett. 1989): a pixel of label L keeps it iff
    each of the disk's ``2r + 1`` row chords lies in one run of label L,
    that is, iff the run under the chord's left raster key has label L and
    reaches its right one.  A run never leaves its row, so no chord off the
    image lies in one.  Radius 0 is the label lookup.
    """
    if radius < 0:
        raise InvalidInputError("erosion radius must be non-negative")
    labels = m.label_at(points_xy)
    at = np.flatnonzero(labels)
    if radius == 0 or not at.size:
        return labels
    if not radius < min(m.height, m.width):  # no disk fits; nan erodes everything too
        return np.zeros_like(labels)
    r = int(radius)
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    half_width = (np.sqrt(yy * yy + xx * xx) <= radius).sum(axis=1, keepdims=True) // 2
    pts = np.asarray(points_xy, dtype=float)[at]
    key = np.rint(pts[:, 1]).astype(int) * m.width + np.rint(pts[:, 0]).astype(int)
    order = np.argsort(key)  # ascending needles search faster
    at, key = at[order], key[order]
    left = key + yy[:, :1] * m.width - half_width  # (2r + 1, n): each chord's left end
    starts, ends = m._run_keys
    k = np.searchsorted(starts, left, side="right") - 1
    held = (k >= 0) & (ends[k] >= left + 2 * half_width) & (m.runs[3][k] == labels[at])
    labels[at[~held.all(axis=0)]] = 0
    return labels


class PlaneGraph:
    """No library code builds a plane graph: planes are matched by their
    correspondence counts (:func:`match_plane_maps`).  The name stays as
    the patch target of ``perfbench/harness.py`` (its ``TRACE_TARGETS``;
    ``perfbench/test_smoke.py`` reads ``vars(PlaneGraph)["from_mask"]``)
    until that harness drops it."""

    @staticmethod
    def from_mask(m):
        """Never called; see :class:`PlaneGraph`."""
        ...


def match_plane_maps(
    m_ref: PlaneSegmentMap,
    m_cur: PlaneSegmentMap,
    labels_ref: np.ndarray,
    labels_cur: np.ndarray,
) -> list:
    """(ref_id, cur_id) plane pairs between two masks, in the masks' own ids.

    ``labels_ref`` and ``labels_cur`` are the labels under each
    correspondence's reference and current pixel
    (:meth:`PlaneSegmentMap.eroded`); one with background on either side
    counts nowhere, and a region under none keeps zero counts.  Every plane
    of the side with fewer planes is paired with a distinct plane of the
    other side, by the injection with the largest summed correspondence
    count, the first in lexicographic order at a tie; when the reference has
    more planes the counts are transposed first.  The pairs come in
    ascending row of the solved orientation: ascending reference id, or
    ascending current id after a transpose (``i2pe`` seeds each pair's
    RANSAC by its position).  More than :data:`MAX_INJECTIONS` injections is
    an :class:`InvalidInputError`.
    """
    h, m = m_ref.num_planes, m_cur.num_planes
    if not h or not m:
        return []
    if math.perm(max(h, m), min(h, m)) > MAX_INJECTIONS:
        raise InvalidInputError(
            f"{h} reference and {m} current planes give more than {MAX_INJECTIONS}"
            " plane assignments to compare"
        )
    counts = np.zeros((h, m), np.int64)
    held = (labels_ref > 0) & (labels_cur > 0)
    np.add.at(counts, (labels_ref[held] - 1, labels_cur[held] - 1), 1)
    swap = h > m
    if swap:
        counts = counts.T
    rows = np.arange(len(counts))
    columns = max(
        itertools.permutations(range(counts.shape[1]), len(counts)),
        key=lambda cols: counts[rows, cols].sum(),
    )
    pairs = [(a + 1, c + 1) for a, c in enumerate(columns)]
    return [(c, a) for a, c in pairs] if swap else pairs
