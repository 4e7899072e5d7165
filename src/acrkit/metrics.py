"""Relocalization accuracy metrics.

The displacement metric consumes matched point coordinates from the
reference view and the relocalized view; in this artifact those come from
the simulator's ground-truth track positions rather than re-detected
features, so absolute values are comparable across runs of the simulator
but not to detector-based reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class AfdReport:
    """Average feature-point displacement in pixels."""

    afd: float
    match_count: int

    def __post_init__(self):
        if self.afd < 0 or self.match_count < 1:
            raise InvalidInputError("invalid displacement report")


def afd(ref_points, cur_points) -> AfdReport:
    """Mean Euclidean pixel displacement between matched point lists."""
    a = np.asarray(ref_points, dtype=float)
    b = np.asarray(cur_points, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 2)
    if b.ndim == 1:
        b = b.reshape(-1, 2)
    if a.shape != b.shape or a.shape[0] == 0:
        raise InvalidInputError("point lists must be equal-length and non-empty")
    d = np.linalg.norm(a - b, axis=1)
    return AfdReport(afd=float(d.mean()), match_count=int(a.shape[0]))
