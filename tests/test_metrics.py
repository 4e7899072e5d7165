"""Unit tests for the evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrkit.errors import InvalidInputError
from acrkit.metrics import afd


class TestAfd:
    def test_identical_lists(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        report = afd(pts, pts)
        assert report.afd == 0.0
        assert report.match_count == 2

    def test_constant_displacement(self):
        pts = np.random.default_rng(0).uniform(0, 100, size=(20, 2))
        report = afd(pts, pts + np.array([3.0, 4.0]))
        assert report.afd == pytest.approx(5.0)

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 100, size=(15, 2))
        b = rng.uniform(0, 100, size=(15, 2))
        expected = sum(
            float(np.hypot(a[i, 0] - b[i, 0], a[i, 1] - b[i, 1])) for i in range(15)
        ) / 15.0
        assert afd(a, b).afd == pytest.approx(expected, rel=1e-12)

    def test_unequal_lists_rejected(self):
        with pytest.raises(InvalidInputError):
            afd(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            afd(np.zeros((0, 2)), np.zeros((0, 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50)
    )
    def test_translation_equivariance(self, dx, dy):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 100, size=(10, 2))
        b = rng.uniform(0, 100, size=(10, 2))
        shift = np.array([dx, dy])
        assert afd(a + shift, b + shift).afd == pytest.approx(afd(a, b).afd, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_linear_scaling(self, k):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 100, size=(10, 2))
        d = rng.uniform(-5, 5, size=(10, 2))
        assert afd(a, a + k * d).afd == pytest.approx(k * afd(a, a + d).afd, rel=1e-9)
