"""Unit tests for the PageRank estimator and top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PageRankEstimate, top_k_indices
from repro.errors import ConfigError


class TestTopK:
    def test_basic_order(self):
        values = np.array([0.1, 0.5, 0.3, 0.9])
        assert list(top_k_indices(values, 2)) == [3, 1]

    def test_ties_break_by_index(self):
        values = np.array([0.5, 0.5, 0.5])
        assert list(top_k_indices(values, 2)) == [0, 1]

    def test_k_larger_than_n(self):
        values = np.array([2.0, 1.0])
        assert list(top_k_indices(values, 10)) == [0, 1]

    def test_k_zero(self):
        assert top_k_indices(np.array([1.0]), 0).size == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            top_k_indices(np.array([1.0]), -1)


class TestPageRankEstimate:
    def test_vector_normalization(self):
        est = PageRankEstimate(np.array([2, 3, 5]), num_frogs=10)
        np.testing.assert_allclose(est.vector(), [0.2, 0.3, 0.5])

    def test_vector_with_lost_frogs(self):
        # Binomial scatter can lose frogs; vector sums below 1.
        est = PageRankEstimate(np.array([2, 3]), num_frogs=10)
        assert est.vector().sum() == pytest.approx(0.5)
        np.testing.assert_allclose(est.distribution().sum(), 1.0)

    def test_distribution_degenerate(self):
        est = PageRankEstimate(np.zeros(4, dtype=np.int64), num_frogs=5)
        np.testing.assert_allclose(est.distribution(), 0.25)

    def test_top_k(self):
        est = PageRankEstimate(np.array([0, 7, 3, 9]), num_frogs=19)
        assert list(est.top_k(2)) == [3, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        # Mostly-zero counters with heavy ties, down to all-zero.
        st.lists(
            st.sampled_from([0, 0, 0, 1, 1, 2, 5]) | st.integers(0, 3),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 40),
    )
    def test_top_k_ranks_the_support_like_the_full_vector(self, counts, k):
        # k = 0, k beyond the nonzero counters and k > n included.
        est = PageRankEstimate(np.array(counts), num_frogs=7)
        expected = top_k_indices(est.counts, k)
        assert est.top_k(k).dtype == expected.dtype
        np.testing.assert_array_equal(est.top_k(k), expected)
        top, scores = est.top_k_with_scores(k)
        np.testing.assert_array_equal(top, expected)
        np.testing.assert_array_equal(scores, est.counts[expected] / 7)

    def test_top_k_rejects_negative_k(self):
        est = PageRankEstimate(np.array([0, 7, 3, 9]), num_frogs=19)
        with pytest.raises(ConfigError):
            est.top_k(-1)

    def test_counters_exposed(self):
        counts = np.array([1, 2, 3])
        est = PageRankEstimate(counts, num_frogs=6)
        assert est.total_stopped == 6
        assert est.num_vertices == 3
        assert est.num_frogs == 6
        np.testing.assert_array_equal(est.counts, counts)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.array([1, -1]), num_frogs=2)

    def test_rejects_bad_frogs(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.array([1]), num_frogs=0)

    def test_rejects_matrix_counts(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.zeros((2, 2)), num_frogs=1)
