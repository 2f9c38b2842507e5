"""Unit tests for graph statistics."""

import numpy as np
import pytest

from repro.graph import (
    cycle_graph,
    from_edges,
    power_law_exponent,
    reciprocity,
    star_graph,
    summarize,
    twitter_like,
)


class TestReciprocity:
    def test_fully_reciprocal(self):
        g = from_edges([(0, 1), (1, 0), (1, 2), (2, 1)])
        assert reciprocity(g) == pytest.approx(1.0)

    def test_no_reciprocity(self):
        assert reciprocity(cycle_graph(5)) == pytest.approx(0.0)

    def test_half_reciprocal(self):
        g = from_edges([(0, 1), (1, 0), (1, 2), (2, 0)], repair_dangling="none")
        assert reciprocity(g) == pytest.approx(0.5)

    def test_star_fully_reciprocal(self):
        assert reciprocity(star_graph(6)) == pytest.approx(1.0)

    def test_edgeless_graph_is_zero(self):
        g = from_edges([], num_vertices=3, repair_dangling="none")
        assert reciprocity(g) == 0.0


class TestPowerLawExponent:
    def test_recovers_planted_exponent(self, rng):
        theta = 2.5
        degrees = (1.0 - rng.random(50_000)) ** (-1.0 / (theta - 1.0)) * 4
        fitted = power_law_exponent(degrees.astype(int), d_min=8)
        assert fitted == pytest.approx(theta, abs=0.3)

    def test_nan_for_tiny_samples(self):
        assert np.isnan(power_law_exponent(np.array([1, 2, 3])))

    def test_d_min_sets_the_tail(self):
        """Only degrees >= d_min are tail samples."""
        degrees = np.full(20, 3)
        assert np.isnan(power_law_exponent(degrees, d_min=4))
        assert np.isfinite(power_law_exponent(degrees, d_min=3))


class TestSummary:
    def test_summary_fields(self):
        g = twitter_like(n=800, seed=1)
        s = summarize(g)
        assert s.num_vertices == 800
        assert s.num_edges == g.num_edges
        assert s.avg_out_degree == pytest.approx(g.num_edges / 800)
        assert s.max_in_degree >= s.avg_out_degree
        assert s.dangling_count == 0
        assert 0.0 <= s.reciprocity <= 1.0

    def test_summary_as_dict_keys(self):
        s = summarize(cycle_graph(4))
        d = s.as_dict()
        assert d["num_vertices"] == 4
        assert d["max_out_degree"] == 1
        assert "in_degree_tail_exponent" in d

    def test_dangling_count_counts_sinks(self):
        g = from_edges([(0, 1), (0, 2), (1, 2)], repair_dangling="none")
        s = summarize(g)
        assert s.dangling_count == 1
        assert (s.max_out_degree, s.max_in_degree) == (2, 2)
