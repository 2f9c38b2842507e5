"""Unit tests for the accuracy metrics (Definition 2 and companions)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.metrics import (
    exact_identification,
    mass_captured,
    normalized_mass_captured,
    optimal_mass,
    top_k_jaccard,
)


@pytest.fixture
def truth():
    return np.array([0.4, 0.3, 0.15, 0.1, 0.05])


class TestMassCaptured:
    def test_perfect_estimate(self, truth):
        assert mass_captured(truth, truth, 2) == pytest.approx(0.7)

    def test_wrong_order_partial_credit(self, truth):
        estimate = np.array([0.0, 0.1, 0.5, 0.4, 0.0])  # picks {2, 3}
        assert mass_captured(estimate, truth, 2) == pytest.approx(0.25)

    def test_optimal_mass(self, truth):
        assert optimal_mass(truth, 3) == pytest.approx(0.85)

    def test_normalized_bounds(self, truth, rng):
        for _ in range(10):
            estimate = rng.random(5)
            value = normalized_mass_captured(estimate, truth, 2)
            assert 0.0 < value <= 1.0

    def test_normalized_perfect_is_one(self, truth):
        assert normalized_mass_captured(truth, truth, 4) == pytest.approx(1.0)

    def test_maximized_by_truth(self, truth, rng):
        best = mass_captured(truth, truth, 2)
        for _ in range(20):
            assert mass_captured(rng.random(5), truth, 2) <= best + 1e-12

    def test_shape_mismatch(self, truth):
        with pytest.raises(ConfigError):
            mass_captured(np.ones(3), truth, 2)

    def test_bad_k(self, truth):
        with pytest.raises(ConfigError):
            mass_captured(truth, truth, 0)

    def test_optimal_mass_bad_k(self, truth):
        with pytest.raises(ConfigError):
            optimal_mass(truth, 0)

    def test_normalized_refuses_a_massless_truth(self):
        with pytest.raises(ConfigError, match="no mass"):
            normalized_mass_captured(np.ones(3), np.zeros(3), 2)


class TestExactIdentification:
    def test_perfect(self, truth):
        assert exact_identification(truth, truth, 3) == pytest.approx(1.0)

    def test_half_overlap(self, truth):
        estimate = np.array([0.5, 0.0, 0.4, 0.0, 0.0])  # top-2 {0, 2}
        assert exact_identification(estimate, truth, 2) == pytest.approx(0.5)

    def test_zero_overlap(self, truth):
        estimate = np.array([0.0, 0.0, 0.0, 0.5, 0.5])
        assert exact_identification(estimate, truth, 2) == pytest.approx(0.0)

    def test_k_above_n(self, truth):
        assert exact_identification(truth, truth, 10) == pytest.approx(1.0)

    def test_shape_mismatch(self, truth):
        with pytest.raises(ConfigError, match="align"):
            exact_identification(np.ones(3), truth, 2)

    def test_bad_k(self, truth):
        with pytest.raises(ConfigError):
            exact_identification(truth, truth, 0)


class TestTopKJaccard:
    def test_identical_sets(self):
        assert top_k_jaccard(np.array([1, 2, 3]), np.array([3, 2, 1])) == 1.0

    def test_disjoint_sets(self):
        assert top_k_jaccard(np.array([1, 2]), np.array([3, 4])) == 0.0

    def test_partial_overlap(self):
        value = top_k_jaccard(np.array([1, 2, 3]), np.array([2, 3, 4]))
        assert value == pytest.approx(0.5)

    def test_empty_sets(self):
        assert top_k_jaccard(np.array([]), np.array([])) == 1.0

    def test_repeated_ids_count_once(self):
        value = top_k_jaccard(np.array([1, 1, 2]), np.array([2, 1, 2]))
        assert value == 1.0
