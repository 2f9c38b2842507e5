"""Unit tests for the exact power-iteration solver (ground truth)."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import complete_graph, cycle_graph, from_edges, star_graph
from repro.pagerank import exact_pagerank, pagerank_operator


class TestClosedForms:
    def test_cycle_uniform(self):
        pi = exact_pagerank(cycle_graph(10))
        np.testing.assert_allclose(pi, 0.1, atol=1e-9)

    def test_complete_uniform(self):
        pi = exact_pagerank(complete_graph(7))
        np.testing.assert_allclose(pi, 1 / 7, atol=1e-9)

    def test_star_closed_form(self):
        """Hub of a star: pi_0 = (1+p)/ (3+p) 2/(…) — check via balance.

        For the star, every spoke has pi_s and the hub pi_0 satisfies
        pi_0 = p/n + (1-p) * (n-1) * pi_s  and
        pi_s = p/n + (1-p) * pi_0/(n-1).
        """
        n, p = 9, 0.15
        pi = exact_pagerank(star_graph(n), p_teleport=p)
        hub, spoke = pi[0], pi[1]
        assert hub == pytest.approx(p / n + (1 - p) * (n - 1) * spoke, abs=1e-9)
        assert spoke == pytest.approx(p / n + (1 - p) * hub / (n - 1), abs=1e-9)
        np.testing.assert_allclose(pi[1:], spoke, atol=1e-12)

    def test_sums_to_one(self, small_twitter):
        pi = exact_pagerank(small_twitter)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert pi.min() >= 0.15 / small_twitter.num_vertices * 0.999


class TestAgainstNetworkx:
    def test_matches_networkx(self, small_twitter):
        pi = exact_pagerank(small_twitter, p_teleport=0.15, tolerance=1e-12)
        nxg = nx.DiGraph(list(small_twitter.edges()))
        nxg.add_nodes_from(range(small_twitter.num_vertices))
        nx_pi = nx.pagerank(nxg, alpha=0.85, tol=1e-12, max_iter=500)
        expected = np.array(
            [nx_pi[v] for v in range(small_twitter.num_vertices)]
        )
        np.testing.assert_allclose(pi, expected, atol=1e-8)

    def test_matches_networkx_with_dangling(self):
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (0, 3)], repair_dangling="none"
        )
        pi = exact_pagerank(graph, tolerance=1e-12)
        nxg = nx.DiGraph([(0, 1), (1, 2), (2, 0), (0, 3)])
        nx_pi = nx.pagerank(nxg, alpha=0.85, tol=1e-12)
        expected = np.array([nx_pi[v] for v in range(4)])
        np.testing.assert_allclose(pi, expected, atol=1e-8)


class TestOperator:
    def test_operator_is_column_stochastic_action(self, diamond):
        op = pagerank_operator(diamond)
        x = np.full(4, 0.25)
        y = op @ x
        assert y.sum() == pytest.approx(1.0)

    def test_operator_matches_dense(self, diamond):
        op = pagerank_operator(diamond)
        dense = diamond.transition_matrix()
        x = np.random.default_rng(0).random(4)
        np.testing.assert_allclose(op @ x, dense @ x)

    def test_dangling_columns_are_zero(self):
        """The operator moves no mass out of a sink; the solver
        reinjects it through the teleport vector."""
        graph = from_edges([(0, 1), (0, 2), (1, 2)], repair_dangling="none")
        op = pagerank_operator(graph).toarray()
        np.testing.assert_array_equal(op[:, 2], 0.0)
        np.testing.assert_allclose(op.sum(axis=0), [1.0, 1.0, 0.0])


class TestPersonalizedClosedForms:
    """Personalized PageRank against closed forms and the solver's own
    linearity in the teleport vector."""

    @staticmethod
    def _one_hot(n, seed):
        vector = np.zeros(n)
        vector[seed] = 1.0
        return vector

    def test_one_hot_seed_on_a_cycle_is_geometric(self):
        """On a directed n-cycle every walk from the seed is forced:
        the vertex j steps ahead gets p (1-p)^j / (1 - (1-p)^n)."""
        n, seed, p = 12, 3, 0.15
        ppr = exact_pagerank(
            cycle_graph(n), p_teleport=p,
            personalization=self._one_hot(n, seed),
        )
        steps = np.arange(n)
        expected = p * (1 - p) ** steps / (1 - (1 - p) ** n)
        np.testing.assert_allclose(
            ppr[(seed + steps) % n], expected, atol=1e-10
        )

    def test_seed_has_the_highest_score(self, small_twitter):
        n = small_twitter.num_vertices
        ppr = exact_pagerank(
            small_twitter, personalization=self._one_hot(n, 7)
        )
        assert int(np.argmax(ppr)) == 7
        assert ppr[7] >= 0.15

    def test_linear_in_the_teleport_vector(self):
        graph = cycle_graph(10)
        source = np.zeros(10)
        source[[2, 5]] = 0.5
        mixed = exact_pagerank(graph, personalization=source)
        halves = [
            exact_pagerank(graph, personalization=self._one_hot(10, seed))
            for seed in (2, 5)
        ]
        np.testing.assert_allclose(
            mixed, 0.5 * (halves[0] + halves[1]), atol=1e-10
        )

    def test_dangling_mass_returns_to_the_seed(self):
        """0 -> 1 -> 2 with 2 a sink: the sink's mass goes back to the
        seed, so the chain is a 3-cycle with teleports to 0 and
        pi_0 = p / (1 - (1-p)^3), pi_j = (1-p)^j pi_0."""
        p = 0.15
        graph = from_edges([(0, 1), (1, 2)], repair_dangling="none")
        ppr = exact_pagerank(
            graph, p_teleport=p, personalization=self._one_hot(3, 0)
        )
        head = p / (1 - (1 - p) ** 3)
        np.testing.assert_allclose(
            ppr, head * (1 - p) ** np.arange(3), atol=1e-10
        )
        assert ppr.sum() == pytest.approx(1.0, abs=1e-12)


class TestDiagnostics:
    def test_return_info(self, small_twitter):
        result = exact_pagerank(small_twitter, return_info=True)
        assert result.converged
        assert result.iterations > 1
        assert result.residual < 1e-12
        assert result.vector.sum() == pytest.approx(1.0)

    def test_nonconvergence_raises_without_info(self, small_twitter):
        with pytest.raises(ConfigError, match="converge"):
            exact_pagerank(small_twitter, max_iterations=2)

    def test_nonconvergence_reported_with_info(self, small_twitter):
        result = exact_pagerank(
            small_twitter, max_iterations=2, return_info=True
        )
        assert not result.converged
        assert result.iterations == 2


class TestValidation:
    def test_bad_teleport(self, diamond):
        with pytest.raises(ConfigError):
            exact_pagerank(diamond, p_teleport=0.0)

    def test_bad_tolerance(self, diamond):
        with pytest.raises(ConfigError):
            exact_pagerank(diamond, tolerance=0.0)

    def test_empty_graph(self):
        graph = from_edges([], num_vertices=0)
        with pytest.raises(ConfigError, match="empty graph"):
            exact_pagerank(graph)
