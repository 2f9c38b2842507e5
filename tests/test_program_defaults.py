"""Coverage for BulkVertexProgram defaults and ApplyResult semantics."""

import numpy as np
import pytest

from repro.engine import ApplyResult, BSPEngine, BulkVertexProgram, build_cluster
from repro.graph import from_edges


class MinimalProgram(BulkVertexProgram):
    """Implements only the abstract hooks; inherits every default."""

    name = "minimal"

    def initial_data(self, state):
        return np.ones(state.num_vertices)

    def apply_bulk(self, active, gather_sums, data, state, step):
        return ApplyResult(new_values=gather_sums, done=True)


@pytest.fixture
def tiny_state():
    graph = from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
    return build_cluster(graph, num_machines=2, seed=0)


class TestDefaults:
    def test_default_initial_active_is_everything(self, tiny_state):
        program = MinimalProgram()
        active = program.initial_active(tiny_state)
        assert active.all()
        assert active.size == tiny_state.num_vertices

    def test_default_gather_is_random_surfer_share(self, tiny_state):
        program = MinimalProgram()
        data = np.array([3.0, 4.0, 5.0])
        sources = np.array([0, 1, 2])
        contributions = program.gather_contribution(
            sources, data, tiny_state
        )
        out_deg = np.asarray(tiny_state.graph.out_degree(), dtype=float)
        np.testing.assert_allclose(contributions, data / out_deg)

    def test_default_apply_ops(self):
        assert MinimalProgram().apply_ops_per_vertex() == 1

    def test_runs_one_superstep_when_done(self, tiny_state):
        engine = BSPEngine(tiny_state, MinimalProgram())
        report = engine.run(max_supersteps=50)
        assert report.supersteps == 1
        assert report.algorithm == "minimal"


class TestApplyResultSemantics:
    def test_changed_mask_limits_sync(self, tiny_state):
        class PartialChange(MinimalProgram):
            def apply_bulk(self, active, gather_sums, data, state, step):
                changed = np.zeros(active.size, dtype=bool)
                return ApplyResult(
                    new_values=data[active],
                    changed_mask=changed,
                    done=True,
                )

        engine = BSPEngine(tiny_state, PartialChange())
        engine.run()
        # Nothing changed: no sync traffic at all.
        assert "sync" not in tiny_state.bytes_by_kind

    def test_no_signal_ends_run(self, tiny_state):
        class NoSignal(MinimalProgram):
            def apply_bulk(self, active, gather_sums, data, state, step):
                return ApplyResult(new_values=data[active])

        engine = BSPEngine(tiny_state, NoSignal())
        report = engine.run(max_supersteps=10)
        assert report.supersteps == 1
