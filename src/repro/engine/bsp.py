"""Bulk-synchronous-parallel driver for :class:`BulkVertexProgram`.

Each superstep runs gather → apply → sync → scatter with byte-exact
traffic accounting (see :mod:`repro.engine.program` for phase
semantics).  The driver is fully vectorized: per-superstep work is a
fixed number of numpy passes over the edge-group tables, independent of
the frontier size.
"""

from __future__ import annotations

import numpy as np

from ..errors import EngineError
from ..graph import sorted_unique
from .program import BulkVertexProgram
from .state import ClusterState
from .stats import RunReport

__all__ = ["BSPEngine"]


class BSPEngine:
    """Runs one program to completion on a simulated cluster."""

    def __init__(self, state: ClusterState, program: BulkVertexProgram) -> None:
        if program.gather_edges not in ("in", "none"):
            raise EngineError(
                f"gather_edges must be 'in' or 'none', got "
                f"{program.gather_edges!r}"
            )
        self.state = state
        self.program = program
        self.data: np.ndarray | None = None
        repl = state.replication
        # Static tables reused every superstep.
        self._masters = repl.masters
        self._out_edge_anchor = repl.out_groups.edge_anchor()
        self._out_edge_host = repl.out_groups.edge_machine_sorted
        self._out_edge_target = repl.out_groups.sorted_other
        self._in_group_anchor = repl.in_groups.group_anchor
        self._in_group_machine = repl.in_groups.group_machine
        self._in_group_sizes = repl.in_groups.group_sizes()

    # ------------------------------------------------------------------
    def run(self, max_supersteps: int = 1000) -> RunReport:
        """Execute until the program reports done, the frontier empties,
        or ``max_supersteps`` barriers have elapsed."""
        state = self.state
        program = self.program
        n = state.num_vertices
        data = program.initial_data(state)
        if data.shape != (n,):
            raise EngineError(f"initial_data must have shape ({n},)")
        active_mask = program.initial_active(state).astype(bool)

        for step in range(max_supersteps):
            active_idx = np.flatnonzero(active_mask)
            if active_idx.size == 0:
                break

            gather_sums = self._gather(active_mask, data)
            result = program.apply_bulk(
                active_idx, gather_sums[active_idx], data, state, step
            )
            if result.new_values.shape != active_idx.shape:
                raise EngineError("apply_bulk returned misaligned new_values")
            data = data.copy()
            data[active_idx] = result.new_values
            state.charge_many(
                np.bincount(
                    self._masters[active_idx], minlength=state.num_machines
                )
                * program.apply_ops_per_vertex(),
                phase="apply",
            )

            changed_mask = np.zeros(n, dtype=bool)
            if result.changed_mask is None:
                changed_mask[active_idx] = True
            else:
                changed_mask[active_idx[result.changed_mask]] = True
            self._sync(changed_mask)

            active_mask = self._scatter(active_idx, result.signal_mask)
            state.end_superstep()
            if result.done:
                break

        self.data = data
        return state.report(program.name)

    # ------------------------------------------------------------------
    def _gather(self, active_mask: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Distributed gather over in-edges of the active frontier."""
        state = self.state
        n = state.num_vertices
        if self.program.gather_edges == "none":
            return np.zeros(n, dtype=np.float64)
        in_groups = state.replication.in_groups
        if in_groups.num_groups == 0:
            return np.zeros(n, dtype=np.float64)

        weights = self.program.gather_contribution(
            in_groups.sorted_other, data, state
        )
        partials = np.add.reduceat(weights, in_groups.group_start)
        group_active = active_mask[self._in_group_anchor]

        gather_sums = np.zeros(n, dtype=np.float64)
        if group_active.any():
            np.add.at(
                gather_sums,
                self._in_group_anchor[group_active],
                partials[group_active],
            )
            # CPU: one op per local in-edge scanned, on the hosting machine.
            state.charge_many(
                np.bincount(
                    self._in_group_machine[group_active],
                    weights=self._in_group_sizes[group_active],
                    minlength=state.num_machines,
                ).astype(np.int64),
                phase="gather",
            )
            # Network: one partial-sum record per remote (vertex, machine).
            remote = group_active & (
                self._in_group_machine
                != self._masters[self._in_group_anchor]
            )
            if remote.any():
                pair = (
                    self._in_group_machine[remote].astype(np.int64)
                    * state.num_machines
                    + self._masters[self._in_group_anchor[remote]]
                )
                counts = np.bincount(
                    pair, minlength=state.num_machines**2
                ).reshape(state.num_machines, state.num_machines)
                state.send_pair_matrix(counts, kind="gather")
        return gather_sums

    def _sync(self, changed_mask: np.ndarray) -> None:
        """Master-to-mirror synchronization of changed vertices."""
        state = self.state
        if not changed_mask.any():
            return
        records = state.replication.sync_record_matrix(changed_mask)
        state.send_pair_matrix(records, kind="sync")
        # Mirrors apply the cached update: 1 op per record received.
        state.charge_many(records.sum(axis=0), phase="sync")

    def _scatter(
        self, active_idx: np.ndarray, signal_mask: np.ndarray | None
    ) -> np.ndarray:
        """Deliver activation signals along out-edges; return next frontier."""
        state = self.state
        n = state.num_vertices
        next_active = np.zeros(n, dtype=bool)
        if signal_mask is None:
            return next_active
        if signal_mask.shape != active_idx.shape:
            raise EngineError("signal_mask misaligned with frontier")
        signalers = active_idx[signal_mask]
        if signalers.size == 0:
            return next_active

        signaling_vertex = np.zeros(n, dtype=bool)
        signaling_vertex[signalers] = True
        edge_on = signaling_vertex[self._out_edge_anchor]
        if not edge_on.any():
            return next_active
        hosts = self._out_edge_host[edge_on].astype(np.int64)
        targets = self._out_edge_target[edge_on]
        next_active[targets] = True

        # Signals to the same target from the same machine combine into
        # one record (PowerGraph's message combiner).
        pair_keys = sorted_unique(hosts * n + targets)
        host_u = pair_keys // n
        target_u = pair_keys % n
        dest = self._masters[target_u].astype(np.int64)
        remote = host_u != dest
        if remote.any():
            counts = np.bincount(
                host_u[remote] * state.num_machines + dest[remote],
                minlength=state.num_machines**2,
            ).reshape(state.num_machines, state.num_machines)
            state.send_pair_matrix(counts, kind="scatter")
        # CPU: one op per scanned out-edge on its hosting machine.
        state.charge_many(
            np.bincount(hosts, minlength=state.num_machines).astype(np.int64),
            phase="scatter",
        )
        return next_active
