"""Numpy passes of the batched superstep: the default ``"fused"`` tier.

Each pass is a handful of whole-frontier numpy calls over the
concatenated ``(lane, vertex)`` frontier: the machine groups of every
frontier row are gathered once per superstep
(:meth:`FusedPasses.enabled_groups`) and every later pass — repair,
totals, the two scatter expansions — reads that one gather, so a
``bincount``/gather touches all populations at once instead of once per
lane.  The frog-record dedupe and the next-frontier reduction are one
sort each (``sorted_unique`` / ``np.unique``).

:class:`FusedPasses` and :class:`~.compiled.CompiledPasses` implement
the same interface (see :mod:`repro.core.kernels`); the superstep in
``core/batched.py`` draws every random number itself and calls one of
them for everything deterministic.
"""

from __future__ import annotations

import numpy as np

from ...graph import sorted_unique
from ..frogwild import _pick_enabled_edges, _ranges_to_indices

__all__ = ["FusedPasses"]


class FusedPasses:
    """The deterministic superstep passes as whole-frontier numpy calls.

    Stateful within a superstep: :meth:`enabled_groups` opens the
    scatter frontier and keeps its group gather for the passes after it.
    """

    def __init__(
        self,
        tables,
        *,
        num_lanes: int,
        num_machines: int,
        num_vertices: int,
    ) -> None:
        self.tables = tables
        self.num_lanes = int(num_lanes)
        self.num_machines = int(num_machines)
        self.num_vertices = int(num_vertices)

    # -- superstep lifecycle -------------------------------------------
    def begin_superstep(self) -> None:
        """Nothing to recycle: numpy allocates per pass."""

    def scratch(self, size: int, dtype) -> np.ndarray:
        return np.empty(size, dtype=dtype)

    # -- apply ----------------------------------------------------------
    def apply(self, counts, lane_ids, verts, dead, k):
        # (lane, vertex) keys are unique, so the fancy add is exact.
        counts.reshape(-1)[lane_ids * self.num_vertices + verts] += dead
        return np.bincount(
            self.tables.masters[verts], weights=k, minlength=self.num_machines
        ).astype(np.int64)

    # -- enabled groups -------------------------------------------------
    def enabled_groups(self, lane_sv, vert_sv, fresh):
        tables = self.tables
        frontier = vert_sv.size
        self.lane_sv = lane_sv
        self.vert_sv = vert_sv
        self.g_lo = tables.vertex_ptr[vert_sv]
        self.g_count = tables.vertex_ptr[vert_sv + 1] - self.g_lo
        self.grp_idx = _ranges_to_indices(self.g_lo, self.g_count)
        self.grp_row = np.repeat(
            np.arange(frontier, dtype=np.int64), self.g_count
        )
        self.grp_machine = tables.group_machine[self.grp_idx]
        self.grp_sizes = tables.group_sizes[self.grp_idx]
        self.enabled_grp = fresh[self.grp_row, self.grp_machine]
        groups_per_row = np.bincount(
            self.grp_row, weights=self.enabled_grp, minlength=frontier
        ).astype(np.int64)
        return groups_per_row, self.g_count

    def force_groups(self, rows, groups) -> None:
        block_offsets = np.concatenate([[0], np.cumsum(self.g_count)[:-1]])
        self.enabled_grp[block_offsets[rows] + groups - self.g_lo[rows]] = True

    def enabled_totals(self):
        enabled = self.enabled_grp
        edge_counts = np.bincount(
            self.grp_row,
            weights=enabled * self.grp_sizes,
            minlength=self.vert_sv.size,
        ).astype(np.int64)
        machine_groups = np.bincount(
            self.grp_machine[enabled], minlength=self.num_machines
        )
        lane_groups = np.bincount(
            self.lane_sv[self.grp_row[enabled]], minlength=self.num_lanes
        )
        return edge_counts, machine_groups, lane_groups

    # -- scatter --------------------------------------------------------
    def expand_multinomial(self, k_send, edge_counts, draw):
        """Split each row's frogs uniformly over its enabled edges."""
        tables = self.tables
        frog_row = np.repeat(np.arange(k_send.size, dtype=np.int64), k_send)
        chosen = _pick_enabled_edges(
            tables, self.grp_idx, self.grp_sizes, self.enabled_grp,
            edge_counts, frog_row, draw,
        )
        dest = tables.edge_target[chosen]
        host = tables.edge_host[chosen]
        frog_lane = self.lane_sv[frog_row]
        return (
            dest,
            host,
            frog_lane,
            frog_lane * self.num_vertices + dest,
            np.bincount(host, minlength=self.num_machines),
        )

    def expand_binomial(self, k_sv, edge_counts, lane_ps):
        """Paper pseudocode: Bin(K, 1/(d_out ps)) per enabled edge."""
        tables = self.tables
        on = np.flatnonzero(self.enabled_grp)
        sizes_on = self.grp_sizes[on]
        chosen = _ranges_to_indices(
            tables.group_start[self.grp_idx[on]], sizes_on
        )
        row_pos = np.repeat(self.grp_row[on], sizes_on)
        edge_lane = self.lane_sv[row_pos]
        p_eff = np.maximum(lane_ps[edge_lane], 1e-12)
        prob = np.minimum(
            1.0, 1.0 / (tables.out_degree[self.vert_sv[row_pos]] * p_eff)
        )
        return chosen, k_sv[row_pos], prob, edge_lane

    def binomial_post(self, chosen, edge_lane, sent):
        tables = self.tables
        nonzero = sent > 0
        edges = chosen[nonzero]
        dest = tables.edge_target[edges]
        host = tables.edge_host[edges]
        hop_lane = edge_lane[nonzero]
        hop_weights = sent[nonzero]
        # One op per frog on the hosting machine; float64 weights are
        # exact for any frog count below 2**53.
        scatter_ops = np.bincount(
            host, weights=hop_weights, minlength=self.num_machines
        ).astype(np.int64)
        lane_hops = np.bincount(
            hop_lane, weights=hop_weights, minlength=self.num_lanes
        ).astype(np.int64)
        return (
            hop_lane * self.num_vertices + dest,
            hop_weights,
            hop_lane,
            host,
            dest,
            scatter_ops,
            lane_hops,
        )

    # -- frog records ---------------------------------------------------
    def frog_records(self, frog_lane, host, dest, *, dedupe: bool):
        masters = self.tables.masters
        B, M, n = self.num_lanes, self.num_machines, self.num_vertices
        unique_keys = sorted_unique((frog_lane * M + host) * n + dest)
        lane_u = unique_keys // (M * n)
        pair_u = unique_keys % (M * n)
        host_u = pair_u // n
        dest_master = masters[pair_u % n].astype(np.int64)
        remote = host_u != dest_master
        demand = np.bincount(
            ((lane_u * M + host_u) * M + dest_master)[remote],
            minlength=B * M * M,
        ).reshape(B, M, M)
        if not dedupe:
            return demand, None
        phys_keys = sorted_unique(pair_u[remote])
        phys = np.bincount(
            phys_keys // n * M + masters[phys_keys % n].astype(np.int64),
            minlength=M * M,
        ).reshape(M, M)
        return demand, phys

    # -- next frontier --------------------------------------------------
    def reduce_frontier(self, hop_keys, hop_weights, idle_keys, idle_weights):
        n = self.num_vertices
        if idle_keys is None and hop_weights is None:
            # Hot path (multinomial, no idling): every hop lands one
            # frog, so the unique pass yields the counts directly.
            unique_next, counts = np.unique(hop_keys, return_counts=True)
            return unique_next // n, unique_next % n, counts
        if hop_weights is None:
            hop_weights = np.ones(hop_keys.size, dtype=np.int64)
        if idle_keys is None:
            keys, weights = hop_keys, hop_weights
        else:
            keys = np.concatenate([idle_keys, hop_keys])
            weights = np.concatenate([idle_weights, hop_weights])
        unique_next, inverse = np.unique(keys, return_inverse=True)
        counts = np.bincount(
            inverse, weights=weights, minlength=unique_next.size
        ).astype(np.int64)
        return unique_next // n, unique_next % n, counts
