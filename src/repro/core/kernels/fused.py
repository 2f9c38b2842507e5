"""Numpy passes of the batched superstep.

Each pass is a handful of whole-frontier numpy calls over the
concatenated ``(lane, vertex)`` frontier.  From the sync coins to the
edge pick they keep the coins' own (frontier rows x machines) shape:
:meth:`FusedPasses.enabled_groups` gathers the rows' block of the dense
group widths (:class:`~.layout.DenseGroupTables`) and masks it with the
coin matrix; repair, totals and both scatter expansions are
element-wise passes and row / column reductions of that block, and no
per-group index list is built.  The block is 0.81 full on the
benchmark's R-MAT scale-15 graph at 16 machines, 0.35-0.43 on
``twitter_like(50k)``; at 64 machines (fill 0.12) the ragged lists it
replaced were cheaper (README, "Cost model").  The frog-record dedupe
is one sort; the births and the next-frontier reduction are one sort,
or one count when the key range is within a few times the keys
(:func:`count_keys`).

A single run is the batch of one lane, so nothing here may cost more
at B = 1 than the runner it replaced: with one lane the lane arrays are
never built — a hop's key is its destination, a frog record's key is
``host * n + dest`` and the per-lane totals are the column counts.

The superstep in ``core/batched.py`` draws every random number itself
and calls :class:`FusedPasses` for everything deterministic.
"""

from __future__ import annotations

import numpy as np

from ...engine import count_marks_by_key
from ...graph import sorted_unique
from ..frogwild import _pick_enabled_edges, _ranges_to_indices

__all__ = ["FusedPasses", "count_keys"]

# Key range per key at or below which distinct keys are counted by one
# bincount over the range instead of a sort of the keys.
_RANGE_PER_KEY_COUNT = 4


def count_keys(keys: np.ndarray, num_keys: int):
    """Sorted distinct ``keys`` (in ``[0, num_keys)``) and their counts:
    ``np.unique(keys, return_counts=True)``, by a bincount over the range
    when it is at most 4x the keys (a served batch's sparse keys still
    sort).  The rule reads the two sizes only."""
    if num_keys <= _RANGE_PER_KEY_COUNT * keys.size:
        counts = np.bincount(keys, minlength=num_keys)
        distinct = np.flatnonzero(counts)
        return distinct, counts[distinct]
    return np.unique(keys, return_counts=True)


class FusedPasses:
    """The deterministic superstep passes as whole-frontier numpy calls.

    Stateful within a superstep: :meth:`enabled_groups` opens the
    scatter frontier and keeps its (rows x machines) width block for
    the passes after it.
    """

    def __init__(
        self,
        tables,
        dense,
        *,
        num_lanes: int,
        num_machines: int,
        num_vertices: int,
    ) -> None:
        self.tables = tables
        self.dense = dense
        self.num_lanes = int(num_lanes)
        self.num_machines = int(num_machines)
        self.num_vertices = int(num_vertices)

    # -- apply ----------------------------------------------------------
    def apply(self, counts, lane_ids, verts, dead, k):
        # (lane, vertex) keys are unique, so the fancy add is exact.
        counts.reshape(-1)[lane_ids * self.num_vertices + verts] += dead
        return np.bincount(
            self.tables.masters[verts], weights=k, minlength=self.num_machines
        ).astype(np.int64)

    # -- enabled groups -------------------------------------------------
    def enabled_groups(self, lane_sv, vert_sv, fresh):
        ptr = self.tables.vertex_ptr
        self.lane_sv, self.vert_sv = lane_sv, vert_sv
        # Kept in the dense tables' int32: the running sums below
        # accumulate in int64 (numpy widens cumsum; the row sums ask).
        self.sizes = self.dense.size_vm.take(vert_sv, axis=0)
        # Out-edges behind each (row, machine) cell that may scatter.
        self.width = self.sizes * fresh
        groups_per_row = np.einsum(
            "ij->i", (self.width > 0).view(np.int8), dtype=np.int64
        )
        return groups_per_row, ptr[vert_sv + 1] - ptr[vert_sv]

    def force_groups(self, rows, groups) -> None:
        machines = self.tables.group_machine[groups]
        self.width[rows, machines] = self.sizes[rows, machines]

    def enabled_totals(self):
        edges = np.einsum("ij->i", self.width, dtype=np.int64)
        if self.num_lanes == 1:
            by_machine = np.count_nonzero(self.width, axis=0)
            return edges, by_machine, by_machine.sum(keepdims=True)
        by_lane = count_marks_by_key(
            self.lane_sv, self.width > 0, self.num_lanes
        )
        return edges, by_lane.sum(axis=0), by_lane.sum(axis=1)

    # -- scatter --------------------------------------------------------
    def _group_starts(self):
        return self.dense.start_vm.take(self.vert_sv, axis=0).reshape(-1)

    def expand_multinomial(self, k_send, edge_counts, draw):
        """Split each row's frogs uniformly over its enabled edges."""
        frog_row = np.repeat(np.arange(k_send.size, dtype=np.int64), k_send)
        chosen = _pick_enabled_edges(
            self.width.reshape(-1), self._group_starts(), edge_counts,
            frog_row, draw,
        )
        dest = self.tables.edge_target[chosen]
        host = self.tables.edge_host[chosen]
        scatter_ops = np.bincount(host, minlength=self.num_machines)
        if self.num_lanes == 1:
            return dest, host, None, dest, scatter_ops
        frog_lane = self.lane_sv[frog_row]
        return (
            dest,
            host,
            frog_lane,
            frog_lane * self.num_vertices + dest,
            scatter_ops,
        )

    def expand_binomial(self, k_sv, edge_counts, lane_ps):
        """Paper pseudocode: Bin(K, 1/(d_out ps)) per enabled edge."""
        width = self.width.reshape(-1)
        on = np.flatnonzero(width)
        sizes_on = width[on]
        chosen = _ranges_to_indices(self._group_starts()[on], sizes_on)
        row_pos = np.repeat(on // self.num_machines, sizes_on)
        edge_lane = self.lane_sv[row_pos]
        p_eff = np.maximum(lane_ps[edge_lane], 1e-12)
        prob = np.minimum(
            1.0,
            1.0 / (self.tables.out_degree[self.vert_sv[row_pos]] * p_eff),
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
        if self.num_lanes == 1:
            return dest, hop_weights, None, host, dest, scatter_ops, lane_hops
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
        """Combined (lane, host, dest) records as per-lane (host, dest
        master) counts; ``frog_lane`` is None with one lane."""
        masters = self.tables.masters
        B, M, n = self.num_lanes, self.num_machines, self.num_vertices
        if frog_lane is None:
            pair_u = sorted_unique(host * n + dest)
            lane_u = 0
        else:
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
            # frog, so counting the keys yields the frontier directly.
            unique_next, counts = count_keys(hop_keys, self.num_lanes * n)
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
