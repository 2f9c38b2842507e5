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
replaced were cheaper (README, "Cost model").  The multinomial edge
pick (:func:`_pick_enabled_edges`) searches the running sum of that
block's widths.  The apply pass keeps no counter: it hands back the
superstep's deaths as one run of ``(lane * n + vertex, count)`` stop
records, which the runner sums once after the cut-off.  Combining frog
records, the births, the next-frontier reduction and that stop sum are
each one count when the key range is within a few times the keys
(:func:`count_keys`' rule), and one sort otherwise: the records are
counted as a (lane, dest) x host bitmap.  Every nonzero scan of the
block reads its bool mask of enabled cells, never the integer widths.

A single run is the batch of one lane, so nothing here may cost more
at B = 1 than the runner it replaced: with one lane the lane arrays are
never built — a hop's key is its destination, a frog record's bitmap
row is its destination and the per-lane totals are the column counts.

The superstep in ``core/batched.py`` draws every random number itself
and calls :class:`FusedPasses` for everything deterministic.
"""

from __future__ import annotations

import numpy as np

from ...engine import count_marks_by_key
from ...graph import sorted_unique

__all__ = ["FusedPasses", "count_keys"]

# Key range per key at or below which distinct keys are counted by one
# bincount over the range instead of a sort of the keys.
_RANGE_PER_KEY_COUNT = 4


def count_keys(keys: np.ndarray, num_keys: int, weights=None):
    """Sorted distinct ``keys`` (in ``[0, num_keys)``) and how often each
    occurs, ``np.unique(keys, return_counts=True)`` — or, given positive
    integer ``weights`` aligned with the keys, each key's weight sum as
    int64 (exact below 2**53).  A bincount over the range when it is at
    most 4x the keys, else a sort (a served batch's sparse keys); the
    weighted sort sums each run of equal keys with ``np.add.reduceat``.
    The rule reads the two sizes only.  The one keyed sum of the
    package: births, the next frontier, the stop records and the shard
    merge all go through it."""
    if num_keys <= _RANGE_PER_KEY_COUNT * keys.size:
        sums = np.bincount(keys, weights=weights, minlength=num_keys)
        distinct = np.flatnonzero(sums != 0)
        return distinct, sums[distinct].astype(np.int64, copy=False)
    if weights is None:
        return np.unique(keys, return_counts=True)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(
        weights[order], starts, dtype=np.int64
    )


def _ranges_to_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for every (s, l) pair, each
    ``l`` positive, as int64: one running sum of steps that are 1 inside
    a range and jump from one range's last id to the next one's start."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    # Position p of range i holds p + (s_i - offset_i); int64 throughout.
    base = starts - ends + lengths
    steps = np.ones(int(ends[-1]), dtype=np.int64)
    steps[0] = starts[0]
    steps[ends[:-1]] = np.diff(base) + 1
    return np.cumsum(steps, out=steps)


# Enabled out-edges per hopping frog above which the multinomial pick
# searches the group table instead of listing the edges (the branches
# cross between 5 and 9 on the reference host: listing wins by 2x at
# E/F = 1.3, the search by 3-4x at E/F = 40-75).
_EDGES_PER_FROG_SEARCH = 8


def _pick_enabled_edges(
    width: np.ndarray,
    group_start: np.ndarray,
    enabled_counts: np.ndarray,
    row_of_frog: np.ndarray,
    draw: np.ndarray,
) -> np.ndarray:
    """The out-edge each hopping frog takes: uniform over its row's
    enabled edges, ``draw`` in [0, 1) choosing by position.

    ``width`` / ``group_start`` describe machine groups of the scatter
    rows flattened in (row, machine) order — enabled out-edges behind
    each and its first edge id.  A disabled group reads width 0, as
    does a machine without a group in the fused passes' (rows x
    machines) block.
    ``enabled_counts`` are the enabled out-edges per row and
    ``row_of_frog`` (non-decreasing) the row each draw belongs to.
    Frog f takes the ``floor(draw[f] * enabled_counts[row])``-th
    enabled edge of its row, i.e. position ``pick`` of the concatenated
    enabled edge list of all rows.

    That list has one entry per enabled out-edge of the frontier, which
    on a skewed graph is far more than the frogs that choose from it.
    When it is, ``pick`` is resolved against the running sum of the
    widths instead — O(frogs log groups), no per-edge array — and when
    the frogs are as many as the edges, listing the edges once and
    gathering is cheaper; the listing skips the zero-width cells, which
    on a low-fill block are most of them.  Both branches return the
    same array; the rule reads only the two sizes.
    """
    row_end = np.cumsum(enabled_counts)
    pick = (row_end - enabled_counts)[row_of_frog] + (
        draw * enabled_counts[row_of_frog]
    ).astype(np.int64)
    if row_end[-1] <= _EDGES_PER_FROG_SEARCH * draw.size:
        cells = np.flatnonzero(width > 0)
        return _ranges_to_indices(group_start[cells], width[cells])[pick]
    cum = np.cumsum(width)
    g = np.searchsorted(cum, pick, side="right")
    return group_start[g] + (pick - (cum[g] - width[g]))


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
    def apply(self, lane_ids, verts, dead, k):
        """Per-machine apply ops, and the superstep's deaths as one run
        of ``(lane * n + vertex, count)`` stop records, in the
        frontier's order (rows where no frog died dropped)."""
        died = dead > 0
        ops = np.bincount(
            self.tables.masters[verts], weights=k, minlength=self.num_machines
        ).astype(np.int64)
        return ops, lane_ids[died] * self.num_vertices + verts[died], dead[died]

    # -- enabled groups -------------------------------------------------
    def enabled_groups(self, lane_sv, vert_sv, fresh):
        ptr = self.tables.vertex_ptr
        self.lane_sv, self.vert_sv = lane_sv, vert_sv
        # Kept in the dense tables' int32: the running sums below
        # accumulate in int64 (numpy widens cumsum; the row sums ask).
        self.sizes = self.dense.size_vm.take(vert_sv, axis=0)
        # Out-edges behind each (row, machine) cell that may scatter,
        # and the mask of the cells that do: every later scan of the
        # block reads the mask (numpy scans bool several times faster
        # than int32).
        self.width = self.sizes * fresh
        self.on = self.width > 0
        groups_per_row = np.einsum(
            "ij->i", self.on.view(np.int8), dtype=np.int64
        )
        return groups_per_row, ptr[vert_sv + 1] - ptr[vert_sv]

    def force_groups(self, rows, groups) -> None:
        machines = self.tables.group_machine[groups]
        self.width[rows, machines] = self.sizes[rows, machines]
        self.on[rows, machines] = True

    def enabled_totals(self):
        edges = np.einsum("ij->i", self.width, dtype=np.int64)
        if self.num_lanes == 1:
            by_machine = np.einsum(
                "ij->j", self.on.view(np.int8), dtype=np.int64
            )
            return edges, by_machine, by_machine.sum(keepdims=True)
        by_lane = count_marks_by_key(self.lane_sv, self.on, self.num_lanes)
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
        # Widened once: the tables are int32 where they fit, and numpy
        # converts an int32 index array on every later use.
        dest = self.tables.edge_target[chosen].astype(np.int64, copy=False)
        host = self.tables.edge_host[chosen].astype(np.int64, copy=False)
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
        on = np.flatnonzero(self.on)
        sizes_on = self.width.reshape(-1)[on]
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
        dest = tables.edge_target[edges].astype(np.int64, copy=False)
        host = tables.edge_host[edges].astype(np.int64, copy=False)
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
    def frog_records(self, frog_lane, host, dest):
        """Combined (lane, host, dest) records as the per-lane (B x M x
        M) matrix of (host, dest master) counts; ``frog_lane`` is None
        with one lane.

        A record is a distinct (lane, host, dest) triple whose host is
        not dest's master.  When the (lane, dest) x host bitmap is within
        a few cells per hop (:func:`count_keys`' rule and constant) the
        triples are marked in it and counted by
        :func:`~repro.engine.count_marks_by_key` under the row key
        ``lane * M + master(dest)``; a served batch's sparse triples
        still sort.  Both branches return the same matrix.
        """
        masters = self.tables.masters
        B, M, n = self.num_lanes, self.num_machines, self.num_vertices
        # The keys scale dest and host: int64, or an int32 table wraps
        # them once n * M reaches 2**31.
        host = host.astype(np.int64, copy=False)
        dest = dest.astype(np.int64, copy=False)
        if B * n * M <= _RANGE_PER_KEY_COUNT * host.size:
            rows = dest if frog_lane is None else frog_lane * n + dest
            marked = np.zeros((B * n, M), dtype=bool)
            marked.reshape(-1)[rows * M + host] = True
            row_key = (np.arange(0, B * M, M)[:, None] + masters).reshape(-1)
            # [lane, master, host] -> [lane, host, master]; a frog
            # delivered on its destination's master is no record.
            by_host = count_marks_by_key(row_key, marked, B * M).reshape(
                B, M, M
            ).transpose(0, 2, 1)
            by_host[:, np.arange(M), np.arange(M)] = 0
            return by_host
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
        return np.bincount(
            ((lane_u * M + host_u) * M + dest_master)[remote],
            minlength=B * M * M,
        ).reshape(B, M, M)

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
        unique_next, counts = count_keys(
            keys, self.num_lanes * n, weights=weights
        )
        return unique_next // n, unique_next % n, counts
