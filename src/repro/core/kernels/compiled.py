"""Numba-compiled single-pass loops: the ``"compiled"`` pass tier.

The numpy passes (:mod:`.fused`) are memory-bound: every hot pass
streams the full concatenated frontier through
``np.unique``/``searchsorted``/multi-``bincount`` chains, each of which
sorts or re-reads large temporaries.  The passes here replace those
chains with single compiled loops over the same inputs:

* enabled-group counting and the scatter expansions walk the CSR group
  ranges directly instead of materializing ``repeat``/gather arrays;
* the frog-record dedupe accumulates into a dense seen-map (or a single
  sort + scan when the key space is too large to keep dense), replacing
  two ``np.unique`` sorts per superstep;
* the next-frontier reduction scatter-adds into a persistent dense
  count map and sorts only the *touched* keys, replacing the
  ``np.unique(..., return_counts)`` sort of every hop key.

**No pass draws a random number** — the superstep in
``core/batched.py`` makes every draw itself, in numpy, sliced per lane
— so the compiled tier is bitwise identical to ``kernel="fused"`` by
construction (pinned in ``tests/test_compiled_kernel.py``).

Numba is optional (the ``[accel]`` extra).  Each pass is written as a
plain-Python loop and jitted at import when Numba is importable; when
it is not, the loops remain callable as pure Python — unusably slow
for production (the selection layer in ``kernels/__init__`` falls back
to ``"fused"`` with one warning) but exactly right for pinning parity
in tests via ``REPRO_COMPILED_FORCE=python``.
"""

from __future__ import annotations

import os

import numpy as np

from .arena import BufferArena
from .layout import (
    CompiledTables,
    l2_tile_bytes,
    lane_key_dtype,
    plan_tiles,
)

__all__ = ["HAVE_NUMBA", "CompiledPasses"]

try:  # pragma: no cover - exercised only on numba-equipped hosts
    from numba import njit as _numba_njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _numba_njit = None
    HAVE_NUMBA = False


def _jit(fn):
    """njit when Numba is importable; the plain function otherwise."""
    if _numba_njit is None:
        return fn
    return _numba_njit(cache=True)(fn)


# Dense accumulators above this footprint switch to sort+scan passes.
def _dense_budget_bytes() -> int:
    return int(os.environ.get("REPRO_COMPILED_DENSE_BUDGET", str(1 << 28)))


# ----------------------------------------------------------------------
# apply(): death scatter-add + per-machine op charge
# ----------------------------------------------------------------------
@_jit
def _apply_pass(counts_flat, lane_ids, verts, dead, k, masters, apply_ops, n):
    for j in range(lane_ids.shape[0]):
        v = int(verts[j])
        counts_flat[int(lane_ids[j]) * n + v] += dead[j]
        apply_ops[masters[v]] += k[j]


# ----------------------------------------------------------------------
# enabled groups: CSR walk instead of repeat/gather materialization
# ----------------------------------------------------------------------
@_jit
def _enabled_groups_pass(
    vert_sv, fresh, vertex_ptr, groups_per_row, g_count, group_machine
):
    for r in range(vert_sv.shape[0]):
        v = int(vert_sv[r])
        lo = int(vertex_ptr[v])
        hi = int(vertex_ptr[v + 1])
        g_count[r] = hi - lo
        c = 0
        for gi in range(lo, hi):
            if fresh[r, group_machine[gi]]:
                c += 1
        groups_per_row[r] = c


@_jit
def _enabled_totals_pass(
    vert_sv,
    lane_sv,
    fresh,
    forced_g,
    vertex_ptr,
    group_machine,
    group_sizes,
    edge_counts,
    machine_groups,
    lane_groups,
):
    for r in range(vert_sv.shape[0]):
        fg = int(forced_g[r])
        lane = int(lane_sv[r])
        if fg >= 0:
            # Repaired row: exactly one (uniformly re-enabled) group.
            edge_counts[r] = group_sizes[fg]
            machine_groups[group_machine[fg]] += 1
            lane_groups[lane] += 1
            continue
        v = int(vert_sv[r])
        e = 0
        for gi in range(int(vertex_ptr[v]), int(vertex_ptr[v + 1])):
            m = group_machine[gi]
            if fresh[r, m]:
                e += int(group_sizes[gi])
                machine_groups[m] += 1
                lane_groups[lane] += 1
        edge_counts[r] = e


# ----------------------------------------------------------------------
# scatter(): multinomial expansion — one loop replaces the
# repeat/cumsum/fancy-gather chain of the fused kernel
# ----------------------------------------------------------------------
@_jit
def _expand_multinomial_pass(
    tile_bounds,
    vert_sv,
    lane_sv,
    k_send,
    edge_counts,
    forced_g,
    fresh,
    vertex_ptr,
    group_machine,
    group_start,
    group_sizes,
    edge_target,
    edge_host,
    draw,
    out_offsets,
    dest,
    host,
    frog_lane,
    hop_keys,
    scatter_ops,
    n,
):
    for t in range(tile_bounds.shape[0] - 1):
        for r in range(int(tile_bounds[t]), int(tile_bounds[t + 1])):
            k = int(k_send[r])
            if k == 0:
                continue
            base = int(out_offsets[r])
            cnt = int(edge_counts[r])
            lane = int(lane_sv[r])
            v = int(vert_sv[r])
            fg = int(forced_g[r])
            lo = int(vertex_ptr[v])
            hi = int(vertex_ptr[v + 1])
            for f in range(k):
                # Same truncation as the fused kernel's
                # (draw * enabled_counts).astype(int64).
                pick = int(draw[base + f] * cnt)
                gi = fg
                local = pick
                if fg < 0:
                    acc = 0
                    for g in range(lo, hi):
                        if fresh[r, group_machine[g]]:
                            s = int(group_sizes[g])
                            if pick < acc + s:
                                gi = g
                                local = pick - acc
                                break
                            acc += s
                e = int(group_start[gi]) + local
                d = int(edge_target[e])
                h = int(edge_host[e])
                dest[base + f] = d
                host[base + f] = h
                frog_lane[base + f] = lane
                hop_keys[base + f] = lane * n + d
                scatter_ops[h] += 1


# ----------------------------------------------------------------------
# scatter(): binomial candidate expansion + post-draw compaction
# ----------------------------------------------------------------------
@_jit
def _expand_binomial_pass(
    tile_bounds,
    vert_sv,
    lane_sv,
    k_sv,
    forced_g,
    fresh,
    vertex_ptr,
    group_machine,
    group_start,
    group_sizes,
    out_degree,
    lane_ps,
    out_offsets,
    chosen,
    k_per_edge,
    prob,
    edge_lane,
):
    for t in range(tile_bounds.shape[0] - 1):
        for r in range(int(tile_bounds[t]), int(tile_bounds[t + 1])):
            idx = int(out_offsets[r])
            lane = int(lane_sv[r])
            v = int(vert_sv[r])
            k = int(k_sv[r])
            if int(out_degree[v]) == 0:
                continue  # dangling: no groups, no candidate edges
            pe = lane_ps[lane]
            if pe < 1e-12:
                pe = 1e-12
            # Same float64 op order as the fused kernel's
            # minimum(1, 1 / (out_degree * p_eff)).
            p = 1.0 / (out_degree[v] * pe)
            if p > 1.0:
                p = 1.0
            fg = int(forced_g[r])
            if fg >= 0:
                st = int(group_start[fg])
                for e in range(int(group_sizes[fg])):
                    chosen[idx] = st + e
                    k_per_edge[idx] = k
                    prob[idx] = p
                    edge_lane[idx] = lane
                    idx += 1
                continue
            for g in range(int(vertex_ptr[v]), int(vertex_ptr[v + 1])):
                if fresh[r, group_machine[g]]:
                    st = int(group_start[g])
                    for e in range(int(group_sizes[g])):
                        chosen[idx] = st + e
                        k_per_edge[idx] = k
                        prob[idx] = p
                        edge_lane[idx] = lane
                        idx += 1


@_jit
def _binomial_post_pass(
    chosen,
    edge_lane,
    sent,
    edge_target,
    edge_host,
    hop_keys,
    hop_weights,
    hop_lane,
    hop_host,
    hop_dest,
    scatter_ops,
    lane_hops,
    n,
):
    t = 0
    for j in range(chosen.shape[0]):
        s = int(sent[j])
        if s == 0:
            continue
        e = int(chosen[j])
        d = int(edge_target[e])
        h = int(edge_host[e])
        lane = int(edge_lane[j])
        hop_keys[t] = lane * n + d
        hop_weights[t] = s
        hop_lane[t] = lane
        hop_host[t] = h
        hop_dest[t] = d
        t += 1
        scatter_ops[h] += s
        lane_hops[lane] += s
    return t


# ----------------------------------------------------------------------
# frog records: unique (lane, host, dest) triples -> per-lane demand
# (and unique (host, dest) pairs under wire dedupe) without np.unique
# ----------------------------------------------------------------------
@_jit
def _frog_records_dense(frog_lane, host, dest, masters, seen, touched, demand, M, n):
    t = 0
    for j in range(frog_lane.shape[0]):
        lane = int(frog_lane[j])
        h = int(host[j])
        d = int(dest[j])
        key = (lane * M + h) * n + d
        if seen[key] == 0:
            seen[key] = 1
            touched[t] = key
            t += 1
            dm = int(masters[d])
            if h != dm:
                demand[lane, h, dm] += 1
    for i in range(t):
        seen[int(touched[i])] = 0


@_jit
def _dedupe_pairs_dense(host, dest, masters, seen_pair, touched, phys, n):
    t = 0
    for j in range(host.shape[0]):
        h = int(host[j])
        d = int(dest[j])
        dm = int(masters[d])
        if h == dm:
            continue
        key = h * n + d
        if seen_pair[key] == 0:
            seen_pair[key] = 1
            touched[t] = key
            t += 1
            phys[h, dm] += 1
    for i in range(t):
        seen_pair[int(touched[i])] = 0


@_jit
def _triple_keys_pass(frog_lane, host, dest, out, M, n):
    for j in range(frog_lane.shape[0]):
        out[j] = (int(frog_lane[j]) * M + int(host[j])) * n + int(dest[j])


@_jit
def _frog_records_sorted(sorted_keys, masters, demand, pair_scratch, M, n):
    t = 0
    prev = -1
    for j in range(sorted_keys.shape[0]):
        key = int(sorted_keys[j])
        if key == prev:
            continue
        prev = key
        d = key % n
        rest = key // n
        h = rest % M
        lane = rest // M
        dm = int(masters[d])
        if h != dm:
            demand[lane, h, dm] += 1
            pair_scratch[t] = h * n + d
            t += 1
    return t


@_jit
def _pair_counts_sorted(sorted_pairs, masters, phys, n):
    prev = -1
    for j in range(sorted_pairs.shape[0]):
        key = int(sorted_pairs[j])
        if key == prev:
            continue
        prev = key
        phys[key // n, int(masters[key % n])] += 1


# ----------------------------------------------------------------------
# next frontier: dense scatter-add + touched-key sort (or sort + scan)
# ----------------------------------------------------------------------
@_jit
def _reduce_accumulate_ones(keys, dense, seen, touched, t0):
    t = t0
    for j in range(keys.shape[0]):
        key = int(keys[j])
        if seen[key] == 0:
            seen[key] = 1
            touched[t] = key
            t += 1
        dense[key] += 1
    return t


@_jit
def _reduce_accumulate(keys, weights, dense, seen, touched, t0):
    t = t0
    for j in range(keys.shape[0]):
        key = int(keys[j])
        if seen[key] == 0:
            seen[key] = 1
            touched[t] = key
            t += 1
        dense[key] += int(weights[j])
    return t


@_jit
def _reduce_collect(sorted_keys, dense, seen, lane_out, vert_out, count_out, n):
    for i in range(sorted_keys.shape[0]):
        key = int(sorted_keys[i])
        lane_out[i] = key // n
        vert_out[i] = key % n
        count_out[i] = dense[key]
        dense[key] = 0
        seen[key] = 0


@_jit
def _reduce_sorted(sorted_keys, sorted_weights, lane_out, vert_out, count_out, n):
    t = -1
    prev = -1
    for j in range(sorted_keys.shape[0]):
        key = int(sorted_keys[j])
        w = int(sorted_weights[j])
        if key != prev:
            t += 1
            lane_out[t] = key // n
            vert_out[t] = key % n
            count_out[t] = w
            prev = key
        else:
            count_out[t] += w
    return t + 1


# ----------------------------------------------------------------------
# façade
# ----------------------------------------------------------------------
class CompiledPasses:
    """Per-runner state and dispatch for the compiled pass pipeline.

    Owns the :class:`BufferArena`, the int32-narrowed
    :class:`CompiledTables` and the persistent dense accumulators, and
    decides per accumulator whether the dense map fits the working-set
    budget or the sort+scan variant runs instead (same results either
    way; the choice is pure bandwidth).  Stateful within a superstep:
    :meth:`enabled_groups` opens the scatter frontier the passes after
    it walk.
    """

    def __init__(
        self,
        tables,
        *,
        num_lanes: int,
        num_machines: int,
        num_vertices: int,
    ) -> None:
        self.ct = tables if isinstance(tables, CompiledTables) else CompiledTables(tables)
        self.arena = BufferArena()
        self.num_lanes = int(num_lanes)
        self.num_machines = int(num_machines)
        self.num_vertices = int(num_vertices)
        self.l2_bytes = l2_tile_bytes()
        budget = _dense_budget_bytes()
        B, M, n = self.num_lanes, self.num_machines, self.num_vertices
        # int64 counts + uint8 seen per frontier key; uint8 per triple/pair.
        self.frontier_dense = B * n * 9 <= budget
        self.triple_dense = B * M * n <= budget
        self.pair_dense = M * n <= budget
        self.hop_key_dtype = lane_key_dtype(B, n)
        # Edge/vertex ids always fit the narrowed table dtypes.
        self.id_dtype = self.ct.edge_target.dtype
        self._empty = np.empty(0, dtype=np.int64)

    # -- superstep lifecycle -------------------------------------------
    def begin_superstep(self) -> None:
        self.arena.reset()

    def scratch(self, size: int, dtype) -> np.ndarray:
        return self.arena.take(size, dtype)

    # -- apply ----------------------------------------------------------
    def apply(self, counts, lane_ids, verts, dead, k):
        apply_ops = np.zeros(self.num_machines, dtype=np.int64)
        _apply_pass(
            counts.reshape(-1),
            lane_ids,
            verts,
            dead,
            k,
            self.ct.masters,
            apply_ops,
            self.num_vertices,
        )
        return apply_ops

    # -- enabled groups -------------------------------------------------
    def enabled_groups(self, lane_sv, vert_sv, fresh):
        frontier = vert_sv.size
        self.lane_sv = lane_sv
        self.vert_sv = vert_sv
        self.fresh = fresh
        # A repaired row carries its one re-enabled group here instead
        # of a mutated enabled-group mask.
        self.forced_g = self.arena.take(frontier, np.int64)
        self.forced_g.fill(-1)
        groups_per_row = self.arena.take(frontier, np.int64)
        g_count = self.arena.take(frontier, np.int64)
        _enabled_groups_pass(
            vert_sv,
            fresh,
            self.ct.vertex_ptr,
            groups_per_row,
            g_count,
            self.ct.group_machine,
        )
        return groups_per_row, g_count

    def force_groups(self, rows, groups) -> None:
        self.forced_g[rows] = groups

    def enabled_totals(self):
        edge_counts = self.arena.take(self.vert_sv.size, np.int64)
        machine_groups = np.zeros(self.num_machines, dtype=np.int64)
        lane_groups = np.zeros(self.num_lanes, dtype=np.int64)
        _enabled_totals_pass(
            self.vert_sv,
            self.lane_sv,
            self.fresh,
            self.forced_g,
            self.ct.vertex_ptr,
            self.ct.group_machine,
            self.ct.group_sizes,
            edge_counts,
            machine_groups,
            lane_groups,
        )
        return edge_counts, machine_groups, lane_groups

    # -- scatter --------------------------------------------------------
    def expand_multinomial(self, k_send, edge_counts, draw):
        total = draw.size
        out_offsets = self.arena.take(k_send.size, np.int64)
        np.cumsum(k_send, out=out_offsets)
        out_offsets -= k_send  # exclusive prefix sum
        dest = self.arena.take(total, self.id_dtype)
        host = self.arena.take(total, np.int32)
        frog_lane = self.arena.take(total, np.int32)
        hop_keys = self.arena.take(total, self.hop_key_dtype)
        scatter_ops = np.zeros(self.num_machines, dtype=np.int64)
        # ~bytes per row: its enabled-edge gather plus its hop outputs.
        weights = edge_counts * 12 + k_send * 20
        tile_bounds = plan_tiles(weights, self.l2_bytes)
        _expand_multinomial_pass(
            tile_bounds,
            self.vert_sv,
            self.lane_sv,
            k_send,
            edge_counts,
            self.forced_g,
            self.fresh,
            self.ct.vertex_ptr,
            self.ct.group_machine,
            self.ct.group_start,
            self.ct.group_sizes,
            self.ct.edge_target,
            self.ct.edge_host,
            draw,
            out_offsets,
            dest,
            host,
            frog_lane,
            hop_keys,
            scatter_ops,
            self.num_vertices,
        )
        return dest, host, frog_lane, hop_keys, scatter_ops

    def expand_binomial(self, k_sv, edge_counts, lane_ps):
        total = int(edge_counts.sum())
        out_offsets = self.arena.take(edge_counts.size, np.int64)
        np.cumsum(edge_counts, out=out_offsets)
        out_offsets -= edge_counts
        chosen = self.arena.take(total, self.ct.group_start.dtype)
        k_per_edge = self.arena.take(total, np.int64)
        prob = self.arena.take(total, np.float64)
        edge_lane = self.arena.take(total, np.int64)
        weights = edge_counts * 32
        tile_bounds = plan_tiles(weights, self.l2_bytes)
        _expand_binomial_pass(
            tile_bounds,
            self.vert_sv,
            self.lane_sv,
            k_sv,
            self.forced_g,
            self.fresh,
            self.ct.vertex_ptr,
            self.ct.group_machine,
            self.ct.group_start,
            self.ct.group_sizes,
            self.ct.out_degree,
            lane_ps,
            out_offsets,
            chosen,
            k_per_edge,
            prob,
            edge_lane,
        )
        return chosen, k_per_edge, prob, edge_lane

    def binomial_post(self, chosen, edge_lane, sent):
        count = chosen.size
        hop_keys = self.arena.take(count, self.hop_key_dtype)
        hop_weights = self.arena.take(count, np.int64)
        hop_lane = self.arena.take(count, np.int32)
        hop_host = self.arena.take(count, np.int32)
        hop_dest = self.arena.take(count, self.id_dtype)
        scatter_ops = np.zeros(self.num_machines, dtype=np.int64)
        lane_hops = np.zeros(self.num_lanes, dtype=np.int64)
        t = _binomial_post_pass(
            chosen,
            edge_lane,
            sent,
            self.ct.edge_target,
            self.ct.edge_host,
            hop_keys,
            hop_weights,
            hop_lane,
            hop_host,
            hop_dest,
            scatter_ops,
            lane_hops,
            self.num_vertices,
        )
        return (
            hop_keys[:t],
            hop_weights[:t],
            hop_lane[:t],
            hop_host[:t],
            hop_dest[:t],
            scatter_ops,
            lane_hops,
        )

    # -- frog records ---------------------------------------------------
    def frog_records(self, frog_lane, host, dest, *, dedupe: bool):
        B, M, n = self.num_lanes, self.num_machines, self.num_vertices
        count = frog_lane.size
        demand = np.zeros((B, M, M), dtype=np.int64)
        pair_keys = None
        if self.triple_dense:
            seen = self.arena.persistent("triple_seen", B * M * n, np.uint8)
            touched = self.arena.take(count, np.int64)
            _frog_records_dense(
                frog_lane, host, dest, self.ct.masters, seen, touched, demand, M, n
            )
        else:
            keys = self.arena.take(count, np.int64)
            _triple_keys_pass(frog_lane, host, dest, keys, M, n)
            sorted_keys = np.sort(keys)
            pair_scratch = self.arena.take(count, np.int64)
            t = _frog_records_sorted(
                sorted_keys, self.ct.masters, demand, pair_scratch, M, n
            )
            pair_keys = pair_scratch[:t]
        if not dedupe:
            return demand, None
        phys = np.zeros((M, M), dtype=np.int64)
        if pair_keys is not None:
            _pair_counts_sorted(np.sort(pair_keys), self.ct.masters, phys, n)
        elif self.pair_dense:
            seen_pair = self.arena.persistent("pair_seen", M * n, np.uint8)
            touched = self.arena.take(count, np.int64)
            _dedupe_pairs_dense(
                host, dest, self.ct.masters, seen_pair, touched, phys, n
            )
        else:
            keys = self.arena.take(count, np.int64)
            _triple_keys_pass(
                np.zeros(count, dtype=np.int32), host, dest, keys, M, n
            )
            scratch = self.arena.take(count, np.int64)
            scratch_demand = np.zeros((1, M, M), dtype=np.int64)
            t = _frog_records_sorted(
                np.sort(keys), self.ct.masters, scratch_demand, scratch, M, n
            )
            _pair_counts_sorted(np.sort(scratch[:t]), self.ct.masters, phys, n)
        return demand, phys

    # -- next frontier --------------------------------------------------
    def reduce_frontier(self, hop_keys, hop_weights, idle_keys, idle_weights):
        n = self.num_vertices
        idle_count = 0 if idle_keys is None else idle_keys.size
        total = hop_keys.size + idle_count
        if total == 0:
            return self._empty, self._empty, self._empty
        if self.frontier_dense:
            dense = self.arena.persistent(
                "frontier_dense", self.num_lanes * n, np.int64
            )
            seen = self.arena.persistent(
                "frontier_seen", self.num_lanes * n, np.uint8
            )
            touched = self.arena.take(total, np.int64)
            t = 0
            if hop_keys.size:
                if hop_weights is None:
                    t = _reduce_accumulate_ones(hop_keys, dense, seen, touched, t)
                else:
                    t = _reduce_accumulate(
                        hop_keys, hop_weights, dense, seen, touched, t
                    )
            if idle_count:
                t = _reduce_accumulate(
                    idle_keys, idle_weights, dense, seen, touched, t
                )
            sorted_keys = np.sort(touched[:t])
            lane_out = np.empty(t, dtype=np.int64)
            vert_out = np.empty(t, dtype=np.int64)
            count_out = np.empty(t, dtype=np.int64)
            _reduce_collect(
                sorted_keys, dense, seen, lane_out, vert_out, count_out, n
            )
            return lane_out, vert_out, count_out
        keys = np.empty(total, dtype=np.int64)
        weights = np.empty(total, dtype=np.int64)
        keys[: hop_keys.size] = hop_keys
        if hop_weights is None:
            weights[: hop_keys.size] = 1
        else:
            weights[: hop_keys.size] = hop_weights
        if idle_count:
            keys[hop_keys.size :] = idle_keys
            weights[hop_keys.size :] = idle_weights
        order = np.argsort(keys)
        sorted_keys = keys[order]
        sorted_weights = weights[order]
        lane_out = np.empty(total, dtype=np.int64)
        vert_out = np.empty(total, dtype=np.int64)
        count_out = np.empty(total, dtype=np.int64)
        u = _reduce_sorted(
            sorted_keys, sorted_weights, lane_out, vert_out, count_out, n
        )
        return lane_out[:u], vert_out[:u], count_out[:u]
