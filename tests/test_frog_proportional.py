"""Frog-proportional scatter and births: cost follows the walkers.

The multinomial scatter used to list every enabled out-edge of the
frontier before indexing the list once per frog; ``_pick_enabled_edges``
resolves the same pick against the running sum of the enabled group
widths when the edges outnumber the frogs.  The fused passes call it
with the flat widths and group starts of the row-major (rows x
machines) block, absent cells reading width 0.  Five families of
guarantees:

* ``_pick_enabled_edges`` equals the materializing expansion — kept
  here as :func:`_reference_pick`, the oracle — on either side of its
  rule, with disabled groups, rows kept alive by a single (repaired)
  group, zero-width groups, rows without frogs, and the group list
  ragged, with absent cells interleaved as in the dense block, or with
  every zero cell dropped as the listing branch does (property-based);
* batch parity where the search branch runs every superstep (a
  hub-heavy graph walked by a few frogs): every lane = the pinned run
  alone of its query (B=3 and B=1, see ``batch_reference.py``);
* ``_births`` from a seed set is ``rng.choice(n, size, p=law)`` over
  its n-length law — same births, same rng state afterwards — at
  O(seeds) (property-based);
* the size rules of a one-lane run: ``count_keys`` is
  ``np.unique(..., return_counts=True)`` on both sides of its range
  rule, for birth and hop keys, and its weighted form is the
  ``np.unique(..., return_inverse=True)`` + weighted bincount sum
  (property-based), and the one-lane shortcuts of the fused
  passes equal their general formulation (property-based);
* a gate that can fail: a served batch calls ``_ranges_to_indices`` in
  no superstep whose enabled edges outnumber its frogs 8 to 1, and no
  array its scatter binds is longer than 2 x (frogs + rows x machines)
  (commit 090d189 lists 5-8x frogs + groups edge ids per step here, and
  1.7M against ~175k on the benchmark's scale-15 graph).
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batch_reference import (
    assert_lanes_match_standalone,
    assert_physical_report_pinned,
    assert_run_pinned,
)
from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    seed_distribution,
)
from repro.core import batched as bt
from repro.core.config import check_seed_set
from repro.core import frogwild as fw
from repro.core.kernels import DenseGroupTables
from repro.core.kernels import fused as fk
from repro.engine import build_cluster
from repro.graph import from_edges, rmat
from repro.serving import RankingQuery, RankingService, ServiceConfig


# ----------------------------------------------------------------------
# _pick_enabled_edges vs the materializing expansion
# ----------------------------------------------------------------------
def _reference_pick(group_start, grp_idx, grp_sizes, enabled_grp,
                    enabled_counts, row_of_frog, draw):
    """The pre-refactor scatter: list every enabled edge, then index."""
    edges = [
        np.arange(group_start[g], group_start[g] + size)
        for g, size, on in zip(grp_idx, grp_sizes, enabled_grp)
        if on
    ]
    enabled_edges = np.concatenate(edges + [np.empty(0, dtype=np.int64)])
    offsets = np.concatenate([[0], np.cumsum(enabled_counts)[:-1]])
    pick = offsets[row_of_frog] + (
        draw * enabled_counts[row_of_frog]
    ).astype(np.int64)
    return enabled_edges[pick]


@st.composite
def _scatter_rows(draw):
    """Rows of machine groups over a shuffled global group table.

    Group widths include 0 (also first and last in a row), any group
    may be disabled, and a row may hold no group, no enabled edge or no
    frog; at least one frog hops.
    """
    rows = draw(st.integers(1, 6))
    g_count = [draw(st.integers(0, 4)) for _ in range(rows)]
    if sum(g_count) == 0:
        g_count[draw(st.integers(0, rows - 1))] = 1
    total = sum(g_count)
    grp_sizes = np.array(
        [draw(st.integers(0, 5)) for _ in range(total)], dtype=np.int64
    )
    enabled_grp = np.array(
        [draw(st.booleans()) for _ in range(total)], dtype=bool
    )
    grp_row = np.repeat(np.arange(rows), g_count)
    if not (enabled_grp & (grp_sizes > 0)).any():
        # Like the at-least-one repair: force one group of a row on.
        forced = draw(st.integers(0, total - 1))
        enabled_grp[forced] = True
        grp_sizes[forced] = max(1, grp_sizes[forced])
    # The view's groups are a shuffled subset of a larger global table.
    table_size = total + draw(st.integers(0, 3))
    grp_idx = np.array(
        draw(st.permutations(range(table_size)))[:total], dtype=np.int64
    )
    gaps = [draw(st.integers(0, 7)) for _ in range(table_size)]
    enabled_counts = np.bincount(
        grp_row, weights=enabled_grp * grp_sizes, minlength=rows
    ).astype(np.int64)
    k = np.array(
        [draw(st.integers(0, 3)) if c else 0 for c in enabled_counts]
    )
    if k.sum() == 0:
        k[np.flatnonzero(enabled_counts)[0]] = 1
    draws = np.array(
        [
            draw(st.floats(0, 1, exclude_max=True) | st.just(0.0))
            for _ in range(k.sum())
        ]
    )
    # Absent (row, machine) cells of the dense block, as the number of
    # zero cells in front of each group.
    absent = [draw(st.integers(0, 2)) for _ in range(total)]
    return grp_row, grp_idx, grp_sizes, enabled_grp, gaps, k, draws, absent


def _flat(values, absent):
    """``values`` per group with ``absent[g]`` zero cells in front of
    group g."""
    return np.insert(values, np.repeat(np.arange(len(absent)), absent), 0)


class TestPickEnabledEdges:
    @settings(max_examples=300, deadline=None)
    @given(
        _scatter_rows(),
        st.sampled_from(["search", "materialize"]),
        st.sampled_from(["ragged", "dense", "dropped"]),
    )
    def test_equals_the_materializing_expansion(self, case, side, layout):
        grp_row, grp_idx, grp_sizes, enabled_grp, gaps, k, draws, absent = case
        if layout != "dense":
            absent = [0] * len(absent)
        rows = k.size
        if side == "search":
            # Widen every group until the edges outnumber the frogs.
            grp_sizes = grp_sizes * (fk._EDGES_PER_FROG_SEARCH * k.sum() + 1)
        enabled_counts = np.bincount(
            grp_row, weights=enabled_grp * grp_sizes, minlength=rows
        ).astype(np.int64)
        if side == "materialize":
            # Every hopping row sends a frog per enabled edge of the
            # frontier: the frogs outnumber the edges.
            k = np.where(k > 0, np.maximum(k, enabled_counts.sum()), 0)
            draws = np.resize(draws, k.sum())
        # Global table: group g starts after the groups before it plus
        # a gap, so neighbouring groups never share an edge id.
        width = np.zeros(len(gaps), dtype=np.int64)
        width[grp_idx] = grp_sizes
        group_start = np.cumsum(width + gaps) - width
        row_of_frog = np.repeat(np.arange(rows), k)

        expected = _reference_pick(
            group_start, grp_idx, grp_sizes, enabled_grp, enabled_counts,
            row_of_frog, draws,
        )
        width = _flat(np.where(enabled_grp, grp_sizes, 0), absent)
        starts = _flat(group_start[grp_idx], absent)
        if layout == "dropped":
            # What the listing branch itself lists: nonzero cells only.
            starts, width = starts[width > 0], width[width > 0]
        with mock.patch.object(
            fk, "_ranges_to_indices", wraps=fk._ranges_to_indices
        ) as expand:
            chosen = fk._pick_enabled_edges(
                width, starts, enabled_counts, row_of_frog, draws
            )
        assert chosen.dtype == np.int64
        assert np.array_equal(chosen, expected)
        # The rule reads the two sizes and nothing else.
        assert expand.call_count == (0 if side == "search" else 1)

    def test_a_pick_lands_inside_an_enabled_group_of_its_row(self):
        # Row 0: groups of width 0, 3 (off), 2, 0; row 1: no frogs;
        # row 2: one forced-on group behind a disabled one.
        grp_idx = np.array([5, 0, 3, 6, 1, 4, 2])
        grp_sizes = np.array([0, 3, 2, 0, 4, 9, 7]) * 100
        enabled = np.array([1, 0, 1, 1, 1, 0, 1], dtype=bool)
        group_start = np.array([0, 1000, 2000, 3000, 4000, 5000, 6000])
        enabled_counts = np.array([200, 400, 700])
        row_of_frog = np.array([0, 0, 0, 2, 2])
        draws = np.array([0.0, 0.5, 0.999, 0.0, 0.999])
        chosen = fk._pick_enabled_edges(
            np.where(enabled, grp_sizes, 0), group_start[grp_idx],
            enabled_counts, row_of_frog, draws,
        )
        assert chosen.tolist() == [3000, 3100, 3199, 2000, 2699]


# ----------------------------------------------------------------------
# Batch parity with the search branch on every superstep
# ----------------------------------------------------------------------
def _hub_graph():
    """80 hubs linked to all 400 vertices, everyone linked to every hub:
    a row has 81-399 out-edges, so a few dozen frogs never come within
    a factor 8 of the enabled out-edges of their frontier."""
    n, hubs = 400, 80
    rng = np.random.default_rng(5)
    hub, vertex = np.meshgrid(np.arange(hubs), np.arange(n), indexing="ij")
    out = np.column_stack([hub.ravel(), vertex.ravel()])
    back = out[out[:, 1] >= hubs][:, ::-1]
    side = np.column_stack(
        [np.arange(hubs, n), rng.integers(hubs, n, size=n - hubs)]
    )
    edges = np.concatenate([out[out[:, 0] != out[:, 1]], back, side])
    return from_edges(edges, n)


HUBS = _hub_graph()
MACHINES = 8
FEW_FROGS = dict(num_frogs=40, iterations=6, ps=0.5, seed=3)
ERASURES = ("at-least-one", "independent")


@pytest.fixture
def picks(monkeypatch):
    """Record (enabled edges, frogs) of every pick made by either runner."""
    seen = []
    real = fk._pick_enabled_edges

    def recording(width, group_start, enabled_counts, row_of_frog, draw):
        seen.append((int(enabled_counts.sum()), draw.size))
        return real(width, group_start, enabled_counts, row_of_frog, draw)

    monkeypatch.setattr(fk, "_pick_enabled_edges", recording)
    return seen


def _all_searched(seen, at_least):
    assert len(seen) >= at_least
    assert all(e > fk._EDGES_PER_FROG_SEARCH * f for e, f in seen), seen


def _batch(queries, **config_kwargs):
    config = FrogWildConfig(**{**FEW_FROGS, **config_kwargs})
    return run_frogwild_batch(
        HUBS, queries, config,
        state=build_cluster(HUBS, MACHINES, seed=config.seed),
    )


QUERIES = [
    BatchQuery(seed=4),
    BatchQuery(seed=5, num_frogs=25),
    BatchQuery(seed=6, num_frogs=60, ps=0.3),
]
# The batches whose physical report is pinned in tests/data (see
# batch_reference.py for how it was recorded).
PINNED = {f"search-branch-{erasure}": erasure for erasure in ERASURES}
# name -> (graph, machines, config, queries) whose runs alone are pinned.
STANDALONE = {
    f"{prefix}search-branch-{erasure}": (
        HUBS, MACHINES,
        FrogWildConfig(**FEW_FROGS, erasure_model=erasure),
        queries,
    )
    for erasure in ERASURES
    for prefix, queries in (("", QUERIES), ("b1-", [BatchQuery()]))
}


def run_pinned(name):
    return _batch(QUERIES, erasure_model=PINNED[name])


class TestSearchBranchParity:
    @pytest.mark.parametrize("erasure_model", ERASURES)
    def test_fused_matches_lane_loop(self, picks, erasure_model):
        name = f"search-branch-{erasure_model}"
        fused = run_pinned(name)
        assert_lanes_match_standalone(name, fused)
        assert_physical_report_pinned(name, fused)
        _all_searched(picks, at_least=FEW_FROGS["iterations"])

    @pytest.mark.parametrize("erasure_model", ERASURES)
    def test_b1_matches_the_single_query_runner(self, picks, erasure_model):
        name = f"b1-search-branch-{erasure_model}"
        config = FrogWildConfig(**FEW_FROGS, erasure_model=erasure_model)
        batch = run_frogwild_batch(
            HUBS, [BatchQuery()], config,
            state=build_cluster(HUBS, MACHINES, seed=config.seed),
        )
        single = run_frogwild(
            HUBS, config, state=build_cluster(HUBS, MACHINES, seed=config.seed)
        )
        assert_lanes_match_standalone(name, batch)
        assert_run_pinned(name, single)
        assert single.estimate.total_stopped == config.num_frogs
        _all_searched(picks, at_least=2 * config.iterations)


# ----------------------------------------------------------------------
# _births vs rng.choice
# ----------------------------------------------------------------------
@st.composite
def _seed_sets(draw):
    """A seed set in caller order (not id order), with no weights or
    weights that may hold zeros, at scales from 1e-9 to 1e9."""
    n = draw(st.integers(1, 40))
    dense = draw(st.booleans())
    size = n if dense else draw(st.integers(1, min(n, 4)))
    support = draw(
        st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
        | st.just({0, n - 1})
        | st.just({0})
        | st.just({n - 1})
    )
    seeds = draw(st.permutations(sorted(support)))
    if draw(st.booleans()):
        return n, np.array(seeds), None
    weights = [
        draw(st.just(0.0) | st.floats(1e-6, 1.0)) for _ in seeds
    ]
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    scale = draw(st.sampled_from([1e-9, 1.0, 1e9]))
    return n, np.array(seeds), np.array(weights) * scale


class TestBirths:
    @settings(max_examples=300, deadline=None)
    @given(_seed_sets(), st.sampled_from([1, 2, 17, 400]), st.integers(0, 2**32))
    def test_equals_rng_choice(self, seed_set, num_frogs, seed):
        """Births from the seed set are ``rng.choice`` over its n-length
        law: same births, same rng state afterwards."""
        n, seeds, weights = seed_set
        law = seed_distribution(n, seeds, weights)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        births = bt._births(
            ours, n, num_frogs, *check_seed_set(seeds, weights, n)
        )
        expected = theirs.choice(n, size=num_frogs, p=law)
        assert births.dtype == expected.dtype
        assert np.array_equal(births, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_uniform_births_are_rng_integers(self):
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(
            bt._births(ours, 50, 200, None, None),
            theirs.integers(0, 50, size=200),
        )
        assert ours.bit_generator.state == theirs.bit_generator.state


# ----------------------------------------------------------------------
# The size rules of a one-lane run
# ----------------------------------------------------------------------
@st.composite
def _keyed_frogs(draw):
    """Lane-offset keys of B populations on n vertices, with the key
    range B * n on either side of 4x the keys."""
    lanes = draw(st.sampled_from([1, 2, 16]))
    n = draw(st.integers(1, 60))
    keys = draw(st.integers(1, 3 * lanes * n // 4 + 1) | st.integers(0, 8))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    frogs = rng.integers(0, n, size=keys)
    lane = np.sort(rng.integers(0, lanes, size=keys))
    return lanes, n, lane * n + frogs


@st.composite
def _weighted_runs(draw):
    """Sorted runs of distinct keys in ``[0, num_keys)`` with positive
    weights — the runner's stop records, a merge's parts — whose
    concatenation has a range on either side of 4x the keys; runs may
    overlap, be disjoint, hold one key or none."""
    num_keys = draw(st.integers(1, 200))
    runs = draw(
        st.lists(
            st.lists(
                st.integers(0, num_keys - 1), unique=True, max_size=60
            ).map(sorted),
            max_size=5,
        )
    )
    keys = [key for run in runs for key in run]
    weights = draw(
        st.lists(
            st.integers(1, 7) | st.just(2**40),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return num_keys, keys, weights


class TestCountKeys:
    @settings(max_examples=300, deadline=None)
    @given(_keyed_frogs())
    def test_equals_np_unique_on_both_sides_of_the_rule(self, case):
        lanes, n, keys = case
        ours = fk.count_keys(keys, lanes * n)
        theirs = np.unique(keys, return_counts=True)
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        # As (lane, vertex, count): what births and hops hand on.
        assert np.array_equal(np.divmod(ours[0], n), np.divmod(theirs[0], n))

    @settings(max_examples=300, deadline=None)
    @given(_weighted_runs())
    @example((5, [], []))  # no keys: the sort branch
    @example((1, [0], [3]))  # one key filling its range: the count
    @example((9, [7], [2**40]))  # one key: the sort
    @example((8, [0, 2, 5, 1, 3, 7], [1, 2, 3, 4, 5, 6]))  # disjoint runs
    @example((40, [0, 2, 5, 1, 3, 7], [1, 2, 3, 4, 5, 6]))
    def test_weighted_equals_the_unique_inverse_oracle(self, case):
        """The keyed sum the stop records, the next frontier and the
        shard merge share: ``np.unique(return_inverse)`` + a weighted
        bincount, on both sides of the range rule."""
        num_keys, keys, weights = case
        keys = np.array(keys, dtype=np.int64)
        weights = np.array(weights, dtype=np.int64)
        ours = fk.count_keys(keys, num_keys, weights=weights)
        distinct, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=weights, minlength=distinct.size)
        for a, b in zip(ours, (distinct, sums.astype(np.int64))):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("counted", [True, False])
    def test_the_weighted_sum_takes_its_branch_and_no_unique(
        self, monkeypatch, counted
    ):
        """Six keys over a range of 8 count; over a range of 800 they
        sort — neither branch goes back to ``np.unique``."""
        keys = np.array([7, 2, 7, 0, 2, 7], dtype=np.int64)
        weights = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
        num_keys = 8 if counted else 800
        bincounts = []
        real_bincount = np.bincount

        def bincount(*args, **kwargs):
            bincounts.append(len(args[0]))
            return real_bincount(*args, **kwargs)

        def unique(*args, **kwargs):
            raise AssertionError("the weighted keyed sum called np.unique")

        monkeypatch.setattr(np, "bincount", bincount)
        monkeypatch.setattr(np, "unique", unique)
        distinct, sums = fk.count_keys(keys, num_keys, weights=weights)
        assert list(distinct) == [0, 2, 7] and list(sums) == [4, 7, 10]
        assert sums.dtype == np.int64
        assert bincounts == ([6] if counted else [])

    @pytest.mark.parametrize("num_keys", [4, 400])
    def test_weighted_sums_stay_exact_past_int32(self, num_keys):
        keys = np.array([3, 1, 3, 3], dtype=np.int64)
        weights = np.array([2**40, 1, 2**40 + 1, 2**40], dtype=np.int64)
        distinct, sums = fk.count_keys(keys, num_keys, weights=weights)
        assert list(distinct) == [1, 3]
        assert sums.dtype == np.int64
        assert list(sums) == [1, 3 * 2**40 + 1]

    @pytest.mark.parametrize("counted", [True, False])
    def test_births_and_hops_take_the_branch_their_sizes_pick(
        self, monkeypatch, counted
    ):
        """A run of 4n frogs counts its birth and hop keys; a run of
        n / 8 frogs sorts them (the property above: both branches give
        the same frontier)."""
        graph = HUBS
        n = graph.num_vertices
        frogs = 4 * n if counted else n // 8
        config = FrogWildConfig(num_frogs=frogs, iterations=3, ps=1.0, seed=1)
        sorts = []
        real_unique = np.unique

        def unique(ar, *args, **kwargs):
            sorts.append(ar.size)
            return real_unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", unique)
        result = run_frogwild(
            graph, config, state=build_cluster(graph, MACHINES, seed=1)
        )
        assert result.estimate.total_stopped == frogs
        # Multinomial, every mirror synced: no idling, all hot paths.
        assert (sorts == []) == counted, sorts


class TestOneLaneShortcuts:
    """With one lane the passes build no lane array; a one-lane frontier
    in a two-lane pass object takes the general formulation instead,
    and every output must agree (lane 1 empty)."""

    @pytest.mark.parametrize("ps", [0.0, 0.5, 1.0])
    def test_equal_the_general_formulation(self, ps):
        graph = rmat(scale=9, edge_factor=8, seed=2)
        n = graph.num_vertices
        tables = fw._kernel_tables(build_cluster(graph, MACHINES, seed=0))
        dense = DenseGroupTables(tables, MACHINES)
        rng = np.random.default_rng(int(10 * ps))
        verts = np.flatnonzero(rng.random(n) < 0.4)
        lanes = np.zeros_like(verts)
        fresh = rng.random((verts.size, MACHINES)) < ps
        fresh[np.arange(verts.size), tables.masters[verts]] = True
        k = rng.integers(1, 5, size=verts.size)

        outputs = []
        for num_lanes in (1, 2):
            passes = fk.FusedPasses(
                tables, dense, num_lanes=num_lanes,
                num_machines=MACHINES, num_vertices=n,
            )
            passes.enabled_groups(lanes, verts, fresh)
            edges, by_machine, by_lane = passes.enabled_totals()
            k_send = np.where(edges > 0, k, 0)
            draw = np.random.default_rng(7).random(int(k_send.sum()))
            dest, host, frog_lane, hop_keys, ops = passes.expand_multinomial(
                k_send, edges, draw
            )
            records = passes.frog_records(frog_lane, host, dest)
            outputs.append(
                (edges, by_machine, by_lane[:1], dest, host, hop_keys, ops,
                 records[0])
            )
            if num_lanes == 2:
                assert by_lane[1] == 0 and not records[1].any()
        for one, general in zip(*outputs):
            assert np.array_equal(one, general)


# ----------------------------------------------------------------------
# The gate: a served batch works in O(frogs + rows x machines), not O(edges)
# ----------------------------------------------------------------------
KERNEL_FILES = {
    module.__file__ for module in (bt, fw, fk)
}


def _largest_bound_array(call):
    """Run ``call()``; the size of the largest array any frame of the
    kernel modules bound to a local name (or kept on a pass object)
    while it ran."""
    largest = 0

    def sizes(values):
        for value in values:
            if isinstance(value, np.ndarray):
                yield value.size
            elif isinstance(value, fk.FusedPasses):
                yield from sizes(vars(value).values())

    def trace_lines(frame, event, arg):
        nonlocal largest
        largest = max(largest, *sizes(frame.f_locals.values()), 0)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in KERNEL_FILES else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        return call(), largest
    finally:
        sys.settrace(previous)


class TestFrogProportionalGate:
    def test_a_served_batch_expands_no_edge_list_of_the_frontier(
        self, monkeypatch, picks
    ):
        graph = rmat(scale=13, edge_factor=16, seed=0)
        config = FrogWildConfig(num_frogs=500, iterations=5, ps=0.8, seed=0)
        machines = 16
        service = RankingService.from_config(
            graph,
            ServiceConfig(config, num_machines=machines, max_batch_size=16),
        )
        # Per superstep: frogs, rows, _ranges_to_indices calls, largest
        # array bound by the scatter.
        steps = []
        real_expand = fk._ranges_to_indices
        real_scatter = bt.BatchedFrogWildRunner._scatter

        def expand(starts, lengths):
            steps[-1][2] += 1
            return real_expand(starts, lengths)

        def scatter(runner, live, lane_sv, vert_sv, k_sv):
            steps.append([int(k_sv.sum()), vert_sv.size, 0, 0])
            out, steps[-1][3] = _largest_bound_array(
                lambda: real_scatter(runner, live, lane_sv, vert_sv, k_sv)
            )
            return out

        monkeypatch.setattr(fk, "_ranges_to_indices", expand)
        monkeypatch.setattr(bt.BatchedFrogWildRunner, "_scatter", scatter)
        rng = np.random.default_rng(1)
        try:
            answers = service.query_batch(
                [
                    RankingQuery(
                        seeds=tuple(
                            int(v) for v in rng.integers(0, graph.num_vertices, 3)
                        ),
                        k=10,
                    )
                    for _ in range(16)
                ]
            )
        finally:
            service.stop()
        assert all(a.vertices.size == 10 for a in answers)
        assert len(steps) == len(picks) == config.iterations
        # The frontier really is edge-heavy: most steps take the search
        # branch, and none of those lists a range of ids.
        searched = [
            step
            for step, (edges, frogs) in zip(steps, picks)
            if edges > fk._EDGES_PER_FROG_SEARCH * frogs
        ]
        assert len(searched) >= 3
        assert all(expansions == 0 for _, _, expansions, _ in searched), steps
        for frogs, rows, _, largest in steps:
            assert 0 < largest <= 2 * (frogs + rows * machines), steps
