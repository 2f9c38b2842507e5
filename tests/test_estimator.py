"""Unit tests for the PageRank estimator and top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PageRankEstimate, top_k_indices
from repro.errors import ConfigError


class TestTopK:
    def test_basic_order(self):
        values = np.array([0.1, 0.5, 0.3, 0.9])
        assert list(top_k_indices(values, 2)) == [3, 1]

    def test_ties_break_by_index(self):
        values = np.array([0.5, 0.5, 0.5])
        assert list(top_k_indices(values, 2)) == [0, 1]

    def test_k_larger_than_n(self):
        values = np.array([2.0, 1.0])
        assert list(top_k_indices(values, 10)) == [0, 1]

    def test_k_zero(self):
        assert top_k_indices(np.array([1.0]), 0).size == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            top_k_indices(np.array([1.0]), -1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_unsigned_zeros_rank_last(self, dtype):
        # -values wraps on unsigned input; a zero must not sort first.
        values = np.array([0, 5, 3, 0, 5], dtype=dtype)
        for k in range(7):
            np.testing.assert_array_equal(
                top_k_indices(values, k),
                top_k_indices(values.astype(np.int64), k),
            )
        assert list(top_k_indices(np.array([0, 5, 3], dtype=dtype), 2)) == [1, 2]

    def test_unsigned_extremes(self):
        top = np.iinfo(np.uint32).max
        values = np.array([0, top, 1, top, 0], dtype=np.uint32)
        assert list(top_k_indices(values, 5)) == [1, 3, 2, 0, 4]
        assert list(top_k_indices(np.array([255, 0, 128], dtype=np.uint8), 3)) == [
            0, 2, 1,
        ]
        with pytest.raises(ConfigError):
            top_k_indices(np.array([0, 2**63], dtype=np.uint64), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from([0, 1, 2**15 - 1, 2**15, -(2**15) + 1, -(2**15)])
        | st.integers(-3, 3),
        min_size=1,
        max_size=30,
    ))
    def test_int16_and_int64_ranks_agree(self, values):
        # Values inside (-2**15, 2**15) rank as int16 (a radix sort),
        # any other set as int64: the order is the same either way.
        expected = sorted(range(len(values)), key=lambda i: (-values[i], i))
        for dtype in (np.int16, np.int32, np.int64):
            if all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in values):
                ranked = top_k_indices(np.array(values, dtype=dtype), len(values))
                assert ranked.dtype == np.int64
                assert list(ranked) == expected


class TestPageRankEstimate:
    def test_vector_normalization(self):
        est = PageRankEstimate(np.array([2, 3, 5]), num_frogs=10)
        np.testing.assert_allclose(est.vector(), [0.2, 0.3, 0.5])

    def test_vector_with_lost_frogs(self):
        # Binomial scatter can lose frogs; vector sums below 1.
        est = PageRankEstimate(np.array([2, 3]), num_frogs=10)
        assert est.vector().sum() == pytest.approx(0.5)
        np.testing.assert_allclose(est.distribution().sum(), 1.0)

    def test_distribution_degenerate(self):
        est = PageRankEstimate(np.zeros(4, dtype=np.int64), num_frogs=5)
        np.testing.assert_allclose(est.distribution(), 0.25)

    def test_top_k(self):
        est = PageRankEstimate(np.array([0, 7, 3, 9]), num_frogs=19)
        assert list(est.top_k(2)) == [3, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        # Mostly-zero counters with heavy ties, down to all-zero.
        st.lists(
            st.sampled_from([0, 0, 0, 1, 1, 2, 5]) | st.integers(0, 3),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 40),
    )
    def test_top_k_ranks_the_support_like_the_full_vector(self, counts, k):
        # k = 0, k beyond the nonzero counters and k > n included.
        est = PageRankEstimate(np.array(counts), num_frogs=7)
        expected = top_k_indices(est.counts, k)
        assert est.top_k(k).dtype == expected.dtype
        np.testing.assert_array_equal(est.top_k(k), expected)
        top, scores = est.top_k_with_scores(k)
        np.testing.assert_array_equal(top, expected)
        np.testing.assert_array_equal(scores, est.counts[expected] / 7)

    def test_top_k_rejects_negative_k(self):
        est = PageRankEstimate(np.array([0, 7, 3, 9]), num_frogs=19)
        with pytest.raises(ConfigError):
            est.top_k(-1)
        with pytest.raises(ConfigError):
            est.top_k_with_scores(-1)

    def test_counters_exposed(self):
        counts = np.array([1, 2, 3])
        est = PageRankEstimate(counts, num_frogs=6)
        assert est.total_stopped == 6
        assert est.num_vertices == 3
        assert est.num_frogs == 6
        np.testing.assert_array_equal(est.counts, counts)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.array([1, -1]), num_frogs=2)

    def test_rejects_bad_frogs(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.array([1]), num_frogs=0)

    def test_rejects_matrix_counts(self):
        with pytest.raises(ConfigError):
            PageRankEstimate(np.zeros((2, 2)), num_frogs=1)

    @pytest.mark.parametrize(
        "counts",
        [[0.6, 0.4, 2.9], [1.0, 0.5], [np.nan, 1.0], [np.inf, 0.0]],
    )
    def test_both_constructors_refuse_fractional_counts(self, counts):
        # Truncating used to turn [0.6, 0.4, 2.9] into [0, 0, 2].
        with pytest.raises(ConfigError, match="whole"):
            PageRankEstimate(np.array(counts), num_frogs=3)
        with pytest.raises(ConfigError, match="whole"):
            PageRankEstimate.from_records(
                np.arange(len(counts)), np.array(counts), 3, len(counts)
            )
        with pytest.raises(ConfigError, match="whole"):
            PageRankEstimate.from_records([0.5], [1], 3, 4)

    def test_whole_valued_floats_stay_accepted(self):
        est = PageRankEstimate(np.array([2.0, 0.0, 5.0]), num_frogs=7)
        assert est.counts.dtype == np.int64
        assert list(est.counts) == [2, 0, 5]
        assert PageRankEstimate(np.zeros(4), num_frogs=2).total_stopped == 0
        records = PageRankEstimate.from_records([1.0], [3.0], 3, 4)
        assert list(records.counts) == [0, 3, 0, 0]

    @pytest.mark.parametrize("num_frogs", [2.7, 3.0, True, "3", None])
    def test_both_constructors_refuse_a_non_integer_frog_count(
        self, num_frogs
    ):
        # 2.7 used to be stored as 2 and True as 1.
        with pytest.raises(ConfigError, match="num_frogs"):
            PageRankEstimate(np.array([1, 2]), num_frogs)
        with pytest.raises(ConfigError, match="num_frogs"):
            PageRankEstimate.from_records([1], [2], num_frogs, 4)

    def test_numpy_integer_frog_counts_are_integers(self):
        est = PageRankEstimate(np.array([1, 2]), np.int64(3))
        assert est.num_frogs == 3 and type(est.num_frogs) is int


# Mostly-zero counters with heavy ties, down to all-zero and up to
# counts that do not fit int32.
COUNTS = st.lists(
    st.sampled_from([0, 0, 0, 1, 1, 2, 5]) | st.integers(0, 3) | st.just(2**40),
    min_size=1,
    max_size=30,
)


def boundary_ks(counts):
    support, n = int(np.count_nonzero(counts)), len(counts)
    ks = {0, 1, support - 1, support, support + 1, n, n + 5}
    return sorted(k for k in ks if k >= 0)


def _from_records(counts, num_frogs):
    counts = np.asarray(counts, dtype=np.int64)
    ids = np.flatnonzero(counts != 0)
    return PageRankEstimate.from_records(
        ids, counts[ids], num_frogs, counts.size
    )


#: The two ways to build the one estimate form: from the dense counters
#: and from the id-ordered records (a runner lane, a pool frame).
CONSTRUCTORS = {
    "dense": lambda counts, frogs: PageRankEstimate(np.array(counts), frogs),
    "records": _from_records,
}


def dense_merge(parts):
    """The oracle: sum the dense counters and the frogs."""
    counts = np.sum([np.asarray(c, dtype=np.int64) for c, _ in parts], axis=0)
    return counts, sum(frogs for _, frogs in parts)


def assert_is_dense(estimate, counts, num_frogs):
    """``estimate`` holds exactly the nonzero counters of ``counts`` and
    answers every boundary k like a stable sort of the dense vector (on
    decreasing count, so the lower id wins a tie), bitwise."""
    counts = np.asarray(counts, dtype=np.int64)
    ids, held = estimate.records
    support = np.flatnonzero(counts != 0)
    np.testing.assert_array_equal(ids, support)
    np.testing.assert_array_equal(held, counts[support])
    assert estimate.num_frogs == num_frogs
    assert estimate.num_vertices == counts.size
    for k in boundary_ks(counts):
        expected = top_k_indices(counts, k)
        expected_scores = counts[expected] / num_frogs
        top = estimate.top_k(k)
        assert top.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(top, expected)
        top, scores = estimate.top_k_with_scores(k)
        np.testing.assert_array_equal(top, expected)
        assert scores.dtype == expected_scores.dtype == np.float64
        assert scores.tobytes() == expected_scores.tobytes()


class TestRecords:
    @settings(max_examples=300, deadline=None)
    @given(COUNTS, st.integers(1, 50), st.sampled_from(sorted(CONSTRUCTORS)))
    def test_every_k_is_the_dense_reference_bitwise(
        self, counts, num_frogs, constructor
    ):
        estimate = CONSTRUCTORS[constructor](counts, num_frogs)
        assert_is_dense(estimate, counts, num_frogs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 25).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from([0, 0, 1, 2, 2, 7, 2**31 - 1]),
                    min_size=n, max_size=n,
                ),
                st.integers(1, 9),
                st.sampled_from(sorted(CONSTRUCTORS)),
            ),
            min_size=1, max_size=4,
        )
    ))
    def test_record_merge_is_the_dense_sum_then_rank(self, parts):
        counts, frogs = dense_merge([(c, frogs) for c, frogs, _ in parts])
        merged = PageRankEstimate.merge([
            CONSTRUCTORS[constructor](c, frogs)
            for c, frogs, constructor in parts
        ])
        assert type(merged) is PageRankEstimate
        assert_is_dense(merged, counts, frogs)

    def test_merge_of_empty_parts_is_an_empty_support(self):
        parts = [(np.zeros(5, dtype=np.int64), 3), ([0] * 5, 4)]
        merged = PageRankEstimate.merge(
            [PageRankEstimate(np.array(c), frogs) for c, frogs in parts]
        )
        assert_is_dense(merged, *dense_merge(parts))
        assert merged.records[0].size == 0 and merged.num_frogs == 7
        assert list(merged.top_k(3)) == [0, 1, 2]

    def test_merge_of_disjoint_parts_is_their_union(self):
        parts = [([0, 4, 0, 0, 1, 0], 5), ([3, 0, 0, 4, 0, 0], 7)]
        merged = PageRankEstimate.merge(
            [_from_records(c, frogs) for c, frogs in parts]
        )
        assert_is_dense(merged, *dense_merge(parts))
        assert list(merged.records[0]) == [0, 1, 3, 4]
        # Equal counts rank the lower id first.
        assert list(merged.top_k(4)) == [1, 3, 0, 4]

    @pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
    def test_merge_of_one_part_is_that_part(self, constructor):
        part = CONSTRUCTORS[constructor]([0, 2, 9, 0, 2], 13)
        merged = PageRankEstimate.merge([part])
        assert_is_dense(merged, [0, 2, 9, 0, 2], 13)
        for mine, theirs in zip(merged.records, part.records):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)

    def test_merge_refuses_parts_of_different_graphs(self):
        with pytest.raises(ConfigError, match="different graphs"):
            PageRankEstimate.merge([
                PageRankEstimate(np.array([1, 2]), 3),
                _from_records([1, 2, 0], 3),
            ])
        with pytest.raises(ConfigError):
            PageRankEstimate.merge([])

    def test_from_records_refuses_bad_records(self):
        for ids, counts in (
            ([-1, 2], [2, 1]),  # would wrap onto vertex n - 1
            ([1, 1], [3, 3]),  # a repeated id
            ([2, 1], [3, 3]),  # not increasing
            ([0, 4], [2, 1]),  # beyond the universe
            ([0, 1], [1, 0]),  # a zero is not support
            ([0, 1], [1, -2]),
            ([0, 1], [1]),
            ([[0, 1]], [[1, 2]]),
        ):
            with pytest.raises(ConfigError):
                PageRankEstimate.from_records(
                    ids, counts, num_frogs=5, num_vertices=4
                )
        with pytest.raises(ConfigError):
            PageRankEstimate.from_records(
                [0], [1], num_frogs=0, num_vertices=4
            )
        records = PageRankEstimate.from_records(
            [1, 3], [2, 5], num_frogs=9, num_vertices=4
        )
        assert list(records.counts) == [0, 2, 0, 5]
        assert list(records.top_k(3)) == [3, 1, 0]

    @settings(max_examples=200, deadline=None)
    @given(COUNTS)
    def test_round_trip_through_dense_counts_is_the_identity(self, counts):
        counts = np.array(counts, dtype=np.int64)
        estimate = PageRankEstimate(counts, 3)
        assert estimate.counts.dtype == np.int64
        np.testing.assert_array_equal(estimate.counts, counts)
        again = PageRankEstimate.from_records(
            *estimate.records, 3, estimate.num_vertices
        )
        np.testing.assert_array_equal(again.counts, counts)
        assert_is_dense(PageRankEstimate(again.counts, 3), counts, 3)

    @settings(max_examples=100, deadline=None)
    @given(COUNTS)
    def test_dense_views_do_not_depend_on_the_constructor(self, counts):
        dense = PageRankEstimate(np.array(counts), 3)
        records = _from_records(counts, 3)
        assert not hasattr(dense, "_counts")
        assert records.total_stopped == dense.total_stopped == sum(counts)
        for k in boundary_ks(counts):
            if k >= 1:
                assert records.separation_z(k) == dense.separation_z(k)
        for view in ("vector", "distribution", "standard_errors"):
            np.testing.assert_array_equal(
                getattr(records, view)(), getattr(dense, view)()
            )

    def test_narrows_to_int32_only_when_everything_fits(self):
        small = PageRankEstimate.from_records(
            [1, 4], [3, 9], num_frogs=12, num_vertices=6
        )
        assert [a.dtype for a in small.records] == [np.int32, np.int32]
        big = PageRankEstimate.from_records(
            [1, 4], [3, 2**31], num_frogs=12, num_vertices=6
        )
        assert [a.dtype for a in big.records] == [np.int32, np.int64]
        assert list(big.top_k(3)) == [4, 1, 0]

    def test_answers_are_copies_of_read_only_records(self):
        source = np.array([4, 0, 9, 0, 0, 4, 0, 0])
        estimate = PageRankEstimate(source, num_frogs=17)
        assert list(estimate.records[0]) == [0, 2, 5]
        top, scores = estimate.top_k_with_scores(2)
        assert list(top) == [2, 0]
        top[:] = -1
        scores[:] = -1.0
        again, again_scores = estimate.top_k_with_scores(2)
        assert list(again) == [2, 0]
        np.testing.assert_array_equal(again_scores, np.array([9, 4]) / 17)
        for array in estimate.records:
            with pytest.raises(ValueError):
                array[0] = 1
        # The caller's arrays keep their own flags.
        ids = np.array([1, 3], dtype=np.int32)
        PageRankEstimate.from_records(ids, [1, 1], 2, 4)
        ids[0] = 0

    def test_the_rank_order_is_computed_once_and_kept(self, monkeypatch):
        from repro.core import estimator

        calls = []
        real = estimator.top_k_indices

        def counted(values, k):
            calls.append(k)
            return real(values, k)

        monkeypatch.setattr(estimator, "top_k_indices", counted)
        estimate = _from_records([0, 4, 0, 9, 4, 1], 18)
        assert calls == []
        assert list(estimate.top_k(2)) == [3, 1]
        assert list(estimate.top_k_with_scores(5)[0]) == [3, 1, 4, 5, 0]
        assert list(estimate.top_k(1)) == [3]
        assert calls == [4]

    def test_a_ranked_estimate_holds_eight_bytes_per_record(self):
        """Ranking re-holds the records in rank order instead of keeping
        a permutation beside them (a cached estimate is ranked), while
        ``records`` still hands them out in id order."""

        def held_bytes(estimate):
            owners = {}
            for value in vars(estimate).values():
                for array in value if isinstance(value, tuple) else (value,):
                    if isinstance(array, np.ndarray):
                        while isinstance(array.base, np.ndarray):
                            array = array.base
                        owners[id(array)] = array.nbytes
            return sum(owners.values())

        counts = np.random.default_rng(3).integers(0, 50, size=5_000)
        estimate = _from_records(counts, int(counts.sum()))
        ids, stop_counts = (a.copy() for a in estimate.records)
        assert held_bytes(estimate) <= 8 * ids.size
        np.testing.assert_array_equal(
            estimate.top_k(20), top_k_indices(counts, 20)
        )
        assert held_bytes(estimate) <= 8 * ids.size
        for got, want in zip(estimate.records, (ids, stop_counts)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_empty_support_answers_in_id_order(self):
        empty = PageRankEstimate(np.zeros(4), num_frogs=2)
        assert empty.records[0].size == 0 and empty.num_frogs == 2
        assert list(empty.top_k(2)) == [0, 1]
        assert list(empty.top_k_with_scores(9)[1]) == [0.0] * 4

    def test_no_records_is_the_all_zero_estimate_of_its_universe(self):
        empty = PageRankEstimate.from_records(
            [], [], num_frogs=4, num_vertices=5
        )
        assert empty.num_vertices == 5 and empty.total_stopped == 0
        assert [a.size for a in empty.records] == [0, 0]
        assert list(empty.counts) == [0] * 5
        np.testing.assert_array_equal(empty.distribution(), np.full(5, 0.2))
        assert list(empty.top_k(3)) == [0, 1, 2]

    def test_past_the_support_the_lowest_free_ids_follow(self):
        estimate = _from_records([3, 0, 0, 1, 0, 0, 0, 2], 6)
        # Ranked records first, then the zero-count ids in id order,
        # skipping the ones the records already answered.
        assert list(estimate.top_k(6)) == [0, 7, 3, 1, 2, 4]
        top, scores = estimate.top_k_with_scores(6)
        assert list(top) == [0, 7, 3, 1, 2, 4]
        np.testing.assert_array_equal(
            scores, np.array([3, 2, 1, 0, 0, 0]) / 6
        )

    def test_a_huge_universe_is_answered_from_the_records(self):
        # No n-vector of 2**40 entries could be built: every answer
        # must come from the three records.
        n = 2**40
        estimate = PageRankEstimate.from_records(
            [5, 2**33, n - 1], [4, 9, 4], num_frogs=17, num_vertices=n
        )
        assert [a.dtype for a in estimate.records] == [np.int64, np.int32]
        assert estimate.total_stopped == 17
        assert list(estimate.top_k(2)) == [2**33, 5]
        top, scores = estimate.top_k_with_scores(5)
        assert list(top) == [2**33, 5, n - 1, 0, 1]
        np.testing.assert_array_equal(
            scores, np.array([9, 4, 4, 0, 0]) / 17
        )

    def test_dense_counts_are_a_fresh_copy(self):
        estimate = _from_records([0, 3, 0, 5], 8)
        counts = estimate.counts
        counts[:] = 7
        assert list(estimate.counts) == [0, 3, 0, 5]
        assert list(estimate.top_k(2)) == [3, 1]

    def test_merge_ranks_nothing_until_asked(self, monkeypatch):
        from repro.core import estimator

        calls = []
        real = estimator.top_k_indices

        def counted(values, k):
            calls.append(k)
            return real(values, k)

        monkeypatch.setattr(estimator, "top_k_indices", counted)
        parts = [
            _from_records([0, 1, 0, 4], 5),
            PageRankEstimate(np.array([2, 0, 0, 1]), 3),
            _from_records([0, 0, 6, 0], 6),
        ]
        merged = PageRankEstimate.merge(parts)
        assert calls == []
        assert list(merged.top_k(4)) == [2, 3, 0, 1]
        assert calls == [4]

    def test_merge_widens_counts_that_sum_past_int32(self):
        top = 2**31 - 1
        parts = [_from_records([0, top, 1], 3), _from_records([5, top, 0], 3)]
        assert all(part.records[1].dtype == np.int32 for part in parts)
        merged = PageRankEstimate.merge(parts)
        ids, counts = merged.records
        assert list(ids) == [0, 1, 2] and counts.dtype == np.int64
        assert list(counts) == [5, 2 * top, 1]
        assert list(merged.top_k(3)) == [1, 0, 2]


class TestSeparationZ:
    def test_hand_computed(self):
        # p = (0.6, 0.3, 0.1); the z is the rank-1/rank-2 gap over the
        # root of the two squared binomial standard errors.
        est = PageRankEstimate(np.array([6, 3, 1]), num_frogs=10)
        se = est.standard_errors()
        assert se[0] ** 2 == pytest.approx(0.6 * 0.4 / 10)
        assert se[1] ** 2 == pytest.approx(0.3 * 0.7 / 10)
        assert est.separation_z(1) == pytest.approx(0.3 / np.sqrt(0.045))
        # Lost frogs: the gap is taken on the renormalized distribution,
        # the standard errors keep the launched N as denominator.
        lossy = PageRankEstimate(np.array([6, 3, 1]), num_frogs=20)
        assert lossy.separation_z(1) == pytest.approx(2.0)

    def test_zero_count_tie_at_the_boundary_is_zero(self):
        est = PageRankEstimate(np.array([4, 0, 0, 0]), num_frogs=4)
        assert est.separation_z(2) == 0.0

    def test_k_covering_every_vertex_is_infinite(self):
        est = PageRankEstimate(np.array([1, 2, 3]), num_frogs=6)
        assert est.separation_z(3) == float("inf")
        assert est.separation_z(5) == float("inf")

    def test_rejects_k_below_one(self):
        est = PageRankEstimate(np.array([1, 2, 3]), num_frogs=6)
        for k in (0, -1):
            with pytest.raises(ConfigError):
                est.separation_z(k)
