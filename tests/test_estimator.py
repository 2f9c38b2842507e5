"""Unit tests for the PageRank estimator and top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PageRankEstimate, RankedEstimate, top_k_indices
from repro.core.estimator import _IdOrderedEstimate
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


def dense_merge(parts):
    """The oracle: sum the dense counters, then rank the nonzero ones
    (stable on decreasing count, so the lower id wins a tie)."""
    counts = np.sum([np.asarray(c, dtype=np.int64) for c, _ in parts], axis=0)
    support = np.flatnonzero(counts)
    order = np.argsort(-counts[support], kind="stable")
    return RankedEstimate(
        support[order],
        counts[support][order],
        sum(frogs for _, frogs in parts),
        counts.size,
    )


def _id_ordered(estimate):
    ids = np.flatnonzero(estimate.counts)
    return _IdOrderedEstimate(
        ids, estimate.counts[ids], estimate.num_frogs, estimate.num_vertices
    )


#: The three storage forms a merge reads: dense counters, the ranked
#: support, and a pool frame's id-ordered records.
FORMS = {
    "dense": lambda estimate: estimate,
    "ranked": lambda estimate: estimate.ranked(),
    "id-ordered": _id_ordered,
}


def assert_same_form(left, right):
    for name in ("ranked_ids", "ranked_counts"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert left.num_frogs == right.num_frogs
    assert left.num_vertices == right.num_vertices


class TestRankedEstimate:
    @settings(max_examples=300, deadline=None)
    @given(COUNTS, st.integers(1, 50))
    def test_every_k_is_the_dense_reference_bitwise(self, counts, num_frogs):
        counts = np.array(counts, dtype=np.int64)
        dense = PageRankEstimate(counts, num_frogs)
        ranked = dense.ranked()
        for k in boundary_ks(counts):
            expected = top_k_indices(counts, k)
            expected_scores = counts[expected] / num_frogs
            for form in (ranked, dense):
                top = form.top_k(k)
                assert top.dtype == expected.dtype == np.int64
                np.testing.assert_array_equal(top, expected)
                top, scores = form.top_k_with_scores(k)
                np.testing.assert_array_equal(top, expected)
                assert scores.dtype == expected_scores.dtype == np.float64
                assert scores.tobytes() == expected_scores.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 25).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from([0, 0, 1, 2, 2, 7, 2**31 - 1]),
                    min_size=n, max_size=n,
                ),
                st.integers(1, 9),
                st.sampled_from(sorted(FORMS)),
            ),
            min_size=1, max_size=4,
        )
    ))
    def test_record_merge_is_the_dense_sum_then_rank(self, parts):
        expected = dense_merge([(c, frogs) for c, frogs, _ in parts])
        estimates = [
            FORMS[form](PageRankEstimate(np.array(c), frogs))
            for c, frogs, form in parts
        ]
        # The merge takes any mix of storage forms and returns the
        # ranked form, whichever class name it is called by.
        for merge in (PageRankEstimate.merge, RankedEstimate.merge):
            merged = merge(estimates)
            assert type(merged) is RankedEstimate
            assert_same_form(merged, expected)

    def test_merge_of_empty_parts_is_an_empty_support(self):
        parts = [(np.zeros(5, dtype=np.int64), 3), ([0] * 5, 4)]
        merged = PageRankEstimate.merge(
            [PageRankEstimate(np.array(c), frogs) for c, frogs in parts]
        )
        assert_same_form(merged, dense_merge(parts))
        assert merged.ranked_ids.size == 0 and merged.num_frogs == 7
        assert list(merged.top_k(3)) == [0, 1, 2]

    def test_merge_of_disjoint_parts_is_their_union(self):
        parts = [([0, 4, 0, 0, 1, 0], 5), ([3, 0, 0, 4, 0, 0], 7)]
        merged = PageRankEstimate.merge(
            [PageRankEstimate(np.array(c), frogs).ranked() for c, frogs in parts]
        )
        assert_same_form(merged, dense_merge(parts))
        # Equal counts rank the lower id first.
        assert list(merged.ranked_ids) == [1, 3, 0, 4]
        assert list(merged.ranked_counts) == [4, 4, 3, 1]

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_merge_of_one_part_is_its_ranking(self, form):
        dense = PageRankEstimate(np.array([0, 2, 9, 0, 2]), num_frogs=13)
        merged = PageRankEstimate.merge([FORMS[form](dense)])
        assert_same_form(merged, dense.ranked())
        assert_same_form(merged, dense_merge([(dense.counts, 13)]))

    def test_merge_refuses_parts_of_different_graphs(self):
        with pytest.raises(ConfigError, match="different graphs"):
            PageRankEstimate.merge([
                PageRankEstimate(np.array([1, 2]), 3),
                PageRankEstimate(np.array([1, 2, 0]), 3).ranked(),
            ])
        with pytest.raises(ConfigError):
            PageRankEstimate.merge([])

    def test_an_id_ordered_frame_refuses_bad_records(self):
        for ids, counts in (
            ([-1, 2], [2, 1]),  # would wrap onto vertex n - 1
            ([1, 1], [3, 3]),  # a repeated id
            ([2, 1], [3, 3]),  # not increasing
            ([0, 4], [2, 1]),  # beyond the universe
            ([0, 1], [1, 0]),  # a zero is not support
            ([0, 1], [1, -2]),
            ([0, 1], [1]),
        ):
            with pytest.raises(ConfigError):
                _IdOrderedEstimate(ids, counts, num_frogs=5, num_vertices=4)
        with pytest.raises(ConfigError):
            _IdOrderedEstimate([0], [1], num_frogs=0, num_vertices=4)
        frame = _IdOrderedEstimate([1, 3], [2, 5], num_frogs=9, num_vertices=4)
        assert list(frame.counts) == [0, 2, 0, 5]
        assert list(frame.top_k(3)) == [3, 1, 0]

    @settings(max_examples=200, deadline=None)
    @given(COUNTS)
    def test_round_trip_through_dense_counts_is_the_identity(self, counts):
        counts = np.array(counts, dtype=np.int64)
        ranked = PageRankEstimate(counts, 3).ranked()
        assert ranked.counts.dtype == np.int64
        assert ranked.ranked() is ranked
        assert isinstance(ranked, PageRankEstimate)
        np.testing.assert_array_equal(ranked.counts, counts)
        assert_same_form(PageRankEstimate(ranked.counts, 3).ranked(), ranked)

    @settings(max_examples=100, deadline=None)
    @given(COUNTS)
    def test_every_inherited_view_reads_the_overridden_storage(self, counts):
        counts = np.array(counts, dtype=np.int64)
        dense = PageRankEstimate(counts, 3)
        ranked = dense.ranked()
        assert not hasattr(ranked, "_counts")
        assert ranked.num_vertices == dense.num_vertices
        assert ranked.total_stopped == dense.total_stopped
        for k in boundary_ks(counts):
            if k >= 1:
                assert ranked.separation_z(k) == dense.separation_z(k)
        for view in ("vector", "distribution", "standard_errors"):
            np.testing.assert_array_equal(
                getattr(ranked, view)(), getattr(dense, view)()
            )

    def test_narrows_to_int32_only_when_everything_fits(self):
        small = RankedEstimate([4, 1], [9, 3], num_frogs=12, num_vertices=6)
        assert small.ranked_ids.dtype == small.ranked_counts.dtype == np.int32
        big = RankedEstimate([4, 1], [2**31, 3], num_frogs=12, num_vertices=6)
        assert big.ranked_ids.dtype == np.int32
        assert big.ranked_counts.dtype == np.int64
        assert list(big.top_k(3)) == [4, 1, 0]

    def test_answers_are_copies_of_a_read_only_support(self):
        ranked = PageRankEstimate(
            np.array([4, 0, 9, 0, 0, 4, 0, 0]), num_frogs=17
        ).ranked()
        assert list(ranked.ranked_ids) == [2, 0, 5]
        top, scores = ranked.top_k_with_scores(2)
        top[:] = -1
        scores[:] = -1.0
        again, again_scores = ranked.top_k_with_scores(2)
        assert list(again) == [2, 0]
        np.testing.assert_array_equal(again_scores, np.array([9, 4]) / 17)
        with pytest.raises(ValueError):
            ranked.ranked_ids[0] = 1
        with pytest.raises(ValueError):
            ranked.ranked_counts[0] = 1

    def test_rejects_records_out_of_rank_order(self):
        for ids, counts in (
            ([1, 2], [1, 5]),  # count increases
            ([2, 1], [3, 3]),  # tie with the higher id first
            ([1, 1], [3, 3]),  # not distinct
            ([0, 9], [2, 1]),  # beyond the universe
            ([-1, 2], [2, 1]),
            ([0, 1], [1, 0]),  # a zero is not support
            ([0, 1], [1]),
        ):
            with pytest.raises(ConfigError):
                RankedEstimate(ids, counts, num_frogs=5, num_vertices=4)
        with pytest.raises(ConfigError):
            RankedEstimate([0], [1], num_frogs=0, num_vertices=4)
        with pytest.raises(ConfigError):
            RankedEstimate([0], [1], num_frogs=1, num_vertices=4).top_k(-1)

    def test_empty_support_answers_in_id_order(self):
        empty = PageRankEstimate(np.zeros(4), num_frogs=2).ranked()
        assert empty.ranked_ids.size == 0 and empty.num_frogs == 2
        assert list(empty.top_k(2)) == [0, 1]
        assert list(empty.top_k_with_scores(9)[1]) == [0.0] * 4


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
