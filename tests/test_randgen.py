import math
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mantelab.hypergraph import complete_hypergraph, to_text
from mantelab.randgen import (
    colex_rank,
    colex_unrank,
    derive_seed,
    random_partition,
    sample_gknp,
    sample_gknp_bernoulli,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 45) == derive_seed(123, 45)

    def test_distinct_indices(self):
        assert derive_seed(7, 0).derived != derive_seed(7, 1).derived

    def test_million_distinct(self):
        master = 0xDEADBEEF
        seen = {derive_seed(master, i).derived for i in range(10**6)}
        assert len(seen) == 10**6

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_derived_is_64_bit(self, master, index):
        d = derive_seed(master, index).derived
        assert 0 <= d < 2**64


class TestColexOrder:
    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=300)
    def test_unrank_rank_roundtrip(self, rank, k):
        s = colex_unrank(rank, k)
        assert len(set(s)) == k and list(s) == sorted(s)
        assert colex_rank(s) == rank

    def test_order_matches_reversed_lex(self):
        # colex order of k-subsets is lexicographic order of reversed tuples
        subsets = sorted(combinations(range(8), 3), key=lambda t: t[::-1])
        for i, s in enumerate(subsets):
            assert colex_unrank(i, 3) == s
            assert colex_rank(s) == i


class TestSampler:
    def test_p_zero_empty(self):
        assert len(sample_gknp(10, 4, 0.0, derive_seed(1, 0)).edges) == 0

    def test_p_one_complete(self):
        g = sample_gknp(9, 3, 1.0, derive_seed(1, 0))
        assert g == complete_hypergraph(9, 3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_gknp(10, 4, 1.5, derive_seed(1, 0))

    def test_determinism_bytes(self):
        a = sample_gknp(20, 4, 0.2, derive_seed(99, 3))
        b = sample_gknp(20, 4, 0.2, derive_seed(99, 3))
        assert to_text(a) == to_text(b)

    def test_determinism_across_threads(self):
        def job(_):
            return to_text(sample_gknp(15, 4, 0.3, derive_seed(5, 7)))

        serial = job(None)
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(out == serial for out in pool.map(job, range(8)))

    def test_single_seed_count_band(self):
        # mean 9139, sigma ~90.7: stay within 4 sigma
        g = sample_gknp(40, 4, 0.1, derive_seed(2024, 0))
        assert 8776 <= len(g.edges) <= 9502

    def test_mean_over_thousand_seeds(self):
        total = 0
        for i in range(1000):
            total += len(sample_gknp(40, 4, 0.1, derive_seed(31337, i)).edges)
        mean = total / 1000
        assert abs(mean - 9139.0) <= 0.01 * 9139.0

    def test_edge_count_concentration_small(self):
        # sample-mean within 3 sigma / sqrt(trials) of p * C(n, k)
        n, k, p, trials = 12, 3, 0.2, 1500
        m = math.comb(n, k)
        sigma = math.sqrt(m * p * (1 - p))
        total = sum(
            len(sample_gknp(n, k, p, derive_seed(777, i)).edges) for i in range(trials)
        )
        assert abs(total / trials - p * m) <= 3 * sigma / math.sqrt(trials)

    def test_golden_stream(self):
        # pins the normative skip-sampler stream for one small case
        g = sample_gknp(6, 2, 0.5, derive_seed(0, 0))
        assert g.edges == (
            (0, 1), (0, 5), (1, 2), (1, 4), (1, 5), (2, 5), (3, 5),
        )

    def test_valid_edges(self):
        g = sample_gknp(11, 4, 0.4, derive_seed(8, 8))
        assert all(len(set(e)) == 4 and 0 <= min(e) and max(e) < 11 for e in g.edges)
        assert list(g.edges) == sorted(set(g.edges))


class TestBernoulliGenerator:
    def test_degenerate_ends_agree(self):
        s = derive_seed(4, 4)
        assert sample_gknp_bernoulli(8, 3, 0.0, s) == sample_gknp(8, 3, 0.0, s)
        assert sample_gknp_bernoulli(8, 3, 1.0, s) == sample_gknp(8, 3, 1.0, s)

    def test_distinct_stream_same_distribution(self):
        # distinct named generators: streams differ, statistics agree
        n, k, p, trials = 10, 3, 0.3, 300
        m = math.comb(n, k)
        a = [len(sample_gknp(n, k, p, derive_seed(12, i)).edges) for i in range(trials)]
        b = [
            len(sample_gknp_bernoulli(n, k, p, derive_seed(12, i)).edges)
            for i in range(trials)
        ]
        sigma = math.sqrt(m * p * (1 - p))
        assert abs(sum(a) / trials - p * m) <= 4 * sigma / math.sqrt(trials)
        assert abs(sum(b) / trials - p * m) <= 4 * sigma / math.sqrt(trials)


@pytest.mark.parametrize("sampler", [sample_gknp, sample_gknp_bernoulli])
class TestSampledArray:
    """Sampled hosts carry their edges as a read-only array in edge order."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_array_matches_edge_tuples(self, sampler, k, p):
        g = sampler(k + 6, k, p, derive_seed(17, k))
        arr = g.edge_array
        assert arr.dtype == np.int64 and arr.shape == (len(g.edges), k)
        assert np.array_equal(arr, np.asarray(g.edges, dtype=np.int64).reshape(-1, k))
        assert list(g.edges) == sorted(set(g.edges))  # lex order, no duplicates
        assert all(type(v) is int for e in g.edges for v in e)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0:1] = 0


def test_lex_order_where_base_n_key_overflows():
    # a base-n key of a 5-subset of 6300 vertices overflows int64 (6300**5 > 2**63)
    g = sample_gknp(6300, 5, 1e-15, derive_seed(3, 1))
    assert len(g.edges) > 10
    assert list(g.edges) == sorted(set(g.edges))
    assert np.array_equal(g.edge_array, np.asarray(g.edges, dtype=np.int64))


class TestRandomPartition:
    def test_near_equal_sizes(self):
        part = random_partition(14, 4, derive_seed(3, 3))
        assert sorted(part.class_sizes) == [3, 3, 4, 4]

    def test_deterministic(self):
        assert random_partition(14, 4, derive_seed(3, 3)) == random_partition(
            14, 4, derive_seed(3, 3)
        )
