import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mantelab.hypergraph import complete_hypergraph, to_text
from mantelab.randgen import (
    _host,
    _skip_ranks,
    _unrank_batch,
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
        assert derive_seed(7, 0) != derive_seed(7, 1)

    def test_million_distinct(self):
        master = 0xDEADBEEF
        seen = {derive_seed(master, i) for i in range(10**6)}
        assert len(seen) == 10**6

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_derived_is_64_bit(self, master, index):
        d = derive_seed(master, index)
        assert 0 <= d < 2**64


class TestColexOrder:
    @given(st.integers(0, 10**6), st.integers(1, 5))
    @example(10**6, 1)  # the widest position range, run every time
    @settings(max_examples=300)
    def test_unrank_rank_roundtrip(self, rank, k):
        s = colex_unrank(rank, k)
        assert len(set(s)) == k and list(s) == sorted(s)
        assert colex_rank(s) == rank

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unrank_batch_matches_colex_unrank(self, k):
        n = 200
        m = math.comb(n, k)
        # the ranks at and just below every C(x, i) step of the tables
        ranks = {math.comb(x, i) + d for x in range(n + 1) for i in range(1, k + 1) for d in (-1, 0)}
        ranks |= set(np.random.Generator(np.random.PCG64(k)).integers(0, m, 1000).tolist())
        ranks = sorted(r for r in ranks if 0 <= r < m)
        got = _unrank_batch(np.array(ranks, dtype=np.int64), k, n)
        assert got.tolist() == [list(colex_unrank(r, k)) for r in ranks]

    @pytest.mark.parametrize(
        "n, k, p",
        [pytest.param(n, k, p, id=f"{p}-{n}-{k}")
         for p in (0.0, 0.3, 1.0)
         for n, k in [(12, 2), (12, 3), (12, 4), (12, 5), (30, 5), (40, 3), (300, 2), (600, 2)]]
        # random ranks at the edges of the packed key widths: a 64-bit key with
        # its top bit in use (2^16), the lex-sort fallback past 64 bits
        # (2^16 + 1 at k = 4, 6300 at k = 5), 8 against 9 bits per vertex,
        # and a full 32-bit key against a 36-bit one
        + [pytest.param(n, k, None, id=f"ranks-{n}-{k}")
           for n, k in [(2**16, 4), (2**16 + 1, 4), (6300, 5), (256, 2), (257, 2),
                        (256, 4), (257, 4)]],
    )
    def test_host_rows_match_mirror_rank_order(self, n, k, p):
        # the lex order as one argsort of the negated colex ranks of the
        # mirror images {n-1-v}
        m = math.comb(n, k)
        rng = np.random.Generator(np.random.PCG64(n + k))
        if p is None:
            ranks = np.unique(np.concatenate([rng.integers(0, m, 500), [0, m - 1]]))
            rows = np.array([colex_unrank(r, k) for r in ranks.tolist()], dtype=np.int64)
        else:
            ranks = np.flatnonzero(rng.random(m) < p)
            rows = _unrank_batch(ranks, k, n)
        neg_mirror = np.zeros(len(rows), dtype=np.int64)
        for i in range(k):
            tab = np.array([math.comb(x, k - i) for x in range(n)], dtype=np.int64)
            neg_mirror -= tab[n - 1 - rows[:, i]]
        want = rows[np.argsort(neg_mirror)]
        got = _host(n, k, ranks).rows
        assert got.dtype == np.int64 and got.shape == (len(ranks), k)
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("seed", [8, 44, 50])
    def test_batch_continuation_matches_one_draw_walk(self, seed):
        # p * m = 960, so the sampler draws 1,024 uniforms per batch; for
        # these seeds the first batch ends inside the universe and a second
        # batch continues the walk from the same PCG64 stream
        n, k = 40, 4
        m = math.comb(n, k)
        p = 960 / m
        rng = np.random.Generator(np.random.PCG64(seed))
        log1mp = math.log1p(-p)
        pos, draws, edges = -1, 0, []
        while True:
            draws += 1
            pos += min(math.floor(math.log1p(-rng.random()) / log1mp), m + 1) + 1
            if pos >= m:
                break
            edges.append(colex_unrank(pos, k))
        assert draws > 1024
        assert sample_gknp(n, k, p, seed).edges == tuple(sorted(edges))

    @pytest.mark.parametrize("n, p", [(64, 0.5), (120, 0.005)])
    def test_rows_lex_sorted_with_walk_ranks(self, n, p):
        # the skip walk in one batch: PCG64 yields the same doubles however
        # they are batched, so these are the sampler's colex ranks
        k, seed = 4, derive_seed(n, 5)
        m = math.comb(n, k)
        rng = np.random.Generator(np.random.PCG64(seed))
        gaps = np.floor(np.log1p(-rng.random(int(p * m * 1.1) + 1024)) / math.log1p(-p))
        pos = np.cumsum(np.minimum(gaps, m + 1).astype(np.int64) + 1) - 1
        assert pos[-1] >= m
        walk = pos[pos < m]
        g = sample_gknp(n, k, p, seed)
        rows = g.edge_array
        keys = ((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]) * n + rows[:, 3]
        assert (np.diff(keys) > 0).all()
        tabs = [np.array([math.comb(x, i + 1) for x in range(n)], dtype=np.int64) for i in range(k)]
        ranks = sum(tabs[i][rows[:, i]] for i in range(k))
        assert np.array_equal(np.sort(ranks), walk)
        assert g.edges == tuple(sorted(g.edges))

    @pytest.mark.parametrize("n, p", [(64, 0.5), (128, 0.05)])
    def test_draw_peak_memory_bounded_by_rows(self, n, p):
        # the walk's batch arrays and the ranks are freed as the columns are
        # unranked, and each column is packed into a 4-byte lex key as it
        # comes, so one draw peaks at about 1.13x its rows (the rows and the
        # sorted keys) and, on a process's first draw, 1.2x
        tracemalloc.start()
        try:
            g = sample_gknp(n, 4, p, derive_seed(n, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * g.rows.nbytes

    @pytest.mark.parametrize("m, p, seed", [(91390, 960 / 91390, 8), (91390, 0.5, 1), (10, 0.3, 2)])
    def test_skip_ranks_match_out_of_place_walk(self, m, p, seed):
        # the in-place steps give the same doubles as the plain expressions
        rng = np.random.Generator(np.random.PCG64(seed))
        batch = max(1024, int(p * m * 1.05) + 16)
        taken, pos = [], -1
        while pos < m:
            g = np.floor(np.log1p(-rng.random(batch)) / math.log1p(-p))
            pos_arr = pos + np.cumsum(np.minimum(g, float(m + 1)).astype(np.int64) + 1)
            taken.append(pos_arr[pos_arr < m])
            if len(taken[-1]) < batch:
                break
            pos = int(pos_arr[-1])
        assert np.array_equal(_skip_ranks(m, p, seed), np.concatenate(taken))

    @pytest.mark.parametrize(
        "n, k, p, seed",
        # 1,024 steps of about 1/p overflow int64 in one batch; the last case
        # is the largest universe at k = 4 below the 2^62 limit
        [(6300, 5, 1e-18, 0), (6300, 5, 1e-17, 3), (102570, 4, 1e-16, 2)],
    )
    def test_skip_walk_exact_where_a_batch_wraps_int64(self, n, k, p, seed):
        # the sampler's steps of its first batch, walked in Python ints
        m = math.comb(n, k)
        rng = np.random.Generator(np.random.PCG64(seed))
        steps = np.floor(np.log1p(-rng.random(1024)) / math.log1p(-p))
        pos, walk = -1, []
        for step in steps.tolist():
            pos += min(int(step), m + 1) + 1
            if pos >= m:
                break
            walk.append(pos)
        assert pos >= m and sum(steps.tolist()) + 1024 > 2**63
        assert _skip_ranks(m, p, seed).tolist() == walk
        g = sample_gknp(n, k, p, seed)
        assert len(g) == len(walk) and ((g.rows >= 0) & (g.rows < n)).all()

    @pytest.mark.parametrize(
        "n, k, p",
        # C(102571, 4) is the first universe at k = 4 of 2^62 or more subsets
        [(10**6, 5, 1e-25), (112000, 4, 3e-18), (102571, 4, 1e-18)],
    )
    def test_refuses_universe_beyond_int64_ranks(self, n, k, p):
        with pytest.raises(ValueError, match="2\\^62"):
            sample_gknp(n, k, p, 1)

    def test_lower_tables_past_int64(self):
        # C(70, 35) > 2^63 while the universe C(70, 68) = 2415 is small
        seed = derive_seed(6, 0)
        g = sample_gknp(70, 68, 0.5, seed)
        assert sorted(colex_rank(e) for e in g.edges) == _skip_ranks(2415, 0.5, seed).tolist()
        assert list(g.edges) == sorted(set(g.edges))

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

    @pytest.mark.parametrize(
        "n, k, p",
        [pytest.param(k + 6, k, p, id=f"{p}-{k}") for k in (2, 3, 4, 5) for p in (0.0, 0.3, 1.0)]
        # about 18k rows: more than one 2^14-row block of Hypergraph.edges
        + [pytest.param(32, 4, 0.5, id="0.5-4-n32")],
    )
    def test_array_matches_edge_tuples(self, sampler, n, k, p):
        g = sampler(n, k, p, derive_seed(17, k))
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
