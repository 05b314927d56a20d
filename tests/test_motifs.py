import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from mantelab.hypergraph import (
    build_hypergraph,
    complete_hypergraph,
    partition_from_classes,
    turan_hypergraph,
)
from mantelab.motifs import (
    count_T,
    find_T,
    generalized_triangle,
    t_copy_triples,
)

from conftest import is_triangle_triple, naive_count_triangles, random_hypergraph


class TestPattern:
    def test_two_uniform_is_triangle(self):
        g = generalized_triangle(2)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_three_uniform(self):
        g = generalized_triangle(3)
        assert g.edges == ((0, 1, 2), (0, 1, 3), (2, 3, 4))

    def test_four_uniform(self):
        g = generalized_triangle(4)
        assert g.edges == ((0, 1, 2, 3), (0, 1, 2, 4), (3, 4, 5, 6))

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            generalized_triangle(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_pattern_is_its_own_witness(self, k):
        g = generalized_triangle(k)
        w = find_T(g)
        assert w is not None and len(w) == 3
        assert set(w) == set(g.edges)
        assert count_T(g) == 1


class TestFind:
    def test_turan_has_none(self):
        assert find_T(turan_hypergraph(12, 4)) is None

    def test_complete_has_witness(self):
        w = find_T(complete_hypergraph(7, 4))
        assert w is not None
        assert is_triangle_triple(*w, 4)

    def test_witness_structure(self, rng):
        found = 0
        for _ in range(60):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 9), k, p=0.5)
            w = find_T(h)
            if w is None:
                continue
            found += 1
            assert len(w) == 3 and all(len(e) == k for e in w)
            e1, e2, e3 = (set(e) for e in w)
            core, apex = e1 & e2, e1 ^ e2
            tails = e3 - apex
            assert len(core) == k - 1 and len(apex) == 2
            assert apex <= e3 and not (e3 & core)
            assert len(tails) == k - 2 and not (tails & (e1 | e2))
            assert all(e in h.edge_set for e in w)
        assert found > 10

    def test_unsupported_uniformity(self):
        h = build_hypergraph(6, 5, [{0, 1, 2, 3, 4}])
        with pytest.raises(ValueError, match="unsupported"):
            find_T(h)


class TestCount:
    def test_complete_three_uniform_five(self):
        # frozen from the exhaustive triple scan
        h = complete_hypergraph(5, 3)
        assert naive_count_triangles(h) == 30
        assert count_T(h) == 30

    def test_fewer_than_three_edges(self):
        h = build_hypergraph(7, 4, [{0, 1, 2, 3}, {0, 1, 2, 4}])
        assert count_T(h) == 0

    def test_matches_naive_scan(self, rng):
        for _ in range(60):
            k = rng.choice([2, 3, 4])
            n = rng.randint(2 * k - 1, 10)
            h = random_hypergraph(rng, n, k, m=rng.randint(0, 25))
            assert count_T(h) == naive_count_triangles(h)

    def test_find_none_iff_count_zero(self, rng):
        for _ in range(40):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(k + 2, 9), k, p=0.45)
            assert (find_T(h) is None) == (count_T(h) == 0)

    def test_monotone_under_edge_addition(self, rng):
        for _ in range(20):
            k = rng.choice([2, 3, 4])
            n = rng.randint(2 * k - 1, 9)
            universe = list(combinations(range(n), k))
            rng.shuffle(universe)
            prev = 0
            edges = []
            for e in universe[:14]:
                edges.append(e)
                cur = count_T(build_hypergraph(n, k, edges))
                assert cur >= prev
                prev = cur

    def test_four_partite_subsets_are_copy_free(self, rng):
        base = turan_hypergraph(12, 4)
        for _ in range(10):
            sub = [e for e in base.edges if rng.random() < 0.6]
            assert count_T(build_hypergraph(12, 4, sub)) == 0

    def test_copy_triples_are_copies(self, rng):
        for _ in range(20):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 9), k, p=0.5)
            trips = t_copy_triples(h)
            assert len(trips) == count_T(h)
            for i, j, l in trips:
                assert is_triangle_triple(h.edges[i], h.edges[j], h.edges[l], k)

    def test_copy_triples_match_triple_scan(self, rng):
        for _ in range(24):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 8), k, p=rng.uniform(0.2, 0.8))
            naive = [
                list(t) for t in combinations(range(len(h.edges)), 3)
                if is_triangle_triple(*(h.edges[i] for i in t), k)
            ]
            trips = t_copy_triples(h)
            assert trips.dtype == np.int64 and trips.shape == (len(naive), 3)
            assert trips.tolist() == naive
        assert t_copy_triples(turan_hypergraph(8, 4)).shape == (0, 3)

    @pytest.mark.parametrize("packed_edges", [1 << 21, 2])
    def test_copy_triples_same_over_blocks_and_packing(self, monkeypatch, rng, packed_edges):
        # one copy per block grows the buffer many times; above _PACKED_EDGES
        # edges the rows are lex-sorted unpacked
        import mantelab.motifs

        hosts = [random_hypergraph(rng, 9, k, p=0.6) for k in (2, 3, 4)]
        whole = [t_copy_triples(h) for h in hosts]
        monkeypatch.setattr(mantelab.motifs, "_PACKED_EDGES", packed_edges)
        monkeypatch.setattr(mantelab.motifs, "_BLOCK_ROWS", 1)
        for h, want in zip(hosts, whole):
            got = t_copy_triples(h)
            assert len(want) > 0 and got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_cores_apart_in_wide_vertex_range(self):
        # (0, 1, 2) and c have equal base-n keys c0 * n^2 + c1 * n + c2 modulo
        # 2^64, so cores must be told apart by their vertices
        n, c = 3_000_001, (2049636, 2591963, 2910020)
        x, y, z = n - 3, n - 2, n - 1
        h = build_hypergraph(n, 4, [(0, 1, 2, x), (0, 1, 2, y), c + (z,), (c[0] - 1, x, y, z)])
        assert count_T(h) == 1
        assert t_copy_triples(h).tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_copy_triples_limit(self, monkeypatch, k):
        import mantelab.motifs

        h = complete_hypergraph(2 * k + 2, k)
        trips = t_copy_triples(h)
        assert len(trips) > 10
        assert np.array_equal(t_copy_triples(h, limit=len(trips)), trips)
        # one core pair per block: every pair of K_{2k+2} holds comb(k+1, k-2) copies
        monkeypatch.setattr(mantelab.motifs, "_BLOCK_ROWS", 1)
        sizes = []
        blocks = mantelab.motifs._copy_blocks

        def counting_blocks(g):
            for rows in blocks(g):
                sizes.append(len(rows))
                yield rows

        monkeypatch.setattr(mantelab.motifs, "_copy_blocks", counting_blocks)
        with pytest.raises(ValueError, match="more than 10 "):
            t_copy_triples(h, limit=10)
        assert set(sizes) == {comb(k + 1, k - 2)}
        # the scan stops at the first block that takes the count past 10
        assert sum(sizes[:-1]) <= 10 < sum(sizes)
