import random
from itertools import combinations

import pytest

from mantelab.hypergraph import (
    VertexPartition,
    build_hypergraph,
    complete_hypergraph,
    edge_subset,
    partition_from_classes,
    turan_hypergraph,
)
from mantelab.motifs import (
    KIND_GADGET,
    KIND_TRIANGLE,
    count_T,
    count_gadgets,
    find_T,
    gadget_witness,
    generalized_triangle,
    t_copy_triples,
    t_through_edges,
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
        assert w is not None and w.kind == KIND_TRIANGLE
        assert set(w.edges) == set(g.edges)
        assert count_T(g) == 1


class TestFind:
    def test_turan_has_none(self):
        assert find_T(turan_hypergraph(12, 4)) is None

    def test_complete_has_witness(self):
        w = find_T(complete_hypergraph(7, 4))
        assert w is not None
        assert is_triangle_triple(*w.edges, 4)

    def test_witness_structure(self, rng):
        found = 0
        for _ in range(60):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 9), k, p=0.5)
            w = find_T(h)
            if w is None:
                continue
            found += 1
            e1, e2, e3 = (set(e) for e in w.edges)
            core = set(w.core)
            assert e1 & e2 == core and len(core) == k - 1
            assert set(w.apex) == e1 ^ e2
            assert set(w.apex) <= e3 and not (e3 & core)
            assert set(w.tails) == e3 - set(w.apex)
            assert all(tuple(sorted(e)) in h.edge_set for e in w.edges)
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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_copy_triples_limit(self, monkeypatch, k):
        import mantelab.motifs

        h = complete_hypergraph(2 * k + 2, k)
        trips = t_copy_triples(h)
        assert len(trips) > 10
        assert t_copy_triples(h, limit=len(trips)) == trips
        scanned = 0
        scan = mantelab.motifs._scan

        def counting_scan(g):
            nonlocal scanned
            for item in scan(g):
                scanned += 1
                yield item

        monkeypatch.setattr(mantelab.motifs, "_scan", counting_scan)
        with pytest.raises(ValueError, match="more than 10 "):
            t_copy_triples(h, limit=10)
        # the scan stops at the 11th distinct copy (k=2 finds each copy 3 times)
        assert scanned <= (3 * 11 if k == 2 else 11)


class TestThroughEdges:
    def test_all_edges(self):
        h = complete_hypergraph(5, 3)
        b = edge_subset(h, h.edges)
        assert t_through_edges(h, b) == count_T(h)

    def test_empty(self):
        h = complete_hypergraph(5, 3)
        assert t_through_edges(h, edge_subset(h, [])) == 0

    def test_single_edge_of_pattern(self):
        h = generalized_triangle(4)
        b = edge_subset(h, [h.edges[0]])
        assert t_through_edges(h, b) == 1

    def test_matches_direct_count(self, rng):
        for _ in range(25):
            k = rng.choice([3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 9), k, p=0.5)
            ids = frozenset(
                i for i in range(len(h.edges)) if rng.random() < 0.4
            )
            from mantelab.hypergraph import EdgeSet

            b = EdgeSet(h, ids)
            direct = sum(
                1
                for i, j, l in t_copy_triples(h)
                if i in ids or j in ids or l in ids
            )
            assert t_through_edges(h, b) == direct


def equal_parts_16():
    return VertexPartition(4, tuple(v // 4 for v in range(16)))


class TestGadgets:
    def test_empty_anchor_set(self):
        g = complete_hypergraph(16, 4)
        assert count_gadgets(g, equal_parts_16(), []) == {}

    def test_complete_host_single_anchor_edge(self):
        # W has both anchors in the first class and two vertices in the second:
        # triples must avoid W, leaving 2 * 4 * 4 choices
        g = complete_hypergraph(16, 4)
        part = equal_parts_16()
        counts = count_gadgets(g, part, [(0, 1, 4, 5)])
        assert counts == {(0, 1): 32}

    def test_no_crossing_edges(self):
        g = build_hypergraph(16, 4, [(0, 1, 2, 3)])
        part = equal_parts_16()  # edge 0123 has 0,1,2,3 in class 0: not crossing
        counts = count_gadgets(g, part, [(0, 1, 2, 3)])
        assert counts == {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0, (2, 3): 0}

    def test_malformed_anchor_edge(self):
        g = complete_hypergraph(16, 4)
        with pytest.raises(ValueError, match="at least 2"):
            count_gadgets(g, equal_parts_16(), [(0, 4, 8, 12)])

    def test_existential_not_summed(self):
        # two certifying edges around the same pair: a triple avoided by either counts once
        g = complete_hypergraph(16, 4)
        part = equal_parts_16()
        counts = count_gadgets(g, part, [(0, 1, 4, 5), (0, 1, 6, 7)])
        # triples (x,y,z) in A2 x A3 x A4 with x outside {4,5} or outside {6,7}: all 64
        assert counts == {(0, 1): 64}

    def test_witness_yields_triangle(self, rng):
        produced = 0
        for _ in range(40):
            g = random_hypergraph(rng, 12, 4, p=0.35)
            part = VertexPartition(4, tuple(v % 4 for v in range(12)))
            anchors = [
                e
                for e in g.edges
                if sum(1 for v in e if part.class_of(v) == 0) >= 2
            ][:3]
            if not anchors:
                continue
            counts = count_gadgets(g, part, anchors)
            for pair, cnt in counts.items():
                if cnt == 0:
                    continue
                w = gadget_witness(g, part, anchors, pair)
                assert w is not None and w.kind == KIND_GADGET
                e1, e2 = w.edges
                assert e1 in g.edge_set and e2 in g.edge_set
                assert is_triangle_triple(e1, e2, w.certifying, 4)
                produced += 1
        assert produced > 5
