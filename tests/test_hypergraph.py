from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mantelab.hypergraph import (
    VertexPartition,
    build_hypergraph,
    common_degree,
    complete_hypergraph,
    crossing_edges,
    edge_subset,
    empty_hypergraph,
    from_text,
    link,
    partition_from_classes,
    shadow_graph,
    to_text,
    turan_hypergraph,
)
from mantelab.motifs import count_T, find_T
from mantelab.proplab import _crossing_degrees

from conftest import naive_crossing_ids, random_hypergraph, random_vertex_partition

T4_EDGES = [{0, 1, 2, 3}, {0, 1, 2, 4}, {3, 4, 5, 6}]


def t4():
    return build_hypergraph(7, 4, T4_EDGES)


class TestBuild:
    def test_dedup_same_set(self):
        h = build_hypergraph(5, 3, [{0, 1, 2}, {2, 1, 0}])
        assert len(h.edges) == 1

    def test_pattern_host(self):
        h = t4()
        assert len(h.edges) == 3
        assert h.edges == ((0, 1, 2, 3), (0, 1, 2, 4), (3, 4, 5, 6))

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="edge 0"):
            build_hypergraph(4, 4, [{0, 1, 2, 5}])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="edge 1"):
            build_hypergraph(6, 3, [{0, 1, 2}, [3, 3, 4]])

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="expected 4"):
            build_hypergraph(6, 4, [{0, 1, 2}])

    def test_needs_n_at_least_k(self):
        with pytest.raises(ValueError):
            build_hypergraph(3, 4, [])

    @given(st.lists(st.frozensets(st.integers(0, 7), min_size=3, max_size=3), max_size=12))
    def test_canonical(self, edges):
        h = build_hypergraph(8, 3, edges)
        assert list(h.edges) == sorted(set(h.edges))
        assert all(e == tuple(sorted(e)) for e in h.edges)
        assert len(h.edges) == len({frozenset(e) for e in edges})


class TestLink:
    def test_complete(self):
        h = complete_hypergraph(7, 4)
        lk = link(h, 0)
        assert lk.k == 3 and len(lk.edges) == 20

    def test_pattern_vertex(self):
        lk = link(t4(), 3)
        assert set(lk.edges) == {(0, 1, 2), (4, 5, 6)}
        assert t4().degree(3) == 2

    def test_empty(self):
        assert len(link(empty_hypergraph(6, 4), 2).edges) == 0

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            link(t4(), 9)


class TestCrossing:
    def test_complete_product(self):
        h = complete_hypergraph(8, 4)
        part = partition_from_classes([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
        assert len(crossing_edges(h, part)) == 16

    def test_pattern_by_hand(self):
        part = partition_from_classes([[0, 4], [1, 5], [2, 6], [3]], 7)
        cross = crossing_edges(t4(), part)
        assert set(cross.edges) == {(0, 1, 2, 3), (3, 4, 5, 6)}

    def test_empty_class(self):
        h = complete_hypergraph(8, 4)
        part = VertexPartition(4, (0, 0, 1, 1, 2, 2, 2, 2))
        assert len(crossing_edges(h, part)) == 0

    def test_rejects_r_mismatch(self):
        part = VertexPartition(3, (0, 1, 2, 0, 1, 2, 0))
        with pytest.raises(ValueError, match="r == k"):
            crossing_edges(t4(), part)


class TestDegrees:
    def test_common_complete(self):
        h = complete_hypergraph(9, 4)
        from math import comb
        assert common_degree(h, 0, 1) == comb(7, 3)

    def test_common_crossing_equal_parts(self):
        h = complete_hypergraph(16, 4)
        part = VertexPartition(4, tuple(v // 4 for v in range(16)))
        assert common_degree(h, 0, 1, part) == 64

    def test_common_pattern_zero(self):
        assert common_degree(t4(), 0, 4) == 0

    def test_common_same_vertex(self):
        with pytest.raises(ValueError):
            common_degree(t4(), 2, 2)


class TestShadow:
    def test_single_edge(self):
        h = build_hypergraph(4, 4, [{0, 1, 2, 3}])
        assert shadow_graph(h) == frozenset(combinations(range(4), 2))

    def test_two_edges_sharing_vertex(self):
        h = build_hypergraph(7, 4, [{0, 1, 2, 3}, {3, 4, 5, 6}])
        assert len(shadow_graph(h)) == 12

    def test_empty(self):
        assert len(shadow_graph(empty_hypergraph(5, 4))) == 0


class TestTuran:
    def test_two_uniform(self):
        h = turan_hypergraph(4, 2)
        assert len(h.edges) == 4  # complete bipartite 2+2

    def test_four_uniform(self):
        assert len(turan_hypergraph(7, 4).edges) == 8  # parts 2,2,2,1

    def test_three_uniform(self):
        assert len(turan_hypergraph(5, 3).edges) == 4  # parts 2,2,1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            turan_hypergraph(3, 4)

    def test_shadow_is_complete_multipartite(self):
        h = turan_hypergraph(9, 3)
        parts = [set(range(0, 3)), set(range(3, 6)), set(range(6, 9))]
        shadow = shadow_graph(h)
        for u, v in combinations(range(9), 2):
            same = any(u in p and v in p for p in parts)
            assert ((u, v) in shadow) == (not same)

    @pytest.mark.parametrize("n,r", [(7, 2), (8, 3), (9, 4), (12, 4)])
    def test_contains_no_triangle_copy(self, n, r):
        h = turan_hypergraph(n, r)
        assert find_T(h) is None
        assert count_T(h) == 0


class TestInvariants:
    def test_handshake(self, rng):
        for _ in range(25):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(k + 1, 9), k, p=0.4)
            assert sum(h.degree(v) for v in range(h.n)) == h.k * len(h.edges)

    def test_crossing_degree_identities(self, rng):
        for _ in range(25):
            h = random_hypergraph(rng, rng.randint(5, 9), 4, p=0.5)
            part = random_vertex_partition(rng, h.n, 4)
            cross = crossing_edges(h, part)
            dpis = _crossing_degrees(h, part.assignment).tolist()
            ids = naive_crossing_ids(h, part)
            assert dpis == [sum(v in h.edges[i] for i in ids) for v in range(h.n)]
            assert all(
                dpi <= h.degree(v) for v, dpi in enumerate(dpis)
            )
            assert sum(dpis) == h.k * len(cross)

    def test_pair_incidence_identity(self, rng):
        for _ in range(25):
            k = rng.choice([3, 4])
            h = random_hypergraph(rng, rng.randint(k + 1, 9), k, p=0.4)
            total = sum(
                sum(1 for e in h.edges if u in e and v in e)
                for u, v in combinations(range(h.n), 2)
            )
            from math import comb
            assert total == comb(h.k, 2) * len(h.edges)

    def test_complete_crossing_product(self, rng):
        h = complete_hypergraph(9, 4)
        for _ in range(10):
            part = random_vertex_partition(rng, 9, 4)
            expected = 1
            for s in part.class_sizes:
                expected *= s
            assert len(crossing_edges(h, part)) == expected


class TestCrossingOracle:
    """The crossing mask's readers against the set-arithmetic oracle."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_naive_crossing_ids(self, rng, k):
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(k + 1, 9), k, p=0.5)
            # uniform labels, so some partitions leave a class empty
            part = VertexPartition(k, tuple(rng.randrange(k) for _ in range(h.n)))
            ids = naive_crossing_ids(h, part)
            assert crossing_edges(h, part).indices == ids
            cross = {h.edges[i] for i in ids}
            assert _crossing_degrees(h, part.assignment).tolist() == [
                sum(v in e for e in cross) for v in range(h.n)
            ]
            for u, v in combinations(range(h.n), 2):
                both = [
                    (tuple(sorted(t + (u,))), tuple(sorted(t + (v,))))
                    for t in combinations(sorted(set(range(h.n)) - {u, v}), k - 1)
                ]
                assert common_degree(h, u, v, part) == sum(
                    a in cross and b in cross for a, b in both
                )
                assert common_degree(h, u, v) == sum(
                    a in h.edge_set and b in h.edge_set for a, b in both
                )


class TestEdgeSet:
    def test_subset_membership(self):
        h = t4()
        b = edge_subset(h, [(0, 1, 2, 3)])
        assert len(b) == 1 and (0, 1, 2, 3) in b
        assert b.as_hypergraph().edges == ((0, 1, 2, 3),)

    def test_rejects_foreign_edge(self):
        with pytest.raises(ValueError, match="not in host"):
            edge_subset(t4(), [(0, 1, 2, 5)])


class TestTextFormat:
    def test_canonical_bytes(self):
        h = t4()
        text = to_text(h)
        assert text == "7 4 3\n0 1 2 3\n0 1 2 4\n3 4 5 6\n"
        assert to_text(from_text(text)) == text

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(k + 1, 10), k, p=0.4)
            assert from_text(to_text(h)) == h

    def test_non_canonical_input_canonicalizes(self):
        text = "7 4 3\n3 4 5 6\n0 1 2 3\n0 1 2 4\n"
        assert to_text(from_text(text)) == to_text(t4())

    @pytest.mark.parametrize(
        "bad",
        [
            "7 4\n",
            "7 4 1\n0 1 2 3\nextra\n",
            "7 4 1\n0 1 3 2\n",
            "7 4 1\n0 1 2 3",
            "7 4 2\n0 1 2 3\n",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            from_text(bad)
