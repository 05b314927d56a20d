import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mantelab.hypergraph import (
    EdgeSet,
    Hypergraph,
    VertexPartition,
    _class_bits,
    _crossing_mask,
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
    turan_partition,
)
from mantelab.motifs import count_T, find_T
from mantelab.proplab import _crossing_degrees
from mantelab.randgen import derive_seed, sample_gknp

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

    def test_matches_sorted_edge_remainders(self, rng):
        for k in (2, 3, 4):
            h = random_hypergraph(rng, 9, k, p=0.4)
            for v in range(h.n):
                rem = sorted(tuple(x for x in e if x != v) for e in h.edges if v in e)
                assert link(h, v).edges == tuple(rem)


class TestConstructors:
    """Row-built and tuple-built hosts are one type: equal by (n, k, rows)."""

    def test_sampled_host_equals_tuple_built(self):
        g = sample_gknp(12, 4, 0.4, derive_seed(9, 2))
        h = build_hypergraph(12, 4, g.edges)
        assert g == h and hash(g) == hash(h)

    def test_unequal_hosts(self):
        g = sample_gknp(12, 4, 0.4, derive_seed(9, 2))
        assert g != Hypergraph(13, 4, g.rows)
        new = next(e for e in combinations(range(12), 4) if e not in g.edge_set)
        assert g != build_hypergraph(12, 4, g.edges[:-1] + (new,))
        assert g != g.edges

    def test_empty_rows(self):
        h = Hypergraph(6, 4, ())
        assert h.edge_array.shape == (0, 4) and h.edge_array.dtype == np.int64
        assert len(h) == 0 and h.edges == ()
        assert h == empty_hypergraph(6, 4)

    def test_array_input_yields_python_ints(self):
        h = build_hypergraph(6, 4, np.array([[3, 1, 0, 2], [5, 4, 3, 2]]))
        assert h.edges == ((0, 1, 2, 3), (2, 3, 4, 5))
        assert all(type(v) is int for e in h.edges for v in e)
        assert json.loads(json.dumps(h.edges)) == [[0, 1, 2, 3], [2, 3, 4, 5]]


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


class TestVertexIndex:
    """Per-vertex queries read the rows; none of them builds the host's edge tuples."""

    def test_vertex_edges_match_edge_loop(self, rng):
        hosts = [empty_hypergraph(7, 4), build_hypergraph(9, 3, [{0, 1, 2}, {2, 5, 7}])]
        for k in (2, 3, 4, 5):
            hosts += [random_hypergraph(rng, rng.randint(k, 10), k, p=0.4) for _ in range(6)]
        for h in hosts:
            index = h.vertex_edges
            assert index == tuple(
                tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)
            )
            assert all(list(ids) == sorted(set(ids)) for ids in index)
            assert all(type(i) is int for ids in index for i in ids)
            assert [h.degree(v) for v in range(h.n)] == [len(ids) for ids in index]
        assert hosts[1].vertex_edges[3] == () and hosts[1].vertex_edges[2] == (0, 1)

    @pytest.mark.parametrize(
        "query",
        [
            lambda h, part: h.degree(3),
            lambda h, part: h.vertex_edges,
            lambda h, part: link(h, 3),
            lambda h, part: common_degree(h, 3, 7),
            lambda h, part: common_degree(h, 3, 7, part),
        ],
        ids=["degree", "vertex_edges", "link", "common_degree", "common_degree_part"],
    )
    def test_queries_leave_edges_unbuilt(self, query):
        h = sample_gknp(14, 4, 0.4, derive_seed(4, 4))
        query(h, turan_partition(14, 4))
        assert "edges" not in vars(h)


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


class TestTuranPartition:
    @pytest.mark.parametrize("n,r", [(4, 2), (7, 4), (9, 3), (10, 4), (12, 2)])
    def test_crossing_set_is_the_turan_hypergraph(self, n, r):
        part = turan_partition(n, r)
        sizes = [n // r + (i < n % r) for i in range(r)]
        assert part.class_sizes == tuple(sizes)
        assert list(part.assignment) == sorted(part.assignment)
        crossing = crossing_edges(complete_hypergraph(n, r), part).as_hypergraph()
        assert crossing == turan_hypergraph(n, r)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            turan_partition(3, 4)


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
        hosts = [empty_hypergraph(k + 2, k)]
        hosts += [random_hypergraph(rng, rng.randint(k + 1, 9), k, p=0.5) for _ in range(20)]
        for h in hosts:
            # uniform labels, so some partitions leave a class empty
            part = VertexPartition(k, tuple(rng.randrange(k) for _ in range(h.n)))
            ids = naive_crossing_ids(h, part)
            mask = _crossing_mask(h, part.assignment)
            assert mask.dtype == np.bool_ and mask.shape == (len(h),)
            assert set(np.flatnonzero(mask).tolist()) == ids
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


    @pytest.mark.parametrize("k", range(2, 10))
    def test_mask_matches_tuple_recount(self, rng, k):
        # the class bits take one byte up to k = 8, and two at k = 9
        hosts = [complete_hypergraph(k + 1, k)]
        hosts += [random_hypergraph(rng, rng.randint(k, k + 3), k, p=0.6) for _ in range(8)]
        for h in hosts:
            labels = [rng.randrange(k) for _ in range(h.n)]
            bits = _class_bits(h, labels)
            assert bits.dtype == (np.uint8 if k <= 8 else np.uint16)
            assert bits.tolist() == [[1 << labels[v] for v in e] for e in h.edges]
            want = [len({labels[v] for v in e}) == k for e in h.edges]
            assert _crossing_mask(h, labels).tolist() == want
            assert _crossing_mask(h, labels, bits).tolist() == want


class TestEdgeSet:
    def test_subset_membership(self):
        h = t4()
        b = edge_subset(h, [(0, 1, 2, 3)])
        assert len(b) == 1 and (0, 1, 2, 3) in b
        assert b.as_hypergraph().edges == ((0, 1, 2, 3),)

    def test_rejects_foreign_edge(self):
        with pytest.raises(ValueError, match="not in host"):
            edge_subset(t4(), [(0, 1, 2, 5)])

    @pytest.mark.parametrize("host", [
        sample_gknp(12, 4, 0.4, derive_seed(5, 0)), complete_hypergraph(9, 3),
    ], ids=["sampled", "tuple-built"])
    def test_as_hypergraph_takes_the_host_rows(self, host, rng):
        # F is built from the host's rows at ids; its tuples wait for a read
        for size in (0, 1, len(host) // 3, len(host)):
            ids = sorted(rng.sample(range(len(host)), size))
            f = EdgeSet(host, frozenset(ids)).as_hypergraph()
            assert np.array_equal(f.rows, host.rows[ids])
            assert not f.rows.flags.writeable
            assert "edges" not in f.__dict__
            assert f.edge_array.dtype == np.int64 and f.edge_array.shape == (size, host.k)
            assert f == Hypergraph(host.n, host.k, tuple(host.edges[i] for i in ids))
            assert all(type(v) is int for e in f.edges for v in e)


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
            # tokens other than canonical decimals
            "8 4 1\r\n0 1 2 3\r\n",
            "8 4 1\n0 1 2 +3\n",
            "8 4 1\n0 1 2 03\n",
            "08 4 1\n0 1 2 3\n",
            "20 4 1\n0 1 2 1_0\n",
            # no header, and an edge line one vertex short
            "\n",
            "7 4 1\n0 1 2\n",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            from_text(bad)


# the range checks of the constructors and helpers, each with its message
_RANGE_CHECKS = [
    pytest.param(lambda: t4().degree(7), "vertex 7 out of range 0..6", id="degree"),
    pytest.param(lambda: EdgeSet(t4(), frozenset({1, 3})), "edge ids out of range: [3]",
                 id="edge-ids"),
    pytest.param(lambda: VertexPartition(0, ()), "partition needs at least one class",
                 id="no-class"),
    pytest.param(lambda: VertexPartition(2, (0, 2)), "vertex 1: class 2 out of range 0..1",
                 id="class-label"),
    pytest.param(lambda: build_hypergraph(3, 1, []), "uniformity k=1 must be at least 2",
                 id="build-k"),
    pytest.param(lambda: complete_hypergraph(3, 4), "need n >= k >= 2, got n=3, k=4",
                 id="complete-n"),
    pytest.param(lambda: common_degree(t4(), 0, 7), "vertex 7 out of range 0..6",
                 id="common-degree"),
    pytest.param(lambda: partition_from_classes([[0, 5]], 3), "vertex 5 out of range 0..2",
                 id="classes-range"),
    pytest.param(lambda: partition_from_classes([[0, 1], [1, 2]], 3), "vertex 1 assigned twice",
                 id="classes-twice"),
    pytest.param(lambda: partition_from_classes([[0], [2]], 3), "vertices not assigned: [1]",
                 id="classes-missing"),
]


@pytest.mark.parametrize("call,message", _RANGE_CHECKS)
def test_range_checks_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
