import random
from itertools import combinations, product

import numpy as np
import pytest

from mantelab.hypergraph import (
    EdgeSet,
    PairGraph,
    VertexPartition,
    build_hypergraph,
    complete_hypergraph,
    crossing_edges,
    empty_hypergraph,
    turan_hypergraph,
)
from mantelab.motifs import count_T, find_T, generalized_triangle
from mantelab.randgen import derive_seed, sample_gknp
from mantelab.solvers import (
    Budget,
    best_partition_for,
    bipartite_half,
    is_4partite,
    max_cut4_exact,
    max_cut4_local,
    max_tfree_exact,
    max_tfree_repair,
)

from conftest import random_hypergraph, random_vertex_partition


def brute_force_tfree(h) -> int:
    """2^m subset enumeration oracle."""
    from mantelab.motifs import t_copy_triples

    m = len(h.edges)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in t_copy_triples(h)]
    s = np.arange(1 << m, dtype=np.uint32)
    bad = np.zeros(1 << m, dtype=bool)
    for mk in masks:
        bad |= (s & mk) == mk
    pc = np.zeros(1 << m, dtype=np.uint8)
    tmp = s.copy()
    while tmp.any():
        pc += (tmp & 1).astype(np.uint8)
        tmp >>= 1
    return int(pc[~bad].max())


def brute_force_cut4(h) -> int:
    """4^n assignment enumeration oracle."""
    n = len(range(h.n))
    total = 4**n
    counts = np.zeros(total, dtype=np.int32)
    idx = np.arange(total, dtype=np.int64)
    cls = [(idx // 4**v) % 4 for v in range(n)]
    for e in h.edges:
        bits = (
            (1 << cls[e[0]].astype(np.int16))
            | (1 << cls[e[1]].astype(np.int16))
            | (1 << cls[e[2]].astype(np.int16))
            | (1 << cls[e[3]].astype(np.int16))
        )
        counts += bits == 0b1111
    return int(counts.max())


class TestTfreeExact:
    def test_pattern_needs_one_deletion(self):
        res = max_tfree_exact(generalized_triangle(4))
        assert res.value == 2 and res.optimal

    def test_already_copy_free(self):
        h = turan_hypergraph(8, 4)
        res = max_tfree_exact(h)
        assert res.value == len(h.edges) and res.optimal

    def test_mantel_k5(self):
        res = max_tfree_exact(complete_hypergraph(5, 2))
        assert res.value == 6 and res.optimal

    def test_complete_three_uniform_five(self):
        # the full 2^10 oracle fixes the value at 6; the 6-edge star through
        # one vertex is copy-free and beats the 4-edge transversal bound
        h = complete_hypergraph(5, 3)
        assert brute_force_tfree(h) == 6
        res = max_tfree_exact(h)
        assert res.value == 6 and res.optimal
        star = build_hypergraph(5, 3, [e for e in h.edges if 0 in e])
        assert len(star.edges) == 6 and find_T(star) is None

    def test_witness_is_feasible_and_sized(self, rng):
        for _ in range(15):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 9), k, m=rng.randint(3, 16))
            res = max_tfree_exact(h)
            assert res.optimal
            assert len(res.witness.edges) == res.value
            assert count_T(res.witness.as_hypergraph()) == 0

    def test_matches_subset_oracle(self, rng):
        for _ in range(25):
            k = rng.choice([2, 3, 4])
            n = rng.randint(k + 2, 9)
            h = random_hypergraph(rng, n, k, m=rng.randint(3, 15))
            assert max_tfree_exact(h).value == brute_force_tfree(h)

    def test_budget_returns_incumbent(self):
        h = complete_hypergraph(9, 2)
        res = max_tfree_exact(h, Budget(max_nodes=3))
        assert not res.optimal
        assert res.stats.budget_hit
        assert count_T(res.witness.as_hypergraph()) == 0

    def test_deterministic_witness(self):
        h = complete_hypergraph(7, 4)
        a = max_tfree_exact(h)
        b = max_tfree_exact(h)
        assert a.witness.indices == b.witness.indices and a.value == b.value


# max_tfree_exact results recorded from the per-copy-array solver that the
# bitset state replaced; a rewrite that keeps the branching rules must
# reproduce them exactly: (host, node budget, value, witness ids, optimal, nodes)
_GOLDEN_TFREE = [
    ("gknp-9-0.3-0", None, 23, (
        0, 2, 4, 9, 10, 11, 12, 14, 17, 18, 19, 20, 21, 23, 24, 25, 26, 30, 31, 32, 33,
        34, 35,
    ), True, 705),
    ("gknp-9-0.3-1", None, 27, (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26,
    ), True, 602),
    ("gknp-9-0.3-2", None, 24, (
        0, 4, 5, 7, 12, 13, 14, 15, 17, 18, 19, 22, 23, 24, 25, 26, 27, 31, 32, 33, 34,
        38, 39, 40,
    ), True, 1065),
    ("gknp-9-0.4-0", None, 27, (
        3, 5, 8, 9, 13, 15, 17, 20, 21, 22, 23, 24, 25, 27, 28, 30, 33, 34, 35, 39, 41,
        42, 44, 46, 47, 48, 49,
    ), True, 6557),
    ("gknp-9-0.4-1", None, 31, (
        1, 2, 5, 6, 7, 8, 11, 14, 17, 18, 19, 21, 24, 26, 29, 32, 34, 35, 37, 42, 44,
        45, 47, 48, 49, 50, 51, 52, 53, 55, 56,
    ), True, 15322),
    ("gknp-9-0.4-2", None, 27, (
        0, 1, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25, 26, 27, 28, 29, 30, 39, 40, 41, 42,
        43, 44, 45, 46, 47, 48,
    ), True, 19713),
    ("gknp-8-0.5-0", None, 21, (
        3, 5, 6, 8, 10, 12, 13, 14, 16, 17, 19, 20, 22, 23, 24, 25, 28, 29, 31, 32, 33,
    ), True, 280),
    ("gknp-8-0.5-1", None, 22, (
        0, 2, 3, 4, 5, 9, 10, 16, 17, 21, 22, 23, 26, 27, 28, 32, 33, 34, 35, 36, 37,
        40,
    ), True, 1271),
    ("random-k2", None, 16, (
        1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 19, 21,
    ), True, 6),
    ("random-k3", None, 15, (
        1, 4, 6, 7, 8, 14, 15, 16, 17, 19, 20, 26, 27, 28, 29,
    ), True, 387),
    ("complete-10", 300, 36, (
        0, 4, 9, 22, 29, 33, 40, 47, 54, 60, 74, 81, 84, 88, 92, 102, 106, 115, 124,
        136, 140, 144, 147, 154, 156, 163, 168, 174, 175, 181, 186, 193, 195, 202, 205,
        209,
    ), False, 301),
]


def _golden_host(name: str):
    kind, *args = name.split("-")
    if kind == "gknp":
        n, p, i = args
        return sample_gknp(int(n), 4, float(p), derive_seed(17, int(i)))
    if kind == "random":
        k = int(args[0][1])
        n, m = {2: (9, 22), 3: (8, 30)}[k]
        return random_hypergraph(random.Random(k), n, k, m=m)
    build = {"complete": complete_hypergraph, "turan": turan_hypergraph, "empty": empty_hypergraph}
    return build[kind](int(args[0]), 4)


class TestTfreeExactGolden:
    @pytest.mark.parametrize(
        "name,max_nodes,value,witness,optimal,nodes",
        _GOLDEN_TFREE,
        ids=[g[0] for g in _GOLDEN_TFREE],
    )
    def test_search_tree_unchanged(self, name, max_nodes, value, witness, optimal, nodes):
        res = max_tfree_exact(_golden_host(name), Budget(max_nodes=max_nodes))
        assert res.value == value
        assert tuple(sorted(res.witness.indices)) == witness
        assert res.optimal is optimal
        assert res.stats.nodes == nodes
        assert res.stats.budget_hit is (not optimal)

    def test_complete_eleven_stays_small(self):
        # 69,300 copies: a per-copy conflict mask would need ~600 MB here,
        # the per-edge copy masks need ~3 MB
        h = complete_hypergraph(11, 4)
        res = max_tfree_exact(h, Budget(max_nodes=50))
        assert res.stats.budget_hit
        assert not res.optimal
        assert len(res.witness.edges) == res.value
        assert count_T(res.witness.as_hypergraph()) == 0


# max_cut4_exact results recorded from the solver with per-edge counters and
# undo logs that the bitset state replaced; a rewrite that keeps the vertex
# order, symmetry rule, seed incumbent and bound must reproduce them exactly:
# (host, node budget, use_symmetry, value, assignment, optimal, nodes)
_GOLDEN_CUT = [
    ("gknp-8-0.5-0", None, True, 12, (1, 3, 2, 1, 0, 0, 2, 3), True, 377),
    ("gknp-9-0.3-1", None, True, 15, (0, 1, 1, 2, 2, 2, 0, 3, 3), True, 911),
    ("gknp-9-0.5-1", None, True, 20, (2, 1, 3, 0, 0, 2, 1, 2, 3), True, 1396),
    ("gknp-9-0.7-0", None, True, 24, (2, 0, 1, 3, 3, 2, 3, 1, 0), True, 2307),
    ("gknp-9-1.0-0", None, True, 24, (0, 1, 2, 3, 0, 1, 2, 3, 0), True, 3475),
    ("gknp-10-0.3-0", None, True, 19, (2, 0, 1, 2, 3, 1, 0, 0, 2, 3), True, 3196),
    ("gknp-10-0.5-0", None, True, 28, (2, 1, 3, 1, 2, 0, 3, 3, 0, 1), True, 7479),
    ("gknp-8-0.5-1", None, False, 13, (1, 0, 0, 1, 2, 3, 3, 2), True, 10017),
    ("complete-8", None, True, 16, (0, 1, 2, 3, 0, 1, 2, 3), True, 880),
    # the local-cut seed already crosses every edge, so no node is searched
    ("turan-9", None, True, 24, (2, 2, 2, 0, 0, 3, 3, 1, 1), True, 0),
    ("empty-7", None, True, 0, (0, 1, 2, 3, 0, 1, 2), True, 0),
    ("complete-11", 1, True, 54, (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2), False, 2),
    ("complete-11", 300, True, 54, (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2), False, 301),
]


class TestCut4ExactGolden:
    @pytest.mark.parametrize(
        "name,max_nodes,use_symmetry,value,assignment,optimal,nodes",
        _GOLDEN_CUT,
        ids=[f"{g[0]}-{g[1]}-{'sym' if g[2] else 'nosym'}" for g in _GOLDEN_CUT],
    )
    def test_search_tree_unchanged(
        self, name, max_nodes, use_symmetry, value, assignment, optimal, nodes
    ):
        res = max_cut4_exact(
            _golden_host(name), Budget(max_nodes=max_nodes), use_symmetry=use_symmetry
        )
        assert res.value == value
        assert res.witness.assignment == assignment
        assert res.optimal is optimal
        assert res.stats.nodes == nodes
        assert res.stats.budget_hit is (not optimal)


class TestTfreeRepair:
    def test_identity_on_copy_free(self):
        h = turan_hypergraph(9, 3)
        res = max_tfree_repair(h, derive_seed(1, 1))
        assert res.value == len(h.edges)
        assert not res.optimal

    def test_pattern(self):
        res = max_tfree_repair(generalized_triangle(4), derive_seed(1, 1))
        assert res.value == 2

    def test_always_copy_free(self, rng):
        for i in range(15):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(2 * k - 1, 10), k, p=0.5)
            res = max_tfree_repair(h, derive_seed(10, i))
            assert count_T(res.witness.as_hypergraph()) == 0

    def test_dominates_local_cut(self):
        # the local-cut crossing set seeds the incumbent, so this is enforced
        seed = derive_seed(2024, 5)
        g = sample_gknp(20, 4, 0.3, seed)
        repair = max_tfree_repair(g, seed, restarts=4)
        cut = max_cut4_local(g, seed, restarts=4)
        assert repair.value >= cut.value


class TestCut4Exact:
    def test_complete_eight(self):
        res = max_cut4_exact(complete_hypergraph(8, 4))
        assert res.value == 16 and res.optimal
        assert sorted(res.witness.class_sizes) == [2, 2, 2, 2]

    def test_transversal_host_all_crossing(self):
        h = turan_hypergraph(8, 4)
        res = max_cut4_exact(h)
        assert res.value == len(h.edges) and res.optimal

    def test_empty(self):
        res = max_cut4_exact(empty_hypergraph(6, 4))
        assert res.value == 0 and res.optimal

    def test_rejects_wrong_uniformity(self):
        with pytest.raises(ValueError):
            max_cut4_exact(complete_hypergraph(6, 3))

    def test_matches_assignment_oracle(self, rng):
        for _ in range(12):
            n = rng.randint(5, 8)
            h = random_hypergraph(rng, n, 4, p=rng.uniform(0.2, 0.7))
            assert max_cut4_exact(h).value == brute_force_cut4(h)

    def test_symmetry_breaking_loses_nothing(self, rng):
        for _ in range(8):
            n = rng.randint(5, 9)
            h = random_hypergraph(rng, n, 4, p=0.5)
            with_sym = max_cut4_exact(h, use_symmetry=True)
            without = max_cut4_exact(h, use_symmetry=False)
            assert with_sym.value == without.value
            assert with_sym.optimal and without.optimal

    def test_witness_achieves_value(self, rng):
        for _ in range(10):
            h = random_hypergraph(rng, rng.randint(5, 9), 4, p=0.5)
            res = max_cut4_exact(h)
            assert len(crossing_edges(h, res.witness)) == res.value


class TestCut4Local:
    def test_reaches_transversal_value(self):
        h = turan_hypergraph(12, 4)
        res = max_cut4_local(h, derive_seed(7, 7), restarts=8)
        assert res.value == 81
        assert not res.optimal

    def test_single_edge(self):
        h = build_hypergraph(6, 4, [(0, 1, 2, 3)])
        res = max_cut4_local(h, derive_seed(7, 7), restarts=4)
        assert res.value == 1

    def test_never_beats_exact(self, rng):
        for i in range(10):
            h = random_hypergraph(rng, rng.randint(5, 8), 4, p=0.5)
            local = max_cut4_local(h, derive_seed(50, i), restarts=4)
            exact = max_cut4_exact(h)
            assert local.value <= exact.value

    def test_one_move_optimal(self, rng):
        h = random_hypergraph(rng, 9, 4, p=0.5)
        res = max_cut4_local(h, derive_seed(4, 4), restarts=2)
        assign = list(res.witness.assignment)
        base = len(crossing_edges(h, res.witness))
        for v in range(h.n):
            orig = assign[v]
            for c in range(4):
                if c == orig:
                    continue
                assign[v] = c
                moved = len(crossing_edges(h, VertexPartition(4, tuple(assign))))
                assert moved <= base
            assign[v] = orig


class TestPartitionFor:
    def test_exact_delegate(self):
        f = turan_hypergraph(8, 4)
        res = best_partition_for(f, "exact")
        assert len(crossing_edges(f, res.witness)) == len(f.edges)

    def test_local_delegate_needs_seed(self):
        with pytest.raises(ValueError):
            best_partition_for(turan_hypergraph(8, 4), "local")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            best_partition_for(turan_hypergraph(8, 4), "annealed")


class TestIs4Partite:
    def test_transversal_host(self):
        assert is_4partite(turan_hypergraph(10, 4)) is True

    def test_pattern_is_not(self):
        assert is_4partite(generalized_triangle(4)) is False

    def test_empty_is(self):
        assert is_4partite(empty_hypergraph(5, 4)) is True

    def test_budget_exhaustion_is_indeterminate(self):
        h = complete_hypergraph(9, 4)
        assert is_4partite(h, Budget(max_nodes=2)) is None


class TestCrossingFeasibility:
    def test_crossing_sets_always_copy_free(self, rng):
        for _ in range(40):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(k + 1, 10), k, p=0.5)
            part = random_vertex_partition(rng, h.n, k)
            cross = crossing_edges(h, part)
            assert count_T(cross.as_hypergraph()) == 0

    def test_tfree_dominates_cut(self, rng):
        for _ in range(8):
            h = random_hypergraph(rng, rng.randint(5, 8), 4, p=0.35)
            tf = max_tfree_exact(h)
            ct = max_cut4_exact(h)
            assert tf.value >= ct.value


class TestBipartiteHalf:
    def test_triangle(self):
        p = PairGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        res = bipartite_half(p)
        assert len(res.cross) == 2

    def test_empty(self):
        res = bipartite_half(PairGraph(4, frozenset()))
        assert len(res.cross) == 0

    def test_half_guarantee_random(self, rng):
        for _ in range(40):
            n = rng.randint(2, 12)
            edges = frozenset(
                pr for pr in combinations(range(n), 2) if rng.random() < 0.4
            )
            p = PairGraph(n, edges)
            res = bipartite_half(p)
            assert 2 * len(res.cross) >= len(p.edges)
            # result is a genuine cut of the returned sides
            assert res.left | res.right == frozenset(range(n))
            assert not (res.left & res.right)
            for u, v in res.cross.edges:
                assert (u in res.left) != (v in res.left)

    def test_bipartite_keeps_guarantee(self):
        edges = frozenset((u, v) for u, v in product(range(0, 3), range(3, 6)))
        p = PairGraph(6, frozenset(tuple(sorted(e)) for e in edges))
        res = bipartite_half(p)
        assert 2 * len(res.cross) >= len(p.edges)
