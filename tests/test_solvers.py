import hashlib
import math
import random
import sys
from itertools import product

import numpy as np
import pytest

from mantelab.hypergraph import (
    EdgeSet,
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
    is_4partite,
    max_cut4_exact,
    max_cut4_local,
    max_tfree_exact,
    max_tfree_repair,
)

from conftest import naive_crossing_ids, random_hypergraph, random_vertex_partition


def brute_force_tfree(h) -> int:
    """2^m subset enumeration oracle."""
    from mantelab.motifs import t_copy_triples

    m = len(h.edges)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in t_copy_triples(h).tolist()]
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
    def test_copy_guard_raises(self, monkeypatch):
        import mantelab.solvers

        h = complete_hypergraph(7, 4)
        copies = count_T(h)
        monkeypatch.setattr(mantelab.solvers, "MAX_COPIES_EXACT", copies - 1)
        with pytest.raises(ValueError, match=f"more than {copies - 1} "):
            max_tfree_exact(h)
        monkeypatch.setattr(mantelab.solvers, "MAX_COPIES_EXACT", copies)
        assert max_tfree_exact(h).optimal

    def test_mask_guard_raises_before_the_masks(self, monkeypatch):
        import mantelab.solvers

        h = complete_hypergraph(7, 4)
        bits = len(h) * count_T(h)
        monkeypatch.setattr(mantelab.solvers, "MAX_MASK_BITS_EXACT", bits - 1)
        with monkeypatch.context() as mp:
            mp.setattr(mantelab.solvers, "_edge_copy_masks", None)  # calling it fails
            with pytest.raises(ValueError, match=f"mask guard: .* more than {bits - 1} bits"):
                max_tfree_exact(h)
        monkeypatch.setattr(mantelab.solvers, "MAX_MASK_BITS_EXACT", bits)
        assert max_tfree_exact(h).optimal

    @pytest.mark.parametrize("solve,host", [
        (max_tfree_exact, "complete-8"), (max_cut4_exact, "gknp-10-0.5-0"),
    ])
    def test_time_budget_read_at_every_node(self, monkeypatch, solve, host):
        # a clock that advances one second per read: the ticker's start is one
        # read, and node j reads start + j, so a 2.5-s budget stops at node 3
        import types
        from itertools import count

        import mantelab.solvers

        clock = count()
        monkeypatch.setattr(
            mantelab.solvers, "time", types.SimpleNamespace(monotonic=lambda: next(clock))
        )
        res = solve(_golden_host(host), Budget(max_seconds=2.5))
        assert res.stats.budget_hit and not res.optimal
        assert res.stats.nodes == 3

    def test_time_budget_charges_the_copy_scan(self, monkeypatch):
        # a clock that only the copy scan advances, past the budget: the
        # search stops at its first node, and its elapsed time holds the scan
        import types

        import mantelab.solvers

        now = [0.0]
        monkeypatch.setattr(
            mantelab.solvers, "time", types.SimpleNamespace(monotonic=lambda: now[0])
        )
        scan = mantelab.solvers.t_copy_triples

        def slow_scan(h, limit=None):
            now[0] += 10.0
            return scan(h, limit=limit)

        monkeypatch.setattr(mantelab.solvers, "t_copy_triples", slow_scan)
        res = max_tfree_exact(_golden_host("gknp-9-0.4-0"), Budget(max_seconds=5.0))
        assert res.stats.budget_hit and not res.optimal
        assert res.stats.nodes == 1
        assert res.stats.elapsed >= 10.0
        assert count_T(res.witness.as_hypergraph()) == 0

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
# bitset state replaced; node counts, the gknp-8-0.5-1 witness and the
# budgeted complete-10 row re-recorded when the star joined the incumbent,
# which kept every certified value; node counts re-recorded again when the
# kept-edge packing joined the bound, which moved no value, witness or flag.
# A rewrite that keeps the incumbent, the branching rules and the bound must
# reproduce them exactly:
# (host, node budget, value, witness ids, optimal, nodes)
_GOLDEN_TFREE = [
    ("gknp-9-0.3-0", None, 23, (
        0, 2, 4, 9, 10, 11, 12, 14, 17, 18, 19, 20, 21, 23, 24, 25, 26, 30, 31, 32, 33,
        34, 35,
    ), True, 39),
    ("gknp-9-0.3-1", None, 27, (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26,
    ), True, 71),
    ("gknp-9-0.3-2", None, 24, (
        0, 4, 5, 7, 12, 13, 14, 15, 17, 18, 19, 22, 23, 24, 25, 26, 27, 31, 32, 33, 34,
        38, 39, 40,
    ), True, 236),
    ("gknp-9-0.4-0", None, 27, (
        3, 5, 8, 9, 13, 15, 17, 20, 21, 22, 23, 24, 25, 27, 28, 30, 33, 34, 35, 39, 41,
        42, 44, 46, 47, 48, 49,
    ), True, 367),
    ("gknp-9-0.4-1", None, 31, (
        1, 2, 5, 6, 7, 8, 11, 14, 17, 18, 19, 21, 24, 26, 29, 32, 34, 35, 37, 42, 44,
        45, 47, 48, 49, 50, 51, 52, 53, 55, 56,
    ), True, 291),
    ("gknp-9-0.4-2", None, 27, (
        0, 1, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25, 26, 27, 28, 29, 30, 39, 40, 41, 42,
        43, 44, 45, 46, 47, 48,
    ), True, 720),
    ("gknp-8-0.5-0", None, 21, (
        3, 5, 6, 8, 10, 12, 13, 14, 16, 17, 19, 20, 22, 23, 24, 25, 28, 29, 31, 32, 33,
    ), True, 46),
    ("gknp-8-0.5-1", None, 22, (
        0, 1, 9, 10, 11, 12, 13, 14, 15, 21, 22, 23, 24, 25, 32, 33, 34, 35, 36, 37,
        38, 39,
    ), True, 247),
    ("random-k2", None, 16, (
        1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 19, 21,
    ), True, 4),
    ("random-k3", None, 15, (
        1, 4, 6, 7, 8, 14, 15, 16, 17, 19, 20, 26, 27, 28, 29,
    ), True, 131),
    # the budget returns the incumbent, the star at vertex 0, C(9, 3) = 84 edges
    ("complete-10", 300, 84, tuple(range(84)), False, 301),
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

    @pytest.mark.parametrize("name", ["gknp-9-0.3-0", "gknp-9-0.3-1", "gknp-9-0.3-2"])
    def test_certified_value_matches_milp(self, monkeypatch, name):
        # an independent oracle past the brute force's reach: maximise the
        # kept edges subject to x_a + x_b + x_c <= 2 for every copy.  The
        # incumbent is already optimal on these hosts, so the search also
        # runs from an empty incumbent, where an unsound bound prunes the
        # optimum away
        optimize = pytest.importorskip("scipy.optimize")
        import mantelab.solvers
        from mantelab.motifs import t_copy_triples

        h = _golden_host(name)
        rows = t_copy_triples(h)
        a = np.zeros((len(rows), len(h)))
        a[np.arange(len(rows))[:, None], rows] = 1
        milp = optimize.milp(
            -np.ones(len(h)),
            constraints=optimize.LinearConstraint(a, -np.inf, 2),
            integrality=np.ones(len(h)),
            bounds=optimize.Bounds(0, 1),
            options={"mip_rel_gap": 0},
        )
        assert milp.success
        res = max_tfree_exact(h)
        assert res.optimal and res.value == round(-milp.fun)
        monkeypatch.setattr(mantelab.solvers, "_tfree_incumbent", lambda *args: [])
        res = max_tfree_exact(h)
        assert res.optimal and res.value == round(-milp.fun)

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
# undo logs that the bitset state replaced; node counts re-recorded when the
# class-size product bound joined the demand bound, which moved no value,
# assignment or flag.  A rewrite that keeps the vertex order, symmetry rule,
# seed incumbent and bounds must reproduce them exactly:
# (host, node budget, use_symmetry, value, assignment, optimal, nodes)
_GOLDEN_CUT = [
    ("gknp-8-0.5-0", None, True, 12, (1, 3, 2, 1, 0, 0, 2, 3), True, 353),
    ("gknp-9-0.3-1", None, True, 15, (0, 1, 1, 2, 2, 2, 0, 3, 3), True, 911),
    ("gknp-9-0.5-1", None, True, 20, (2, 1, 3, 0, 0, 2, 1, 2, 3), True, 1291),
    ("gknp-9-0.7-0", None, True, 24, (2, 0, 1, 3, 3, 2, 3, 1, 0), True, 380),
    ("gknp-9-1.0-0", None, True, 24, (0, 1, 2, 3, 0, 1, 2, 3, 0), True, 1),
    ("gknp-10-0.3-0", None, True, 19, (2, 0, 1, 2, 3, 1, 0, 0, 2, 3), True, 3196),
    ("gknp-10-0.5-0", None, True, 28, (2, 1, 3, 1, 2, 0, 3, 3, 0, 1), True, 7419),
    ("gknp-8-0.5-1", None, False, 13, (1, 0, 0, 1, 2, 3, 3, 2), True, 7533),
    ("complete-8", None, True, 16, (0, 1, 2, 3, 0, 1, 2, 3), True, 1),
    # the local-cut seed already crosses every edge, so no node is searched
    ("turan-9", None, True, 24, (2, 2, 2, 0, 0, 3, 3, 1, 1), True, 0),
    ("empty-7", None, True, 0, (0, 1, 2, 3, 0, 1, 2), True, 0),
    # the seed meets the largest class-size product, 3 * 3 * 3 * 2, so the
    # root closes within any budget
    ("complete-11", 1, True, 54, (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2), True, 1),
    ("complete-11", 300, True, 54, (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2), True, 1),
    # the root cannot close here, so a budget returns the seed uncertified
    ("gknp-10-0.5-0", 1, True, 26, (0, 1, 2, 3, 0, 2, 0, 1, 3, 1), False, 2),
    ("gknp-10-0.5-0", 300, True, 26, (0, 1, 2, 3, 0, 2, 0, 1, 3, 1), False, 301),
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


def _sha(rows) -> str:
    return hashlib.sha256(";".join(",".join(map(str, r)) for r in rows).encode()).hexdigest()


# Heuristic-tier outputs recorded from the tuple-scan copy enumerator and the
# list-based greedy and local cut, the repair re-recorded when the star joined
# its incumbent; a rewrite that keeps each tie-breaking rule
# must reproduce them exactly: (host, copies, sha256 of the copy rows,
# repair value, sha256 of the repair witness ids, repair nodes, local cut
# (value, assignment, moves)).  The local cut is max_cut4_local for k = 4 and
# the r = k local search behind the repair's crossing incumbent otherwise.
_GOLDEN_HEURISTIC = [
    ("gknp-10-0.3-0", 724, "7aa8e9f8cf70772287a0f467f43a8dafca80d3dca0bb3955eb5813715b34d4ce",
     30, "162066e3363359f95908ac5bbd0c2ecdf5e2095005457a818be85365f6a3cad3", 35,
     (19, (3, 0, 0, 2, 1, 1, 0, 3, 1, 2), 12)),
    ("gknp-12-0.3-0", 4523, "2fae593954c993eb85a4bd9d9d92227e02935c986b503fd7ec08918d1b1509cd",
     56, "960ca17ce814fd6421c6f0d2bc669e602cc30b0fcb77c57e4de9a23cc86607ec", 94,
     (35, (2, 0, 2, 3, 1, 0, 0, 1, 1, 3, 3, 2), 16)),
    ("gknp-12-0.3-1", 4746, "9c6da92239894a660c42c9765dfb56f5be0efddc2908e6fba4a82eec3f7f931b",
     59, "ba06ef0799b78d66ead45ac0c8e616355d3e41b2e4784dd2ee12f7b34d0ead24", 93,
     (34, (2, 1, 1, 3, 1, 3, 0, 2, 0, 0, 1, 2), 14)),
    ("gknp-14-0.3-0", 19841, "6f0c3955a53b26a7372496d06728cbd89557b365bf4d9e700025721cf0f5eb67",
     100, "6a5e0ddb9ad7188b7518cfb601b80548136aa42f44d6177b6f1986c3ec1da795", 204,
     (66, (3, 1, 2, 1, 0, 1, 3, 3, 0, 2, 2, 3, 0, 0), 24)),
    ("gknp-14-0.3-1", 18169, "6b80d4112f0455e48678087cb393965766ea7d94fb34bd9cbc11d708cb60a71d",
     93, "1cb124e6426c88ab3d209d8f5dc1c1859cdb9fe9967455aea592c3458a511529", 202,
     (67, (1, 2, 0, 3, 0, 3, 2, 3, 3, 1, 1, 2, 0, 2), 23)),
    ("random-k2", 20, "7c371fc1acc7d6758a5c9a06390b94c77d4517a36765b5e0b116b272ff1aa038",
     16, "e07ec52eab3bdea277d123f681d2770054d40202531e828c2483a265a98e8bf1", 6,
     (15, (1, 0, 1, 1, 0, 1, 1, 0, 0), 6)),
    ("random-k3", 245, "682123b81f0f1277d251bd9a6b8cd814e3ac83e20600da0672f17287bb4c934f",
     15, "41b3b095d6bc2f49731e1658f6b728812a8483d8230533330df83bbace37b398", 15,
     (14, (1, 0, 2, 0, 0, 1, 2, 1), 10)),
    ("complete-9", 7560, "3146a5516f1e74b7975632743311aef437ad4e016a4da3e1f8f478958396b796",
     56, "7914a6b8e634ba9718a5c5d1e7b6fdd4ea5e72686a0054e3707ac4c100e627c7", 70,
     (24, (0, 1, 2, 3, 0, 1, 2, 3, 0), 3)),
]


class TestHeuristicGolden:
    @pytest.mark.parametrize(
        "name,copies,copies_sha,value,witness_sha,nodes,local",
        _GOLDEN_HEURISTIC,
        ids=[g[0] for g in _GOLDEN_HEURISTIC],
    )
    def test_outputs_unchanged(self, name, copies, copies_sha, value, witness_sha, nodes, local):
        from mantelab.motifs import t_copy_triples
        from mantelab.solvers import _kpartite_local

        h = _golden_host(name)
        seed = derive_seed(17, 99)
        trips = t_copy_triples(h)
        assert len(trips) == copies
        assert _sha(np.asarray(trips).reshape(-1, 3).tolist()) == copies_sha
        rep = max_tfree_repair(h, seed, restarts=4)
        assert rep.value == value
        assert _sha([sorted(rep.witness.indices)]) == witness_sha
        assert rep.stats.nodes == nodes
        if h.k == 4:
            loc = max_cut4_local(h, seed, restarts=4)
            got = (loc.value, loc.witness.assignment, loc.stats.nodes)
        else:
            got = _kpartite_local(h, random.Random(seed), 4)
        assert got == local


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


def loop_greedy_tfree(m, triples, rng):
    """Plain-list greedy deletion: most live copies first, ties lowest or drawn by rng."""
    by_edge = [[] for _ in range(m)]
    for ci, t in enumerate(triples):
        for e in t:
            by_edge[e].append(ci)
    alive = [True] * len(triples)
    count = [len(c) for c in by_edge]
    deleted = set()
    while any(alive):
        top = max(count)
        ties = [e for e, c in enumerate(count) if c == top]
        pick = ties[0] if rng is None else rng.choice(ties)
        deleted.add(pick)
        for ci in by_edge[pick]:
            if alive[ci]:
                alive[ci] = False
                for e in triples[ci]:
                    count[e] -= 1
    return [e for e in range(m) if e not in deleted]


def loop_local_cut_pass(h, assignment):
    """Plain-loop hill climb: best strictly improving move, ties lowest (vertex, class)."""
    def crossing(e, a):
        return len({a[v] for v in e}) == len(e)

    a = list(assignment)
    value = sum(crossing(e, a) for e in h.edges)
    moves = 0
    while True:
        best_gain, best_move = 0, None
        for v in range(h.n):
            cur = a[v]
            for c in range(h.k):
                a[v] = c
                after = sum(crossing(h.edges[i], a) for i in h.vertex_edges[v])
                a[v] = cur
                gain = after - sum(crossing(h.edges[i], a) for i in h.vertex_edges[v])
                if gain > best_gain:
                    best_gain, best_move = gain, (v, c)
        if best_move is None:
            return value, a, moves
        a[best_move[0]] = best_move[1]
        value += best_gain
        moves += 1


class TestArrayKernels:
    """The array greedy and local cut against their plain-loop references."""

    def test_greedy_matches_loop(self, rng):
        from mantelab.motifs import t_copy_triples
        from mantelab.solvers import _greedy_tfree

        for i in range(12):
            k = (2, 3, 4)[i % 3]
            h = random_hypergraph(rng, rng.randint(k + 3, 10), k, p=rng.uniform(0.3, 0.8))
            trips, m = t_copy_triples(h), len(h.edges)
            first = loop_greedy_tfree(m, trips.tolist(), None)
            assert _greedy_tfree(trips, m) == first
            ref_rng, got_rng = random.Random(i), random.Random(i)
            runs = [first] + [loop_greedy_tfree(m, trips.tolist(), ref_rng) for _ in range(3)]
            # the earliest of the longest runs, after the same draws
            assert _greedy_tfree(trips, m, got_rng, 4) == max(runs, key=len)
            assert got_rng.getstate() == ref_rng.getstate()

    def test_tfree_incumbent_tie_rule(self, rng):
        # greedy keeps ties: the crossing set wins only when strictly larger,
        # and the star at the lowest-index vertex of maximum degree only when
        # strictly larger than both
        from mantelab.motifs import t_copy_triples
        from mantelab.solvers import _greedy_tfree, _kpartite_local, _tfree_incumbent

        tied_apart = star_tied = star_won = 0
        for i in range(180):
            k = (2, 3, 4)[i % 3]
            h = random_hypergraph(rng, rng.randint(k + 3, 10), k, p=rng.uniform(0.2, 0.8))
            trips = t_copy_triples(h)
            runs, restarts = rng.choice([(1, 3), (4, 4)])
            greedy = _greedy_tfree(trips, len(h), random.Random(i), runs)
            _, assign, _ = _kpartite_local(h, random.Random(i), restarts)
            crossing = sorted(naive_crossing_ids(h, VertexPartition(k, assign)))
            best = crossing if len(crossing) > len(greedy) else greedy
            v = int(np.bincount(h.edge_array.ravel(), minlength=h.n).argmax())
            star = [j for j, e in enumerate(h.edges) if v in e]
            want = star if len(star) > len(best) else best
            assert _tfree_incumbent(h, trips, i, runs, restarts) == want
            tied_apart += len(crossing) == len(greedy) and crossing != greedy
            star_tied += len(star) == len(best) and star != best
            star_won += len(star) > len(best)
        # a flipped tie rule fails on each of these hosts (44 and 21 of them
        # here); the star is the strict winner on 55
        assert tied_apart >= 20 and star_tied >= 10 and star_won >= 20

    def test_local_cut_pass_matches_loop(self, rng):
        from mantelab.solvers import _local_cut_pass

        for i in range(24):
            k = (2, 3, 4)[i % 3]
            h = random_hypergraph(rng, rng.randint(k, 11), k, p=rng.uniform(0.05, 0.9))
            start = [rng.randrange(k) for _ in range(h.n)]
            assert _local_cut_pass(h, start) == loop_local_cut_pass(h, start)


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

    def test_dense_hosts_match_assignment_oracle(self, rng):
        # p >= 0.7 is where the class-size product bound prunes
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(5, 9), 4, p=rng.uniform(0.7, 1.0))
            want = brute_force_cut4(h)
            for use_symmetry in (True, False):
                res = max_cut4_exact(h, use_symmetry=use_symmetry)
                assert res.value == want and res.optimal
                assert len(crossing_edges(h, res.witness)) == want

    def test_class_product_fill_matches_every_split(self):
        from mantelab.solvers import _max_class_product

        for n in range(13):
            for pos in range(n + 1):
                for sizes in product(range(pos + 1), repeat=4):
                    if sum(sizes) != pos:
                        continue
                    r = n - pos
                    best = max(
                        math.prod(x + y for x, y in zip(sizes, split))
                        for split in product(range(r + 1), repeat=4)
                        if sum(split) == r
                    )
                    assert _max_class_product(sizes, r) == best


def _stack_depth() -> int:
    """Frames on the caller's stack."""
    f, depth = sys._getframe(1), 0
    while f is not None:
        f, depth = f.f_back, depth + 1
    return depth


class TestRecursionRoom:
    """The exact searches nest once per decided edge or assigned vertex, which
    can pass the interpreter's recursion limit.  With the limit 16 frames
    above the caller, the work before the search fits and the search itself
    fits only because it raises the limit by its depth."""

    @pytest.mark.parametrize(
        "solve,host,max_nodes",
        [
            # unguarded, the search needs about 44 frames above the caller
            (max_tfree_exact, complete_hypergraph(8, 4), 500),
            # unguarded, about 31
            (max_cut4_exact, sample_gknp(40, 4, 0.005, derive_seed(3, 0)), 300),
        ],
        ids=["tfree", "cut4"],
    )
    def test_search_deeper_than_the_limit(self, solve, host, max_nodes):
        want = solve(host, Budget(max_nodes=max_nodes))
        limit = sys.getrecursionlimit()
        low = _stack_depth() + 16
        sys.setrecursionlimit(low)
        try:
            got = solve(host, Budget(max_nodes=max_nodes))
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert after == low
        assert (got.value, got.optimal, got.stats.nodes) == (
            want.value, want.optimal, want.stats.nodes,
        )


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


    def test_value_counts_crossing_edges(self, rng):
        from mantelab.solvers import _kpartite_local

        for i in range(15):
            k = rng.choice([2, 3, 4])
            h = random_hypergraph(rng, rng.randint(k + 1, 10), k, p=0.5)
            value, assign, _ = _kpartite_local(h, random.Random(i), 3)
            part = VertexPartition(k, assign)
            assert value == len(crossing_edges(h, part)) == len(naive_crossing_ids(h, part))


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
        # not 4-partite, but its 3 edges fit the crossing 4-sets of 7
        # vertices, so the root cannot refute it and two nodes decide nothing
        assert is_4partite(generalized_triangle(4), Budget(max_nodes=2)) is None

    def test_more_edges_than_crossing_sets_refuted_at_root(self):
        # 112 edges against t_4(10) = 36 crossing 4-sets: the class-size
        # product bound closes the root, so one node decides
        h = _golden_host("gknp-10-0.5-0")
        assert is_4partite(h, Budget(max_nodes=1)) is False

    def test_agrees_with_exact_cut(self, rng):
        # the feasibility search against "the certified cut crosses every edge"
        hosts = []
        for i in range(12):
            n = rng.randint(6, 9)
            h = random_hypergraph(rng, n, 4, p=rng.uniform(0.4, 0.9))
            # the crossing set of a partition is 4-partite by construction
            part = random_vertex_partition(rng, n, 4)
            hosts.append(crossing_edges(h, part).as_hypergraph())
            # a star: every edge through one vertex
            hosts.append(build_hypergraph(n, 4, [e for e in h.edges if i % n in e]))
            # a sparse host, mostly not 4-partite once it holds a few edges
            hosts.append(random_hypergraph(rng, n, 4, m=rng.randint(3, 8)))
        decided = [is_4partite(f) for f in hosts]
        assert decided == [max_cut4_exact(f).value == len(f) for f in hosts]
        assert decided.count(True) >= 12 and decided.count(False) >= 6


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


class TestStarFloor:
    def test_star_is_copy_free_and_floors_the_optimum(self, rng):
        # T's three edges share no vertex, so the edges through one vertex
        # hold no copy and the copy-free optimum is at least the max degree
        tight = 0
        for k, lo, hi, p in [(2, 5, 10, 0.5), (3, 6, 9, 0.4), (4, 7, 8, 0.5)]:
            for _ in range(8):
                h = random_hypergraph(rng, rng.randint(lo, hi), k, p=p)
                deg = np.bincount(h.edge_array.ravel(), minlength=h.n)
                v = int(deg.argmax())
                assert find_T(build_hypergraph(h.n, k, [e for e in h.edges if v in e])) is None
                res = max_tfree_exact(h)
                assert res.optimal and res.value >= deg.max()
                tight += res.value == deg.max()
        # hosts whose optimum is the star make an under-report by one fail
        assert tight >= 5

    def test_star_floors_budgeted_and_heuristic_values(self, rng):
        # both searches take the star as a candidate incumbent, so a one-node
        # budget and the repair heuristic already reach the max degree
        for k, lo, hi, p in [(2, 5, 10, 0.3), (3, 6, 9, 0.3), (4, 7, 10, 0.3)]:
            for i in range(8):
                h = random_hypergraph(rng, rng.randint(lo, hi), k, p=p)
                top = max(h.degree(v) for v in range(h.n))
                for res in (
                    max_tfree_exact(h, Budget(max_nodes=1)),
                    max_tfree_repair(h, derive_seed(3, i)),
                ):
                    assert count_T(res.witness.as_hypergraph()) == 0
                    assert res.value == len(res.witness.edges) >= top
