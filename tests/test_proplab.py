import json
import math
import random
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from mantelab.hypergraph import (
    VertexPartition,
    _crossing_mask,
    build_hypergraph,
    complete_hypergraph,
    crossing_edges,
    empty_hypergraph,
    link,
    partition_from_classes,
    shadow_graph,
)
import mantelab.proplab
from mantelab.motifs import generalized_triangle
from mantelab.proplab import (
    AuditConstants,
    ConcentrationReport,
    ConcentrationRow,
    GapReport,
    _core_links,
    _pair_codegrees,
    chernoff_c,
    concentration_report,
    decomposition,
    defect_audit,
    low_pair_cut_gap,
    low_pairs,
    relabel_for_largest_defect,
)
from mantelab.randgen import colex_rank, derive_seed, random_partition, sample_gknp
from mantelab.solvers import Budget, max_cut4_exact, max_cut4_local, max_tfree_repair

from conftest import random_hypergraph, random_vertex_partition


def equal_parts(n):
    return VertexPartition(4, tuple(v * 4 // n for v in range(n)))


def crossing_rows(g, part):
    return g.edge_array[_crossing_mask(g, part.assignment)]


def unbalanced_parts(n, first, seed):
    """A first class of ``first`` random vertices; the others in classes 1-3 at random."""
    r = random.Random(seed)
    cls0 = set(r.sample(range(n), first))
    return VertexPartition(4, tuple(0 if v in cls0 else r.randrange(1, 4) for v in range(n)))


class TestChernoff:
    def test_at_one(self):
        # 2 ln 2 - 1, the entropy term, attains the min
        assert chernoff_c(1.0) == pytest.approx(0.386294361, abs=5e-10)

    def test_at_tenth(self):
        # both terms evaluated to 12 digits: 0.004841197784757 < 0.005,
        # so the entropy term attains the min here as well
        assert chernoff_c(0.1) == pytest.approx(0.004841197784757, abs=1e-12)

    def test_vanishes_at_zero(self):
        assert chernoff_c(1e-9) < 1e-15

    def test_monotone_on_grid(self):
        values = [chernoff_c(0.02 * (i + 1)) for i in range(100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_never_exceeds_quadratic_term(self):
        for i in range(1, 60):
            eps = 0.1 * i
            assert chernoff_c(eps) <= eps * eps / 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chernoff_c(0.0)


class TestConstants:
    def test_exact_rational_defaults(self):
        c = AuditConstants()
        assert c.eps1 == Fraction(1, 4200)
        assert c.eps2 == Fraction(1, 7200)
        assert c.delta == Fraction(1, 4200) ** 3 * Fraction(1, 7200) / (320 * 110 * 16)
        assert c.eps3 == 16 * 80 * c.delta / c.eps1

    def test_overrides_rederive(self):
        c = replace(AuditConstants(), eps1=Fraction(1, 100))
        assert c.eps1 == Fraction(1, 100)
        assert c.delta == Fraction(1, 100) ** 3 * Fraction(1, 7200) / (320 * 110 * 16)
        assert c.eps3 == 16 * 80 * c.delta / c.eps1
        assert c == AuditConstants(eps1=Fraction(1, 100))

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            replace(AuditConstants(), zeta=1)

    @pytest.mark.parametrize("key", ["delta", "eps3"])
    def test_derived_not_settable(self, key):
        # delta and eps3 always derive from eps1 and eps2
        with pytest.raises(TypeError):
            AuditConstants(**{key: Fraction(1, 3)})
        with pytest.raises(ValueError, match=f"{key} is declared with init=False"):
            replace(AuditConstants(), **{key: Fraction(1, 3)})

    def test_exact_constants_read_as_rationals(self):
        # a float and a rational string are read as the config reads them
        c = AuditConstants(eps1=0.1, eps2="1/50")
        assert (c.eps1, c.eps2) == (Fraction(1, 10), Fraction(1, 50))
        assert c.delta == Fraction(1, 10) ** 3 * Fraction(1, 50) / (320 * 110 * 16)
        assert isinstance(c.delta, Fraction) and isinstance(c.eps3, Fraction)
        assert AuditConstants(eps1="1/10") == AuditConstants(eps1=0.1)

    @pytest.mark.parametrize("key", ["alpha"])
    def test_float_constant_takes_only_numbers(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be a number, got Fraction"):
            AuditConstants(**{key: Fraction(1, 3)})
        # an int and a float
        for value in (2, 0.5):
            c = AuditConstants(**{key: value})
            assert json.loads(json.dumps(c.to_json_dict()))[key] == value

    @pytest.mark.parametrize("key,value", [("eps1", Fraction(0)), ("eps2", Fraction(0))])
    def test_rejects_zero_divisors(self, key, value):
        # the audit divides by eps1, eps2 and the delta and eps3 derived from them
        with pytest.raises(ValueError, match=f"^{key} must be "):
            AuditConstants(**{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be "):
            replace(AuditConstants(), **{key: value})

    @pytest.mark.parametrize(
        "key,value",
        [("alpha", math.nan), ("alpha", math.inf), ("alpha", 0), ("alpha", -2.0),
         ("eps1", -math.inf), ("eps2", "0")],
    )
    def test_override_rejects_non_finite_and_zero(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            AuditConstants(**{key: value})

    def test_json_fields_fixed(self):
        d = AuditConstants().to_json_dict()
        assert set(d) == {"alpha", "eps1", "eps2", "eps3", "delta"}


class TestConcentration:
    def test_complete_host_exact_counts(self):
        g = complete_hypergraph(16, 4)
        rep = concentration_report(g, 1.0, equal_parts(16), eps=0.25)
        row = rep.rows["triple_codegree"]
        assert row.observed_min == row.observed_max == 13  # n - 3
        assert row.passed  # eps = 0.25 >= 3/n
        assert rep.rows["crossing_degree"].passed  # exactly the class product
        # the nominal n^3/6 formulas carry O(1/n) slack, so the whole report
        # needs a wider band at n = 16: C(14,3) = 364 vs 16^3/6 = 682.7
        wide = concentration_report(g, 1.0, equal_parts(16), eps=0.5)
        assert wide.all_pass

    def test_complete_host_tight_band_fails_triple_row(self):
        g = complete_hypergraph(16, 4)
        rep = concentration_report(g, 1.0, equal_parts(16), eps=0.1)
        assert rep.rows["triple_codegree"].passed is False  # needs eps >= 3/n

    def test_empty_host_fails(self):
        rep = concentration_report(empty_hypergraph(12, 4), 0.5, equal_parts(12), 0.25)
        assert not rep.all_pass
        assert rep.rows["vertex_degree"].observed_max == 0

    def test_rejects_degenerate_p(self):
        g = complete_hypergraph(8, 4)
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                concentration_report(g, bad, None, 0.25)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_degenerate_eps(self, eps):
        # inf would pass every row, and nan or eps <= 0 would fail every row
        with pytest.raises(ValueError, match="eps"):
            concentration_report(complete_hypergraph(8, 4), 0.5, None, eps)

    def test_partition_checked_before_the_kernels(self, monkeypatch):
        # a partition of the wrong vertex count is refused before any kernel runs
        def unreachable(*args):
            raise AssertionError("_core_links ran before the partition check")

        monkeypatch.setattr(mantelab.proplab, "_core_links", unreachable)
        g = complete_hypergraph(8, 4)
        with pytest.raises(ValueError, match="partition covers 7 vertices, hypergraph has 8"):
            concentration_report(g, 0.5, equal_parts(7), 0.25)

    def test_without_partition_crossing_row_not_applicable(self):
        g = complete_hypergraph(8, 4)
        rep = concentration_report(g, 1.0)
        row = rep.rows["crossing_degree"]
        assert not row.applicable and row.passed is None
        # inapplicable rows never count against the aggregate
        assert rep.all_pass == all(r.passed for r in rep.rows.values() if r.applicable)

    def test_rows_match_naive_scan(self, rng):
        hosts = []
        for _ in range(8):
            n = rng.randint(8, 12)
            h = random_hypergraph(rng, n, 4, p=rng.uniform(0.3, 0.8))
            hosts.append((h, random_vertex_partition(rng, n, 4)))
        # the core bitsets span many words, and C(n, 3) is not a multiple of 64:
        # one host sampled as an array, one built from tuples
        hosts.append((sample_gknp(24, 4, 0.3, derive_seed(24, 0)), equal_parts(24)))
        edges21 = [e for e in combinations(range(21), 4) if (7 * e[0] + 3 * e[1] + e[3]) % 3]
        hosts.append((build_hypergraph(21, 4, edges21), random_vertex_partition(rng, 21, 4)))
        for h, part in hosts:
            n = h.n
            rep = concentration_report(h, 0.5, part, 0.25)

            triples = [
                len([x for x in range(n) if tuple(sorted(t + (x,))) in h.edge_set and x not in t])
                for t in combinations(range(n), 3)
            ]
            assert rep.rows["triple_codegree"].observed_min == min(triples)
            assert rep.rows["triple_codegree"].observed_max == max(triples)

            pairs = [
                sum(1 for e in h.edges if pr[0] in e and pr[1] in e)
                for pr in combinations(range(n), 2)
            ]
            assert rep.rows["pair_codegree"].observed_min == min(pairs)
            assert rep.rows["pair_codegree"].observed_max == max(pairs)

            commons = []
            for u, v in combinations(range(n), 2):
                lu = set(link(h, u).edges)
                lv = set(link(h, v).edges)
                commons.append(len(lu & lv))
            assert rep.rows["pair_common_degree"].observed_min == min(commons)
            assert rep.rows["pair_common_degree"].observed_max == max(commons)

            degrees = [h.degree(v) for v in range(n)]
            assert rep.rows["vertex_degree"].observed_min == min(degrees)
            assert rep.rows["vertex_degree"].observed_max == max(degrees)

    # C(n, 3) is not a multiple of 64 at any of these n, so each bitset row
    # ends in a partly used word
    KERNEL_HOSTS = [
        pytest.param(sample_gknp(n, 4, 0.5, derive_seed(n, 2)).edge_array, n, id=f"gknp-{n}")
        for n in (5, 8, 11, 21, 24)
    ] + [
        pytest.param(empty_hypergraph(9, 4).edge_array, 9, id="empty-9"),
        pytest.param(complete_hypergraph(10, 4).edge_array, 10, id="complete-10"),
        # the rows low_pairs passes: the crossing edges of a partition
        pytest.param(crossing_rows(sample_gknp(24, 4, 0.5, derive_seed(24, 3)), equal_parts(24)),
                     24, id="crossing-24"),
    ]

    @pytest.mark.parametrize("rows, n", KERNEL_HOSTS)
    def test_core_links_match_core_sets(self, rows, n):
        links, tcnt = _core_links(rows, n)
        edges = {tuple(e) for e in rows.tolist()}
        triples = sorted(combinations(range(n), 3), key=colex_rank)
        # per vertex u, the colex ranks of the 3-sets t with t + u an edge
        cores = [
            {colex_rank(t) for t in triples if u not in t and tuple(sorted(t + (u,))) in edges}
            for u in range(n)
        ]
        nwords = -(-len(triples) // 64)
        words = [
            [sum(1 << (r % 64) for r in cores[u] if r // 64 == w) for w in range(nwords)]
            for u in range(n)
        ]
        assert links.dtype == np.dtype("<u8") and links.shape == (n, nwords)
        assert links.tolist() == words
        assert tcnt.tolist() == [sum(colex_rank(t) in c for c in cores) for t in triples]

    @pytest.mark.parametrize("rows, n", KERNEL_HOSTS)
    def test_link_popcounts_are_vertex_degrees(self, rows, n):
        links, _ = _core_links(rows, n)
        degrees = np.bincount(rows.ravel(), minlength=n)
        assert np.bitwise_count(links).sum(axis=1).tolist() == degrees.tolist()

    def test_report_vertex_degree_row_from_link_popcounts(self):
        g = sample_gknp(40, 4, 0.3, derive_seed(40, 6))
        degrees = np.bincount(g.edge_array.ravel(), minlength=40)
        row = concentration_report(g, 0.3, equal_parts(40)).rows["vertex_degree"]
        assert (row.observed_min, row.observed_max) == (degrees.min(), degrees.max())

    def test_core_links_in_blocks_of_vertices(self):
        # n=128 needs a 44 MB mask: three blocks of at most 16 MB
        n = 128
        g = sample_gknp(n, 4, 3e-4, derive_seed(n, 9))
        width = 64 * -(-math.comb(n, 3) // 64)
        assert n * width > 2 * mantelab.proplab._MASK_BYTES
        tracemalloc.start()
        try:
            links, tcnt = _core_links(g.edge_array, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want_links = np.zeros((n, width // 64), dtype=np.uint64)
        want_tcnt = np.zeros(math.comb(n, 3), dtype=np.int64)
        for e in g.edges:
            for u in e:
                r = colex_rank(set(e) - {u})
                want_links[u, r // 64] |= np.uint64(1 << (r % 64))
                want_tcnt[r] += 1
        assert len(g) > 3000
        assert np.array_equal(links, want_links)
        assert np.array_equal(tcnt, want_tcnt)
        # the outputs, one block's mask and its packed bits (27 MB in all);
        # the whole mask alone would be 44 MB
        assert peak <= links.nbytes + tcnt.nbytes + 1.5 * mantelab.proplab._MASK_BYTES

    @pytest.mark.parametrize("rows, n", KERNEL_HOSTS)
    def test_pair_codegrees_match_naive_count(self, rows, n):
        _, tcnt = _core_links(rows, n)
        pairs = sorted(combinations(range(n), 2), key=colex_rank)
        edges = rows.tolist()
        naive = [sum(1 for e in edges if a in e and b in e) for a, b in pairs]
        assert _pair_codegrees(tcnt, n).tolist() == naive

    def test_crossing_row_rescaled_per_source_class(self):
        # unequal classes: every source class checked against its own product
        g = complete_hypergraph(12, 4)
        part = partition_from_classes([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11]], 12)
        rep = concentration_report(g, 1.0, part, eps=0.01)
        row = rep.rows["crossing_degree"]
        # complete host: crossing degree equals the product exactly for every class
        assert row.applicable and row.passed
        assert row.observed_min == pytest.approx(row.expected)
        assert row.observed_max == pytest.approx(row.expected)

    def test_crossing_row_small_class_not_applicable(self):
        g = complete_hypergraph(8, 4)
        part = partition_from_classes([[], [0, 1, 2], [3, 4, 5], [6, 7]], 8)
        rep = concentration_report(g, 1.0, part, 0.25)
        assert rep.rows["crossing_degree"].applicable is False


class TestLowPairs:
    def test_complete_equal_parts_empty(self):
        g = complete_hypergraph(16, 4)
        rep = low_pairs(g, equal_parts(16), 1.0, alpha=0.35)
        assert rep.threshold == pytest.approx(44.8)
        assert rep.pairs == frozenset()

    def test_empty_host_all_pairs(self):
        g = empty_hypergraph(16, 4)
        part = equal_parts(16)
        rep = low_pairs(g, part, 0.5, alpha=0.35)
        first = sorted(part.classes[0])
        assert rep.pairs == frozenset(combinations(first, 2))

    def test_zero_alpha_empty(self):
        g = empty_hypergraph(16, 4)
        rep = low_pairs(g, equal_parts(16), 0.5, alpha=0.0)
        assert rep.pairs == frozenset()

    def test_alpha_monotone(self, rng):
        for i in range(6):
            g = sample_gknp(12, 4, 0.5, derive_seed(60, i))
            part = equal_parts(12)
            small = low_pairs(g, part, 0.5, alpha=0.1).pairs
            big = low_pairs(g, part, 0.5, alpha=0.8).pairs
            assert small <= big

    @pytest.mark.parametrize(
        "n,p,first_size",
        [(12, 0.6, None), (8, 0.8, None), (13, 0.6, None), (20, 0.4, None),
         (13, 0.6, 0), (13, 0.6, 1), (13, 0.6, 2), (13, 0.6, 6), (20, 0.5, 9)],
    )
    def test_matches_common_crossing_degree(self, n, p, first_size):
        """None takes equal parts (unequal at n = 13); else a first class of that size."""
        from mantelab.hypergraph import common_degree

        outcomes = set()
        for i in range(6):
            g = sample_gknp(n, 4, p, derive_seed(61, i))
            part = equal_parts(n) if first_size is None else unbalanced_parts(n, first_size, i)
            first = sorted(part.classes[0])
            degrees = {pr: common_degree(g, pr[0], pr[1], part) for pr in combinations(first, 2)}
            # thresholds below, inside and above the spread of common degrees
            for alpha in (0.05, 0.35, 0.7, 2.0):
                rep = low_pairs(g, part, p, alpha=alpha)
                assert rep.pairs == frozenset(pr for pr, d in degrees.items() if d < rep.threshold)
                outcomes.update(pr in rep.pairs for pr in degrees)
        assert outcomes == ({True, False} if len(first) >= 2 else set())


class TestDecomposition:
    def test_crossing_subhypergraph_has_no_defects(self):
        g = complete_hypergraph(12, 4)
        part = equal_parts(12)
        f = crossing_edges(g, part).as_hypergraph()
        rep = decomposition(g, f, part, 1.0)
        assert all(len(b) == 0 for b in rep.defect)
        assert len(rep.missing) == 0

    def test_single_edge_self_host(self):
        g = build_hypergraph(6, 4, [(0, 1, 2, 3)])
        part = partition_from_classes([[0, 1], [2], [3], [4, 5]], 6)
        rep = decomposition(g, g, part, 0.5)
        assert len(rep.defect[0]) == 1
        assert len(rep.missing) == 0
        assert rep.shadow_first == {(0, 1)}

    def test_rejects_non_subhypergraph(self):
        g = build_hypergraph(6, 4, [(0, 1, 2, 3)])
        f = build_hypergraph(6, 4, [(0, 1, 2, 4)])
        part = VertexPartition(4, (0, 0, 1, 2, 3, 3))
        with pytest.raises(ValueError, match="outside the host"):
            decomposition(g, f, part, 0.5)

    def test_degenerate_threshold_flags(self):
        g = complete_hypergraph(8, 4)
        part = equal_parts(8)
        f = crossing_edges(g, part).as_hypergraph()
        rep = decomposition(g, f, part, 0.5)
        assert rep.degenerate_heavy_threshold  # n / 4200 < 1 at desk scale
        loose = AuditConstants(eps1=Fraction(1, 4))
        rep2 = decomposition(g, f, part, 0.5, loose)
        assert not rep2.degenerate_heavy_threshold  # n / 4 = 2 >= 1

    def test_invariants_randomized(self, rng):
        for i in range(40):
            n = rng.randint(8, 12)
            g = sample_gknp(n, 4, rng.uniform(0.3, 0.8), derive_seed(63, i))
            sub = [e for e in g.edges if rng.random() < 0.6]
            f = build_hypergraph(n, 4, sub)
            part = random_vertex_partition(rng, n, 4)
            rep = decomposition(g, f, part, 0.5)
            first = part.classes[0]
            # split partitions the first defect class
            s1, s2, s3 = (set(b.indices) for b in rep.defect_split)
            assert s1 | s2 | s3 == set(rep.defect[0].indices)
            assert not (s1 & s2) and not (s1 & s3) and not (s2 & s3)
            # missing edges are crossing host edges absent from the subhypergraph
            cross = crossing_edges(g, part)
            assert rep.missing.indices <= cross.indices
            assert not {g.edges[i] for i in rep.missing.indices} & f.edge_set
            assert rep.light == first - rep.heavy
            assert rep.heavy_poor == rep.heavy - rep.heavy_rich

    def test_matches_naive_definitions(self, rng):
        consts = AuditConstants(eps1=Fraction(1, 5), eps2=Fraction(1, 50))
        rules_seen = set()
        for i in range(10):
            n = rng.randint(8, 13)
            g = sample_gknp(n, 4, 0.6, derive_seed(64, i))
            sub = [e for e in g.edges if rng.random() < 0.7]
            f = build_hypergraph(n, 4, sub)
            part = random_vertex_partition(rng, n, 4)
            rep = decomposition(g, f, part, 0.6, consts)
            first = part.classes[0]
            shadow = shadow_graph(f)
            for i_cls in range(4):
                cls = part.classes[i_cls]
                naive_b = {
                    e for e in f.edges if len([v for v in e if v in cls]) >= 2
                }
                assert set(rep.defect[i_cls].edges) == naive_b
            naive_heavy = set()
            for x in first:
                d = sum(
                    1
                    for pr in shadow
                    if x in pr and pr[0] in first and pr[1] in first
                )
                if d >= float(consts.eps1) * n:
                    naive_heavy.add(x)
            assert rep.heavy == naive_heavy
            cross_f = crossing_edges(f, part)
            rich_t = float(consts.eps2) * 0.6 * n**3
            naive_rich = {
                x
                for x in naive_heavy
                if sum(1 for e in cross_f.edges if x in e) >= rich_t
            }
            assert rep.heavy_rich == naive_rich
            # the shadow and the split against naive scans, also where the
            # dense, balanced hosts above do not reach: every fifth edge of f
            # leaves first-class pairs out of the shadow, a first class of 6
            # puts four heavy vertices in some edges, and at eps2 = 1/500
            # some heavy vertices are rich
            sparse = build_hypergraph(n, 4, f.edges[::5])
            wide = unbalanced_parts(n, 6, derive_seed(65, i))
            for h, q, eps2 in product((f, sparse), (part, wide), (consts.eps2, Fraction(1, 500))):
                c = replace(consts, eps2=eps2)
                r = decomposition(g, h, q, 0.6, c)
                fst = q.classes[0]
                sh = {pr for pr in shadow_graph(h) if pr[0] in fst and pr[1] in fst}
                assert r.shadow_first == sh
                heavy = {x for x in fst if sum(x in pr for pr in sh) >= float(c.eps1) * n}
                rich = {
                    x
                    for x in heavy
                    if sum(x in e for e in crossing_edges(h, q).edges) >= float(eps2) * 0.6 * n**3
                }
                assert (r.heavy, r.heavy_rich) == (heavy, rich)
                for part_no, split in enumerate(r.defect_split, start=1):
                    for e in split.edges:
                        in_heavy = sum(v in heavy for v in e)
                        in_rich = sum(v in rich for v in e)
                        in_poor = sum(v in heavy - rich for v in e)
                        if in_heavy <= 3 and in_rich >= 1:
                            expected = 1
                        elif in_heavy <= 3 and in_poor >= 1:
                            expected = 2
                        else:
                            expected = 3
                        assert part_no == expected, e
                        rules_seen.add((expected, in_heavy == 4, in_rich >= 1))
        # every part is reached, and edges of four heavy vertices, with and
        # without a rich one, fall in part 3
        assert rules_seen >= {
            (1, False, True), (2, False, False), (3, False, False), (3, True, False), (3, True, True)
        }


class TestDefectAudit:
    def test_crossing_set_trivial_branch(self):
        g = complete_hypergraph(12, 4)
        res = max_cut4_local(g, derive_seed(2, 2), restarts=4)
        f = crossing_edges(g, res.witness).as_hypergraph()
        rep = defect_audit(g, f, res.witness, 1.0)
        assert rep.sizes["defect_1"] == 0
        assert rep.rows["condition_first_defect_nonempty"].holds is False
        assert rep.rows["conclusion_nonstrict"].holds is True

    def test_empty_host(self):
        g = empty_hypergraph(8, 4)
        rep = defect_audit(g, g, equal_parts(8), 0.5)
        assert rep.sizes["missing"] == 0
        assert rep.sizes["crossing_host"] == 0
        assert rep.rows["conclusion_nonstrict"].holds is True

    def test_rejects_subhypergraph_with_copy(self):
        g = complete_hypergraph(7, 4)
        with pytest.raises(ValueError, match="contains a triangle copy"):
            defect_audit(g, generalized_triangle(4), VertexPartition(4, tuple(v % 4 for v in range(7))), 0.5)

    def test_relabel_recorded(self, rng):
        moved = 0
        for i in range(10):
            g = sample_gknp(12, 4, 0.5, derive_seed(66, i))
            # a repaired subhypergraph is copy-free, as the audit requires
            f = max_tfree_repair(g, derive_seed(66, i), 1).witness.as_hypergraph()
            part = random_vertex_partition(rng, 12, 4)
            relabeled, order = relabel_for_largest_defect(f, part)
            naive = [
                sum(1 for e in f.edges if sum(1 for v in e if part.assignment[v] == c) >= 2)
                for c in range(4)
            ]
            expected = sorted(range(4), key=lambda c: (-naive[c], c))
            assert order == (None if expected == [0, 1, 2, 3] else tuple(expected))
            moved += order is not None
            assert all(
                relabeled.assignment[v] == expected.index(part.assignment[v])
                for v in range(12)
            )
            rep = defect_audit(g, f, relabeled, 0.5)
            assert rep.sizes["defect_1"] == max(naive)
            assert rep.sizes["defect_1"] >= rep.sizes["defect_2"]
        assert moved >= 5

    @pytest.mark.parametrize("f,part", [
        # two classes: it used to come back unchanged, as if relabeled
        (build_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 4, 5)]), VertexPartition(2, (0, 1, 0, 1, 0, 1))),
        # four vertices of six: it used to raise a bare IndexError
        (build_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 4, 5)]), VertexPartition(4, (0, 0, 1, 2))),
        # seven vertices of six
        (build_hypergraph(6, 4, [(0, 1, 2, 3)]), VertexPartition(4, (0, 1, 2, 3, 0, 1, 2))),
        # a 3-uniform F, whose defect sets are not defined
        (build_hypergraph(6, 3, [(0, 1, 2), (0, 3, 4)]), VertexPartition(3, (0, 1, 2, 0, 1, 2))),
    ], ids=["two-classes", "short", "long", "three-uniform"])
    def test_relabel_rejects_a_mismatched_partition(self, f, part):
        with pytest.raises(ValueError):
            relabel_for_largest_defect(f, part)

    def test_low_pair_disjoint_counts_defect_pairs(self, rng):
        from mantelab.hypergraph import common_degree

        nonzero = 0
        for i in range(12):
            n = rng.choice((8, 10, 12))
            g = sample_gknp(n, 4, 0.5, derive_seed(68, i))
            f = max_tfree_repair(g, derive_seed(68, i), 1).witness.as_hypergraph()
            part = random_vertex_partition(rng, n, 4)
            consts = AuditConstants(alpha=2.0)
            left = defect_audit(g, f, part, 0.5, consts).rows["condition_low_pair_disjoint"].left
            first = part.classes[0]
            defect_pairs = {
                pr
                for e in f.edges
                for pr in combinations(sorted(v for v in e if v in first), 2)
            }
            threshold = 2.0 / 32 * 0.5 * 0.5 * n**3
            naive = sum(1 for x, y in defect_pairs if common_degree(g, x, y, part) < threshold)
            assert left == naive
            nonzero += naive > 0
        assert nonzero >= 3

    def test_all_rows_present_and_finite(self, rng):
        g = sample_gknp(10, 4, 0.5, derive_seed(67, 0))
        part = random_vertex_partition(rng, 10, 4)
        f = crossing_edges(g, part).as_hypergraph()
        rep = defect_audit(g, f, part, 0.5)
        names = {r.name for r in rep.rows.values()}
        assert names == {
            "condition_union_defect", "condition_first_defect_nonempty",
            "condition_low_pair_disjoint", "conclusion_strict",
            "conclusion_nonstrict", "heavy_size_bound", "missing_vs_rich",
            "missing_vs_split_shadow", "missing_vs_poor",
        }
        for r in rep.rows.values():
            assert math.isfinite(r.left) and math.isfinite(r.right)


class TestCutGap:
    def test_zero_gap_at_certified_maximum_without_low_pairs(self):
        g = complete_hypergraph(8, 4)
        res = max_cut4_exact(g)
        rep = low_pair_cut_gap(
            g, res.witness, 1.0, AuditConstants().delta, res.value, q_certified=True
        )
        assert rep.low_pair_count == 0
        assert rep.gap == 0.0
        assert rep.interpretation == "consistent"

    def test_unbalanced_partition_sign_recorded(self):
        # the exact cut of this instance is 115, certified by an unbudgeted
        # run in about 9 s (1 816 150 nodes) on a 2-core machine; the
        # node-budgeted re-solve below stops at the same incumbent on every
        # machine and cross-checks the frozen value from below
        g = sample_gknp(14, 4, 0.6, derive_seed(68, 0))
        q_exact = 115
        res = max_cut4_exact(g, Budget(max_nodes=200_000))
        assert res.optimal is False
        assert res.value == 110
        assert res.value <= q_exact
        skew = partition_from_classes(
            [range(0, 8), range(8, 10), range(10, 12), range(12, 14)], 14
        )
        rep = low_pair_cut_gap(g, skew, 0.6, AuditConstants().delta, q_exact, True)
        assert math.isfinite(rep.gap)
        assert rep.gap > 0  # the skewed partition is far from maximum
        assert rep.interpretation == "consistent"

    def test_lower_bound_nonpositive_gap_inconclusive(self):
        # empty host: every first-class pair is a low pair, the discount is
        # positive, and an uncertified q of 0 cannot separate the sides
        g = empty_hypergraph(8, 4)
        rep = low_pair_cut_gap(g, equal_parts(8), 0.5, 0.5, 0, q_certified=False)
        assert rep.low_pair_count == 1  # one pair in the two-vertex first class
        assert rep.gap < 0
        assert rep.interpretation == "inconclusive"

    def test_certified_nonpositive_gap_with_low_pairs(self):
        g = empty_hypergraph(8, 4)
        rep = low_pair_cut_gap(g, equal_parts(8), 0.5, 0.5, 0, q_certified=True)
        assert rep.interpretation == "inconsistent-at-scale"


def test_reports_hold_only_what_they_compute():
    # the band's eps, the host's n and p, and the gap's q and its flag are
    # the caller's arguments, which the caller already holds
    assert [f.name for f in fields(ConcentrationReport)] == ["rows"]
    assert [f.name for f in fields(ConcentrationRow)] == [
        "name", "expected", "observed_min", "observed_max", "applicable", "passed"]
    assert [f.name for f in fields(GapReport)] == [
        "gap", "crossing", "low_pair_count", "discount", "interpretation"]


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: concentration_report(complete_hypergraph(8, 3), 0.5),
                 "concentration rows are defined for k=4, got k=3", id="concentration-k3"),
    pytest.param(lambda: low_pairs(complete_hypergraph(8, 3), equal_parts(8), 0.5),
                 "low pairs are defined for k=4, got k=3", id="low-pairs-k3"),
    pytest.param(lambda: decomposition(complete_hypergraph(8, 4), empty_hypergraph(7, 4),
                                       equal_parts(8), 0.5),
                 "subhypergraph must share the host's vertex count and uniformity",
                 id="decomposition-other-n"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
