import math
from fractions import Fraction
from itertools import combinations

import pytest

from mantelab.hypergraph import (
    VertexPartition,
    build_hypergraph,
    complete_hypergraph,
    crossing_edges,
    empty_hypergraph,
    link,
    partition_from_classes,
    shadow_graph,
)
from mantelab.motifs import generalized_triangle
from mantelab.proplab import (
    AuditConstants,
    chernoff_c,
    concentration_report,
    decomposition,
    defect_audit,
    low_pair_cut_gap,
    low_pairs,
    relabel_for_largest_defect,
)
from mantelab.randgen import derive_seed, random_partition, sample_gknp
from mantelab.solvers import Budget, max_cut4_exact, max_cut4_local, max_tfree_repair

from conftest import random_hypergraph, random_vertex_partition


def equal_parts(n):
    return VertexPartition(4, tuple(v * 4 // n for v in range(n)))


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
        assert c.alpha_prime == Fraction(7, 9)
        assert c.gamma_formula == Fraction(9, 640)
        assert c.gamma_decimal == 0.146

    def test_gap_requirement_reported(self):
        c = AuditConstants()
        # delta ~ 3.3e-21 is far below gamma * phi / 2 for either gamma
        assert c.gap_ok_formula and c.gap_ok_decimal

    def test_overrides_rederive(self):
        c = AuditConstants().with_overrides(eps1=Fraction(1, 100))
        assert c.eps1 == Fraction(1, 100)
        assert c.delta == Fraction(1, 100) ** 3 * Fraction(1, 7200) / (320 * 110 * 16)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            AuditConstants().with_overrides(zeta=1)

    def test_json_fields_fixed(self):
        d = AuditConstants().to_json_dict()
        assert set(d) == {
            "alpha", "eps1", "eps2", "eps3", "delta", "eps", "xi", "phi",
            "alpha_prime", "gamma_formula", "gamma_decimal",
            "gap_ok_formula", "gap_ok_decimal",
        }


class TestConcentration:
    def test_complete_host_exact_counts(self):
        g = complete_hypergraph(16, 4)
        rep = concentration_report(g, 1.0, equal_parts(16), eps=0.25)
        row = rep.row("triple_codegree")
        assert row.observed_min == row.observed_max == 13  # n - 3
        assert row.passed  # eps = 0.25 >= 3/n
        assert rep.row("crossing_degree").passed  # exactly the class product
        # the nominal n^3/6 formulas carry O(1/n) slack, so the whole report
        # needs a wider band at n = 16: C(14,3) = 364 vs 16^3/6 = 682.7
        wide = concentration_report(g, 1.0, equal_parts(16), eps=0.5)
        assert wide.all_pass

    def test_complete_host_tight_band_fails_triple_row(self):
        g = complete_hypergraph(16, 4)
        rep = concentration_report(g, 1.0, equal_parts(16), eps=0.1)
        assert rep.row("triple_codegree").passed is False  # needs eps >= 3/n

    def test_empty_host_fails(self):
        rep = concentration_report(empty_hypergraph(12, 4), 0.5, equal_parts(12), 0.25)
        assert not rep.all_pass
        assert rep.row("vertex_degree").observed_max == 0

    def test_rejects_degenerate_p(self):
        g = complete_hypergraph(8, 4)
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                concentration_report(g, bad, None, 0.25)

    def test_without_partition_crossing_row_not_applicable(self):
        g = complete_hypergraph(8, 4)
        rep = concentration_report(g, 1.0)
        row = rep.row("crossing_degree")
        assert not row.applicable and row.passed is None
        # inapplicable rows never count against the aggregate
        assert rep.all_pass == all(r.passed for r in rep.rows if r.applicable)

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
            assert rep.row("triple_codegree").observed_min == min(triples)
            assert rep.row("triple_codegree").observed_max == max(triples)

            pairs = [
                sum(1 for e in h.edges if pr[0] in e and pr[1] in e)
                for pr in combinations(range(n), 2)
            ]
            assert rep.row("pair_codegree").observed_min == min(pairs)
            assert rep.row("pair_codegree").observed_max == max(pairs)

            commons = []
            for u, v in combinations(range(n), 2):
                lu = set(link(h, u).edges)
                lv = set(link(h, v).edges)
                commons.append(len(lu & lv))
            assert rep.row("pair_common_degree").observed_min == min(commons)
            assert rep.row("pair_common_degree").observed_max == max(commons)

            degrees = [h.degree(v) for v in range(n)]
            assert rep.row("vertex_degree").observed_min == min(degrees)
            assert rep.row("vertex_degree").observed_max == max(degrees)

    def test_crossing_row_rescaled_per_source_class(self):
        # unequal classes: every source class checked against its own product
        g = complete_hypergraph(12, 4)
        part = partition_from_classes([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11]], 12)
        rep = concentration_report(g, 1.0, part, eps=0.01)
        row = rep.row("crossing_degree")
        # complete host: crossing degree equals the product exactly for every class
        assert row.applicable and row.passed
        assert row.observed_min == pytest.approx(row.expected)
        assert row.observed_max == pytest.approx(row.expected)

    def test_crossing_row_small_class_not_applicable(self):
        g = complete_hypergraph(8, 4)
        part = partition_from_classes([[], [0, 1, 2], [3, 4, 5], [6, 7]], 8)
        rep = concentration_report(g, 1.0, part, 0.25)
        assert rep.row("crossing_degree").applicable is False


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

    def test_matches_common_crossing_degree(self, rng):
        from mantelab.hypergraph import common_degree

        for i in range(6):
            g = sample_gknp(12, 4, 0.6, derive_seed(61, i))
            part = equal_parts(12)
            rep = low_pairs(g, part, 0.6, alpha=0.35)
            first = sorted(part.classes[0])
            expected = frozenset(
                pr
                for pr in combinations(first, 2)
                if common_degree(g, pr[0], pr[1], part) < rep.threshold
            )
            assert rep.pairs == expected


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
        loose = AuditConstants().with_overrides(eps1=Fraction(1, 4))
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
        consts = AuditConstants().with_overrides(
            eps1=Fraction(1, 5), eps2=Fraction(1, 50)
        )
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


class TestDefectAudit:
    def test_crossing_set_trivial_branch(self):
        g = complete_hypergraph(12, 4)
        res = max_cut4_local(g, derive_seed(2, 2), restarts=4)
        f = crossing_edges(g, res.witness).as_hypergraph()
        rep = defect_audit(g, f, res.witness, 1.0)
        assert rep.size("defect_1") == 0
        assert rep.row("condition_first_defect_nonempty").holds is False
        assert rep.row("conclusion_nonstrict").holds is True

    def test_empty_host(self):
        g = empty_hypergraph(8, 4)
        rep = defect_audit(g, g, equal_parts(8), 0.5)
        assert rep.size("missing") == 0
        assert rep.size("crossing_host") == 0
        assert rep.row("conclusion_nonstrict").holds is True

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
            assert rep.size("defect_1") == max(naive)
            assert rep.size("defect_1") >= rep.size("defect_2")
        assert moved >= 5

    def test_all_rows_present_and_finite(self, rng):
        g = sample_gknp(10, 4, 0.5, derive_seed(67, 0))
        part = random_vertex_partition(rng, 10, 4)
        f = crossing_edges(g, part).as_hypergraph()
        rep = defect_audit(g, f, part, 0.5)
        names = {r.name for r in rep.rows}
        assert names == {
            "condition_union_defect", "condition_first_defect_nonempty",
            "condition_low_pair_disjoint", "conclusion_strict",
            "conclusion_nonstrict", "heavy_size_bound", "missing_vs_rich",
            "missing_vs_split_shadow", "missing_vs_poor",
        }
        for r in rep.rows:
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
