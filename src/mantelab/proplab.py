"""Exact statistics and band diagnostics for (host, subhypergraph, partition, p).

Every quantity here is computed exactly from the given objects at the given
scale.  The banded comparisons are diagnostics: the underlying inequalities
are asymptotic statements about large random hosts, so reports carry hold
flags and degenerate-threshold flags but nothing here asserts them.  The
generative edge probability p is always an explicit input, never estimated
from the host; callers wanting an empirical rate can pass |G| / C(n, 4) and
label their report accordingly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .hypergraph import (
    EdgeSet,
    Hypergraph,
    Pair,
    VertexPartition,
    _check_partition,
    _crossing_mask,
    crossing_edges,
    shadow_graph,
)
from .motifs import find_T

__all__ = [
    "AuditConstants",
    "chernoff_c",
    "ConcentrationRow",
    "ConcentrationReport",
    "concentration_report",
    "LowPairReport",
    "low_pairs",
    "DecompositionReport",
    "decomposition",
    "AuditRow",
    "AuditReport",
    "defect_audit",
    "relabel_for_largest_defect",
    "GapReport",
    "low_pair_cut_gap",
]


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class AuditConstants:
    """Constant pack used by the audit operations; every field is overridable.

    Derived fields (delta, eps3, alpha_prime, gamma_formula) are recomputed
    from the primaries when passed as None; use :meth:`with_overrides` to
    change a primary and re-derive.  Exact rationals are kept exact.  Two
    candidate values of gamma are stored because the formula (1-eps)/64 and
    the decimal 0.146 disagree; nothing here silently picks one, and
    operations needing gamma take an explicit choice.
    """

    alpha: float = 0.35
    eps1: Fraction = Fraction(1, 4200)
    eps2: Fraction = Fraction(1, 7200)
    eps: float = 0.1
    xi: float = 0.001
    phi: float = 0.0001
    gamma_decimal: float = 0.146
    delta: Fraction | None = None
    eps3: Fraction | None = None
    alpha_prime: Fraction | None = None
    gamma_formula: Fraction | None = None
    gap_ok_formula: bool = field(init=False)
    gap_ok_decimal: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.delta is None:
            object.__setattr__(
                self, "delta", self.eps1**3 * self.eps2 / (320 * 110 * 16)
            )
        if self.eps3 is None:
            object.__setattr__(self, "eps3", 16 * 80 * self.delta / self.eps1)
        if self.alpha_prime is None:
            object.__setattr__(
                self,
                "alpha_prime",
                2 * Fraction(str(self.alpha)) / (1 - Fraction(str(self.eps))),
            )
        if self.gamma_formula is None:
            object.__setattr__(
                self, "gamma_formula", (1 - Fraction(str(self.eps))) / 64
            )
        # the audit gap discount is meaningful only when delta < gamma*phi/2
        half_phi = Fraction(str(self.phi)) / 2
        object.__setattr__(
            self, "gap_ok_formula", self.delta < self.gamma_formula * half_phi
        )
        object.__setattr__(
            self,
            "gap_ok_decimal",
            self.delta < Fraction(str(self.gamma_decimal)) * half_phi,
        )

    def with_overrides(self, **kw) -> "AuditConstants":
        """New constants with the given primaries; derived fields re-derive."""
        base = {
            "alpha": self.alpha,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "eps": self.eps,
            "xi": self.xi,
            "phi": self.phi,
            "gamma_decimal": self.gamma_decimal,
            "delta": None,
            "eps3": None,
            "alpha_prime": None,
            "gamma_formula": None,
        }
        for key, value in kw.items():
            if key not in base:
                raise ValueError(f"{key} is not an overridable constant")
            # None re-derives a derived constant (the ones whose base is None)
            base[key] = None if value is None and base[key] is None else _override(key, value)
        return AuditConstants(**base)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "eps1": str(self.eps1),
            "eps2": str(self.eps2),
            "eps3": str(self.eps3),
            "delta": str(self.delta),
            "eps": self.eps,
            "xi": self.xi,
            "phi": self.phi,
            "alpha_prime": str(self.alpha_prime),
            "gamma_formula": str(self.gamma_formula),
            "gamma_decimal": self.gamma_decimal,
            "gap_ok_formula": self.gap_ok_formula,
            "gap_ok_decimal": self.gap_ok_decimal,
        }


_EXACT_CONSTANTS = ("eps1", "eps2", "delta", "eps3", "alpha_prime", "gamma_formula")


def _override(key: str, value):
    """value as constant ``key`` stores it: a real number, or for an exact
    constant also a rational string such as "1/4200"; else ValueError naming key."""
    exact = key in _EXACT_CONSTANTS
    kinds = (int, float, Fraction, str) if exact else (int, float, Fraction)
    try:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError
        return Fraction(str(value)) if exact else value
    except (ValueError, ZeroDivisionError):
        wanted = "a number or a rational string" if exact else "a number"
        raise ValueError(f"{key} must be {wanted}, got {value!r}") from None


def chernoff_c(eps: float) -> float:
    """min{(1+eps)ln(1+eps) - eps, eps^2/2}, the exponent constant of the tail bound."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    entropy = (1.0 + eps) * math.log1p(eps) - eps
    return min(entropy, eps * eps / 2.0)


# ---------------------------------------------------------------------------
# concentration statistics


@dataclass(frozen=True)
class ConcentrationRow:
    name: str
    expected: float
    observed_min: float | None
    observed_max: float | None
    eps: float
    applicable: bool
    passed: bool | None


@dataclass(frozen=True)
class ConcentrationReport:
    n: int
    p: float
    eps: float
    rows: tuple[ConcentrationRow, ...]

    def row(self, name: str) -> ConcentrationRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        """True iff every applicable row passes."""
        return all(r.passed for r in self.rows if r.applicable)


def _band_row(name: str, expected: float, values: np.ndarray, eps: float) -> ConcentrationRow:
    omin, omax = float(values.min()), float(values.max())
    passed = (1.0 - eps) * expected <= omin and omax <= (1.0 + eps) * expected
    return ConcentrationRow(name, expected, omin, omax, eps, True, passed)


def _crossing_degrees(g: Hypergraph, assignment) -> np.ndarray:
    """Per vertex, the number of crossing edges of g through it."""
    return np.bincount(g.edge_array[_crossing_mask(g, assignment)].ravel(), minlength=g.n)


def concentration_report(
    g: Hypergraph,
    p: float,
    part: VertexPartition | None = None,
    eps: float = 0.25,
) -> ConcentrationReport:
    """Exact min/max of the five degree statistics against their (1 +- eps) bands.

    Rows: co-degree over all vertex triples vs p*n; co-degree over all pairs
    vs (p/2)n^2; common degree over all pairs vs (p^2/6)n^3; vertex degree vs
    (p/6)n^3; crossing degree vs p * (product of the other class sizes),
    evaluated per source class.  The crossing row needs a partition whose
    complementary classes all have at least n/80 vertices; other source
    classes are rescaled to the first class's expectation so a single band
    covers them (the rescale is the identity for equal class sizes).

    Common degrees come from one bitset of completed cores per vertex, which
    holds n * C(n, 3) / 8 bytes whatever p is (about 5.5 MB at n=128).
    """
    if g.k != 4:
        raise ValueError(f"concentration rows are defined for k=4, got k={g.k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p} outside (0, 1] makes the bands degenerate")
    n = g.n
    ntrip = math.comb(n, 3)
    npair = math.comb(n, 2)
    c2 = np.array([math.comb(x, 2) for x in range(n + 1)], dtype=np.int64)
    c3 = np.array([math.comb(x, 3) for x in range(n + 1)], dtype=np.int64)
    E = g.edge_array

    # core block `drop` holds each edge's 3-core without column `drop`, which
    # completes it; row u of `links` is the bitset over colex core ranks of the
    # cores u completes, so popcount(links[u] & links[v]) is a common degree
    links = np.zeros((n, -(-ntrip // 64)), dtype=np.uint64)
    tcnt = np.zeros(ntrip, dtype=np.int64)
    for drop in range(4):
        lo, mid, hi = (E[:, c] for c in range(4) if c != drop)
        ranks = c3[hi] + c2[mid] + lo
        tcnt += np.bincount(ranks, minlength=ntrip)
        bits = np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64))
        np.bitwise_or.at(links, (E[:, drop], ranks >> 6), bits)
    pcnt = np.zeros(npair, dtype=np.int64)
    for lo, hi in combinations(range(4), 2):
        pcnt += np.bincount(c2[E[:, hi]] + E[:, lo], minlength=npair)
    dcnt = np.bincount(E.ravel(), minlength=n)
    common = np.concatenate(
        [np.bitwise_count(links[u] & links[u + 1:]).sum(axis=1) for u in range(n - 1)]
    )

    rows = [
        _band_row("triple_codegree", p * n, tcnt, eps),
        _band_row("pair_codegree", p / 2 * n * n, pcnt, eps),
        _band_row("pair_common_degree", p * p / 6 * n**3, common, eps),
        _band_row("vertex_degree", p / 6 * n**3, dcnt, eps),
    ]

    cross_row = ConcentrationRow("crossing_degree", 0.0, None, None, eps, False, None)
    if part is not None:
        _check_partition(g, part)
        sizes = part.class_sizes
        prods = [
            math.prod(sizes[j] for j in range(4) if j != i) for i in range(4)
        ]
        applicable_src = [
            i
            for i in range(4)
            if all(sizes[j] * 80 >= n for j in range(4) if j != i)
        ]
        if applicable_src:
            a = np.asarray(part.assignment, dtype=np.int64)
            dpi = _crossing_degrees(g, a)
            e0 = p * prods[0]
            factor = np.array(
                [e0 / (p * prods[i]) if i in applicable_src else np.nan for i in range(4)]
            )
            scaled = dpi * factor[a]
            vals = scaled[~np.isnan(scaled)]
            if vals.size:
                cross_row = _band_row("crossing_degree", e0, vals, eps)
    rows.append(cross_row)
    return ConcentrationReport(n=n, p=p, eps=eps, rows=tuple(rows))


# ---------------------------------------------------------------------------
# low common-crossing-degree pairs


@dataclass(frozen=True)
class LowPairReport:
    """Pairs of first-class vertices whose common crossing degree is below threshold."""

    threshold: float
    pairs: frozenset[Pair]


def low_pairs(
    g: Hypergraph, part: VertexPartition, p: float, alpha: float = 0.35
) -> LowPairReport:
    """Exact low-pair set under threshold (alpha/32) p^2 n^3."""
    if g.k != 4:
        raise ValueError(f"low pairs are defined for k=4, got k={g.k}")
    _check_partition(g, part)
    threshold = (alpha / 32.0) * p * p * g.n**3
    first = sorted(part.classes[0])
    groups: dict[tuple[int, ...], list[int]] = {}
    a = part.assignment
    for e in g.edge_array[_crossing_mask(g, a)].tolist():
        x = next(v for v in e if a[v] == 0)
        t = tuple(v for v in e if v != x)
        groups.setdefault(t, []).append(x)
    counts: dict[Pair, int] = {}
    for comp in groups.values():
        comp.sort()
        for pr in combinations(comp, 2):
            counts[pr] = counts.get(pr, 0) + 1
    low = frozenset(
        pr for pr in combinations(first, 2) if counts.get(pr, 0) < threshold
    )
    return LowPairReport(threshold=threshold, pairs=low)


# ---------------------------------------------------------------------------
# defect decomposition


@dataclass(frozen=True)
class DecompositionReport:
    """All defect-decomposition sets of (host, subhypergraph, partition, p).

    ``defect[i]`` holds the subhypergraph's edges with at least two vertices
    in class i; ``missing`` is the host's crossing edges absent from the
    subhypergraph; ``shadow_first`` is the subhypergraph's shadow restricted
    to the first class; heavy/light split the first class by shadow degree,
    and heavy_rich/heavy_poor split heavy by crossing-edge incidence.
    """

    n: int
    p: float
    low_pair_set: frozenset[Pair]
    defect: tuple[EdgeSet, EdgeSet, EdgeSet, EdgeSet]
    missing: EdgeSet
    shadow_first: frozenset[Pair]
    heavy: frozenset[int]
    light: frozenset[int]
    heavy_rich: frozenset[int]
    heavy_poor: frozenset[int]
    defect_split: tuple[EdgeSet, EdgeSet, EdgeSet]
    constants: AuditConstants
    degenerate_heavy_threshold: bool
    degenerate_rich_threshold: bool
    crossing_host: int  # |crossing edges of the host|, not in the JSON form
    crossing_sub: int  # |crossing edges of the subhypergraph|, not in the JSON form

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "low_pairs": sorted(list(pr) for pr in self.low_pair_set),
            "defect_sizes": [len(b) for b in self.defect],
            "missing_size": len(self.missing),
            "shadow_first_size": len(self.shadow_first),
            "heavy": sorted(self.heavy),
            "light": sorted(self.light),
            "heavy_rich": sorted(self.heavy_rich),
            "heavy_poor": sorted(self.heavy_poor),
            "defect_split_sizes": [len(b) for b in self.defect_split],
            "constants": self.constants.to_json_dict(),
            "degenerate_heavy_threshold": self.degenerate_heavy_threshold,
            "degenerate_rich_threshold": self.degenerate_rich_threshold,
        }


def _defect_ids(f: Hypergraph, cls: frozenset[int]) -> frozenset[int]:
    """Ids of the edges of f with at least two vertices in the class."""
    return frozenset(j for j, e in enumerate(f.edges) if sum(1 for v in e if v in cls) >= 2)


def decomposition(
    g: Hypergraph,
    f: Hypergraph,
    part: VertexPartition,
    p: float,
    consts: AuditConstants | None = None,
) -> DecompositionReport:
    """Compute every decomposition set exactly per its definition."""
    consts = consts or AuditConstants()
    if g.k != 4:
        raise ValueError(f"the decomposition is defined for k=4, got k={g.k}")
    _check_partition(g, part)
    if f.n != g.n or f.k != g.k:
        raise ValueError("subhypergraph must share the host's vertex count and uniformity")
    if not f.edge_set <= g.edge_set:
        extra = sorted(f.edge_set - g.edge_set)[:3]
        raise ValueError(f"subhypergraph has edges outside the host, e.g. {extra}")
    n = g.n
    low = low_pairs(g, part, p, float(consts.alpha)).pairs

    defect = [EdgeSet(f, _defect_ids(f, part.classes[i])) for i in range(4)]

    cross_g = crossing_edges(g, part)
    missing_ids = frozenset(
        i for i in cross_g.indices if g.edges[i] not in f.edge_set
    )
    missing = EdgeSet(g, missing_ids)

    first = part.classes[0]
    l_pairs = frozenset(
        pr for pr in shadow_graph(f) if pr[0] in first and pr[1] in first
    )
    l_degree = Counter(v for pr in l_pairs for v in pr)

    heavy_threshold = consts.eps1 * n  # exact rational comparison
    heavy = frozenset(x for x in first if l_degree[x] >= heavy_threshold)
    light = frozenset(first) - heavy

    cross_deg = _crossing_degrees(f, part.assignment)
    rich_threshold = float(consts.eps2) * p * n**3
    heavy_rich = frozenset(x for x in heavy if cross_deg[x] >= rich_threshold)
    heavy_poor = heavy - heavy_rich

    b1 = defect[0]
    split1, split2, split3 = set(), set(), set()
    for j in b1.indices:
        e = f.edges[j]
        in_heavy = sum(1 for v in e if v in heavy)
        in_rich = sum(1 for v in e if v in heavy_rich)
        in_poor = sum(1 for v in e if v in heavy_poor)
        if in_heavy <= 3 and in_rich >= 1:
            split1.add(j)
        elif in_heavy <= 3 and in_poor >= 1:
            split2.add(j)
        else:
            split3.add(j)

    return DecompositionReport(
        n=n,
        p=p,
        low_pair_set=low,
        defect=tuple(defect),
        missing=missing,
        shadow_first=l_pairs,
        heavy=heavy,
        light=light,
        heavy_rich=heavy_rich,
        heavy_poor=heavy_poor,
        defect_split=(
            EdgeSet(f, frozenset(split1)),
            EdgeSet(f, frozenset(split2)),
            EdgeSet(f, frozenset(split3)),
        ),
        constants=consts,
        degenerate_heavy_threshold=heavy_threshold < 1,
        degenerate_rich_threshold=rich_threshold < 1,
        crossing_host=len(cross_g),
        crossing_sub=int(cross_deg.sum()) // 4,  # each crossing edge has 4 vertices
    )


# ---------------------------------------------------------------------------
# audit of the decomposition inequalities


@dataclass(frozen=True)
class AuditRow:
    name: str
    left: float
    relation: str
    right: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "relation": self.relation,
            "right": self.right,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class AuditReport:
    """Numeric sides and hold flags for the decomposition inequalities.

    Diagnostic only: the inequalities are asymptotic, so hold flags record
    what happened at this scale and are never asserted by the lab itself.
    """

    sizes: tuple[tuple[str, int], ...]
    rows: tuple[AuditRow, ...]
    decomposition: DecompositionReport  # the report audited

    def row(self, name: str) -> AuditRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def size(self, name: str) -> int:
        for key, value in self.sizes:
            if key == name:
                return value
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        """The v1 audit block; its ``relabeling`` is always null, since the
        caller relabels the partition before the audit and records it."""
        rep = self.decomposition
        return {
            "n": rep.n,
            "p": rep.p,
            "relabeling": None,
            "sizes": {k: v for k, v in self.sizes},
            "rows": [r.to_json_dict() for r in self.rows],
            "constants": rep.constants.to_json_dict(),
            "degenerate_heavy_threshold": rep.degenerate_heavy_threshold,
            "degenerate_rich_threshold": rep.degenerate_rich_threshold,
        }


def relabel_for_largest_defect(
    f: Hypergraph, part: VertexPartition
) -> tuple[VertexPartition, tuple[int, int, int, int] | None]:
    """Permute class labels so class 0 carries the largest defect set."""
    sizes = [len(_defect_ids(f, part.classes[i])) for i in range(4)]
    order = sorted(range(4), key=lambda i: (-sizes[i], i))
    if order == [0, 1, 2, 3]:
        return part, None
    inv = [0] * 4
    for new, old in enumerate(order):
        inv[old] = new
    relabeled = VertexPartition(4, tuple(inv[c] for c in part.assignment))
    return relabeled, tuple(order)


def defect_audit(
    g: Hypergraph,
    f: Hypergraph,
    part: VertexPartition,
    p: float,
    consts: AuditConstants | None = None,
) -> AuditReport:
    """Evaluate both sides of every decomposition inequality at this scale.

    Rejects subhypergraphs containing a triangle copy.  The low-pair set,
    shadow restriction, and all derived sets are relative to the partition's
    first class as given; callers wanting the first class to carry the
    largest defect set relabel with :func:`relabel_for_largest_defect` first.
    """
    consts = consts or AuditConstants()
    copy = find_T(f)
    if copy is not None:
        raise ValueError(f"subhypergraph contains a triangle copy with edges {copy}")
    rep = decomposition(g, f, part, p, consts)
    n = g.n
    cross_g = rep.crossing_host
    cross_f = rep.crossing_sub
    b_sizes = [len(b) for b in rep.defect]
    union_defect = set()
    for b in rep.defect:
        union_defect.update(b.indices)
    b1_first_pairs = set()
    first = part.classes[0]
    for e in rep.defect[0].edges:
        inside = sorted(v for v in e if v in first)
        b1_first_pairs.update(combinations(inside, 2))
    lprime_pairs = frozenset(
        pr
        for pr in rep.shadow_first
        if (pr[0] in rep.heavy and pr[1] in rep.heavy)
        or (pr[0] in rep.light and pr[1] in rep.light)
    )
    c = consts

    def row(name: str, left: float, relation: str, right: float) -> AuditRow:
        if relation == "<":
            holds = left < right
        elif relation == "<=":
            holds = left <= right
        elif relation == ">=":
            holds = left >= right
        elif relation == ">":
            holds = left > right
        elif relation == "==":
            holds = left == right
        else:
            raise ValueError(f"unknown relation {relation!r}")
        return AuditRow(name, float(left), relation, float(right), holds)

    rows = (
        row("condition_union_defect", len(union_defect), "<=", float(c.delta) * p * n**4),
        row("condition_first_defect_nonempty", b_sizes[0], ">", 0),
        row(
            "condition_low_pair_disjoint",
            len(b1_first_pairs & rep.low_pair_set),
            "==",
            0,
        ),
        row("conclusion_strict", cross_f + 4 * b_sizes[0], "<", cross_g),
        row("conclusion_nonstrict", cross_f + 4 * b_sizes[0], "<=", cross_g),
        row("heavy_size_bound", len(rep.heavy), "<=", float(c.eps3) * n),
        row(
            "missing_vs_rich",
            len(rep.missing),
            ">=",
            float(c.eps1 * c.eps2 / (16 * c.eps3)) * p * n**3 * len(rep.heavy_rich),
        ),
        row(
            "missing_vs_split_shadow",
            len(rep.missing),
            ">=",
            p * n**2 / (320 * float(c.eps1)) * len(lprime_pairs),
        ),
        row(
            "missing_vs_poor",
            len(rep.missing),
            ">=",
            p * n**3 / 130 * len(rep.heavy_poor),
        ),
    )
    sizes = (
        ("crossing_host", cross_g),
        ("crossing_sub", cross_f),
        ("defect_1", b_sizes[0]),
        ("defect_2", b_sizes[1]),
        ("defect_3", b_sizes[2]),
        ("defect_4", b_sizes[3]),
        ("defect_union", len(union_defect)),
        ("missing", len(rep.missing)),
        ("shadow_first", len(rep.shadow_first)),
        ("split_shadow", len(lprime_pairs)),
        ("heavy", len(rep.heavy)),
        ("light", len(rep.light)),
        ("heavy_rich", len(rep.heavy_rich)),
        ("heavy_poor", len(rep.heavy_poor)),
        ("low_pairs", len(rep.low_pair_set)),
        ("defect_split_1", len(rep.defect_split[0])),
        ("defect_split_2", len(rep.defect_split[1])),
        ("defect_split_3", len(rep.defect_split[2])),
    )
    return AuditReport(sizes=sizes, rows=rows, decomposition=rep)


# ---------------------------------------------------------------------------
# cut-gap diagnostic


@dataclass(frozen=True)
class GapReport:
    """q(G) minus the partition's crossing count minus the low-pair discount.

    ``interpretation`` is three-valued: "consistent" (positive gap, or zero
    gap with no low pairs), "inconsistent-at-scale" (certified q with a
    non-positive gap and low pairs present), or "inconclusive" (q only a
    lower bound and the gap not positive).
    """

    gap: float
    q_value: int
    crossing: int
    low_pair_count: int
    discount: float
    certified: bool
    interpretation: str

    def to_json_dict(self) -> dict:
        return {
            "gap": self.gap,
            "q_value": self.q_value,
            "crossing": self.crossing,
            "low_pair_count": self.low_pair_count,
            "discount": self.discount,
            "certified": self.certified,
            "interpretation": self.interpretation,
        }


def low_pair_cut_gap(
    g: Hypergraph,
    part: VertexPartition,
    p: float,
    delta,
    q_value: int,
    q_certified: bool = True,
    alpha: float = 0.35,
) -> GapReport:
    """gap = q - |G[partition]| - |low pairs| * delta * n^3 * p^2."""
    crossing = len(crossing_edges(g, part))
    low_count = len(low_pairs(g, part, p, alpha).pairs)
    return _gap_report(g.n, p, delta, q_value, q_certified, crossing, low_count)


def _gap_report(
    n: int, p: float, delta, q_value: int, q_certified: bool, crossing: int, low_count: int
) -> GapReport:
    """The gap arithmetic of :func:`low_pair_cut_gap` on counts already taken."""
    discount = low_count * float(delta) * n**3 * p * p
    gap = q_value - crossing - discount
    if gap > 0 or (gap == 0 and not low_count):
        interpretation = "consistent"
    elif q_certified:
        interpretation = "inconsistent-at-scale"
    else:
        interpretation = "inconclusive"
    return GapReport(
        gap=gap,
        q_value=q_value,
        crossing=crossing,
        low_pair_count=low_count,
        discount=discount,
        certified=q_certified,
        interpretation=interpretation,
    )
