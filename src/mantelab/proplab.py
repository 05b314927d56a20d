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
import operator
from dataclasses import asdict, dataclass, field, fields
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
)
from .motifs import find_T
from .randgen import _comb_table, _unrank_batch

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
    """The constants the audit reads.

    alpha, eps1 and eps2 are set; delta and eps3 are always derived from
    eps1 and eps2, so :func:`dataclasses.replace` re-derives them.  eps1,
    eps2, delta and eps3 are exact rationals; alpha is a float.
    """

    alpha: float = 0.35
    eps1: Fraction = Fraction(1, 4200)
    eps2: Fraction = Fraction(1, 7200)
    delta: Fraction = field(init=False)
    eps3: Fraction = field(init=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "eps1", "eps2"):
            object.__setattr__(self, name, _constant(name, getattr(self, name)))
        object.__setattr__(self, "delta", self.eps1**3 * self.eps2 / (320 * 110 * 16))
        object.__setattr__(self, "eps3", 16 * 80 * self.delta / self.eps1)

    def to_json_dict(self) -> dict:
        """Every field, with the exact rationals written as strings."""
        return {
            f.name: str(v) if isinstance(v := getattr(self, f.name), Fraction) else v
            for f in fields(self)
        }


def _constant(key: str, value):
    """value as constant ``key`` stores it: a finite number (int or float) for
    alpha; a positive finite number, Fraction or rational string such as
    "1/4200" for eps1 and eps2, which the audit divides by; else ValueError
    naming key."""
    exact = key != "alpha"
    kinds = (int, float, Fraction, str) if exact else (int, float)
    try:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError
        value = Fraction(str(value)) if exact else value
    except (ValueError, ZeroDivisionError):
        wanted = "a number or a rational string" if exact else "a number"
        raise ValueError(f"{key} must be {wanted}, got {value!r}") from None
    # derived from positive eps1 and eps2, delta and eps3 are positive
    if exact and not value > 0:
        raise ValueError(f"{key} must be > 0, got {value}")
    return value


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
    rows: dict[str, ConcentrationRow]  # by row name, in report order

    @property
    def all_pass(self) -> bool:
        """True iff every applicable row passes."""
        return all(r.passed for r in self.rows.values() if r.applicable)


def _band_row(name: str, expected: float, values: np.ndarray, eps: float) -> ConcentrationRow:
    omin, omax = float(values.min()), float(values.max())
    passed = (1.0 - eps) * expected <= omin and omax <= (1.0 + eps) * expected
    return ConcentrationRow(name, expected, omin, omax, eps, True, passed)


def _crossing_degrees(g: Hypergraph, assignment) -> np.ndarray:
    """Per vertex, the number of crossing edges of g through it."""
    crossing = g.edge_array.compress(_crossing_mask(g, assignment), axis=0)
    return np.bincount(crossing.ravel(), minlength=g.n)


# bytes of the completed-core mask that _core_links builds at one time: it
# is built one block of vertices at a time, so n=64 (2.7 MB) is one block and
# n=200 (263 MB) is 17 blocks of 12 vertices
_MASK_BYTES = 1 << 24


def _core_links(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex bitsets of completed cores, and the co-degree of every 3-set.

    Core block ``drop`` holds each 4-uniform row's 3-core without column
    ``drop``, which completes it.  Row u of the bitsets is over the colex
    ranks of the cores u completes, so popcount(links[u] & links[v]) counts
    the 3-sets t with t + u and t + v both rows: the common degree of u, v.
    Bit r of row u is bit r % 64 of word r // 64, whatever the machine's
    byte order.  The bitsets hold n * C(n, 3) / 8 bytes whatever the row
    count is; they are packed from a byte mask of C(n, 3) bytes per vertex,
    built for at most ``_MASK_BYTES`` bytes of vertices at a time.
    """
    ntrip = math.comb(n, 3)
    width = 64 * -(-ntrip // 64)
    c2, c3 = _comb_table(2, n), _comb_table(3, n)
    links = np.empty((n, width // 64), dtype="<u8")
    tcnt = np.zeros(ntrip, dtype=np.int64)
    step = max(1, _MASK_BYTES // width)
    # with more than one block, the block of each row at each column, held narrow
    blk = None
    if step < n:
        blk = rows.T.astype(np.min_scalar_type(n - 1), order="C")
        blk //= step
    for v0 in range(0, n, step):
        held = np.zeros(min(step, n - v0) * width, dtype=bool)
        for drop in range(4):
            block = rows if blk is None else rows.compress(blk[drop] == v0 // step, axis=0)
            lo, mid, hi = (block[:, c] for c in range(4) if c != drop)
            ranks = c3[hi] + c2[mid] + lo
            np.add.at(tcnt, ranks, 1)
            held[(block[:, drop] - v0) * width + ranks] = True
        packed = np.packbits(held.reshape(-1, width), axis=1, bitorder="little")
        links[v0:v0 + step] = packed.view("<u8")
        del held, packed  # before the next block's are allocated
    return links, tcnt


def _pair_codegrees(tcnt: np.ndarray, n: int) -> np.ndarray:
    """Per pair, in colex order, the number of rows through it.

    A row through {a, b} holds exactly two of the 3-sets that contain
    {a, b}, so the pair's co-degree is half the summed co-degrees ``tcnt``
    (indexed by colex rank) of the 3-sets {a, b, c}.
    """
    c2 = _comb_table(2, n)
    lo, mid, hi = _unrank_batch(np.arange(len(tcnt)), 3, n).T
    npairs = math.comb(n, 2)
    sums = sum(np.bincount(c2[b] + a, weights=tcnt, minlength=npairs)
               for a, b in ((lo, mid), (lo, hi), (mid, hi)))
    return sums.astype(np.int64) // 2


def _pair_commons(links: np.ndarray, vertices: list[int]) -> np.ndarray:
    """popcount(links[u] & links[v]) for the pairs u < v of the ascending
    vertices, in ``combinations`` order; the rows are selected once, then sliced."""
    sel = links[vertices]
    counts = [np.bitwise_count(sel[i] & sel[i + 1:]).sum(axis=1) for i in range(len(sel) - 1)]
    return np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)


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

    Common degrees come from one bitset of completed cores per vertex
    (:func:`_core_links`), about 5.5 MB at n=128 whatever p is, packed from
    a transient byte mask of at most ``_MASK_BYTES`` (16 MB) at a time.
    Vertex degrees are the bitsets' row popcounts.  Pair co-degrees are
    summed from the 3-set co-degrees (:func:`_pair_codegrees`).
    """
    if g.k != 4:
        raise ValueError(f"concentration rows are defined for k=4, got k={g.k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p} outside (0, 1] makes the bands degenerate")
    if not (0.0 < eps and math.isfinite(eps)):
        raise ValueError(f"eps={eps} must be finite and > 0")
    if part is not None:
        _check_partition(g, part)
    n = g.n
    E = g.edge_array
    links, tcnt = _core_links(E, n)
    pcnt = _pair_codegrees(tcnt, n)
    # each row through u sets exactly one bit of links[u], so its popcount is u's degree
    dcnt = np.bitwise_count(links).sum(axis=1, dtype=np.int64)
    common = _pair_commons(links, list(range(n)))

    rows = [
        _band_row("triple_codegree", p * n, tcnt, eps),
        _band_row("pair_codegree", p / 2 * n * n, pcnt, eps),
        _band_row("pair_common_degree", p * p / 6 * n**3, common, eps),
        _band_row("vertex_degree", p / 6 * n**3, dcnt, eps),
    ]

    cross_row = ConcentrationRow("crossing_degree", 0.0, None, None, eps, False, None)
    if part is not None:
        others = np.array([np.delete(part.class_sizes, i) for i in range(4)])
        expect = p * others.prod(axis=1)
        applies = (others * 80 >= n).all(axis=1)
        a = np.asarray(part.assignment, dtype=np.int64)
        sel = applies[a]
        if sel.any():
            dpi = _crossing_degrees(g, a)[sel]
            vals = dpi * (expect[0] / expect[a[sel]])
            cross_row = _band_row("crossing_degree", float(expect[0]), vals, eps)
    rows.append(cross_row)
    return ConcentrationReport(n=n, p=p, eps=eps, rows={r.name: r for r in rows})


# ---------------------------------------------------------------------------
# low common-crossing-degree pairs


@dataclass(frozen=True)
class LowPairReport:
    """Pairs of first-class vertices whose common crossing degree is below threshold."""

    threshold: float
    pairs: frozenset[Pair]


def low_pairs(
    g: Hypergraph, part: VertexPartition, p: float, alpha: float = AuditConstants.alpha
) -> LowPairReport:
    """Exact low-pair set under threshold (alpha/32) p^2 n^3."""
    if g.k != 4:
        raise ValueError(f"low pairs are defined for k=4, got k={g.k}")
    _check_partition(g, part)
    threshold = (alpha / 32.0) * p * p * g.n**3
    first = sorted(part.classes[0])
    # a first-class vertex x completes the core e - x of each crossing edge e
    # through it, so the bitset popcount is the common crossing degree
    links, _ = _core_links(g.edge_array.compress(_crossing_mask(g, part.assignment), axis=0), g.n)
    counts = _pair_commons(links, first)
    low = frozenset(pr for pr, c in zip(combinations(first, 2), counts) if c < threshold)
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


def _check_decomposable(g: Hypergraph, part: VertexPartition) -> None:
    """ValueError unless g is 4-uniform and part is a 4-class partition of its vertices."""
    if g.k != 4:
        raise ValueError(f"the decomposition is defined for k=4, got k={g.k}")
    _check_partition(g, part)


def _shared_rows(f: Hypergraph, g: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Bool masks by edge id: which of f's rows are g's rows, and which of g's are f's.

    Each hypergraph's rows are unique, so in one stable lex sort of both row
    sets an equal adjacent pair is one row of g followed by the same row of f.
    """
    both = np.concatenate((g.edge_array, f.edge_array))
    order = np.lexsort(both.T[::-1])
    both = both.take(order, axis=0)
    same = (both[1:] == both[:-1]).all(axis=1)
    in_g = np.zeros(len(f), dtype=bool)
    in_g[order[1:][same] - len(g)] = True
    in_f = np.zeros(len(g), dtype=bool)
    in_f[order[:-1][same]] = True
    return in_g, in_f


def _defect_table(f: Hypergraph, assignment) -> np.ndarray:
    """(4, m) bool: row i marks the edges of f with at least two vertices in class i."""
    cls = np.asarray(assignment, dtype=np.int64)[f.edge_array]
    return (cls == np.arange(4)[:, None, None]).sum(axis=2) >= 2


def decomposition(
    g: Hypergraph,
    f: Hypergraph,
    part: VertexPartition,
    p: float,
    consts: AuditConstants | None = None,
) -> DecompositionReport:
    """Compute every decomposition set exactly per its definition."""
    consts = consts or AuditConstants()
    _check_decomposable(g, part)
    if f.n != g.n or f.k != g.k:
        raise ValueError("subhypergraph must share the host's vertex count and uniformity")
    in_g, in_f = _shared_rows(f, g)
    if not in_g.all():
        extra = list(map(tuple, f.edge_array[~in_g][:3].tolist()))
        raise ValueError(f"subhypergraph has edges outside the host, e.g. {extra}")
    n = g.n
    low = low_pairs(g, part, p, float(consts.alpha)).pairs

    table = _defect_table(f, part.assignment)
    defect = [EdgeSet(f, frozenset(np.flatnonzero(row).tolist())) for row in table]

    cross_g = _crossing_mask(g, part.assignment)
    missing = EdgeSet(g, frozenset(np.flatnonzero(cross_g & ~in_f).tolist()))

    # an edge covers a first-class pair only if two of its vertices are in
    # the first class, so the first-class shadow is that of defect[0]
    first = part.classes[0]
    b1_ids = np.flatnonzero(table[0])
    b1 = f.edge_array[b1_ids]
    in_first = np.isin(b1, list(first))
    shadow = np.zeros((n, n), dtype=bool)
    for a, b in combinations(range(4), 2):
        both = in_first[:, a] & in_first[:, b]
        shadow[b1[both, a], b1[both, b]] = True  # rows ascend, so a pair (u, v) has u < v
    l_pairs = frozenset(map(tuple, np.argwhere(shadow).tolist()))
    l_degree = (shadow.sum(axis=0) + shadow.sum(axis=1)).tolist()

    heavy_threshold = consts.eps1 * n  # exact rational comparison
    heavy = frozenset(x for x in first if l_degree[x] >= heavy_threshold)
    light = frozenset(first) - heavy

    cross_deg = _crossing_degrees(f, part.assignment)
    rich_threshold = float(consts.eps2) * p * n**3
    heavy_rich = frozenset(x for x in heavy if cross_deg[x] >= rich_threshold)
    heavy_poor = heavy - heavy_rich

    # per defect[0] edge, its vertices in heavy_rich and in heavy_poor, whose
    # disjoint union is heavy
    in_rich, in_poor = (np.isin(b1, list(vs)).sum(axis=1) for vs in (heavy_rich, heavy_poor))
    few_heavy = in_rich + in_poor <= 3
    split = np.select([few_heavy & (in_rich >= 1), few_heavy & (in_poor >= 1)], [0, 1], 2)

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
        defect_split=tuple(
            EdgeSet(f, frozenset(b1_ids[split == i].tolist())) for i in range(3)
        ),
        constants=consts,
        degenerate_heavy_threshold=heavy_threshold < 1,
        degenerate_rich_threshold=rich_threshold < 1,
        crossing_host=int(cross_g.sum()),
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


@dataclass(frozen=True)
class AuditReport:
    """Numeric sides and hold flags for the decomposition inequalities.

    Diagnostic only: the inequalities are asymptotic, so hold flags record
    what happened at this scale and are never asserted by the lab itself.
    """

    sizes: dict[str, int]
    rows: dict[str, AuditRow]  # by row name, in report order
    decomposition: DecompositionReport  # the report audited

    def to_json_dict(self) -> dict:
        """The audit block: the named sizes and the inequality rows.  n, p,
        the constants and the degenerate-threshold flags are the audited
        report's, written once in its own block."""
        return {
            "sizes": self.sizes,
            "rows": [asdict(r) for r in self.rows.values()],
        }


def relabel_for_largest_defect(
    f: Hypergraph, part: VertexPartition
) -> tuple[VertexPartition, tuple[int, int, int, int] | None]:
    """Permute class labels so class 0 carries the largest defect set.

    Rejects (ValueError) a non-4-uniform f and a partition that is not
    4-class or does not cover f's vertices, as :func:`decomposition` does.
    """
    _check_decomposable(f, part)
    order = np.argsort(-_defect_table(f, part.assignment).sum(axis=1), kind="stable").tolist()
    if order == [0, 1, 2, 3]:
        return part, None
    return VertexPartition(4, tuple(map(order.index, part.assignment))), tuple(order)


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt,
              "==": operator.eq}


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
    union_defect = frozenset().union(*(b.indices for b in rep.defect))
    lprime_pairs = frozenset(
        pr
        for pr in rep.shadow_first
        if (pr[0] in rep.heavy and pr[1] in rep.heavy)
        or (pr[0] in rep.light and pr[1] in rep.light)
    )
    c = consts

    def ineq(name: str, left: float, relation: str, right: float) -> AuditRow:
        holds = _RELATIONS[relation](left, right)
        return AuditRow(name, float(left), relation, float(right), holds)

    rows = {r.name: r for r in (
        ineq("condition_union_defect", len(union_defect), "<=", float(c.delta) * p * n**4),
        ineq("condition_first_defect_nonempty", b_sizes[0], ">", 0),
        # an edge covers a first-class pair only if it has two first-class
        # vertices, so the pairs of defect[0] are the first-class shadow
        ineq("condition_low_pair_disjoint", len(rep.shadow_first & rep.low_pair_set), "==", 0),
        ineq("conclusion_strict", cross_f + 4 * b_sizes[0], "<", cross_g),
        ineq("conclusion_nonstrict", cross_f + 4 * b_sizes[0], "<=", cross_g),
        ineq("heavy_size_bound", len(rep.heavy), "<=", float(c.eps3) * n),
        ineq(
            "missing_vs_rich",
            len(rep.missing),
            ">=",
            float(c.eps1 * c.eps2 / (16 * c.eps3)) * p * n**3 * len(rep.heavy_rich),
        ),
        ineq(
            "missing_vs_split_shadow",
            len(rep.missing),
            ">=",
            p * n**2 / (320 * float(c.eps1)) * len(lprime_pairs),
        ),
        ineq(
            "missing_vs_poor",
            len(rep.missing),
            ">=",
            p * n**3 / 130 * len(rep.heavy_poor),
        ),
    )}
    sizes = {
        "crossing_host": cross_g,
        "crossing_sub": cross_f,
        "defect_1": b_sizes[0],
        "defect_2": b_sizes[1],
        "defect_3": b_sizes[2],
        "defect_4": b_sizes[3],
        "defect_union": len(union_defect),
        "missing": len(rep.missing),
        "shadow_first": len(rep.shadow_first),
        "split_shadow": len(lprime_pairs),
        "heavy": len(rep.heavy),
        "light": len(rep.light),
        "heavy_rich": len(rep.heavy_rich),
        "heavy_poor": len(rep.heavy_poor),
        "low_pairs": len(rep.low_pair_set),
        "defect_split_1": len(rep.defect_split[0]),
        "defect_split_2": len(rep.defect_split[1]),
        "defect_split_3": len(rep.defect_split[2]),
    }
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


def low_pair_cut_gap(
    g: Hypergraph,
    part: VertexPartition,
    p: float,
    delta,
    q_value: int,
    q_certified: bool = True,
    alpha: float = AuditConstants.alpha,
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
