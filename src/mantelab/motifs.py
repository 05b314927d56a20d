"""Detection, enumeration, and counting of generalized triangles and gadgets.

The generalized triangle on 2k-1 vertices is the 3-edge k-uniform pattern in
which two edges share k-1 vertices and the third edge contains their two apex
vertices plus fresh tails.  A copy is identified by its unordered edge triple
(the pattern has automorphisms, so edge-set identity avoids double counting).

The anchored gadget counted by :func:`count_gadgets` is a pair of crossing
edges sharing a triple (x, y, z), whose apex pair (w1, w2) lies in the first
partition class inside some certifying host edge W with x, y, z outside W.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .hypergraph import (
    Edge,
    EdgeSet,
    Hypergraph,
    Pair,
    VertexPartition,
    _check_partition,
    _is_crossing,
)

__all__ = [
    "MotifWitness",
    "generalized_triangle",
    "find_T",
    "count_T",
    "t_copy_triples",
    "t_through_edges",
    "count_gadgets",
    "gadget_witness",
]

KIND_TRIANGLE = "generalized-triangle"
KIND_GADGET = "anchored-gadget"

_SUPPORTED_K = (2, 3, 4)


@dataclass(frozen=True)
class MotifWitness:
    """An embedded copy of the triangle pattern or of the anchored gadget.

    Triangle copies carry (e1, e2, e3) with e1, e2 sharing the core, the apex
    pair e1 ^ e2, and e3's tail vertices.  Gadget copies carry the two
    crossing edges, the apex (anchor) pair, the shared triple, and the
    certifying edge.
    """

    kind: str
    edges: tuple[Edge, ...]
    core: tuple[int, ...] | None = None
    apex: Pair | None = None
    tails: tuple[int, ...] | None = None
    shared: tuple[int, ...] | None = None
    certifying: Edge | None = None


def generalized_triangle(k: int) -> Hypergraph:
    """The canonical pattern on vertices 0..2k-2 with three edges."""
    if k < 2:
        raise ValueError(f"uniformity k={k} must be at least 2")
    e1 = tuple(range(k))
    e2 = tuple(range(k - 1)) + (k,)
    e3 = tuple(range(k - 1, 2 * k - 1))
    return Hypergraph(2 * k - 1, k, tuple(sorted((e1, e2, e3))))


def _pair_to_edges(h: Hypergraph) -> dict[Pair, list[int]]:
    idx: dict[Pair, list[int]] = {}
    for i, e in enumerate(h.edges):
        for pr in combinations(e, 2):
            idx.setdefault(pr, []).append(i)
    return idx


def _scan(h: Hypergraph) -> Iterator[tuple[int, int, int, tuple[int, ...], Pair, tuple[int, ...]]]:
    """Yield (i, j, l, core, apex, tails) for every discovered configuration.

    Every copy with k >= 3 is produced exactly once; with k == 2 each triangle
    is produced three times (once per choice of shared vertex).
    """
    if h.k not in _SUPPORTED_K:
        raise ValueError(f"unsupported uniformity k={h.k}; supported: {_SUPPORTED_K}")
    if len(h.edges) < 3:
        return
    pair_idx = _pair_to_edges(h)
    for core, comp in h.cores.items():
        if len(comp) < 2:
            continue
        core_set = set(core)
        for a, b in combinations(comp, 2):
            e1 = tuple(sorted(core + (a,)))
            e2 = tuple(sorted(core + (b,)))
            i = h.edge_ids[e1]
            j = h.edge_ids[e2]
            for l in pair_idx.get((a, b), ()):
                e3 = h.edges[l]
                if core_set.intersection(e3):
                    continue
                tails = tuple(x for x in e3 if x != a and x != b)
                yield i, j, l, core, (a, b), tails


def find_T(h: Hypergraph) -> MotifWitness | None:
    """A witness copy of the triangle pattern if one exists, else None."""
    for i, j, l, core, apex, tails in _scan(h):
        return MotifWitness(
            kind=KIND_TRIANGLE,
            edges=(h.edges[i], h.edges[j], h.edges[l]),
            core=core,
            apex=apex,
            tails=tails,
        )
    return None


def count_T(h: Hypergraph) -> int:
    """Number of distinct edge triples forming a copy of the pattern."""
    raw = sum(1 for _ in _scan(h))
    return raw // 3 if h.k == 2 else raw


def t_copy_triples(h: Hypergraph, limit: int | None = None) -> list[tuple[int, int, int]]:
    """All copies as ascending edge-id triples, each copy listed once.

    Raises ValueError as soon as more than ``limit`` distinct copies are found.
    """
    out: set[tuple[int, int, int]] = set()
    for i, j, l, *_ in _scan(h):
        out.add(tuple(sorted((i, j, l))))
        if limit is not None and len(out) > limit:
            raise ValueError(f"more than {limit} generalized-triangle copies")
    return sorted(out)


def t_through_edges(h: Hypergraph, b: EdgeSet) -> int:
    """Number of copies whose edge triple meets the given edge subset."""
    if b.universe is not h and b.universe != h:
        raise ValueError("edge set is not over this host hypergraph")
    return count_T(h) - count_T(b.complement().as_hypergraph())


# ---------------------------------------------------------------------------
# anchored gadgets


def _certifiers(
    b1_edges: Iterable[Edge], part: VertexPartition
) -> dict[Pair, list[frozenset[int]]]:
    cert: dict[Pair, list[frozenset[int]]] = {}
    for idx, e in enumerate(b1_edges):
        first = sorted(v for v in e if part.class_of(v) == 0)
        if len(first) < 2:
            raise ValueError(
                f"edge {idx} of the anchor set has {len(first)} vertices in the "
                f"first class; at least 2 required: {tuple(e)}"
            )
        w = frozenset(e)
        for pr in combinations(first, 2):
            cert.setdefault(pr, []).append(w)
    return cert


def _crossing_remainders(
    g: Hypergraph, part: VertexPartition, anchors: set[int]
) -> dict[int, set[tuple[int, ...]]]:
    rem: dict[int, set[tuple[int, ...]]] = {w: set() for w in anchors}
    a = part.assignment
    for e in g.edges:
        if not _is_crossing(e, a):
            continue
        for v in e:
            if v in rem:
                rem[v].add(tuple(x for x in e if x != v))
    return rem


def count_gadgets(
    g: Hypergraph, part: VertexPartition, b1: EdgeSet | Iterable[Iterable[int]]
) -> dict[Pair, int]:
    """Per anchor pair, the number of shared triples completing a gadget.

    For every pair (w1, w2) in the first class occurring together in some
    anchor-set edge W: counts triples (x, y, z) with both w1xyz and w2xyz
    crossing edges of g and x, y, z outside W for at least one certifying W
    (existential, not summed over W).  Pairs with no certifying edge are
    absent from the map.
    """
    _check_partition(g, part)
    edges = b1.edges if isinstance(b1, EdgeSet) else [tuple(sorted(e)) for e in b1]
    for idx, e in enumerate(edges):
        if len(e) != g.k or len(set(e)) != g.k:
            raise ValueError(f"edge {idx} of the anchor set is not a {g.k}-set: {e}")
        if e[0] < 0 or e[-1] >= g.n:
            raise ValueError(f"edge {idx} of the anchor set out of range: {e}")
    cert = _certifiers(edges, part)
    anchors = {w for pr in cert for w in pr}
    rem = _crossing_remainders(g, part, anchors)
    out: dict[Pair, int] = {}
    for pr, ws in cert.items():
        w1, w2 = pr
        common = rem[w1] & rem[w2]
        count = 0
        for t in common:
            tset = set(t)
            if any(not (w & tset) for w in ws):
                count += 1
        out[pr] = count
    return out


def gadget_witness(
    g: Hypergraph,
    part: VertexPartition,
    b1: EdgeSet | Iterable[Iterable[int]],
    pair: Pair,
) -> MotifWitness | None:
    """One witness gadget for the given anchor pair, or None."""
    _check_partition(g, part)
    edges = b1.edges if isinstance(b1, EdgeSet) else [tuple(sorted(e)) for e in b1]
    cert = _certifiers(edges, part)
    pr = tuple(sorted(pair))
    if pr not in cert:
        return None
    w1, w2 = pr
    rem = _crossing_remainders(g, part, {w1, w2})
    for t in sorted(rem[w1] & rem[w2]):
        tset = set(t)
        for w in cert[pr]:
            if not (w & tset):
                return MotifWitness(
                    kind=KIND_GADGET,
                    edges=(
                        tuple(sorted(t + (w1,))),
                        tuple(sorted(t + (w2,))),
                    ),
                    apex=pr,
                    shared=t,
                    certifying=tuple(sorted(w)),
                )
    return None
