"""Core data model for k-uniform hypergraphs, vertex partitions, and shadows.

Vertices are dense 0-based integers.  Edges are stored as ascending tuples,
deduplicated, in lexicographic order; edge identity is set identity.  All
objects here are immutable after construction, so any number of threads may
query them concurrently.

The text format is bit-exact: line 1 is ``n k m``, followed by ``m`` lines of
``k`` ascending space-separated vertex ids, LF line endings, no comments.
Writing a parsed hypergraph reproduces the canonical byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]
Pair = tuple[int, int]

__all__ = [
    "Edge",
    "Pair",
    "Hypergraph",
    "EdgeSet",
    "VertexPartition",
    "build_hypergraph",
    "empty_hypergraph",
    "complete_hypergraph",
    "edge_subset",
    "link",
    "crossing_edges",
    "common_degree",
    "shadow_graph",
    "turan_hypergraph",
    "partition_from_classes",
    "to_text",
    "from_text",
    "write_text",
    "read_text",
]


@dataclass(frozen=True)
class Hypergraph:
    """An n-vertex k-uniform hypergraph with a canonical, deduplicated edge list.

    ``edges`` must hold ascending k-tuples in lexicographic order with no
    duplicates; use :func:`build_hypergraph` to construct from untrusted input.
    """

    n: int
    k: int
    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_ids(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ascending ids of edges containing it."""
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                buckets[v].append(i)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def cores(self) -> dict[Edge, tuple[int, ...]]:
        """(k-1)-subset index: core -> ascending completing vertices.

        The query contract is exact co-neighborhood: ``cores[s]`` lists every
        x with ``s + {x}`` an edge; absent cores have no completion.  No
        library code reads it: it stays because ``perfbench/worker.py``
        traces it as one of the cached hypergraph ``INDEXES``.
        """
        idx: dict[Edge, list[int]] = {}
        for e in self.edges:
            for drop in range(self.k):
                core = e[:drop] + e[drop + 1:]
                idx.setdefault(core, []).append(e[drop])
        return {c: tuple(sorted(vs)) for c, vs in idx.items()}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, k) int64 array with ascending rows, in edge order."""
        arr = np.asarray(self.edges, dtype=np.int64).reshape(-1, self.k)
        arr.setflags(write=False)
        return arr

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return len(self.vertex_edges[v])


@dataclass(frozen=True)
class EdgeSet:
    """A subset of a host hypergraph's edges, identified by edge ids."""

    universe: Hypergraph
    indices: frozenset[int]

    def __post_init__(self) -> None:
        m = len(self.universe)
        bad = [i for i in self.indices if not 0 <= i < m]
        if bad:
            raise ValueError(f"edge ids out of range: {sorted(bad)[:5]}")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        e = tuple(sorted(edge))
        i = self.universe.edge_ids.get(e)
        return i is not None and i in self.indices

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.universe.edges[i] for i in sorted(self.indices))

    def as_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.universe.n, self.universe.k, self.edges)


@dataclass(frozen=True)
class VertexPartition:
    """Assignment of vertices 0..n-1 to classes 0..r-1; class 0 is the designated first class."""

    r: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("partition needs at least one class")
        for v, c in enumerate(self.assignment):
            if not 0 <= c < self.r:
                raise ValueError(f"vertex {v}: class {c} out of range 0..{self.r - 1}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    @cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        parts: list[set[int]] = [set() for _ in range(self.r)]
        for v, c in enumerate(self.assignment):
            parts[c].add(v)
        return tuple(frozenset(p) for p in parts)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


# ---------------------------------------------------------------------------
# construction


def _from_rows(n: int, k: int, rows: np.ndarray) -> Hypergraph:
    """Hypergraph of distinct ascending int64 rows in lex order; the rows become its edge_array."""
    g = Hypergraph(n, k, tuple(zip(*rows.T.tolist())))
    rows.setflags(write=False)
    g.__dict__["edge_array"] = rows
    return g


def build_hypergraph(n: int, k: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate, canonicalize, and deduplicate an edge list.

    Rejects edges with repeated vertices, out-of-range vertices, or wrong
    arity, reporting the index of the offending edge.
    """
    if k < 2:
        raise ValueError(f"uniformity k={k} must be at least 2")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    seen: set[Edge] = set()
    for i, raw in enumerate(edges):
        vs = tuple(sorted(raw))
        if len(vs) != k:
            raise ValueError(f"edge {i}: expected {k} vertices, got {len(vs)}")
        if len(set(vs)) != k:
            raise ValueError(f"edge {i}: repeated vertex in {vs}")
        if vs[0] < 0 or vs[-1] >= n:
            raise ValueError(f"edge {i}: vertex out of range 0..{n - 1} in {vs}")
        seen.add(vs)
    return Hypergraph(n, k, tuple(sorted(seen)))


def empty_hypergraph(n: int, k: int) -> Hypergraph:
    return build_hypergraph(n, k, [])


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    """All C(n, k) possible edges."""
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    return Hypergraph(n, k, tuple(combinations(range(n), k)))


def edge_subset(host: Hypergraph, edges: Iterable[Iterable[int]]) -> EdgeSet:
    """An EdgeSet from explicit edges, all of which must belong to the host."""
    ids = set()
    for raw in edges:
        e = tuple(sorted(raw))
        i = host.edge_ids.get(e)
        if i is None:
            raise ValueError(f"edge {e} not in host hypergraph")
        ids.add(i)
    return EdgeSet(host, frozenset(ids))


# ---------------------------------------------------------------------------
# links and degrees


def link(g: Hypergraph, v: int) -> Hypergraph:
    """The (k-1)-uniform hypergraph of edge remainders through v; size d(v)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    rem = []
    for i in g.vertex_edges[v]:
        e = g.edges[i]
        rem.append(tuple(x for x in e if x != v))
    return Hypergraph(g.n, g.k - 1, tuple(sorted(rem)))


def _check_partition(g: Hypergraph, part: VertexPartition) -> None:
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} vertices, hypergraph has {g.n}")
    if part.r != g.k:
        raise ValueError(
            f"crossing semantics need r == k, got r={part.r}, k={g.k}"
        )


def _crossing_mask(
    g: Hypergraph, assignment: Sequence[int], bits: np.ndarray | None = None
) -> np.ndarray:
    """(m,) bool by edge id: does the edge cross the k-class assignment?

    This is the one crossing test.  With r == k classes, "meets every class"
    is "all classes distinct".  A caller that already holds the class bits
    ``1 << assignment[edge_array]`` may pass them as ``bits``.
    """
    if bits is None:
        bits = 1 << np.asarray(assignment, dtype=np.int64)[g.edge_array]
    return np.bitwise_count(np.bitwise_or.reduce(bits, axis=1)) == g.k


def crossing_edges(g: Hypergraph, part: VertexPartition) -> EdgeSet:
    """Edges meeting every class of the partition (one vertex per class)."""
    _check_partition(g, part)
    ids = np.flatnonzero(_crossing_mask(g, part.assignment)).tolist()
    return EdgeSet(g, frozenset(ids))


def common_degree(
    g: Hypergraph, u: int, v: int, part: VertexPartition | None = None
) -> int:
    """Number of (k-1)-sets t with both t+{u} and t+{v} edges (crossing if a partition is given)."""
    if u == v:
        raise ValueError("common degree needs two distinct vertices")
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range 0..{g.n - 1}")
    if part is None:
        cross = [True] * len(g)
    else:
        _check_partition(g, part)
        cross = _crossing_mask(g, part.assignment).tolist()
    # scan edges through the lower-degree endpoint
    if len(g.vertex_edges[u]) > len(g.vertex_edges[v]):
        u, v = v, u
    count = 0
    for i in g.vertex_edges[u]:
        e = g.edges[i]
        if not cross[i] or v in e:
            continue
        j = g.edge_ids.get(tuple(sorted(x if x != u else v for x in e)))
        if j is not None and cross[j]:
            count += 1
    return count


def shadow_graph(h: Hypergraph) -> frozenset[Pair]:
    """The ascending vertex pairs covered by some edge."""
    pairs: set[Pair] = set()
    for e in h.edges:
        pairs.update(combinations(e, 2))
    return frozenset(pairs)


def turan_hypergraph(n: int, r: int) -> Hypergraph:
    """Complete r-partite r-uniform hypergraph with near-equal parts.

    Parts are contiguous vertex ranges of sizes ceil(n/r) then floor(n/r);
    edges are all transversals, so the edge count is the product of part sizes.
    """
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = tuple(sorted(tuple(sorted(e)) for e in product(*parts)))
    return Hypergraph(n, r, edges)


def partition_from_classes(class_sets: Iterable[Iterable[int]], n: int) -> VertexPartition:
    """Build a VertexPartition from explicit class contents covering 0..n-1."""
    classes = [tuple(c) for c in class_sets]
    assignment = [-1] * n
    for label, members in enumerate(classes):
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            if assignment[v] != -1:
                raise ValueError(f"vertex {v} assigned twice")
            assignment[v] = label
    if any(c == -1 for c in assignment):
        missing = [v for v, c in enumerate(assignment) if c == -1]
        raise ValueError(f"vertices not assigned: {missing[:5]}")
    return VertexPartition(len(classes), tuple(assignment))


# ---------------------------------------------------------------------------
# text format


def to_text(g: Hypergraph) -> str:
    lines = [f"{g.n} {g.k} {len(g)}"]
    for e in g.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the text format; edge lines must each be strictly ascending."""
    if not text.endswith("\n"):
        raise ValueError("hypergraph text must end with LF")
    lines = text.split("\n")[:-1]
    if not lines:
        raise ValueError("empty hypergraph text")
    head = lines[0].split(" ")
    if len(head) != 3:
        raise ValueError(f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise ValueError(f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln, raw in enumerate(lines[1:], start=1):
        try:
            vs = tuple(int(x) for x in raw.split(" "))
        except ValueError:
            raise ValueError(f"line {ln}: non-integer vertex in {raw!r}") from None
        if len(vs) != k:
            raise ValueError(f"line {ln}: expected {k} vertices, got {len(vs)}")
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError(f"line {ln}: vertices not strictly ascending: {vs}")
        edges.append(vs)
    return build_hypergraph(n, k, edges)


def write_text(g: Hypergraph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_text(g))


def read_text(path: str) -> Hypergraph:
    with open(path, "r", newline="") as fh:
        return from_text(fh.read())
