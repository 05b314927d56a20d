"""Core data model for k-uniform hypergraphs, vertex partitions, and shadows.

Vertices are dense 0-based integers.  A hypergraph is its edge rows: ascending,
deduplicated and in lexicographic order; edge identity is set identity.  Edge
tuples and indexes are built on first read.  All objects here are immutable
after construction, so any number of threads may query them concurrently.

The text format is bit-exact: line 1 is ``n k m``, followed by ``m`` lines of
``k`` ascending space-separated vertex ids, LF line endings, no comments.
Writing a parsed hypergraph reproduces the canonical byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, product
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
    "turan_partition",
    "partition_from_classes",
    "to_text",
    "from_text",
    "write_text",
    "read_text",
]


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """An n-vertex k-uniform hypergraph held as its edge rows.

    ``rows`` (an array or k-tuples) must hold ascending rows in lexicographic
    order with no duplicates; use :func:`build_hypergraph` for untrusted input.
    """

    n: int
    k: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64).reshape(-1, self.k))
        self.rows.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.k == other.k and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.rows.tobytes()))

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The rows as Python-int tuples, built column-wise one 2^14-row block at a time."""
        blocks = (zip(*self.rows[i:i + (1 << 14)].T.tolist()) for i in range(0, len(self), 1 << 14))
        return tuple(chain.from_iterable(blocks))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_ids(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ascending ids of edges containing it."""
        # a stable argsort of the flat rows keeps each vertex's slots in row (edge id) order
        flat = self.rows.ravel()
        ids = (np.argsort(flat, kind="stable") // self.k).tolist()
        ends = np.cumsum(np.bincount(flat, minlength=self.n)).tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip([0] + ends, ends))

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
        """The rows, read through a cached property that ``perfbench/worker.py`` traces."""
        return self.rows

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

    def __contains__(self, edge: Iterable[int]) -> bool:
        e = tuple(sorted(edge))
        i = self.universe.edge_ids.get(e)
        return i is not None and i in self.indices

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return self.as_hypergraph().edges

    def as_hypergraph(self) -> Hypergraph:
        """The subset as a hypergraph on the host's vertices: the host's rows at its ids."""
        return Hypergraph(self.universe.n, self.universe.k, self.universe.rows[sorted(self.indices)])


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
    # dropping v from each edge through v keeps their lexicographic order
    through = g.edge_array[(g.edge_array == v).any(axis=1)]
    return Hypergraph(g.n, g.k - 1, through[through != v])


def _check_partition(g: Hypergraph, part: VertexPartition) -> None:
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} vertices, hypergraph has {g.n}")
    if part.r != g.k:
        raise ValueError(
            f"crossing semantics need r == k, got r={part.r}, k={g.k}"
        )


def _class_bits(g: Hypergraph, assignment: Sequence[int]) -> np.ndarray:
    """(m, k) class bits ``1 << assignment[edge_array]``, in the narrowest
    unsigned type that holds k bits (uint8 for k <= 8)."""
    one_hot = (1 << np.arange(g.k)).astype(np.min_scalar_type((1 << g.k) - 1))
    return one_hot[np.asarray(assignment)][g.edge_array]


def _crossing_mask(
    g: Hypergraph, assignment: Sequence[int], bits: np.ndarray | None = None
) -> np.ndarray:
    """(m,) bool by edge id: does the edge cross the k-class assignment?

    This is the one crossing test.  With r == k classes, "meets every class"
    is "all classes distinct", so the union of the edge's class bits has k
    set bits.  The bits are :func:`_class_bits`, one byte per vertex slot
    for k <= 8; a caller that already holds them may pass them as ``bits``.
    The k columns are folded one by one (``bits.T``): over so short an axis
    that is about four times faster than ``np.bitwise_or.reduce(bits, axis=1)``.
    """
    if bits is None:
        bits = _class_bits(g, assignment)
    return np.bitwise_count(reduce(np.bitwise_or, bits.T)) == g.k


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
    # t counts exactly when it is an edge of both links
    if part is not None:
        g = crossing_edges(g, part).as_hypergraph()
    return len(link(g, u).edge_set & link(g, v).edge_set)


def shadow_graph(h: Hypergraph) -> frozenset[Pair]:
    """The ascending vertex pairs covered by some edge."""
    pairs: set[Pair] = set()
    for e in h.edges:
        pairs.update(combinations(e, 2))
    return frozenset(pairs)


def turan_partition(n: int, r: int) -> VertexPartition:
    """Near-equal r-class partition: contiguous vertex ranges of sizes ceil(n/r) then floor(n/r)."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    return VertexPartition(r, tuple(c for c, size in enumerate(sizes) for _ in range(size)))


def turan_hypergraph(n: int, r: int) -> Hypergraph:
    """Complete r-partite r-uniform hypergraph on the classes of :func:`turan_partition`.

    Edges are all transversals, so the edge count is the product of part sizes.
    """
    parts = [sorted(c) for c in turan_partition(n, r).classes]
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


def _canonical_int(token: str) -> int:
    """The integer a canonical decimal token spells; else ValueError.

    int() also takes signs, leading zeros, underscores and surrounding
    whitespace (a CR included), none of which to_text writes.
    """
    value = int(token)
    if str(value) != token:
        raise ValueError(token)
    return value


def from_text(text: str) -> Hypergraph:
    """Parse the text format; edge lines must each be strictly ascending."""
    if not text.endswith("\n"):
        raise ValueError("hypergraph text must end with LF")
    lines = text.split("\n")[:-1]
    head = lines[0].split(" ")
    if len(head) != 3:
        raise ValueError(f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (_canonical_int(x) for x in head)
    except ValueError:
        raise ValueError(f"header: non-canonical integer in {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln, raw in enumerate(lines[1:], start=1):
        try:
            vs = tuple(_canonical_int(x) for x in raw.split(" "))
        except ValueError:
            raise ValueError(f"line {ln}: non-canonical integer vertex in {raw!r}") from None
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
