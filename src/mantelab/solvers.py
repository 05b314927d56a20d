"""Exact and heuristic optimizers over hypergraph edge sets and partitions.

Exact solvers are branch-and-bound searches that certify optimality only when
the pruned space was provably exhausted within budget; running out of budget
returns the best incumbent with ``optimal=False`` rather than raising.  All
searches are deterministic: randomness enters only through explicit seeds,
and tie-breaking is lowest-index-first, so the certified value, flag, and
witness are reproducible run to run.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hypergraph import (
    EdgeSet,
    Hypergraph,
    VertexPartition,
    _check_partition,
    _class_bits,
    _crossing_mask,
)
# count_T is not called here but stays an attribute of this module, where
# perfbench/worker.py wraps the copy scans for its traced runs.
from .motifs import count_T, t_copy_triples  # noqa: F401

__all__ = [
    "Budget",
    "SearchStats",
    "SolveResult",
    "max_tfree_exact",
    "max_tfree_repair",
    "max_cut4_exact",
    "max_cut4_local",
    "best_partition_for",
    "is_4partite",
]

MAX_COPIES_EXACT = 10**7
# m x C bits of per-edge copy masks (512 MiB) admit the complete k = 4,
# n = 15 host (about 230 MB) and refuse n = 16 (about 550 MB) and up
MAX_MASK_BITS_EXACT = 2**32


@dataclass(frozen=True)
class Budget:
    """Node and wall-clock limits for exact searches; None means unlimited.

    A limit is >= 0, else ValueError naming it: a NaN clock limit would never
    stop a search, and a negative one would stop it at its first node.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_seconds"):
            if (limit := getattr(self, name)) is not None and not limit >= 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    elapsed: float
    budget_hit: bool


@dataclass(frozen=True)
class SolveResult:
    """Objective value, achieving witness, certificate flag, and search stats."""

    value: int
    witness: EdgeSet | VertexPartition
    optimal: bool
    stats: SearchStats


class _BudgetExceeded(Exception):
    pass


class _Ticker:
    """Counts search nodes, enforces the budget at every node and runs a search."""

    __slots__ = ("nodes", "max_nodes", "deadline", "start")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.start = time.monotonic()
        seconds = budget.max_seconds if budget else None
        self.deadline = None if seconds is None else self.start + seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def run(self, search, depth: int, *root) -> bool:
        """Run ``search(*root)``; True if the budget stopped it.

        The recursion limit is raised by ``depth`` for the search and
        restored however it ends.  Checked on CPython 3.11, which keeps
        Python-to-Python calls off the C stack.
        """
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + depth)
        try:
            search(*root)
        except _BudgetExceeded:
            return True
        finally:
            sys.setrecursionlimit(limit)
        return False


def _incidence_masks(size: int, rows: list[list[int]]) -> list[int]:
    """Per item 0..size-1, the bitset over the ids of the rows that hold it."""
    nbytes = (len(rows) + 7) >> 3
    bufs = [bytearray(nbytes) for _ in range(size)]
    for ri, row in enumerate(rows):
        byte, bit = ri >> 3, 1 << (ri & 7)
        for x in row:
            bufs[x][byte] |= bit
    return [int.from_bytes(b, "little") for b in bufs]


# ---------------------------------------------------------------------------
# local search over k-class vertex partitions


def _local_cut_pass(h: Hypergraph, assignment: list[int]) -> tuple[int, list[int], int]:
    """Hill-climb single-vertex moves to a 1-move-optimal k-class assignment.

    Takes the best strictly improving move each round, ties broken by lowest
    (vertex, class).  An edge crosses when its k classes are distinct, so
    moving the vertex at position d of an edge makes the edge cross exactly
    when the other k - 1 classes are distinct and the move takes the one
    class they miss.  The gain of moving v to class c is the number of such
    (edge, position) cases for (v, c) minus the crossing edges through v,
    which is 0 for v's own class.  Returns (value, assignment, moves).

    All positions are scored in one pass: ``other`` holds, per edge and
    position d (flattened), the sum of the class bits at the other k - 1
    positions.  A sum of k - 1 powers of two
    has k - 1 set bits exactly when they are distinct (a repeat carries), and
    then it is their union, so the missing class is the index of the bit
    ``full ^ other``.  The sums stay below 1 << k, so they fit the narrow
    type of :func:`_class_bits`, and the gains are exact integers.
    """
    e, n, k = h.edge_array, h.n, h.k
    full = (1 << k) - 1
    a = np.array(assignment, dtype=np.int64)
    moves = 0
    while True:
        bits = _class_bits(h, a)
        cross = _crossing_mask(h, a, bits)
        other = (reduce(np.add, bits.T)[:, None] - bits).ravel()
        free = np.bitwise_count(other) == k - 1
        missing = np.bitwise_count((full ^ other.compress(free)) - 1)
        hits = e.ravel().compress(free) * k + missing
        gain = np.bincount(hits, minlength=n * k).reshape(n, k)
        gain -= np.bincount(e.compress(cross, axis=0).ravel(), minlength=n)[:, None]
        # own classes read 0, so a positive maximum is a move; argmax takes the
        # lowest (vertex, class) among ties
        best = int(gain.argmax())
        if gain.flat[best] <= 0:
            return int(cross.sum()), a.tolist(), moves
        a[best // k] = best % k
        moves += 1


def _kpartite_local(
    h: Hypergraph, rng: random.Random, restarts: int
) -> tuple[int, tuple[int, ...], int]:
    """Best local k-class cut assignment over restarts; restart 0 is round-robin."""
    best_value = -1
    best_assign: tuple[int, ...] = ()
    total_moves = 0
    for t in range(max(1, restarts)):
        if t == 0:
            start = [v % h.k for v in range(h.n)]
        else:
            start = [rng.randrange(h.k) for _ in range(h.n)]
        value, assign, moves = _local_cut_pass(h, start)
        total_moves += moves
        if value > best_value:
            best_value = value
            best_assign = tuple(assign)
    return best_value, best_assign, total_moves


def max_cut4_local(h: Hypergraph, seed: int, restarts: int = 8) -> SolveResult:
    """Hill-climbing maximum 4-partite cut; the partition is 1-move-optimal."""
    if h.k != 4:
        raise ValueError(f"4-partite cut needs k=4, got k={h.k}")
    t0 = time.monotonic()
    value, assign, moves = _kpartite_local(h, random.Random(seed), restarts)
    part = VertexPartition(4, assign)
    return SolveResult(
        value=value,
        witness=part,
        optimal=False,
        stats=SearchStats(nodes=moves, elapsed=time.monotonic() - t0, budget_hit=False),
    )


# ---------------------------------------------------------------------------
# exact maximum 4-partite cut


def _max_class_product(sizes: tuple[int, ...], r: int) -> int:
    """Largest prod(sizes[c] + r_c) over splits of r free vertices among the classes.

    Moving one free vertex from a class of final size y to a class of final
    size x <= y - 2 never lowers the product, as (x + 1)(y - 1) >= xy, so
    filling the smallest class first is optimal.
    """
    filled = list(sizes)
    for _ in range(r):
        filled[filled.index(min(filled))] += 1
    return math.prod(filled)


def _cut4_search(
    h: Hypergraph, ticker: _Ticker, value: int, assign: tuple[int, ...]
) -> tuple[int, tuple[int, ...], bool]:
    """Branch-and-bound for a 4-class assignment with more than ``value`` crossing edges.

    Starts from the incumbent (``value``, ``assign``) and returns the best
    (value, assignment) found with the budget flag; the incumbent comes back
    unchanged when nothing beats it.  Vertices are assigned in
    descending-degree order (ties by index).  Class labels are interchangeable,
    so each vertex joins a nonempty class or the lowest empty one (the first
    goes to class 0), which is valid for any fixed vertex order.  The search
    stops as soon as every edge crosses.

    The state is Python-int bitsets over edge ids, passed down the recursion
    (no undo step).  ``ve[v]`` holds the edges through v; a node carries
    ``s[c]`` (edges with an assigned vertex in class c), ``a1``..``a4`` (edges
    with at least 1..4 assigned vertices) and ``dead`` (edges with two
    vertices in one class).  An edge that is not dead counts toward the bound
    once: as crossing if all four vertices are assigned, toward the demand of
    its free vertex u for the one missing class if three are, and as loose if
    at most two are.  A free vertex takes one class, so it meets the demand
    of one class at most: the bound is crossing + loose + the sum over free
    vertices of their largest per-class demand.  The open edges that class c
    can still complete, ``open3 & ~s[c]``, are built once per node, so a free
    vertex costs four popcounts.

    A second bound counts 4-sets.  With ``sizes[c]`` vertices in class c and
    r free, a completion with r_c more in class c has prod(sizes[c] + r_c)
    crossing 4-sets, prod(sizes) of them among the assigned vertices, which
    hold ``cross`` crossing edges.  So at most ``cross`` + slack edges cross,
    where slack = max over splits of r of prod(sizes[c] + r_c) - prod(sizes).
    The slack depends on ``sizes`` alone and is memoised per call.  A node
    is pruned when either bound is at most the incumbent.

    Each node is admitted by its parent, in the branch loop: the parent
    stops at an all-crossing incumbent, ticks the child, counts its
    crossing edges and checks the class-size bound, and it builds the
    child's ``s`` and recurses only when the child survives.  The root is
    admitted the same way, so the ticks, and with them the node counts and
    budget stops, fall as if each node checked itself on entry.

    The demand bound is decided cheapest first.  Let base = crossing +
    loose and o = |open3|.  An open edge has one free vertex and misses one
    class, so a free vertex's four demands sum to its open edges, and those
    sum to o over the free vertices: the demand term lies between
    ceil(o / 4) and o.  So the node is pruned when base + o is at most the
    incumbent, kept when base + ceil(o / 4) is above it, and otherwise the
    per-vertex sum stops at the first vertex that lifts the bound above it.
    """
    if h.k != 4:
        raise ValueError(f"4-partite cut needs k=4, got k={h.k}")
    n, m = h.n, len(h)
    ve = _incidence_masks(n, h.edge_array.tolist())
    order = sorted(range(n), key=lambda v: (-ve[v].bit_count(), v))
    best = {"value": value, "assign": assign}
    cur = [-1] * n
    slack: dict[tuple[int, ...], int] = {}

    def dfs(
        pos: int, sizes: tuple[int, ...], s: tuple[int, ...],
        a1: int, a2: int, a3: int, a4: int, dead: int, cross: int,
    ) -> None:
        # the node is admitted: its parent ticked it and passed its class-size bound
        base = cross + m - (a3 | dead).bit_count()
        open3 = a3 & ~(a4 | dead)
        need = best["value"] - base  # the demand term must exceed this
        o = open3.bit_count()
        if o <= need:
            return
        if (o + 3) >> 2 <= need:
            n0, n1, n2, n3 = (open3 & ~sc for sc in s)
            for u in order[pos:]:
                eu = ve[u]
                if eu & open3:
                    need -= max(
                        (eu & n0).bit_count(), (eu & n1).bit_count(),
                        (eu & n2).bit_count(), (eu & n3).bit_count(),
                    )
                    if need < 0:
                        break
            else:
                return
        if pos == n:  # every edge is assigned, so the bound is the crossing count
            best["value"] = cross
            best["assign"] = tuple(cur)
            return
        v = order[pos]
        e = ve[v]
        b1, b2, b3, b4 = a1 | e, a2 | (a1 & e), a3 | (a2 & e), a4 | (a3 & e)
        for c in range(min(5 - sizes.count(0), 4)):
            if best["value"] == m:
                return
            ticker.tick()
            sc = s[c]
            cdead = dead | (sc & e)
            ccross = (b4 & ~cdead).bit_count()
            csizes = sizes[:c] + (sizes[c] + 1,) + sizes[c + 1:]
            room = slack.get(csizes)
            if room is None:
                room = slack[csizes] = _max_class_product(csizes, n - pos - 1) - math.prod(csizes)
            if ccross + room <= best["value"]:
                continue
            cur[v] = c
            dfs(
                pos + 1, csizes, s[:c] + (sc | e,) + s[c + 1:],
                b1, b2, b3, b4, cdead, ccross,
            )

    def root() -> None:
        # the root's admission, as dfs admits each child
        if value == m:
            return
        ticker.tick()
        if _max_class_product((0, 0, 0, 0), n) > value:
            dfs(0, (0, 0, 0, 0), (0, 0, 0, 0), 0, 0, 0, 0, 0, 0)

    # root, then dfs nested once per assigned vertex, n + 1 deep; a leaf
    # makes no call, so the calls of the frames above it reach no deeper
    budget_hit = ticker.run(root, n + 2)
    del dfs, root  # dfs holds its own cell: break the cycle so its state is freed now
    return best["value"], best["assign"], budget_hit


def max_cut4_exact(h: Hypergraph, budget: Budget | None = None) -> SolveResult:
    """Branch-and-bound maximum 4-partite cut with class-symmetry breaking.

    The incumbent is seeded from a short local search, then
    :func:`_cut4_search` (vertex order, symmetry rule, demand and class-size
    product bounds) proves it or improves on it.  The search is
    deterministic, so value, flag, and witness are reproducible run to run.
    A budget is charged from entry, so the local seed counts against it.  The
    complete host closes at the root.
    """
    ticker = _Ticker(budget)
    seed_value, seed_assign, _ = _kpartite_local(h, random.Random(0xCB1), 4)
    value, assign, budget_hit = _cut4_search(h, ticker, seed_value, seed_assign)
    return SolveResult(
        value=value,
        witness=VertexPartition(4, assign),
        optimal=not budget_hit or value == len(h),
        stats=SearchStats(nodes=ticker.nodes, elapsed=ticker.elapsed(), budget_hit=budget_hit),
    )


def best_partition_for(
    f: Hypergraph,
    method: str = "exact",
    seed: int | None = None,
    budget: Budget | None = None,
    restarts: int = 8,
) -> SolveResult:
    """Partition maximizing (exactly or locally) the crossing edges of f."""
    if method == "exact":
        return max_cut4_exact(f, budget)
    if method == "local":
        if seed is None:
            raise ValueError("local method needs a seed")
        return max_cut4_local(f, seed, restarts)
    raise ValueError(f"unknown method {method!r}; use 'exact' or 'local'")


def is_4partite(f: Hypergraph, budget: Budget | None = None) -> bool | None:
    """Is every edge of f crossing for some 4-class partition?

    A feasibility search: :func:`_cut4_search` starts at the incumbent
    ``len(f) - 1`` with no local-cut seed, so it prunes every node whose
    bound is below ``len(f)`` and stops at the first all-crossing
    assignment.  A host with more edges than the largest class-size product
    (crossing 4-sets) is refuted at the root.  True/False when the search
    decides; None when the budget exhausts first.
    """
    m = len(f)
    value, _, budget_hit = _cut4_search(f, _Ticker(budget), m - 1, ())
    if value == m:
        return True
    return None if budget_hit else False


# ---------------------------------------------------------------------------
# maximum triangle-free edge subsets

UNDEC, KEPT, DEL = 0, 1, 2


def _greedy_tfree(
    triples: np.ndarray, m: int, rng: random.Random | None = None, runs: int = 1
) -> list[int]:
    """Kept edge ids of the best of ``runs`` greedy deletions (the earliest on ties).

    A run deletes the edge hitting the most live copies until none remain.
    Participation counts are maintained incrementally (each copy dies once),
    so a run costs O(copies + deletions * m).  The first run breaks ties by
    lowest edge id; later runs break them uniformly at random with rng (used
    for repair restarts), one ``rng.choice`` over the tied ids per pick, so
    the draws are those of a plain-list greedy.  The runs share one index of
    the copies through each edge, ids[start[e]:start[e + 1]].  A deletion
    keeps the live copies through the edge (``compress``), marks them dead
    (``put``) and subtracts one ``bincount`` of their edges from the counts;
    it gathers their rows with ``take``, which costs about a quarter of the
    fancy index ``triples[hit]`` at these sizes.
    """
    degree = np.bincount(triples.reshape(-1), minlength=m)
    ids = np.argsort(triples.reshape(-1))
    ids //= 3
    start = [0] + np.cumsum(degree).tolist()
    best: list[int] = []
    for run in range(runs):
        count = degree.copy()
        alive = np.ones(len(triples), dtype=bool)
        live_total = len(triples)
        kept = np.ones(m, dtype=bool)
        while live_total:
            if run == 0:
                pick = int(count.argmax())
            else:
                pick = int(rng.choice(np.flatnonzero(count == count.max())))
            kept[pick] = False
            hit = ids[start[pick]:start[pick + 1]]
            hit = hit.compress(alive.take(hit))
            alive.put(hit, False)
            live_total -= len(hit)
            count -= np.bincount(triples.take(hit, axis=0).reshape(-1), minlength=m)
        if kept.sum() > len(best):
            best = np.flatnonzero(kept).tolist()
    return best


def _tfree_incumbent(
    h: Hypergraph,
    triples: np.ndarray,
    rng: random.Random | None,
    runs: int,
    cut: VertexPartition | None,
) -> list[int]:
    """Kept edge ids of the largest of three copy-free sets; runs no search of its own.

    One is the best of ``runs`` greedy deletions (later runs draw from
    ``rng``), one the crossing set of the caller's ``cut`` (empty when there
    is none), and one the star of the lowest-index vertex of maximum degree.
    The crossing set wins over greedy only when strictly larger, and the star
    only when strictly larger than both.  A crossing set is copy-free: two
    edges of a copy share k - 1 vertices, so if both cross, their other two
    vertices take the one class the shared ones miss, and the third edge,
    which holds both, cannot cross.  A star is copy-free: a copy's two core
    edges meet only in the core, which its third edge misses, so no vertex
    lies in all three.
    """
    greedy = _greedy_tfree(triples, len(h), rng, runs)
    crossing = [] if cut is None else np.flatnonzero(_crossing_mask(h, cut.assignment)).tolist()
    e = h.edge_array
    hub = np.bincount(e.reshape(-1), minlength=h.n).argmax()  # lowest of maximum degree
    star = np.flatnonzero((e == hub).any(axis=1)).tolist()
    return max((greedy, crossing, star), key=len)  # the first of the largest


def max_tfree_repair(
    h: Hypergraph, seed: int, restarts: int = 4, cut: VertexPartition | None = None
) -> SolveResult:
    """Heuristic maximum copy-free edge subset; the result is always copy-free.

    Runs the greedy deletion heuristic (deterministic, then randomized tie
    breaks across restarts) and additionally seeds the incumbent with the
    crossing set of ``cut`` and with the star at a maximum-degree vertex, so
    the returned value is never below the cut's crossing count or the
    maximum degree.  A caller that already holds a k-class cut of h (a
    trial's q witness) passes it; with none, the best local cut under the
    same (seed, restarts) is computed here, so the value is never below the
    local cut's (:func:`_tfree_incumbent` proves both sets copy-free).
    Hosts with more than ``MAX_COPIES_EXACT`` copies are refused
    (ValueError) as in :func:`max_tfree_exact`, and so is a cut of another
    vertex count or class count than h's.
    """
    t0 = time.monotonic()
    if cut is not None:
        _check_partition(h, cut)
    triples = t_copy_triples(h, limit=MAX_COPIES_EXACT)
    if cut is None:
        _, assign, _ = _kpartite_local(h, random.Random(seed), restarts)
        cut = VertexPartition(h.k, assign)
    best = _tfree_incumbent(h, triples, random.Random(seed), max(1, restarts), cut)
    return SolveResult(
        value=len(best),
        witness=EdgeSet(h, frozenset(best)),
        optimal=False,
        stats=SearchStats(
            nodes=len(h) - len(best),
            elapsed=time.monotonic() - t0,
            budget_hit=False,
        ),
    )


def max_tfree_exact(
    h: Hypergraph, budget: Budget | None = None, cut: VertexPartition | None = None
) -> SolveResult:
    """Maximum edge subset containing no copy of the generalized triangle.

    Every copy forbids keeping all three of its edges.  Copies are numbered
    by descending conflict, the summed participation (copies through the
    edge) of their three edges, ties in lex order, so on a complete host,
    where every copy ties, the numbering is the lex one.  Branch-and-bound
    decides the undecided edges of one copy in turn (delete, then keep): the
    lowest-id live copy with a kept edge, else the lowest-id live copy, so
    it branches on the most conflicted open copy, which fails first.
    Keeping the second edge of a live copy forces the deletion of its third,
    and deletions force nothing, so propagation is a single pass.

    The state is Python-int bitsets over copy ids.  ``cm[e]`` holds the
    copies through edge e; a node carries ``live`` (copies with no deleted
    edge) and ``k1`` (copies with a kept edge).  Deleting e clears ``cm[e]``
    from ``live``; keeping e forces the copies in ``cm[e] & live & k1``, in
    ascending id order.  No live copy ever has two kept edges, so keeping
    never closes a copy.  The value bound is the remaining edges minus a
    greedy packing of live copies whose undecided edges are pairwise
    disjoint: each packed copy needs its own future deletion among them.  A
    kept edge is never deleted, so it is not spent.  The packing runs in
    two passes by highest-set-bit extraction (``bit_length``), so it takes
    the least conflicted copies first, which leave the most room for
    others.  First, over ``live & k1``, each packed copy clears the masks
    of its two undecided edges (its third is kept) from the candidates, and
    those masks gather in ``blocked``.
    Then, over ``live & ~k1 & ~blocked``, each packed copy (a, b, c), all
    undecided, clears ``cm[a] | cm[b] | cm[c]``.  The node is pruned when
    the packing reaches m - deleted - incumbent copies, and the packing only
    grows, so it stops there; a node with nothing to spare is pruned before
    it packs at all.

    Memory is O(edges * copies) bits, with no per-copy conflict mask.  To
    guard it, the copy scan stops with ValueError at the first block of
    copies past ``MAX_COPIES_EXACT`` (10^7) copies (the copy guard) or past
    ``MAX_MASK_BITS_EXACT // edges`` copies (the mask guard), before any
    mask is built.  A time budget is charged from entry, so the copy scan,
    the incumbent and the masks count against it; a budget spent before
    the search stops it at its first node.  Branching on the busiest copy
    proves optimality sooner but reaches large kept sets less directly, so
    a time-budgeted stop can hold a smaller set than the lex numbering did
    (dense k = 3 hosts at 20 s: 37 -> 35 at n = 12, p = 0.4, and 44 -> 42 at
    n = 14, p = 0.4); a node budget stops at the same node on every machine.

    The incumbent starts at the largest of the greedy set, the crossing set
    of ``cut`` when the caller passes one (a trial's q witness, or the
    near-equal partition of a complete host) and the star at a
    maximum-degree vertex (:func:`_tfree_incumbent`, which proves each
    copy-free).  So under any budget the value is at least the maximum
    degree and at least the cut's crossing count.  A cut of another vertex
    count or class count than h's is refused with ValueError.
    """
    ticker = _Ticker(budget)
    if cut is not None:
        _check_partition(h, cut)
    m = len(h)
    # m x C > MAX_MASK_BITS_EXACT exactly when C > MAX_MASK_BITS_EXACT // m
    mask_limit = MAX_MASK_BITS_EXACT // max(m, 1)
    try:
        triples = t_copy_triples(h, limit=min(MAX_COPIES_EXACT, mask_limit))
    except ValueError as exc:
        # only the scan's own guard stops at the mask limit; pass any other refusal on
        if mask_limit >= MAX_COPIES_EXACT or not str(exc).startswith("copy guard:"):
            raise
        raise ValueError(
            f"mask guard: {m} edges x more than {mask_limit} copies is more than "
            f"{MAX_MASK_BITS_EXACT} bits of copy masks"
        ) from None
    if not len(triples):
        return SolveResult(
            value=m,
            witness=EdgeSet(h, frozenset(range(m))),
            optimal=True,
            stats=SearchStats(nodes=0, elapsed=ticker.elapsed(), budget_hit=False),
        )
    incumbent = _tfree_incumbent(h, triples, None, 1, cut)
    best = {"value": len(incumbent), "keep": incumbent}
    participation = np.bincount(triples.reshape(-1), minlength=m)
    conflict = participation.take(triples).sum(axis=1)
    triples = triples.take(np.argsort(-conflict, kind="stable"), axis=0)
    triples = triples.tolist()  # the search reads single rows, which lists serve faster

    cm = _incidence_masks(m, triples)
    participation = participation.tolist()
    status = [UNDEC] * m

    def search(live: int, k1: int, ndel: int) -> None:
        ticker.tick()
        need = m - ndel - best["value"]  # a packing this large prunes the node
        if need <= 0:
            return
        blocked = 0
        cand = live & k1
        while cand:
            x, y, z = triples[cand.bit_length() - 1]
            if status[x] == KEPT:
                spent = cm[y] | cm[z]
            elif status[y] == KEPT:
                spent = cm[x] | cm[z]
            else:
                spent = cm[x] | cm[y]
            cand &= ~spent
            blocked |= spent
            need -= 1
            if not need:
                return
        cand = live & ~k1 & ~blocked
        while cand:
            a, b, c = triples[cand.bit_length() - 1]
            cand &= ~(cm[a] | cm[b] | cm[c])
            need -= 1
            if not need:
                return
        open_copies = live & k1 or live & ~k1
        if not open_copies:
            keep = [e for e in range(m) if status[e] != DEL]
            if len(keep) > best["value"]:
                best["value"] = len(keep)
                best["keep"] = keep
            return
        pick = open_copies & -open_copies
        branch = sorted(
            (e for e in triples[pick.bit_length() - 1] if status[e] == UNDEC),
            key=lambda e: (-participation[e], e),
        )
        assigned_here: list[int] = []
        for e in branch:
            if not live & pick:
                # an earlier keep's propagation resolved the picked copy, so
                # the remaining space is unconstrained by it: recurse once
                search(live, k1, ndel)
                break
            status[e] = DEL
            search(live & ~cm[e], k1, ndel + 1)
            status[e] = KEPT
            assigned_here.append(e)
            hit = cm[e] & live
            forced = hit & k1
            k1 |= hit
            while forced:
                for x in triples[(forced & -forced).bit_length() - 1]:
                    if status[x] == UNDEC:
                        break
                status[x] = DEL
                assigned_here.append(x)
                live &= ~cm[x]
                ndel += 1
                forced &= live
        # keeping the last undecided edge of the pick is never tried: keeping
        # the one before it deletes it, so the loop ends at a resolved pick
        for x in assigned_here:
            status[x] = UNDEC

    # a frame recurses only after deciding an edge of its own (a resolved
    # pick recurses once after a keep), so search nests at most m + 1 deep
    budget_hit = ticker.run(search, m + 2, (1 << len(triples)) - 1, 0, 0)
    del search  # as in _cut4_search: free the masks and triples at return
    return SolveResult(
        value=best["value"],
        witness=EdgeSet(h, frozenset(best["keep"])),
        optimal=not budget_hit,
        stats=SearchStats(nodes=ticker.nodes, elapsed=ticker.elapsed(), budget_hit=budget_hit),
    )
