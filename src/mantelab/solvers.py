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
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .hypergraph import (
    EdgeSet,
    Hypergraph,
    VertexPartition,
    _crossing_mask,
    crossing_edges,
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
    """Node and wall-clock limits for exact searches; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


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
    """Counts search nodes and enforces the budget at every node."""

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


@contextmanager
def _recursion_room(frames: int):
    """Raise the recursion limit by ``frames`` for a search nesting that deep, then restore it.

    Checked on CPython 3.11, which keeps Python-to-Python calls off the C
    stack; on 3.10 each frame also takes C stack.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


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

    All positions are scored in one pass: ``other[:, d]`` is the sum of the
    class bits at the other k - 1 positions.  A sum of k - 1 powers of two
    has k - 1 set bits exactly when they are distinct (a repeat carries), and
    then it is their union, so the missing class is the index of the bit
    ``full ^ other``.
    """
    e, n, k = h.edge_array, h.n, h.k
    full = (1 << k) - 1
    a = np.array(assignment, dtype=np.int64)
    moves = 0
    while True:
        bits = 1 << a[e]
        cross = _crossing_mask(h, a, bits)
        other = bits.sum(axis=1, keepdims=True) - bits
        free = np.bitwise_count(other) == k - 1
        hits = e[free] * k + np.bitwise_count((full ^ other[free]) - 1)
        gain = np.bincount(hits, minlength=n * k).reshape(n, k)
        gain -= np.bincount(e[cross].reshape(-1), minlength=n)[:, None]
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
    h: Hypergraph, ticker: _Ticker, value: int, assign: tuple[int, ...], use_symmetry: bool,
) -> tuple[int, tuple[int, ...], bool]:
    """Branch-and-bound for a 4-class assignment with more than ``value`` crossing edges.

    Starts from the incumbent (``value``, ``assign``) and returns the best
    (value, assignment) found with the budget flag; the incumbent comes back
    unchanged when nothing beats it.  Vertices are assigned in
    descending-degree order (ties by index); with symmetry breaking, the first
    vertex is fixed to class 0 and a new class label may be opened only in
    order, which is valid for any fixed vertex order.  The search stops as
    soon as every edge crosses.

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
    """
    if h.k != 4:
        raise ValueError(f"4-partite cut needs k=4, got k={h.k}")
    n, m = h.n, len(h)
    order = sorted(range(n), key=lambda v: (-len(h.vertex_edges[v]), v))
    ve = [sum(1 << i for i in h.vertex_edges[v]) for v in range(n)]
    best = {"value": value, "assign": assign}
    cur = [-1] * n
    slack: dict[tuple[int, ...], int] = {}

    def dfs(
        pos: int, used: int, sizes: tuple[int, ...], s: tuple[int, ...],
        a1: int, a2: int, a3: int, a4: int, dead: int,
    ) -> None:
        if best["value"] == m:
            return
        ticker.tick()
        cross = (a4 & ~dead).bit_count()
        if sizes not in slack:
            slack[sizes] = _max_class_product(sizes, n - pos) - math.prod(sizes)
        if cross + slack[sizes] <= best["value"]:
            return
        bound = cross + m - (a3 | dead).bit_count()
        open3 = a3 & ~(a4 | dead)
        if open3:
            n0, n1, n2, n3 = (open3 & ~sc for sc in s)
            for u in order[pos:]:
                eu = ve[u]
                if eu & open3:
                    bound += max(
                        (eu & n0).bit_count(), (eu & n1).bit_count(),
                        (eu & n2).bit_count(), (eu & n3).bit_count(),
                    )
        if bound <= best["value"]:
            return
        if pos == n:  # every edge is assigned, so the bound is the crossing count
            best["value"] = cross
            best["assign"] = tuple(cur)
            return
        v = order[pos]
        e = ve[v]
        limit = min(used + 1, 4) if use_symmetry else 4
        for c in range(limit):
            cur[v] = c
            sc = s[c]
            dfs(
                pos + 1,
                max(used, c + 1),
                sizes[:c] + (sizes[c] + 1,) + sizes[c + 1:],
                s[:c] + (sc | e,) + s[c + 1:],
                a1 | e,
                a2 | (a1 & e),
                a3 | (a2 & e),
                a4 | (a3 & e),
                dead | (sc & e),
            )

    try:
        # dfs nests once per assigned vertex, n + 1 deep, plus its leaf calls
        with _recursion_room(n + 2):
            dfs(0, 0, (0, 0, 0, 0), (0, 0, 0, 0), 0, 0, 0, 0, 0)
        budget_hit = False
    except _BudgetExceeded:
        budget_hit = True
    return best["value"], best["assign"], budget_hit


def max_cut4_exact(
    h: Hypergraph, budget: Budget | None = None, use_symmetry: bool = True
) -> SolveResult:
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
    value, assign, budget_hit = _cut4_search(h, ticker, seed_value, seed_assign, use_symmetry)
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
    value, _, budget_hit = _cut4_search(f, _Ticker(budget), m - 1, (), True)
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
    for repair restarts).  The runs share one index of the copies through
    each edge, ids[start[e]:start[e + 1]].
    """
    ids = np.argsort(triples.reshape(-1))
    ids //= 3
    start = np.concatenate(([0], np.cumsum(np.bincount(triples.reshape(-1), minlength=m))))
    best: list[int] = []
    for run in range(runs):
        count = np.diff(start)
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
            hit = hit[alive[hit]]
            alive[hit] = False
            live_total -= len(hit)
            np.subtract.at(count, triples[hit].reshape(-1), 1)
        if kept.sum() > len(best):
            best = np.flatnonzero(kept).tolist()
    return best


def _tfree_incumbent(
    h: Hypergraph, triples: np.ndarray, seed: int, runs: int, restarts: int
) -> list[int]:
    """Kept edge ids of the largest of three copy-free sets.

    One is the best of ``runs`` greedy deletions, one the crossing set of the
    best local k-class cut over ``restarts`` (each draws from its own
    ``random.Random(seed)``), and one the star of the lowest-index vertex of
    maximum degree.  The crossing set wins over greedy only when strictly
    larger, and the star only when strictly larger than both.  A crossing
    set is copy-free: two edges of a copy share k - 1 vertices, so if both
    cross, their other two vertices take the one class the shared ones miss,
    and the third edge, which holds both, cannot cross.  A star is
    copy-free: a copy's two core edges meet only in the core, which its
    third edge misses, so no vertex lies in all three.
    """
    greedy = _greedy_tfree(triples, len(h), random.Random(seed), runs)
    _, assign, _ = _kpartite_local(h, random.Random(seed), restarts)
    crossing = sorted(crossing_edges(h, VertexPartition(h.k, assign)).indices)
    best = crossing if len(crossing) > len(greedy) else greedy
    star = max(h.vertex_edges, key=len, default=())
    return list(star) if len(star) > len(best) else best


def max_tfree_repair(
    h: Hypergraph, seed: int, restarts: int = 4
) -> SolveResult:
    """Heuristic maximum copy-free edge subset; the result is always copy-free.

    Runs the greedy deletion heuristic (deterministic, then randomized tie
    breaks across restarts) and additionally seeds the incumbent with the best
    local-cut crossing set under the same (seed, restarts) and with the star
    at a maximum-degree vertex, so the returned value is never below the
    local cut's or the maximum degree.  The star is copy-free because a
    copy's two core edges meet only in the core, which its third edge
    misses.  Hosts with more than
    ``MAX_COPIES_EXACT`` copies are refused (ValueError) as in
    :func:`max_tfree_exact`.
    """
    t0 = time.monotonic()
    triples = t_copy_triples(h, limit=MAX_COPIES_EXACT)
    best = _tfree_incumbent(h, triples, seed, max(1, restarts), restarts)
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


def _edge_copy_masks(m: int, triples: list[list[int]]) -> list[int]:
    """Per edge, the bitset over copy ids of the copies through it."""
    nbytes = (len(triples) + 7) >> 3
    bufs = [bytearray(nbytes) for _ in range(m)]
    for ci, t in enumerate(triples):
        byte, bit = ci >> 3, 1 << (ci & 7)
        for e in t:
            bufs[e][byte] |= bit
    return [int.from_bytes(b, "little") for b in bufs]


def max_tfree_exact(h: Hypergraph, budget: Budget | None = None) -> SolveResult:
    """Maximum edge subset containing no copy of the generalized triangle.

    Every copy forbids keeping all three of its edges.  Branch-and-bound
    decides the undecided edges of one copy in turn (delete, then keep): the
    lowest-id live copy with a kept edge, else the lowest-id live copy.
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
    two passes by lowest-set-bit extraction.  First, over ``live & k1``,
    each packed copy clears the masks of its two undecided edges (its third
    is kept) from the candidates, and those masks gather in ``blocked``.
    Then, over ``live & ~k1 & ~blocked``, each packed copy (a, b, c), all
    undecided, clears ``cm[a] | cm[b] | cm[c]``.

    Memory is O(edges * copies) bits, with no per-copy conflict mask.  To
    guard it, the copy scan stops with ValueError at the first block of
    copies past ``MAX_COPIES_EXACT`` (10^7) copies (the copy guard) or past
    ``MAX_MASK_BITS_EXACT // edges`` copies (the mask guard), before any
    mask is built.  A time budget is charged from entry, so the copy scan,
    the incumbent and the masks count against it; a budget spent before
    the search stops it at its first node.

    The incumbent starts at the largest of the greedy set, the local-cut
    crossing set and the star at a maximum-degree vertex
    (:func:`_tfree_incumbent`).  The star is copy-free because a copy's two
    core edges meet only in the core, which its third edge misses, so the
    value is at least the maximum degree under any budget.
    """
    ticker = _Ticker(budget)
    m = len(h)
    # m x C > MAX_MASK_BITS_EXACT exactly when C > MAX_MASK_BITS_EXACT // m
    mask_limit = MAX_MASK_BITS_EXACT // max(m, 1)
    try:
        triples = t_copy_triples(h, limit=min(MAX_COPIES_EXACT, mask_limit))
    except ValueError:
        if mask_limit >= MAX_COPIES_EXACT:
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
    incumbent = _tfree_incumbent(h, triples, 0x5EED, 1, 3)
    best = {"value": len(incumbent), "keep": incumbent}
    triples = triples.tolist()  # the search reads single rows, which lists serve faster

    cm = _edge_copy_masks(m, triples)
    participation = [c.bit_count() for c in cm]
    status = [UNDEC] * m

    def search(live: int, k1: int, ndel: int) -> None:
        ticker.tick()
        packing = 0
        blocked = 0
        cand = live & k1
        while cand:
            x, y, z = triples[(cand & -cand).bit_length() - 1]
            if status[x] == KEPT:
                spent = cm[y] | cm[z]
            elif status[y] == KEPT:
                spent = cm[x] | cm[z]
            else:
                spent = cm[x] | cm[y]
            cand &= ~spent
            blocked |= spent
            packing += 1
        cand = live & ~k1 & ~blocked
        while cand:
            a, b, c = triples[(cand & -cand).bit_length() - 1]
            cand &= ~(cm[a] | cm[b] | cm[c])
            packing += 1
        if m - ndel - packing <= best["value"]:
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

    try:
        # a frame recurses only after deciding an edge of its own (a resolved
        # pick recurses once after a keep), so search nests at most m + 1 deep
        with _recursion_room(m + 2):
            search((1 << len(triples)) - 1, 0, 0)
        budget_hit = False
    except _BudgetExceeded:
        budget_hit = True
    return SolveResult(
        value=best["value"],
        witness=EdgeSet(h, frozenset(best["keep"])),
        optimal=not budget_hit,
        stats=SearchStats(nodes=ticker.nodes, elapsed=ticker.elapsed(), budget_hit=budget_hit),
    )
