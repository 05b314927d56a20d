"""Exact and heuristic optimizers over hypergraph edge sets and partitions.

Exact solvers are branch-and-bound searches that certify optimality only when
the pruned space was provably exhausted within budget; running out of budget
returns the best incumbent with ``optimal=False`` rather than raising.  All
searches are deterministic: randomness enters only through explicit seeds,
and tie-breaking is lowest-index-first, so the certified value, flag, and
witness are reproducible run to run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .hypergraph import (
    EdgeSet,
    Hypergraph,
    PairGraph,
    VertexPartition,
    _is_crossing,
)
# count_T is not called here but stays an attribute of this module, where
# perfbench/worker.py wraps the copy scans for its traced runs.
from .motifs import count_T, t_copy_triples  # noqa: F401
from .randgen import TrialSeed

__all__ = [
    "Budget",
    "SearchStats",
    "SolveResult",
    "BipartiteHalf",
    "max_tfree_exact",
    "max_tfree_repair",
    "max_cut4_exact",
    "max_cut4_local",
    "best_partition_for",
    "is_4partite",
    "bipartite_half",
]

MAX_COPIES_EXACT = 10**7


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


@dataclass(frozen=True)
class BipartiteHalf:
    """A 2-partition of a graph's vertices and its crossing edge set."""

    left: frozenset[int]
    right: frozenset[int]
    cross: PairGraph


class _BudgetExceeded(Exception):
    pass


class _Ticker:
    """Counts search nodes and enforces the budget every few hundred nodes."""

    __slots__ = ("nodes", "max_nodes", "max_seconds", "start")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.max_seconds = budget.max_seconds if budget else None
        self.start = time.monotonic()

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.max_seconds is not None and self.nodes % 256 == 0:
            if time.monotonic() - self.start > self.max_seconds:
                raise _BudgetExceeded

    def elapsed(self) -> float:
        return time.monotonic() - self.start


# ---------------------------------------------------------------------------
# local search over r-class vertex partitions


def _local_cut_pass(h: Hypergraph, assignment: list[int], r: int) -> tuple[int, list[int], int]:
    """Hill-climb single-vertex moves to a 1-move-optimal assignment.

    Takes the best strictly improving move each round, ties broken by lowest
    (vertex, class).  Returns (value, assignment, moves).
    """
    a = list(assignment)
    cross = [_is_crossing(e, a) for e in h.edges]
    value = sum(cross)
    moves = 0
    while True:
        best_gain = 0
        best_move: tuple[int, int] | None = None
        for v in range(h.n):
            cur = a[v]
            for c in range(r):
                if c == cur:
                    continue
                a[v] = c
                gain = 0
                for i in h.vertex_edges[v]:
                    after = _is_crossing(h.edges[i], a)
                    if after != cross[i]:
                        gain += 1 if after else -1
                a[v] = cur
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, c)
        if best_move is None:
            return value, a, moves
        v, c = best_move
        a[v] = c
        for i in h.vertex_edges[v]:
            cross[i] = _is_crossing(h.edges[i], a)
        value += best_gain
        moves += 1


def _kpartite_local(
    h: Hypergraph, r: int, rng: random.Random, restarts: int
) -> tuple[int, tuple[int, ...], int]:
    """Best local-cut assignment over restarts; restart 0 is round-robin."""
    best_value = -1
    best_assign: tuple[int, ...] = ()
    total_moves = 0
    for t in range(max(1, restarts)):
        if t == 0:
            start = [v % r for v in range(h.n)]
        else:
            start = [rng.randrange(r) for _ in range(h.n)]
        value, assign, moves = _local_cut_pass(h, start, r)
        total_moves += moves
        if value > best_value:
            best_value = value
            best_assign = tuple(assign)
    return best_value, best_assign, total_moves


def max_cut4_local(h: Hypergraph, seed: TrialSeed, restarts: int = 8) -> SolveResult:
    """Hill-climbing maximum 4-partite cut; the partition is 1-move-optimal."""
    if h.k != 4:
        raise ValueError(f"4-partite cut needs k=4, got k={h.k}")
    t0 = time.monotonic()
    rng = random.Random(seed.derived)
    value, assign, moves = _kpartite_local(h, 4, rng, restarts)
    part = VertexPartition(4, assign)
    return SolveResult(
        value=value,
        witness=part,
        optimal=False,
        stats=SearchStats(nodes=moves, elapsed=time.monotonic() - t0, budget_hit=False),
    )


# ---------------------------------------------------------------------------
# exact maximum 4-partite cut


def max_cut4_exact(
    h: Hypergraph, budget: Budget | None = None, use_symmetry: bool = True
) -> SolveResult:
    """Branch-and-bound maximum 4-partite cut with class-symmetry breaking.

    Vertices are assigned in descending-degree order (ties by index); with
    symmetry breaking, the first vertex is fixed to class 0 and a new class
    label may be opened only in order, which is valid for any fixed vertex
    order.  The incumbent is seeded from a short local search, and the search
    itself is deterministic, so value, flag, and witness are reproducible run
    to run.

    The state is Python-int bitsets over edge ids, passed down the recursion
    (no undo step).  ``ve[v]`` holds the edges through v; a node carries
    ``s[c]`` (edges with an assigned vertex in class c), ``a1``..``a4`` (edges
    with at least 1..4 assigned vertices) and ``dead`` (edges with two
    vertices in one class).  An edge that is not dead counts toward the bound
    once: as crossing if all four vertices are assigned, toward the demand of
    its free vertex u for the one missing class if three are, and as loose if
    at most two are.  A free vertex takes one class, so it meets the demand
    of one class at most: the bound is crossing + loose + the sum over free
    vertices of their largest per-class demand.
    """
    if h.k != 4:
        raise ValueError(f"4-partite cut needs k=4, got k={h.k}")
    n, m = h.n, len(h.edges)
    ticker = _Ticker(budget)
    order = sorted(range(n), key=lambda v: (-len(h.vertex_edges[v]), v))
    ve = [sum(1 << i for i in h.vertex_edges[v]) for v in range(n)]
    seed_value, seed_assign, _ = _kpartite_local(h, 4, random.Random(0xCB1), 4)
    best = {"value": seed_value, "assign": seed_assign}
    assign = [-1] * n

    def dfs(
        pos: int, used: int, s: tuple[int, ...], a1: int, a2: int, a3: int, a4: int, dead: int
    ) -> None:
        if best["value"] == m:
            return
        ticker.tick()
        cross = (a4 & ~dead).bit_count()
        bound = cross + m - (a3 | dead).bit_count()
        open3 = a3 & ~(a4 | dead)
        for u in order[pos:]:
            owed = ve[u] & open3
            if owed:
                bound += max((owed & ~sc).bit_count() for sc in s)
        if bound <= best["value"]:
            return
        if pos == n:  # every edge is assigned, so the bound is the crossing count
            best["value"] = cross
            best["assign"] = tuple(assign)
            return
        v = order[pos]
        e = ve[v]
        limit = min(used + 1, 4) if use_symmetry else 4
        for c in range(limit):
            assign[v] = c
            sc = s[c]
            dfs(
                pos + 1,
                max(used, c + 1),
                s[:c] + (sc | e,) + s[c + 1:],
                a1 | e,
                a2 | (a1 & e),
                a3 | (a2 & e),
                a4 | (a3 & e),
                dead | (sc & e),
            )

    budget_hit = False
    try:
        dfs(0, 0, (0, 0, 0, 0), 0, 0, 0, 0, 0)
        completed = True
    except _BudgetExceeded:
        completed = False
        budget_hit = True
    return SolveResult(
        value=best["value"],
        witness=VertexPartition(4, tuple(best["assign"])),
        optimal=completed or best["value"] == m,
        stats=SearchStats(nodes=ticker.nodes, elapsed=ticker.elapsed(), budget_hit=budget_hit),
    )


def best_partition_for(
    f: Hypergraph,
    method: str = "exact",
    seed: TrialSeed | None = None,
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
    """True/False when the exact cut certifies; None when the budget exhausts."""
    res = max_cut4_exact(f, budget)
    if not res.optimal:
        return None
    return res.value == len(f.edges)


# ---------------------------------------------------------------------------
# maximum triangle-free edge subsets

UNDEC, KEPT, DEL = 0, 1, 2


def _greedy_tfree(
    h: Hypergraph,
    triples: list[tuple[int, int, int]],
    rng: random.Random | None,
) -> list[int]:
    """Delete the edge hitting the most live copies until none remain.

    Participation counts are maintained incrementally (each copy dies once),
    so a run costs O(copies + deletions * m).  Ties go to the lowest edge id;
    with an rng, ties are broken uniformly at random instead (used for repair
    restarts).
    """
    m = len(h.edges)
    copies_by_edge: list[list[int]] = [[] for _ in range(m)]
    for ci, t in enumerate(triples):
        for e in t:
            copies_by_edge[e].append(ci)
    alive = [True] * len(triples)
    count = [len(copies_by_edge[e]) for e in range(m)]
    live_total = len(triples)
    deleted: set[int] = set()
    while live_total:
        top = max(count)
        if rng is None:
            pick = count.index(top)
        else:
            pick = rng.choice([e for e, c in enumerate(count) if c == top])
        deleted.add(pick)
        for ci in copies_by_edge[pick]:
            if alive[ci]:
                alive[ci] = False
                live_total -= 1
                for e2 in triples[ci]:
                    count[e2] -= 1
    return [i for i in range(m) if i not in deleted]


def _crossing_incumbent(
    h: Hypergraph, rng: random.Random, restarts: int
) -> list[int]:
    """Edge ids of the best local-cut crossing set (always copy-free)."""
    _, assign, _ = _kpartite_local(h, h.k, rng, restarts)
    return [i for i, e in enumerate(h.edges) if _is_crossing(e, assign)]


def max_tfree_repair(
    h: Hypergraph, seed: TrialSeed, restarts: int = 4
) -> SolveResult:
    """Heuristic maximum copy-free edge subset; the result is always copy-free.

    Runs the greedy deletion heuristic (deterministic, then randomized tie
    breaks across restarts) and additionally seeds the incumbent with the best
    local-cut crossing set under the same (seed, restarts), so the returned
    value is never below the local cut's.
    """
    t0 = time.monotonic()
    triples = t_copy_triples(h)
    best = _greedy_tfree(h, triples, None)
    rng = random.Random(seed.derived)
    for _ in range(max(0, restarts - 1)):
        cand = _greedy_tfree(h, triples, rng)
        if len(cand) > len(best):
            best = cand
    cut_rng = random.Random(seed.derived)
    crossing = _crossing_incumbent(h, cut_rng, restarts)
    if len(crossing) > len(best):
        best = crossing
    return SolveResult(
        value=len(best),
        witness=EdgeSet(h, frozenset(best)),
        optimal=False,
        stats=SearchStats(
            nodes=len(h.edges) - len(best),
            elapsed=time.monotonic() - t0,
            budget_hit=False,
        ),
    )


def _edge_copy_masks(m: int, triples: list[tuple[int, int, int]]) -> list[int]:
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
    greedy packing of live edge-disjoint copies (each needs its own future
    deletion), built in copy-id order by lowest-set-bit extraction: take the
    lowest candidate (a, b, c), then clear ``cm[a] | cm[b] | cm[c]`` from
    the candidates.  Memory is O(edges * copies) bits, with no per-copy
    conflict mask.  Instances with more than 10^7 copies are refused
    (ValueError) before more than that many are held, to guard memory.
    """
    t0 = time.monotonic()
    triples = t_copy_triples(h, limit=MAX_COPIES_EXACT)
    m = len(h.edges)
    if not triples:
        return SolveResult(
            value=m,
            witness=EdgeSet(h, frozenset(range(m))),
            optimal=True,
            stats=SearchStats(nodes=0, elapsed=time.monotonic() - t0, budget_hit=False),
        )
    rng = random.Random(0x5EED)
    greedy = _greedy_tfree(h, triples, None)
    crossing = _crossing_incumbent(h, rng, 3)
    incumbent = greedy if len(greedy) >= len(crossing) else crossing
    best = {"value": len(incumbent), "keep": incumbent}

    cm = _edge_copy_masks(m, triples)
    participation = [c.bit_count() for c in cm]
    status = [UNDEC] * m
    ticker = _Ticker(budget)

    def search(live: int, k1: int, ndel: int) -> None:
        ticker.tick()
        cand = live
        packing = 0
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

    budget_hit = False
    try:
        search((1 << len(triples)) - 1, 0, 0)
        completed = True
    except _BudgetExceeded:
        completed = False
        budget_hit = True
    return SolveResult(
        value=best["value"],
        witness=EdgeSet(h, frozenset(best["keep"])),
        optimal=completed,
        stats=SearchStats(nodes=ticker.nodes, elapsed=ticker.elapsed(), budget_hit=budget_hit),
    )


# ---------------------------------------------------------------------------
# bipartite half extraction


def bipartite_half(p: PairGraph) -> BipartiteHalf:
    """A 2-partition whose crossing edges R satisfy |R| >= |edges| / 2.

    Local moves: while some vertex has fewer than half of its neighbors on
    the other side, move the lowest such vertex.  Every move strictly
    increases the cut, so the loop terminates at a local optimum, where each
    vertex has cross-degree at least half its degree.
    """
    side = [v & 1 for v in range(p.n)]
    while True:
        moved = False
        for v in range(p.n):
            nbrs = p.adjacency[v]
            if not nbrs:
                continue
            cross = sum(1 for u in nbrs if side[u] != side[v])
            if 2 * cross < len(nbrs):
                side[v] ^= 1
                moved = True
                break
        if not moved:
            break
    left = frozenset(v for v in range(p.n) if side[v] == 0)
    right = frozenset(v for v in range(p.n) if side[v] == 1)
    cross_edges = frozenset(e for e in p.edges if side[e[0]] != side[e[1]])
    return BipartiteHalf(left=left, right=right, cross=PairGraph(p.n, cross_edges))
