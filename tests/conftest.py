"""Shared brute-force oracles and instance generators.

The oracles here re-derive every quantity straight from its definition with
plain set arithmetic, independent of the library's indexed kernels, so the
tests compare two genuinely different computation paths.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from mantelab.hypergraph import Hypergraph, VertexPartition, build_hypergraph


def is_triangle_triple(e1, e2, e3, k: int) -> bool:
    """Definition check over all role assignments of three distinct edges."""
    sets = [frozenset(e1), frozenset(e2), frozenset(e3)]
    if len(set(sets)) < 3:
        return False
    for i, j, l in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        a, b, c = sets[i], sets[j], sets[l]
        core = a & b
        if len(core) != k - 1:
            continue
        if (a ^ b) <= c and not (c & core):
            return True
    return False


def naive_count_triangles(h: Hypergraph) -> int:
    """O(m^3) scan over unordered edge triples."""
    total = 0
    for e1, e2, e3 in combinations(h.edges, 3):
        if is_triangle_triple(e1, e2, e3, h.k):
            total += 1
    return total


def random_hypergraph(
    rng: random.Random, n: int, k: int, m: int | None = None, p: float | None = None
) -> Hypergraph:
    """A random host drawn with a plain Python RNG (independent of the samplers)."""
    universe = list(combinations(range(n), k))
    if m is not None:
        m = min(m, len(universe))
        return build_hypergraph(n, k, rng.sample(universe, m))
    edges = [e for e in universe if rng.random() < (p if p is not None else 0.3)]
    return build_hypergraph(n, k, edges)


def random_vertex_partition(rng: random.Random, n: int, r: int) -> VertexPartition:
    labels = [i % r for i in range(n)]
    rng.shuffle(labels)
    return VertexPartition(r, tuple(labels))


def naive_crossing_ids(h: Hypergraph, part: VertexPartition) -> set[int]:
    """Ids of the edges whose set of vertex classes is exactly {0, .., r-1}."""
    every = set(range(part.r))
    return {i for i, e in enumerate(h.edges) if {part.assignment[v] for v in e} == every}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBADA55)
