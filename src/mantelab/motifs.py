"""Detection, enumeration, and counting of generalized triangles.

The generalized triangle on 2k-1 vertices is the 3-edge k-uniform pattern in
which two edges share k-1 vertices and the third edge contains their two apex
vertices plus fresh tails.  A copy is identified by its unordered edge triple
(the pattern has automorphisms, so edge-set identity avoids double counting).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .hypergraph import Edge, Hypergraph

__all__ = [
    "generalized_triangle",
    "find_T",
    "count_T",
    "t_copy_triples",
]

_SUPPORTED_K = (2, 3, 4)


def generalized_triangle(k: int) -> Hypergraph:
    """The canonical pattern on vertices 0..2k-2 with three edges."""
    if k < 2:
        raise ValueError(f"uniformity k={k} must be at least 2")
    e1 = tuple(range(k))
    e2 = tuple(range(k - 1)) + (k,)
    e3 = tuple(range(k - 1, 2 * k - 1))
    return Hypergraph(2 * k - 1, k, tuple(sorted((e1, e2, e3))))


# Raw copy rows held per block, unless one core pair alone has more.
_BLOCK_ROWS = 1 << 15
# The most edges whose copy keys (i * m + j) * m + l, at most m**3 - 1, fit int64.
_PACKED_EDGES = 1 << 21


def _copy_blocks(h: Hypergraph) -> Iterator[np.ndarray]:
    """Yield (r, 3) int64 blocks of raw copy rows (i, j, l), every copy exactly once.

    Edges i = core + a and j = core + b share the (k-1)-set core, and the
    tail edge l holds the apex pair a < b and misses the core.  Rows come
    cores ascending, then (a, b) ascending, then l ascending.  For k == 2
    only cores below a are expanded, so each triangle is found once, from
    its lowest vertex.  A block expands consecutive core pairs, as many as
    keep it within ``_BLOCK_ROWS`` rows at the largest pair codegree.
    """
    if h.k not in _SUPPORTED_K:
        raise ValueError(f"unsupported uniformity k={h.k}; supported: {_SUPPORTED_K}")
    n, k, e = h.n, h.k, h.edge_array
    if len(e) < 3:
        return
    # one entry per (edge, dropped position): the core, its apex and the edge,
    # grouped by core and ascending by apex within a group
    core = e[:, [[c for c in range(k) if c != d] for d in range(k)]].reshape(-1, k - 1)
    apex = e.reshape(-1)
    order = np.lexsort((apex, *core.T[::-1]))
    core, apex, eid = core[order], apex[order], order // k
    group = np.flatnonzero(np.concatenate(([True], (core[1:] != core[:-1]).any(axis=1))))
    size = np.diff(np.append(group, len(apex)))
    # core pair q pairs entry x with a later entry of its group; x has
    # partners[x] of them, and the pairs before x number done[x]
    partners = np.repeat(group + size - 1, size) - np.arange(len(apex))
    if k == 2:
        partners[core[:, 0] >= apex] = 0
    done = np.concatenate(([0], np.cumsum(partners)))
    # pair -> edges holding it, ascending edge id per pair, with each edge's
    # other k - 2 vertices
    pairs = list(combinations(range(k), 2))
    pair_key = (e[:, pairs] @ [n, 1]).reshape(-1)
    by_pair = np.argsort(pair_key, kind="stable")
    pair_key, pair_edge = pair_key[by_pair], by_pair // len(pairs)
    rest = e[:, [[c for c in range(k) if c not in pr] for pr in pairs]]
    rest = rest.reshape(len(pair_key), k - 2)[by_pair]
    step = max(1, _BLOCK_ROWS // int(np.unique(pair_key, return_counts=True)[1].max()))

    for q0 in range(0, int(done[-1]), step):
        q = np.arange(q0, min(q0 + step, int(done[-1])))
        x = np.searchsorted(done, q, "right") - 1
        y = x + 1 + q - done[x]
        held = apex[x] * n + apex[y]
        lo = np.searchsorted(pair_key, held, "left")
        cnt = np.searchsorted(pair_key, held, "right") - lo
        src = np.repeat(np.arange(len(q)), cnt)
        at = lo[src] + np.arange(len(src)) - (np.cumsum(cnt) - cnt)[src]
        x, y = x[src], y[src]
        # drop the tail edges whose other vertices meet the core
        tails, cx = rest[at], core[x]
        ok = np.ones(len(at), dtype=bool)
        for t in range(k - 2):
            for c in range(k - 1):
                ok &= tails[:, t] != cx[:, c]
        yield np.stack((eid[x[ok]], eid[y[ok]], pair_edge[at[ok]]), axis=1)


def find_T(h: Hypergraph) -> tuple[Edge, Edge, Edge] | None:
    """The edges (e1, e2, e3) of a copy of the pattern if one exists, else None.

    e1 and e2 share the (k-1)-set core; e3 holds their apex pair e1 ^ e2 and
    misses the core.
    """
    for rows in _copy_blocks(h):
        if len(rows):
            return tuple(h.edges[x] for x in rows[0].tolist())
    return None


def count_T(h: Hypergraph) -> int:
    """Number of distinct edge triples forming a copy of the pattern."""
    return sum(len(rows) for rows in _copy_blocks(h))


def t_copy_triples(h: Hypergraph, limit: int | None = None) -> np.ndarray:
    """All copies as a (C, 3) int64 array of ascending edge-id rows in lex order.

    Raises ValueError at the first block of copies that takes the count past
    ``limit``; at that point at most ``limit`` copies plus one block are held,
    in a buffer of at most twice that many.

    With m edges, a row (i, j, l) is held as the key (i * m + j) * m + l,
    whose order is the rows' lex order; the keys are sorted in place and
    unpacked into the result, so the scan holds one int64 per copy and the
    result three, with no sort permutation or gathered copy.  Above
    ``_PACKED_EDGES`` edges a key would overflow int64, and the rows are
    held and lex-sorted as they are.  Blocks are written into one buffer
    that doubles when full, not kept as a list of block arrays: block-sized
    arrays that live through the scan would interleave with the scan's
    per-block temporaries in the allocator's heap, and how far that heap
    then grows varies from process to process.
    """
    m = len(h)
    packed = m <= _PACKED_EDGES
    buf = np.empty((0,) if packed else (0, 3), dtype=np.int64)
    total = 0
    for rows in _copy_blocks(h):
        rows.sort(axis=1)
        end = total + len(rows)
        if end > len(buf):
            grown = np.empty((max(end, 2 * len(buf)),) + buf.shape[1:], dtype=np.int64)
            grown[:total] = buf[:total]
            buf = grown
        if packed:
            key = buf[total:end]
            np.multiply(rows[:, 0], m, out=key)
            key += rows[:, 1]
            key *= m
            key += rows[:, 2]
        else:
            buf[total:end] = rows
        total = end
        if limit is not None and total > limit:
            raise ValueError(f"copy guard: more than {limit} generalized-triangle copies")
    keys = buf[:total]
    if not packed:
        return keys[np.lexsort(keys.T[::-1])]
    keys.sort()
    rows = np.empty((total, 3), dtype=np.int64)
    np.floor_divide(keys, m * m, out=rows[:, 0])
    keys %= m * m
    np.divmod(keys, m, out=(rows[:, 1], rows[:, 2]))
    return rows
