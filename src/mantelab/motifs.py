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
# The most edges whose copy keys (i << 2b) | (j << b) | l, with b = (m - 1).bit_length(),
# fit int64: 3b <= 63 exactly when m <= 2**21.
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
    # grouped by core and ascending by apex within a group; core (and rest
    # below) are held one row per position, so a block gathers whole rows
    # with take and compares contiguous arrays
    core = e[:, [[c for c in range(k) if c != d] for d in range(k)]].reshape(-1, k - 1)
    apex = e.reshape(-1)
    order = np.lexsort((apex, *core.T[::-1]))
    core, apex, eid = core.T.take(order, axis=1), apex.take(order), order // k
    group = np.flatnonzero(np.concatenate(([True], (core[:, 1:] != core[:, :-1]).any(axis=0))))
    size = np.diff(np.append(group, len(apex)))
    # core pair q pairs entry x with a later entry of its group; x has
    # partners[x] of them, and the pairs before x number done[x]
    partners = np.repeat(group + size - 1, size) - np.arange(len(apex))
    if k == 2:
        partners[core[0] >= apex] = 0
    done = np.concatenate(([0], np.cumsum(partners)))
    # pair -> edges holding it, ascending edge id per pair, with each edge's
    # other k - 2 vertices
    pairs = list(combinations(range(k), 2))
    pair_key = (e[:, pairs] @ [n, 1]).reshape(-1)
    by_pair = np.argsort(pair_key, kind="stable")
    pair_key, pair_edge = pair_key[by_pair], by_pair // len(pairs)
    rest = e[:, [[c for c in range(k) if c not in pr] for pr in pairs]]
    rest = rest.reshape(len(pair_key), k - 2).T.take(by_pair, axis=1)
    step = max(1, _BLOCK_ROWS // int(np.unique(pair_key, return_counts=True)[1].max()))

    for q0 in range(0, int(done[-1]), step):
        q = np.arange(q0, min(q0 + step, int(done[-1])))
        x = np.searchsorted(done, q, "right") - 1
        y = x + 1 + q - done.take(x)
        held = apex.take(x) * n + apex.take(y)
        lo = np.searchsorted(pair_key, held, "left")
        cnt = np.searchsorted(pair_key, held, "right") - lo
        at = np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        at += np.arange(len(at))
        x, y = x.repeat(cnt), y.repeat(cnt)
        # drop the tail edges whose other vertices meet the core
        cx = core.take(x, axis=1)
        ok = np.ones(len(at), dtype=bool)
        for t in rest.take(at, axis=1):
            for c in cx:
                ok &= t != c
        yield np.stack(
            (eid.take(x.compress(ok)), eid.take(y.compress(ok)), pair_edge.take(at.compress(ok))),
            axis=1,
        )


def find_T(h: Hypergraph) -> tuple[Edge, Edge, Edge] | None:
    """The edges (e1, e2, e3) of a copy of the pattern if one exists, else None.

    e1 and e2 share the (k-1)-set core; e3 holds their apex pair e1 ^ e2 and
    misses the core.
    """
    for rows in _copy_blocks(h):
        if len(rows):
            return tuple(map(tuple, h.edge_array[rows[0]].tolist()))
    return None


def count_T(h: Hypergraph) -> int:
    """Number of distinct edge triples forming a copy of the pattern."""
    return sum(len(rows) for rows in _copy_blocks(h))


def _sort_rows(rows: np.ndarray) -> None:
    """Sort each row of an (r, 3) array in place with a min/max network."""
    a, b, c = rows.T
    low = np.minimum(a, b)
    np.maximum(a, b, out=b)
    np.minimum(b, c, out=a)
    np.maximum(b, c, out=c)
    np.maximum(low, a, out=b)
    np.minimum(low, a, out=a)


def t_copy_triples(h: Hypergraph, limit: int | None = None) -> np.ndarray:
    """All copies as a (C, 3) int64 array of ascending edge-id rows in lex order.

    Raises ValueError at the first block of copies that takes the count past
    ``limit``; at that point at most ``limit`` copies plus one block are held,
    in a buffer of at most twice that many.

    With m edges and b = (m - 1).bit_length(), a row (i, j, l) is held as
    the key (i << 2b) | (j << b) | l, whose order is the rows' lex order;
    the keys are sorted in place and unpacked into the result with one
    right shift per column and one mask, so the scan holds one int64 per
    copy and the result three, with no sort permutation or gathered copy.
    Above ``_PACKED_EDGES`` edges a key would overflow int64, and the rows
    are held and lex-sorted as they are.  Blocks are written into one buffer
    that doubles when full, not kept as a list of block arrays: block-sized
    arrays that live through the scan would interleave with the scan's
    per-block temporaries in the allocator's heap, and how far that heap
    then grows varies from process to process.

    Each block's rows are sorted in place by a three-element min/max network
    (six ``np.minimum`` / ``np.maximum`` calls), in about a fifth of the
    time of ``sort(axis=1)``.  The sort is here, not in ``_copy_blocks``,
    because :func:`find_T` reads a block row's (core, core, tail) roles.
    """
    m = len(h)
    packed = m <= _PACKED_EDGES
    b = (m - 1).bit_length()
    buf = np.empty((0,) if packed else (0, 3), dtype=np.int64)
    total = 0
    for rows in _copy_blocks(h):
        _sort_rows(rows)
        end = total + len(rows)
        if end > len(buf):
            grown = np.empty((max(end, 2 * len(buf)),) + buf.shape[1:], dtype=np.int64)
            grown[:total] = buf[:total]
            buf = grown
        if packed:
            key = buf[total:end]
            np.left_shift(rows[:, 0], b, out=key)
            key |= rows[:, 1]
            key <<= b
            key |= rows[:, 2]
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
    for j in range(3):
        np.right_shift(keys, b * (2 - j), out=rows[:, j])
    rows &= (1 << b) - 1
    return rows
