"""Reproducible sampling of binomial random k-uniform hypergraphs.

The edge universe, all C(n, k) vertex k-subsets, is enumerated in
colexicographic order (rank of {s1 < ... < sk} is sum of C(s_i, i)).  The
default sampler walks this order with geometric skips (inversion sampling):
its output is a pure function of (n, k, p, seed) and is the normative stream.
``sample_gknp_bernoulli`` is a distinct, slower generator (one uniform per
subset) kept for cross-checks; it does not share the skip sampler's stream.

Per-trial seeds derive from a 64-bit master via a fixed mixing function
(SplitMix64 finalizer over master + (index+1) * 0x9E3779B97F4A7C15 mod 2^64);
the multiplier is odd and the finalizer bijective, so distinct trial indices
always yield distinct derived seeds.  Seeds appear in outputs as decimal
64-bit integers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

import numpy as np

from .hypergraph import Hypergraph, VertexPartition

__all__ = [
    "derive_seed",
    "colex_rank",
    "colex_unrank",
    "sample_gknp",
    "sample_gknp_bernoulli",
    "random_partition",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The skip walk's positions stay below 2m + 2 (a position below m plus a step
# of at most m + 2), so int64 holds them for every universe of m < 2^62 subsets.
_RANK_LIMIT = 1 << 62


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Deterministic, collision-free derivation of a per-trial 64-bit seed."""
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")
    return _mix64(((master & _MASK64) + ((index + 1) & _MASK64) * _GOLDEN) & _MASK64)


# ---------------------------------------------------------------------------
# colexicographic subset order


def colex_rank(subset) -> int:
    vs = sorted(subset)
    return sum(math.comb(v, i) for i, v in enumerate(vs, start=1))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    if rank < 0:
        raise ValueError("rank must be non-negative")
    out = []
    r = rank
    for i in range(k, 0, -1):
        # bisect for the largest s with C(s, i) <= r; it lies in [i - 1, r + i - 1]
        # since C(i - 1, i) = 0 <= r < C(r + i, i)
        s, hi = i - 1, r + i - 1
        while s < hi:
            mid = (s + hi + 1) // 2
            s, hi = (mid, hi) if math.comb(mid, i) <= r else (s, mid - 1)
        out.append(s)
        r -= math.comb(s, i)
    out.reverse()
    return tuple(out)


def _comb_table(i: int, n: int) -> np.ndarray:
    """C(x, i) for x in 0..n, capped at the rank limit, which no rank reaches."""
    return np.array([min(math.comb(x, i), _RANK_LIMIT) for x in range(n + 1)], dtype=np.int64)


def _unrank_columns(ranks: np.ndarray, k: int, n: int) -> Iterator[np.ndarray]:
    """Vectorized colex unranking; yields the int64 columns k-1 down to 0.

    The ranks must ascend, as the skip walk, ``nonzero`` and ``arange`` give
    them.  Then the top column ascends too: it is each x repeated once per
    rank in [C(x, k), C(x + 1, k)), found by one ``searchsorted`` of the
    table steps among the ranks.  Each lower column is one ``searchsorted``
    of the remaining ranks in its table, and C(s, 1) = s makes the lowest
    column the remaining rank itself.  The ranks are released once the top
    column is made, and each yielded column is dropped before the next is
    made, so a caller that converts each column as it comes holds one at a
    time.
    """
    tab = _comb_table(k, n)
    s = np.repeat(np.arange(n), np.diff(np.searchsorted(ranks, tab)))
    r = tab.take(s)
    np.subtract(ranks, r, out=r)
    del ranks
    for i in range(k - 1, 1, -1):
        yield s
        del s  # before the next column is allocated
        tab = _comb_table(i, n)
        s = np.searchsorted(tab, r, side="right")
        s -= 1
        r -= tab.take(s)
    yield s
    del s
    yield r


def _unrank_batch(ranks: np.ndarray, k: int, n: int) -> np.ndarray:
    """Vectorized colex unranking of ascending ranks; an (m, k) array with ascending rows."""
    return np.stack(list(_unrank_columns(ranks, k, n))[::-1], axis=1)


def _host(n: int, k: int, ranks: np.ndarray) -> Hypergraph:
    """The hypergraph whose edges have the given ascending colex ranks, rows in lex order.

    With b = (n - 1).bit_length(), row column j (0 the lowest vertex) is
    unranked straight into bits b(k-1-j) and up of one unsigned key, uint32
    while kb <= 32 and uint64 while kb <= 64.  The keys order as the rows do
    lexicographically, so one in-place ``np.sort`` of the keys, one shift
    per column and one mask give the rows in lex order, with no colex row
    array, permutation or row gather.  Rows are distinct, so the order is
    unique.  A host with kb > 64 lex-sorts its colex rows.
    """
    b = (n - 1).bit_length()
    if k * b > 64:
        rows = _unrank_batch(ranks, k, n)
        return Hypergraph(n, k, rows[np.lexsort(rows.T[::-1])])
    cols = _unrank_columns(ranks, k, n)
    del ranks  # freed with the top column when the caller passed its only reference
    key = next(cols).astype(np.uint32 if k * b <= 32 else np.uint64)
    for shift in range(b, k * b, b):
        col = next(cols).astype(key.dtype)
        col <<= shift
        key |= col
    del cols, col  # the suspended generator holds the lowest column until closed
    key.sort()
    rows = np.empty((len(key), k), dtype=np.int64)
    for j in range(k):
        np.right_shift(key, b * (k - 1 - j), out=rows[:, j])
    del key
    rows &= (1 << b) - 1
    return Hypergraph(n, k, rows)


# ---------------------------------------------------------------------------
# samplers


def _check_args(n: int, k: int, p: float) -> None:
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    if math.comb(n, k) >= _RANK_LIMIT:
        raise ValueError(f"universe of C({n}, {k}) subsets reaches 2^62, beyond int64 ranks")


def sample_gknp(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Include each k-subset independently with probability p (skip sampler).

    Subsets are visited in colexicographic order with geometric jumps, so the
    number of uniforms consumed equals the number of edges produced.  The
    degenerate ends p=0 and p=1 consume no randomness.  Identical
    (n, k, p, seed) always produce the identical edge set.  A universe of
    C(n, k) >= 2^62 subsets raises ``ValueError``: int64 cannot hold its
    walk's positions.
    """
    _check_args(n, k, p)
    m = math.comb(n, k)
    if p == 0.0 or p == 1.0:
        return _host(n, k, np.arange(m if p == 1.0 else 0, dtype=np.int64))
    return _host(n, k, _skip_ranks(m, p, seed))


def _skip_ranks(m: int, p: float, seed: int) -> np.ndarray:
    """The ascending colex ranks the geometric-skip walk takes; its batches die on return."""
    rng = np.random.Generator(np.random.PCG64(seed))
    log1mp = math.log1p(-p)
    batch = max(1024, int(p * m * 1.05) + 16)
    taken: list[np.ndarray] = []
    pos = -1
    while True:
        # floor(log1p(-u) / log1mp) capped at m + 1, each step done in place
        u = rng.random(batch)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.divide(u, log1mp, out=u)
        np.floor(u, out=u)
        np.minimum(u, float(m + 1), out=u)
        pos_arr = u.astype(np.int64)
        del u
        pos_arr += 1
        np.cumsum(pos_arr, out=pos_arr)
        pos_arr += pos
        # positions ascend up to the first one >= m; later ones may wrap int64
        end = int(np.argmax(pos_arr >= m))
        if pos_arr[end] >= m:
            taken.append(pos_arr[:end])
            return np.concatenate(taken)
        taken.append(pos_arr)
        pos = int(pos_arr[-1])


def sample_gknp_bernoulli(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """One uniform per subset in colex order; a distinct named generator.

    Statistically identical to :func:`sample_gknp` but with a different
    randomness consumption pattern, so the two do not reproduce each other's
    edge sets bit for bit.
    """
    _check_args(n, k, p)
    m = math.comb(n, k)
    if m > 5 * 10**7:
        raise ValueError(f"universe of {m} subsets too large for the dense path")
    if p == 0.0 or p == 1.0:
        return _host(n, k, np.arange(m if p == 1.0 else 0, dtype=np.int64))
    rng = np.random.Generator(np.random.PCG64(seed))
    return _host(n, k, np.nonzero(rng.random(m) < p)[0])


def random_partition(n: int, r: int, seed: int) -> VertexPartition:
    """A uniformly shuffled partition with class sizes as equal as possible."""
    if r < 1 or n < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    labels = [i % r for i in range(n)]
    random.Random(seed).shuffle(labels)
    return VertexPartition(r, tuple(labels))
