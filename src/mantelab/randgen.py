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
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, VertexPartition, _from_rows

__all__ = [
    "TrialSeed",
    "derive_seed",
    "colex_rank",
    "colex_unrank",
    "sample_gknp",
    "sample_gknp_bernoulli",
    "random_partition",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class TrialSeed:
    """A per-trial seed derived deterministically from (master, index)."""

    master: int
    index: int
    derived: int


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> TrialSeed:
    """Deterministic, collision-free derivation of a per-trial 64-bit seed."""
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")
    m = master & _MASK64
    derived = _mix64((m + ((index + 1) & _MASK64) * _GOLDEN) & _MASK64)
    return TrialSeed(m, index, derived)


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
        # largest s with C(s, i) <= r
        s = i - 1
        while math.comb(s + 1, i) <= r:
            s += 1
        out.append(s)
        r -= math.comb(s, i)
    out.reverse()
    return tuple(out)


def _unrank_batch(ranks: np.ndarray, k: int, n: int) -> np.ndarray:
    """Vectorized colex unranking; returns an (m, k) array with ascending rows."""
    cols = np.empty((len(ranks), k), dtype=np.int64)
    r = ranks.astype(np.int64, copy=True)
    for i in range(k, 0, -1):
        tab = np.array([math.comb(x, i) for x in range(n + 1)], dtype=np.int64)
        s = np.searchsorted(tab, r, side="right") - 1
        cols[:, i - 1] = s
        r -= tab[s]
    return cols


def _host(n: int, k: int, ranks: np.ndarray) -> Hypergraph:
    """The hypergraph whose edges have the given colex ranks, rows in lex order."""
    rows = _unrank_batch(ranks, k, n)
    # Lex order of the rows is descending colex order of their mirror images
    # {n-1-v}, whose ranks fit in int64 whenever C(n, k) does: one argsort.
    mirror = np.zeros(len(rows), dtype=np.int64)
    for i in range(k):
        tab = np.array([math.comb(x, k - i) for x in range(n)], dtype=np.int64)
        mirror += tab[n - 1 - rows[:, i]]
    return _from_rows(n, k, rows[np.argsort(mirror)[::-1]])


# ---------------------------------------------------------------------------
# samplers


def _check_args(n: int, k: int, p: float) -> None:
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")


def sample_gknp(n: int, k: int, p: float, seed: TrialSeed) -> Hypergraph:
    """Include each k-subset independently with probability p (skip sampler).

    Subsets are visited in colexicographic order with geometric jumps, so the
    number of uniforms consumed equals the number of edges produced.  The
    degenerate ends p=0 and p=1 consume no randomness.  Identical
    (n, k, p, seed) always produce the identical edge set.
    """
    _check_args(n, k, p)
    m = math.comb(n, k)
    if p == 0.0 or p == 1.0:
        return _host(n, k, np.arange(m if p == 1.0 else 0, dtype=np.int64))
    rng = np.random.Generator(np.random.PCG64(seed.derived))
    log1mp = math.log1p(-p)
    batch = max(1024, int(p * m * 1.05) + 16)
    taken: list[np.ndarray] = []
    pos = -1
    while pos < m:
        u = rng.random(batch)
        g = np.floor(np.log1p(-u) / log1mp)
        g = np.minimum(g, float(m + 1)).astype(np.int64)
        pos_arr = pos + np.cumsum(g + 1)
        inside = pos_arr[pos_arr < m]
        taken.append(inside)
        if len(inside) < len(pos_arr):
            break
        pos = int(pos_arr[-1])
    return _host(n, k, np.concatenate(taken))


def sample_gknp_bernoulli(n: int, k: int, p: float, seed: TrialSeed) -> Hypergraph:
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
    rng = np.random.Generator(np.random.PCG64(seed.derived))
    return _host(n, k, np.nonzero(rng.random(m) < p)[0])


def random_partition(n: int, r: int, seed: TrialSeed | int) -> VertexPartition:
    """A uniformly shuffled partition with class sizes as equal as possible."""
    if r < 1 or n < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    derived = seed.derived if isinstance(seed, TrialSeed) else int(seed)
    labels = [i % r for i in range(n)]
    random.Random(derived).shuffle(labels)
    return VertexPartition(r, tuple(labels))
