"""Structural reductions between testing problems.

Each reduction maps a source poset/distribution to a target pair while
controlling the distance to monotonicity: monotone sources stay monotone and
an eps-far source lands at least eps/far_divisor from monotone. The two that
lift samples (general->bipartite, bipartite->matching) are uniform splits:
every source vertex has k copies in the target, each taking 1/k of its mass,
and LiftedAccess splits each source count evenly over its copies (the law of
lifting every sample to a uniform copy), so the map and the counts agree.
Over an ExactDistAccess, _lifted (the testers' route to a lift) returns the
ExactDistAccess of Reduction.apply's distribution instead, which draws the
same law in one multinomial; that distribution is built once per
(reduction, distribution) pair.
Reduction.apply, bigness_to_matching and matching_to_hypercube each return
a ReducedInstance, whose target poset and far_divisor the reduction states
once; matching->hypercube divides by hypercube_scale, its far_divisor. The
entry checks on a source length and a hypercube dimension are poset.py's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oracles import _check_threshold
from .poset import Poset, _check_dim, _check_domain, _check_over, make_hypercube, make_matching, transitive_closure
from .prob import Distribution, ExactDistAccess, Rng, SampleAccess


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """A reduced distribution over its target poset: a source eps-far from
    monotone lands at least eps / far_divisor from monotone."""

    target: Poset
    dist: Distribution
    far_divisor: float


@dataclass(frozen=True, eq=False)
class Reduction:
    """A uniform split of every source vertex over k target copies.

    copies is a read-only (source.n, k) int64 array: source vertex i sends
    p(i) * (1/k) to each target vertex in copies[i], and a lifted sample of i
    is one of them, drawn uniformly.
    """

    source: Poset
    target: Poset
    far_divisor: float
    copies: np.ndarray

    def __post_init__(self):
        try:
            c = np.array(self.copies)  # own copy: callers keep theirs writable
        except ValueError:  # ragged rows
            raise ValueError("copies must be a (source.n, k) integer array") from None
        if c.dtype.kind not in "iu":
            raise ValueError(f"copies must be integers, got dtype {c.dtype}")
        if c.ndim != 2 or c.shape[0] != self.source.n or c.shape[1] < 1:
            raise ValueError(f"copies must have shape ({self.source.n}, k) with k >= 1, got {c.shape}")
        if c.size and (c.min() < 0 or c.max() >= self.target.n):
            raise ValueError(f"copies must lie in 0..{self.target.n - 1}")
        c = c.astype(np.int64, copy=False)
        c.flags.writeable = False
        object.__setattr__(self, "copies", c)

    def apply(self, p: Distribution) -> ReducedInstance:
        _check_over(self.source, "distribution", (p.n,))
        k = self.copies.shape[1]
        share = np.repeat(p.probs * (1.0 / k), k)
        q = Distribution(np.bincount(self.copies.ravel(), weights=share, minlength=self.target.n))
        return ReducedInstance(self.target, q, self.far_divisor)


class LiftedAccess(SampleAccess):
    """Sample access to the reduction target, one lifted sample per source sample."""

    def __init__(self, base: SampleAccess, reduction: Reduction):
        _check_over(reduction.source, "base access", (base.n,))
        self.base = base
        self.reduction = reduction
        self.n = reduction.target.n

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        """Each source count splits evenly over its copies as a multinomial,
        all rows in one call, which draws exactly what one call per row draws;
        a zero count, or a split over one copy, draws nothing."""
        src_counts = self.base.histogram(s, rng)
        copies = self.reduction.copies
        k = copies.shape[1]
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, copies, rng.gen.multinomial(src_counts, np.full(k, 1.0 / k)))
        return out


def _lifted(access: SampleAccess, red: Reduction) -> SampleAccess:
    """Sample access to red's target, one lifted sample per source sample.
    Over an access of exactly type ExactDistAccess that law is red.apply's
    distribution, so it is returned as an ExactDistAccess of its own, equal
    in law to LiftedAccess's draws; any other access, a subclass included,
    gets the LiftedAccess wrapper. Both refuse a wrong-length access alike."""
    if type(access) is not ExactDistAccess:
        return LiftedAccess(access, red)
    _check_over(red.source, "base access", (access.n,))
    return ExactDistAccess(_lifted_law(red, access.dist))


@lru_cache(maxsize=8)
def _lifted_law(red: Reduction, p: Distribution) -> Distribution:
    """red.apply(p)'s distribution, built once per (reduction, distribution)
    pair: both are immutable and hash by identity, and tester trials come in
    runs over one input, so the law's p/2 + u/2 is kept with it."""
    return red.apply(p).dist


def general_to_bipartite(G: Poset) -> Reduction:
    """Split every vertex v into a bottom copy v (index v) and a top copy
    (index n+v); connect u-bottom to v-top whenever v is reachable from u.
    Mass halves onto the two copies; a lifted sample appends a fair sign."""
    n = G.n
    closure = transitive_closure(G).edge_array()
    target = Poset(2 * n, closure + [0, n], kind="bipartite", bottom=range(n))
    v = np.arange(n)
    return Reduction(G, target, far_divisor=4.0, copies=np.column_stack((v, n + v)))


@lru_cache(maxsize=8, typed=True)
def bipartite_to_matching(G: Poset, delta: int) -> Reduction:
    """Realize the edges of a degree-<=delta bipartite poset disjointly on
    delta copies of every vertex; leftover copies pair with zero-mass bottom
    dummies. Mass spreads evenly over the copies of each vertex.

    Copy c of vertex w is target vertex w*delta + c. In sorted edge order,
    the r-th edge at a vertex takes its copy r; the free copies, in (w, c)
    order, are the heads of the dummy edges. A target over MAX_DOMAIN
    vertices is refused before it is built. Kept for the 8 (G, delta) keys
    used last, G compared by content; a refusal raises on every call."""
    if G.kind != "bipartite":
        raise ValueError("bipartite_to_matching needs a bipartite poset")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if G.max_degree() > delta:
        raise ValueError(f"max degree {G.max_degree()} exceeds delta={delta}")
    n = G.n
    _check_domain(2 * n * delta - 2 * len(G.edge_array), "target vertices")  # n*delta copies, n*delta - 2m dummies
    u, v = G.edge_array.T  # sorted by tail, then head
    at = np.arange(len(u))
    cu = at - np.searchsorted(u, u)
    by_head = np.argsort(v, kind="stable")
    heads = v[by_head]
    cv = np.empty_like(cu)
    cv[by_head] = at - np.searchsorted(heads, heads)
    degree = np.bincount(G.edge_array.ravel(), minlength=n)
    free = np.flatnonzero(np.arange(delta) >= degree[:, None])
    dummies = n * delta + np.arange(free.size)
    edges = np.concatenate((np.column_stack((u * delta + cu, v * delta + cv)), np.column_stack((dummies, free))))
    target = Poset(n * delta + free.size, edges, kind="matching")
    return Reduction(G, target, far_divisor=2.0 * delta, copies=np.arange(n * delta).reshape(n, delta))


def bigness_to_matching(p: Distribution, threshold: float) -> ReducedInstance:
    """Distribution over make_matching(n) whose monotonicity encodes
    T-bigness of p: bottoms carry the threshold, tops carry p, everything
    scaled by 1 + nT; the far_divisor is 2(1 + nT)."""
    n = p.n
    _check_threshold(threshold, n)
    scale = 1.0 + n * threshold
    q = np.empty(2 * n)
    q[:n] = threshold / scale
    q[n:] = p.probs / scale
    return ReducedInstance(make_matching(n), Distribution(q), 2.0 * scale)


@dataclass(frozen=True)
class HypercubeEmbedding:
    """Matched sibling pairs on two adjacent hypercube levels plus the filler
    vertex set at or above the upper level."""

    dim: int
    level: int
    pairs: tuple[tuple[int, int], ...]
    filler: tuple[int, ...]


def hypercube_embedding(d: int, ell: int) -> HypercubeEmbedding:
    """Pair every vertex having ell-1 ones among coordinates 0..d-2 with its
    last-coordinate sibling. Distinct pairs are mutually incomparable because
    their first d-1 coordinates are distinct sets of equal size."""
    _check_dim(d)
    if not 1 <= ell <= d:
        raise ValueError("level must satisfy 1 <= ell <= d")
    last = 1 << (d - 1)
    pairs = tuple((prefix, prefix | last) for prefix in range(last) if prefix.bit_count() == ell - 1)
    matched_tops = {t for _, t in pairs}
    filler = tuple(v for v in range(1 << d) if v.bit_count() >= ell and v not in matched_tops)
    return HypercubeEmbedding(d, ell, pairs, filler)


def hypercube_scale(d: int, ell: int, p_max: float) -> float:
    """Total raw mass 1 + p_max * (#vertices at level >= ell - #matched pairs),
    with the counts taken as exact integers."""
    filler = sum(math.comb(d, i) for i in range(ell, d + 1)) - math.comb(d - 1, ell - 1)
    return 1.0 + p_max * filler


def matching_to_hypercube(d: int, ell: int, p: Distribution, p_max: float) -> ReducedInstance:
    """Embed a matching distribution into levels ell-1/ell of the d-cube.

    Pair k of the source matching (bottom k, top n_pairs+k) lands on the k-th
    embedded sibling pair in bottom-vertex order; every other vertex at level
    >= ell gets filler mass p_max; everything is divided by the total,
    hypercube_scale, which is also the far_divisor.
    """
    emb = hypercube_embedding(d, ell)
    n_pairs = len(emb.pairs)
    if p.n != 2 * n_pairs:
        raise ValueError(f"matching distribution must cover {2 * n_pairs} vertices for d={d}, ell={ell}")
    top = float(p.probs.max())
    if not top <= p_max + 1e-12 < math.inf:
        raise ValueError(f"p_max must be finite and at least the largest per-element mass {top!r}, got p_max={p_max}")
    scale = hypercube_scale(d, ell, p_max)
    q = np.zeros(1 << d)
    q[list(emb.filler)] = p_max
    lo, hi = np.array(emb.pairs).T
    q[lo] = p.probs[:n_pairs]
    q[hi] = p.probs[n_pairs:]
    return ReducedInstance(make_hypercube(d), Distribution(q / scale), scale)
