"""Structural reductions between testing problems.

Each reduction maps a source poset/distribution to a target pair while
controlling the distance to monotonicity: monotone sources stay monotone and
an eps-far source lands at least eps/far_divisor from monotone. Reductions
that operate sample-by-sample (general->bipartite, bipartite->matching) expose
a per-sample lifter next to the distribution map; the two views are defined
from the same conditional table, so they agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poset import HYPERCUBE_MAX_DIM, CapacityError, Poset, make_matching, transitive_closure
from .prob import Distribution, Rng, SampleAccess, cdf_count, choice_cdf, choice_indices


@dataclass(frozen=True)
class Reduction:
    """Poset/distribution transformer plus per-sample lifting.

    lift_table[i] is the conditional distribution of a lifted sample given a
    source sample i, as (target index, probability) pairs.
    """

    source: Poset
    target: Poset
    far_divisor: float
    monotone_preserved: bool
    lift_table: tuple[tuple[tuple[int, float], ...], ...]

    def map_distribution(self, p: Distribution) -> Distribution:
        if p.n != self.source.n:
            raise ValueError("distribution length does not match source poset")
        q = np.zeros(self.target.n)
        for i, branches in enumerate(self.lift_table):
            for j, pr in branches:
                q[j] += p.probs[i] * pr
        return Distribution(q)

    def lift_conditional(self, i: int):
        return self.lift_table[i]

    def lift(self, i: int, rng: Rng) -> int:
        branches = self.lift_table[i]
        if len(branches) == 1:
            return branches[0][0]
        cdf = choice_cdf([pr for _, pr in branches])
        return branches[int(choice_indices(cdf, None, rng))][0]


class LiftedAccess(SampleAccess):
    """Sample access to the reduction target, one lifted sample per source sample."""

    def __init__(self, base: SampleAccess, reduction: Reduction):
        if base.n != reduction.source.n:
            raise ValueError("base access does not match the reduction source")
        self.base = base
        self.reduction = reduction
        self.n = reduction.target.n

    def draw(self, s: int, rng: Rng) -> np.ndarray:
        """The s source samples, each lifted as Reduction.lift would lift it
        in turn: one uniform per sample whose row has more than one branch,
        drawn in sample order after the source samples."""
        src = self.base.draw(s, rng)
        kinds, group, targets = self._lift_arrays
        rows = group[src]
        drawn = np.array([len(probs) > 1 for probs in kinds], dtype=bool)[rows]
        u = np.zeros(src.size)
        u[drawn] = rng.gen.random(np.count_nonzero(drawn))
        branch = np.zeros(src.size, dtype=np.intp)
        for kind, probs in enumerate(kinds):
            at = np.flatnonzero(rows == kind)
            branch[at] = cdf_count(choice_cdf(probs), u[at])
        return targets[src, branch].astype(np.int64)

    @cached_property
    def _lift_arrays(self) -> tuple[list[tuple[float, ...]], np.ndarray, np.ndarray]:
        """The lift table as arrays: its distinct branch-probability tuples,
        each source row's index into them, and each row's targets (padded)."""
        table = self.reduction.lift_table
        kinds: dict[tuple[float, ...], int] = {}
        group = np.array([kinds.setdefault(tuple(pr for _, pr in b), len(kinds)) for b in table], dtype=np.intp)
        width = max(map(len, table), default=1)
        targets = np.array([[j for j, _ in b] + [0] * (width - len(b)) for b in table], dtype=np.intp)
        return list(kinds), group, targets.reshape(len(table), width)

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        """Each source count splits over its row's branches as a multinomial.
        A run of consecutive nonzero rows with the same branch probabilities
        is split by one multinomial call, which draws exactly what one call
        per row draws; a multinomial over one branch draws nothing."""
        src_counts = self.base.histogram(s, rng)
        kinds, group, targets = self._lift_arrays
        rows = np.flatnonzero(src_counts)
        out = np.zeros(self.n, dtype=np.int64)
        for run in np.split(rows, np.flatnonzero(np.diff(group[rows])) + 1):
            if run.size == 0:
                continue
            probs = kinds[group[run[0]]]
            split = rng.gen.multinomial(src_counts[run], probs)
            np.add.at(out, targets[run, : len(probs)], split)
        return out


def general_to_bipartite(G: Poset) -> Reduction:
    """Split every vertex v into a bottom copy v (index v) and a top copy
    (index n+v); connect u-bottom to v-top whenever v is reachable from u.
    Mass halves onto the two copies; a lifted sample appends a fair sign."""
    n = G.n
    tc = transitive_closure(G)
    edges = [(u, n + v) for u in range(n) for v in tc.successors(u)]
    target = Poset(2 * n, edges, kind="bipartite", bottom=range(n))
    table = tuple(((i, 0.5), (n + i, 0.5)) for i in range(n))
    return Reduction(G, target, far_divisor=4.0, monotone_preserved=True, lift_table=table)


def bipartite_to_matching(G: Poset, delta: int) -> Reduction:
    """Realize the edges of a degree-<=delta bipartite poset disjointly on
    delta copies of every vertex; leftover copies pair with zero-mass bottom
    dummies. Mass spreads evenly over the copies of each vertex."""
    if G.kind != "bipartite":
        raise ValueError("bipartite_to_matching needs a bipartite poset")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if G.max_degree() > delta:
        raise ValueError(f"max degree {G.max_degree()} exceeds delta={delta}")
    n = G.n

    def copy_id(w: int, c: int) -> int:
        return w * delta + c

    next_free = [0] * n
    copy_edges = []
    for u, v in G.edges:  # input order: Poset stores edges sorted
        cu = next_free[u]
        next_free[u] += 1
        cv = next_free[v]
        next_free[v] += 1
        copy_edges.append((copy_id(u, cu), copy_id(v, cv)))

    dummy_base = n * delta
    dummies = 0
    dummy_edges = []
    for w in range(n):
        for c in range(next_free[w], delta):
            dummy_edges.append((dummy_base + dummies, copy_id(w, c)))
            dummies += 1

    target = Poset(dummy_base + dummies, copy_edges + dummy_edges, kind="matching")
    share = 1.0 / delta
    table = tuple(
        tuple((copy_id(w, c), share) for c in range(delta)) for w in range(n)
    )
    return Reduction(G, target, far_divisor=2.0 * delta, monotone_preserved=True, lift_table=table)


def bigness_to_matching(p: Distribution, threshold: float):
    """Distribution over a matching whose monotonicity encodes T-bigness of p:
    bottoms carry the threshold, tops carry p, everything scaled by 1 + nT.

    Returns (distribution, metadata) with metadata recording the matching
    poset, the scale, and the threshold.
    """
    n = p.n
    if threshold <= 0 or threshold > 1.0 / n + 1e-15:
        raise ValueError("threshold must lie in (0, 1/n]")
    scale = 1.0 + n * threshold
    target = make_matching(n)
    q = np.empty(2 * n)
    q[:n] = threshold / scale
    q[n:] = p.probs / scale
    meta = {"poset": target, "scale": scale, "threshold": threshold, "far_divisor": 2.0 * scale}
    return Distribution(q), meta


@dataclass(frozen=True)
class HypercubeEmbedding:
    """Matched sibling pairs on two adjacent hypercube levels plus the filler
    vertex set at or above the upper level."""

    dim: int
    level: int
    pairs: tuple[tuple[int, int], ...]
    filler: tuple[int, ...]

    @property
    def filler_count(self) -> int:
        return len(self.filler)


def hypercube_embedding(d: int, ell: int) -> HypercubeEmbedding:
    """Pair every vertex having ell-1 ones among coordinates 0..d-2 with its
    last-coordinate sibling. Distinct pairs are mutually incomparable because
    their first d-1 coordinates are distinct sets of equal size."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 1 <= ell <= d:
        raise ValueError("level must satisfy 1 <= ell <= d")
    if d > HYPERCUBE_MAX_DIM:
        raise CapacityError(f"hypercube dimension {d} exceeds capacity cap {HYPERCUBE_MAX_DIM}")
    last = 1 << (d - 1)
    pairs = []
    for prefix in range(last):
        if prefix.bit_count() == ell - 1:
            pairs.append((prefix, prefix | last))
    pairs.sort()
    matched_tops = {t for _, t in pairs}
    filler = tuple(
        v for v in range(1 << d) if v.bit_count() >= ell and v not in matched_tops
    )
    return HypercubeEmbedding(d, ell, tuple(pairs), filler)


def hypercube_scale(d: int, ell: int, p_max: float) -> float:
    """Total raw mass 1 + p_max * (#vertices at level >= ell - #matched pairs),
    with the counts taken as exact integers."""
    filler = sum(math.comb(d, i) for i in range(ell, d + 1)) - math.comb(d - 1, ell - 1)
    return 1.0 + p_max * filler


def matching_to_hypercube(d: int, ell: int, p: Distribution, p_max: float) -> Distribution:
    """Embed a matching distribution into levels ell-1/ell of the d-cube.

    Pair k of the source matching (bottom k, top n_pairs+k) lands on the k-th
    embedded sibling pair in bottom-vertex order; every other vertex at level
    >= ell gets filler mass p_max; everything is divided by the total.
    """
    emb = hypercube_embedding(d, ell)
    n_pairs = len(emb.pairs)
    if p.n != 2 * n_pairs:
        raise ValueError(
            f"matching distribution must cover {2 * n_pairs} vertices for d={d}, ell={ell}"
        )
    if float(p.probs.max()) > p_max + 1e-12:
        raise ValueError("per-element mass exceeds p_max")
    scale = hypercube_scale(d, ell, p_max)
    q = np.zeros(1 << d)
    for k, (lo, hi) in enumerate(emb.pairs):
        q[lo] = p.probs[k]
        q[hi] = p.probs[n_pairs + k]
    for v in emb.filler:
        q[v] = p_max
    return Distribution(q / scale)
