"""Sample-based testers for bigness and monotonicity.

Every tester takes sample access plus a seeded Rng, returns an accept/reject
Verdict whose diagnostics (statistic, threshold, sample counts) reproduce the
decision, and targets the usual 2/3 success contract at desk scale. Learning
steps are pluggable through LearnerSpec; the default empirical plug-in uses
raw frequencies with a sample-budget multiplier (20 * log n unless overridden)
to compensate for its weaker guarantee. All "accept iff statistic <=
threshold" comparisons are inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# pair_histogram and min_w_to_monotone_pairhist are no longer called here but
# stay bound: perfbench/spans.py wraps both names on this module.
from .oracles import SizeCapError, _midpoint_cost, dist_to_bigness, min_w_to_monotone_pairhist  # noqa: F401
from .poset import Poset
from .prob import Distribution, PairHistogram, Rng, SampleAccess, _snap, pair_histogram  # noqa: F401
from .reductions import LiftedAccess, bipartite_to_matching

MASS_EST_CONST = 32.0  # ceil(32/eps^2) samples per additive-eps mass estimate
# The most samples one draw may take: numpy's multinomial and binomial
# counts are int64.
MAX_SAMPLES = int(np.iinfo(np.int64).max)


def _sample_count(name: str, num: float, den: float) -> int:
    """ceil(num / den) as a sample count, or a ValueError naming it when it
    exceeds MAX_SAMPLES (den may underflow to 0 at a tiny eps)."""
    s = num / den if den > 0 else math.inf
    if not s <= MAX_SAMPLES:
        raise ValueError(f"{name} of {s:.6g} samples exceeds {MAX_SAMPLES}, the most one draw can take")
    return int(math.ceil(s))


@dataclass(frozen=True)
class Verdict:
    decision: str
    stat: float
    threshold: float
    samples: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        want = "accept" if self.stat <= self.threshold else "reject"
        if self.decision != want:
            raise ValueError("verdict decision does not match its diagnostics")

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def _verdict(stat: float, threshold: float, samples: int, **details) -> Verdict:
    decision = "accept" if stat <= threshold else "reject"
    return Verdict(decision, float(stat), float(threshold), int(samples), dict(details))


@dataclass(frozen=True)
class LearnerSpec:
    """Which learner backs the testers and how many samples it gets.

    kind "empirical_plugin" learns by raw frequencies. kind "external" must
    supply callables with the same output contracts: learn_distribution maps a
    count vector to a probability vector (a distribution up to permutation),
    learn_pair_histogram maps bottom/top count vectors plus a quantization
    step to a pair histogram of the normalized side-restricted vectors.
    """

    kind: str = "empirical_plugin"
    budget_multiplier: float | None = None
    learn_distribution: Callable[[np.ndarray], np.ndarray] | None = None
    learn_pair_histogram: Callable[[np.ndarray, np.ndarray, float], PairHistogram] | None = None

    def __post_init__(self):
        if self.kind not in ("empirical_plugin", "external"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.kind == "external" and not (self.learn_distribution or self.learn_pair_histogram):
            raise ValueError("external learner needs at least one learn callable")
        if self.budget_multiplier is not None and not 0 < self.budget_multiplier < math.inf:
            raise ValueError("budget_multiplier must be positive and finite")

    def budget(self, n: int, eps: float) -> int:
        ln_n = math.log(max(n, 2))
        mult = self.budget_multiplier if self.budget_multiplier is not None else 20.0 * ln_n
        return _sample_count("learn budget", mult * n, eps * eps * ln_n)

    def distribution(self, counts: np.ndarray) -> np.ndarray:
        if self.kind == "external" and self.learn_distribution is not None:
            return np.asarray(self.learn_distribution(counts), dtype=float)
        total = counts.sum()
        if total == 0:
            return np.full(counts.size, 1.0 / counts.size)
        return counts / total

    def pair_hist(self, counts_bottom: np.ndarray, counts_top: np.ndarray, step: float) -> PairHistogram:
        """Pair histogram of the normalized count vectors, keys snapped to
        multiples of step.

        The empirical plug-in gives exactly pair_histogram(counts_bottom / nb,
        counts_top / nt, quantize=step), nb and nt being the side totals (at
        least 1), without keying every element on two floats: equal (bottom,
        top) count pairs are grouped by one integer sort, and each distinct
        pair is normalized and snapped once, by the same float expression.
        Its counts must be nonnegative integers below 2^64 (float arrays of
        integer values are fine).
        """
        if self.kind == "external" and self.learn_pair_histogram is not None:
            return self.learn_pair_histogram(counts_bottom, counts_top, step)
        b, t, mult = _count_pairs(counts_bottom, counts_top)
        nb = max(int(counts_bottom.sum()), 1)
        nt = max(int(counts_top.sum()), 1)
        return PairHistogram.from_arrays(_snap(b / nb, step), _snap(t / nt, step), mult)


def _as_counts(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not np.all(~np.signbit(c) & (c < 2.0**64) & (np.floor(c) == c)):
        raise ValueError("learned counts must be a vector of nonnegative integers below 2^64")
    return c.astype(np.uint64)


def _count_pairs(counts_bottom, counts_top):
    """The distinct pairs (counts_bottom[i], counts_top[i]) in increasing
    (bottom, top) order, as two float vectors, and how often each occurs."""
    b, t = _as_counts(counts_bottom), _as_counts(counts_top)
    if b.size != t.size:
        raise ValueError("learned counts need two equal-length vectors")
    vb = vt = None
    span = int(t.max(initial=0)) + 1
    if (int(b.max(initial=0)) + 1) * span >= 2**64:
        # the key b * span + t would wrap: key on the ranks of the counts
        (vb, b), (vt, t) = np.unique(b, return_inverse=True), np.unique(t, return_inverse=True)
        b, t, span = b.astype(np.uint64), t.astype(np.uint64), vt.size
    key, mult = np.unique(b * np.uint64(span) + t, return_counts=True)
    b, t = np.divmod(key, np.uint64(span))
    if vb is not None:
        b, t = vb[b], vt[t]
    return b.astype(float), t.astype(float), mult.astype(float)


class MixedWithUniform(SampleAccess):
    """Each sample comes from the base distribution or uniform on the domain
    with probability 1/2 each, i.e. access to p/2 + u/2."""

    def __init__(self, base: SampleAccess):
        self.base = base
        self.n = base.n

    def draw(self, s: int, rng: Rng) -> np.ndarray:
        coins = rng.gen.random(s) < 0.5
        k = int(coins.sum())
        out = np.empty(s, dtype=np.int64)
        out[coins] = self.base.draw(k, rng)
        out[~coins] = rng.gen.integers(0, self.n, size=s - k)
        return out

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        k = int(rng.gen.binomial(s, 0.5))
        h = self.base.histogram(k, rng).astype(np.int64)
        h += rng.gen.multinomial(s - k, np.full(self.n, 1.0 / self.n))
        return h


def bigness_test(
    access: SampleAccess,
    n: int,
    threshold: float,
    eps: float,
    learner: LearnerSpec | None = None,
    rng: Rng | None = None,
) -> Verdict:
    """Learn the distribution, accept iff the learned distance to T-bigness is
    at most eps/3. The triangle inequality separates the two promise cases at
    eps/3 vs 2*eps/3 for any learner with l1 error below eps/3."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if threshold <= 0 or threshold > 1.0 / n + 1e-15:
        raise ValueError("threshold must lie in (0, 1/n]")
    if access.n != n:
        raise ValueError("sample access does not match n")
    learner = learner or LearnerSpec()
    rng = rng or Rng(0)
    eps1 = eps / 3.0
    budget = learner.budget(n, eps1)
    counts = access.histogram(budget, rng)
    q = np.maximum(np.asarray(learner.distribution(counts), dtype=float), 0.0)
    total = q.sum()
    learned = Distribution(q / total) if total > 0 else Distribution.uniform(n)
    stat = dist_to_bigness(learned, threshold)
    return _verdict(stat, eps1, budget, bigness_threshold=threshold)


def matching_monotonicity_test(
    G: Poset,
    access: SampleAccess,
    eps: float,
    learner: LearnerSpec | None = None,
    rng: Rng | None = None,
) -> Verdict:
    """Monotonicity tester for matching posets.

    Mixes the unknown distribution half-and-half with uniform (which preserves
    monotonicity and shrinks the far distance by at most 4), learns the pair
    histogram of the normalized per-side frequency vectors, rescales its keys
    by the estimated side masses, and accepts iff the rescaled histogram is
    within 3*(eps/14) of some monotone distribution's pair histogram in W.
    """
    if G.kind != "matching":
        raise ValueError("matching_monotonicity_test needs a matching poset")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    n_pairs = len(G.edge_array)
    if n_pairs == 0 or 2 * n_pairs != G.n:
        raise ValueError("every vertex must be matched")
    if access.n != G.n:
        raise ValueError("sample access does not match the poset")
    learner = learner or LearnerSpec()
    rng = rng or Rng(0)
    eps1 = eps / 14.0
    budget = learner.budget(n_pairs, eps1)
    m = _sample_count("mass budget", MASS_EST_CONST, eps1 * eps1)
    mixed = MixedWithUniform(access)
    h = mixed.histogram(budget, rng)
    bottoms, tops = G.edge_array.T
    step = 1.0 / (4.0 * budget)
    learned = learner.pair_hist(h[bottoms].astype(float), h[tops].astype(float), step)
    hw = mixed.histogram(m, rng)
    w_bottom = float(hw[bottoms].sum()) / m
    w_top = 1.0 - w_bottom
    stat = _midpoint_cost(learned.scaled(w_bottom, w_top))
    return _verdict(
        stat,
        3.0 * eps1,
        budget + m,
        bottom_mass=w_bottom,
        learn_budget=budget,
        mass_budget=m,
    )


def bipartite_bounded_degree_test(
    G: Poset,
    access: SampleAccess,
    delta: int,
    eps: float,
    learner: LearnerSpec | None = None,
    rng: Rng | None = None,
) -> Verdict:
    """Reduce a degree-<=delta bipartite poset to a matching (delta vertex
    copies, zero-mass dummies), lift each sample to a uniform copy, and run
    the matching tester at eps/(2*delta)."""
    red = bipartite_to_matching(G, delta)
    lifted = LiftedAccess(access, red)
    return matching_monotonicity_test(red.target, lifted, eps / (2.0 * delta), learner, rng)


def uniform_subset_test(
    G: Poset,
    support_size: int,
    eps: float,
    access: SampleAccess,
    rng: Rng | None = None,
) -> Verdict:
    """Monotonicity tester for distributions promised uniform on a known-size
    subset of a bipartite poset.

    Stage 1 collects sampled bottom vertices B and their neighborhood T;
    accepting outright when T is small. Stage 2 checks that T receives the
    probability mass it would carry if it were fully inside the support. A
    promise violation is not detected.
    """
    if G.kind not in ("bipartite", "matching"):
        raise ValueError("uniform_subset_test needs a bipartite poset")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if support_size < 1:
        raise ValueError("support size must be positive")
    if access.n != G.n:
        raise ValueError("sample access does not match the poset")
    rng = rng or Rng(0)
    n = G.n
    s1 = _sample_count("stage 1 size", 8.0 * n ** (2.0 / 3.0), eps)
    s2 = _sample_count("stage 2 size", 8.0 * n ** (2.0 / 3.0), 1.0)
    h1 = access.histogram(s1, rng)
    bottom = set(G.bottom)
    sampled_bottom = [v for v in np.nonzero(h1)[0].tolist() if v in bottom]
    neighbors: set[int] = set()
    adj = G.adjacency()
    for b in sampled_bottom:
        neighbors.update(adj[b])
    t_size = len(neighbors)
    cutoff = eps * s1 / 2.0
    if t_size <= cutoff:
        return _verdict(t_size, cutoff, s1, branch=1, stage1=s1)
    h2 = access.histogram(s2, rng)
    idx = np.fromiter(neighbors, dtype=int)
    hits = float(h2[idx].sum())
    eps_prime = eps * s1 / (2.0 * t_size)
    required = s2 * (1.0 - eps_prime / 2.0) * t_size / support_size
    # accept iff hits >= required, phrased as shortfall <= 0
    return _verdict(
        required - hits,
        0.0,
        s1 + s2,
        branch=2,
        t_size=t_size,
        hits=hits,
        required=required,
        stage1=s1,
        stage2=s2,
    )


def _enumerate_matchable_pairs(G: Poset, cap: int):
    """All (top set, bottom set) endpoint pairs of matchings in G, as sorted
    tuples, empty pair included. Enumerates matchings edge-by-edge, so the
    count of distinct pairs (not the vertex count) is the binding limit."""
    edges = G.edge_array.tolist()
    pairs = {((), ())}
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def walk(start: int):
        for k in range(start, len(edges)):
            u, v = edges[k]
            if u in used or v in used:
                continue
            used.update((u, v))
            chosen.append((u, v))
            key = (
                tuple(sorted(t for _, t in chosen)),
                tuple(sorted(b for b, _ in chosen)),
            )
            pairs.add(key)
            if len(pairs) > cap:
                raise SizeCapError(f"more than {cap} matchable subset pairs")
            walk(k + 1)
            used.difference_update((u, v))
            chosen.pop()

    walk(0)
    return sorted(pairs)


def all_matchings_test(
    G: Poset,
    eps: float,
    access: SampleAccess,
    rng: Rng | None = None,
    pair_cap: int = 4096,
) -> Verdict:
    """Compare top vs bottom mass over every perfectly-matchable subset pair.

    One shared sample pool, split into groups for a median-of-means estimate
    per pair (failure probability O(1/M) each); reject as soon as some pair's
    bottom mass beats its top mass by more than eps/2.
    """
    if G.kind not in ("bipartite", "matching"):
        raise ValueError("all_matchings_test needs a bipartite poset")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if access.n != G.n:
        raise ValueError("sample access does not match the poset")
    rng = rng or Rng(0)
    pairs = _enumerate_matchable_pairs(G, pair_cap)
    n_pairs = len(pairs)
    groups = 2 * max(1, math.ceil(math.log2(max(n_pairs, 2)))) + 9
    group_size = _sample_count("group size", MASS_EST_CONST, eps * eps)
    hist = np.zeros((groups, G.n))
    for k in range(groups):
        hist[k] = access.histogram(group_size, rng)
    hist /= group_size
    stat = 0.0
    worst = ((), ())
    for tops, bottoms in pairs:
        if not tops:
            continue
        w_top = hist[:, list(tops)].sum(axis=1)
        w_bottom = hist[:, list(bottoms)].sum(axis=1)
        gap = float(np.median(w_bottom - w_top))
        if gap > stat:
            stat = gap
            worst = (tops, bottoms)
    return _verdict(
        stat,
        eps / 2.0,
        groups * group_size,
        pair_count=n_pairs,
        groups=groups,
        group_size=group_size,
        worst_pair=worst,
    )
