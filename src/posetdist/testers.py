"""Sample-based testers for bigness and monotonicity.

Every tester takes (G, access, its own parameter if it has one, eps) and a
required keyword rng, and returns a Verdict, which derives its decision:
accept iff statistic <= threshold, inclusive. bigness_test has no poset and
reads n from its access. The testers target the usual 2/3 success contract
at desk scale. Learning is the empirical plug-in: raw frequencies, with a
sample budget (LearnerSpec; multiplier 20 * log n unless overridden) that
compensates for its weaker guarantee. The matching tester scores the learned
counts one vertex pair at a time, so it builds no pair histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracles import _check_threshold, _midpoint_cost, dist_to_bigness
# pair_histogram and min_w_to_monotone_pairhist are no longer called here but
# stay bound: perfbench/spans.py wraps both names on this module.
from .oracles import min_w_to_monotone_pairhist  # noqa: F401
from .poset import Poset, SizeCapError, _check_over
from .prob import Distribution, Rng, SampleAccess, pair_histogram  # noqa: F401
from .reductions import LiftedAccess, bipartite_to_matching

MASS_EST_CONST = 32.0  # ceil(32/eps^2) samples per additive-eps mass estimate
PAIR_CAP = 4096  # the most matchable subset pairs all_matchings_test enumerates
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
    decision: str = field(init=False)  # derived, never passed: "accept" iff stat <= threshold
    stat: float
    threshold: float
    samples: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "decision", "accept" if self.stat <= self.threshold else "reject")

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def _verdict(stat: float, threshold: float, samples: int, **details) -> Verdict:
    return Verdict(float(stat), float(threshold), int(samples), dict(details))


@dataclass(frozen=True)
class LearnerSpec:
    """How many samples the empirical plug-in learner gets."""

    budget_multiplier: float | None = None

    def __post_init__(self):
        if self.budget_multiplier is not None and not 0 < self.budget_multiplier < math.inf:
            raise ValueError("budget_multiplier must be positive and finite")

    def budget(self, n: int, eps: float) -> int:
        ln_n = math.log(max(n, 2))
        mult = self.budget_multiplier if self.budget_multiplier is not None else 20.0 * ln_n
        return _sample_count("learn budget", mult * n, eps * eps * ln_n)


def _check_eps(eps: float) -> None:
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")


def _check_inputs(name: str, G: Poset, kinds: tuple[str, ...], access: SampleAccess, eps: float) -> None:
    """A poset tester's entry checks: G of one of its kinds, eps in (0, 1] and
    sample access over G's vertices."""
    if G.kind not in kinds:
        raise ValueError(f"{name} needs a {kinds[0]} poset")
    _check_eps(eps)
    _check_over(G, "sample access", (access.n,))


class MixedWithUniform(SampleAccess):
    """Each sample comes from the base distribution or uniform on the domain
    with probability 1/2 each, i.e. access to p/2 + u/2. Both methods first
    split the s draws into k ~ Binomial(s, 1/2) base draws and s - k uniform
    ones."""

    def __init__(self, base: SampleAccess):
        self.base = base
        self.n = base.n

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        self._check_count(s)
        k = int(rng.gen.binomial(s, 0.5))
        return self.base.histogram(k, rng) + rng.gen.multinomial(s - k, np.full(self.n, 1.0 / self.n))

    def count_in(self, mask, s: int, rng: Rng) -> int:
        """The base's count_in of k draws plus Binomial(s - k, |mask| / n)."""
        mask = self._mask(mask, s)
        k = int(rng.gen.binomial(s, 0.5))
        from_base = self.base.count_in(mask, k, rng)
        return from_base + int(rng.gen.binomial(s - k, np.count_nonzero(mask) / self.n))


def bigness_test(
    access: SampleAccess,
    threshold: float,
    eps: float,
    *,
    learner: LearnerSpec = LearnerSpec(),
    rng: Rng,
) -> Verdict:
    """Learn the distribution, accept iff the learned distance to T-bigness is
    at most eps/3. The triangle inequality separates the two promise cases at
    eps/3 vs 2*eps/3 for any learner with l1 error below eps/3."""
    _check_eps(eps)
    n = access.n
    _check_threshold(threshold, n)
    eps1 = eps / 3.0
    budget = learner.budget(n, eps1)
    counts = access.histogram(budget, rng)
    total = counts.sum()
    if not total > 0:
        raise ValueError(f"sample access drew a total of {total} from a budget of {budget} samples")
    q = counts / total
    learned = Distribution(q / q.sum())
    stat = dist_to_bigness(learned, threshold)
    return _verdict(stat, eps1, budget, bigness_threshold=threshold)


def matching_monotonicity_test(
    G: Poset,
    access: SampleAccess,
    eps: float,
    *,
    learner: LearnerSpec = LearnerSpec(),
    rng: Rng,
) -> Verdict:
    """Monotonicity tester for matching posets.

    Mixes the unknown distribution half-and-half with uniform (which preserves
    monotonicity and shrinks the far distance by at most 4), learns the
    normalized per-side frequencies of each vertex pair, scales them by the
    estimated side masses to x_i (bottom) and y_i (top), and accepts iff
    sum_i (x_i - y_i)^+ is at most 3*(eps/14). That sum, taken in pair order,
    is the midpoint-fix cost min_w_to_monotone_pairhist reports for the
    learned pair histogram, with every pair its own key.
    The learn step draws one histogram; the bottom side's mass estimate is
    one count_in over the bottom vertices.
    """
    _check_inputs("matching_monotonicity_test", G, ("matching",), access, eps)
    n_pairs = len(G.edge_array)
    if n_pairs == 0 or 2 * n_pairs != G.n:
        raise ValueError("every vertex must be matched")
    eps1 = eps / 14.0
    budget = learner.budget(n_pairs, eps1)
    m = _sample_count("mass budget", MASS_EST_CONST, eps1 * eps1)
    mixed = MixedWithUniform(access)
    h = mixed.histogram(budget, rng)
    bottoms, tops = G.edge_array.T
    in_bottom = np.zeros(G.n, dtype=bool)
    in_bottom[bottoms] = True
    w_bottom = mixed.count_in(in_bottom, m, rng) / m
    cb, ct = h[bottoms], h[tops]
    x = w_bottom * (cb / max(int(cb.sum()), 1))
    y = (1.0 - w_bottom) * (ct / max(int(ct.sum()), 1))
    stat = _midpoint_cost(x, y, np.ones(x.size))
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
    *,
    learner: LearnerSpec = LearnerSpec(),
    rng: Rng,
) -> Verdict:
    """Reduce a degree-<=delta bipartite poset to a matching (delta vertex
    copies, zero-mass dummies), lift each sample to a uniform copy, and run
    the matching tester at eps/(2*delta)."""
    _check_eps(eps)
    red = bipartite_to_matching(G, delta)
    lifted = LiftedAccess(access, red)
    return matching_monotonicity_test(red.target, lifted, eps / (2.0 * delta), learner=learner, rng=rng)


def uniform_subset_test(
    G: Poset,
    access: SampleAccess,
    support_size: int,
    eps: float,
    *,
    rng: Rng,
) -> Verdict:
    """Monotonicity tester for distributions promised uniform on a known-size
    subset of a bipartite poset.

    Stage 1 collects sampled bottom vertices B and their neighborhood T;
    accepting outright when T is small. Stage 2 checks that T receives the
    probability mass it would carry if it were fully inside the support
    (the draws that land in T, one count_in). A promise violation is not
    detected.
    """
    _check_inputs("uniform_subset_test", G, ("bipartite", "matching"), access, eps)
    if not 1 <= support_size <= G.n:
        raise ValueError(f"support_size must lie in [1, n={G.n}], got {support_size}")
    n = G.n
    s1 = _sample_count("stage 1 size", 8.0 * n ** (2.0 / 3.0), eps)
    s2 = _sample_count("stage 2 size", 8.0 * n ** (2.0 / 3.0), 1.0)
    h1 = access.histogram(s1, rng)
    # every edge runs bottom -> top, so the heads of the edges whose tail was
    # sampled are the neighborhood T of the sampled bottom vertices
    u, v = G.edge_array.T
    in_t = np.zeros(n, dtype=bool)
    in_t[v[h1[u] > 0]] = True
    t_size = int(np.count_nonzero(in_t))
    cutoff = eps * s1 / 2.0
    if t_size <= cutoff:
        return _verdict(t_size, cutoff, s1, branch=1, stage1=s1)
    hits = float(access.count_in(in_t, s2, rng))
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
    tuples, empty pair included, from one pass over the edges: as edges run
    bottom -> top, edge (u, v) extends each pair found so far whose bottoms
    lack u and tops lack v. The work is at most the edge count times cap."""
    pairs = {((), ())}
    for u, v in G.edge_array.tolist():
        for tops, bottoms in list(pairs):
            if u not in bottoms and v not in tops:
                pairs.add((tuple(sorted(tops + (v,))), tuple(sorted(bottoms + (u,)))))
                if len(pairs) > cap:
                    raise SizeCapError(f"more than {cap} matchable subset pairs")
    return sorted(pairs)


def all_matchings_test(
    G: Poset,
    access: SampleAccess,
    eps: float,
    *,
    rng: Rng,
) -> Verdict:
    """Compare top vs bottom mass over every perfectly-matchable subset pair,
    found in one pass over the edges (work at most edge count times PAIR_CAP).

    One shared sample pool, split into groups for a median-of-means estimate
    per pair (failure probability O(1/M) each); reject as soon as some pair's
    bottom mass beats its top mass by more than eps/2.
    """
    _check_inputs("all_matchings_test", G, ("bipartite", "matching"), access, eps)
    pairs = _enumerate_matchable_pairs(G, PAIR_CAP)
    n_pairs = len(pairs)
    groups = 2 * max(1, math.ceil(math.log2(max(n_pairs, 2)))) + 9
    group_size = _sample_count("group size", MASS_EST_CONST, eps * eps)
    hist = np.array([access.histogram(group_size, rng) for _ in range(groups)]) / group_size
    stat = 0.0
    worst = ((), ())
    for tops, bottoms in pairs:
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
