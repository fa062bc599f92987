"""Sample-based testers for bigness and monotonicity.

Every tester takes (G, access, its own parameter if it has one, eps) and a
required keyword rng, and returns a Verdict, which derives its decision:
accept iff statistic <= threshold, inclusive. bigness_test has no poset and
reads n from its access. The testers target the usual 2/3 success contract
at desk scale. Learning is the empirical plug-in: raw frequencies, with a
sample budget (LearnerSpec; multiplier 20 * log n unless overridden) that
compensates for its weaker guarantee. The matching tester scores the learned
counts one vertex pair at a time, so it builds no pair histogram.

The matching tester draws from p/2 + u/2, and the bipartite tester from that
mixture of the lifted law. Over an access of exactly type ExactDistAccess
both laws are known, so a trial draws from the composed ExactDistAccess
(_mixed here, reductions._lifted): one multinomial per learn step and one
binomial per mass estimate. Any other access, an ExactDistAccess subclass
included, draws through the MixedWithUniform and LiftedAccess wrappers.
Trials come in runs over one input, so what they share is kept: p/2 + u/2
on the Distribution object, the bottom mask on the Poset object, the
reduction in bipartite_to_matching's cache and the lifted law in
reductions._lifted_law's. A single trial gains nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracles import _check_threshold, _midpoint_cost, dist_to_bigness, max_violation_matching
# pair_histogram and min_w_to_monotone_pairhist are no longer called here but
# stay bound: perfbench/spans.py wraps both names on this module.
from .oracles import min_w_to_monotone_pairhist  # noqa: F401
from .poset import Poset, _check_over
from .prob import Distribution, ExactDistAccess, Rng, SampleAccess, _drawn, pair_histogram  # noqa: F401
from .reductions import _lifted, bipartite_to_matching

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
    decision: str = field(init=False)  # derived, never passed: "accept" iff stat <= threshold
    stat: float
    threshold: float
    samples: int
    details: dict = field(default_factory=dict)
    __hash__ = None  # compared by content, with a dict among it: unhashable

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
        return _drawn(self.base, k, rng) + rng.gen.multinomial(s - k, np.full(self.n, 1.0 / self.n))

    def count_in(self, mask, s: int, rng: Rng) -> int:
        """The base's count_in of k draws plus Binomial(s - k, |mask| / n)."""
        mask = self._mask(mask, s)
        k = int(rng.gen.binomial(s, 0.5))
        from_base = _drawn(self.base, k, rng, mask)
        return from_base + int(rng.gen.binomial(s - k, np.count_nonzero(mask) / self.n))


def _mixed(access: SampleAccess) -> SampleAccess:
    """Access to p/2 + u/2. Over an access of exactly type ExactDistAccess
    that law is known, so it is returned as an ExactDistAccess of its own:
    one multinomial per histogram and one binomial per count_in, equal in law
    to MixedWithUniform's draws. Any other access, a subclass included, gets
    the MixedWithUniform wrapper."""
    if type(access) is ExactDistAccess:
        return ExactDistAccess(access.dist._half_uniform)
    return MixedWithUniform(access)


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
    q = _drawn(access, budget, rng) / budget
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
    mixed = _mixed(access)
    h = mixed.histogram(budget, rng)
    w_bottom = mixed.count_in(G._bottom_mask, m, rng) / m
    cb, ct = h[G.edge_array.T]
    x = w_bottom * (cb / max(int(cb.sum()), 1))
    y = (1.0 - w_bottom) * (ct / max(int(ct.sum()), 1))
    stat = _midpoint_cost(x, y)
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
    return matching_monotonicity_test(red.target, _lifted(access, red), eps / (2.0 * delta), learner=learner, rng=rng)


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
    h1 = _drawn(access, s1, rng)
    # every edge runs bottom -> top, so the heads of the edges whose tail was
    # sampled are the neighborhood T of the sampled bottom vertices
    u, v = G.edge_array.T
    in_t = np.zeros(n, dtype=bool)
    in_t[v[h1[u] > 0]] = True
    t_size = int(np.count_nonzero(in_t))
    cutoff = eps * s1 / 2.0
    if t_size <= cutoff:
        return _verdict(t_size, cutoff, s1, branch=1, stage1=s1)
    hits = float(_drawn(access, s2, rng, in_t))
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


def all_matchings_test(
    G: Poset,
    access: SampleAccess,
    eps: float,
    *,
    rng: Rng,
) -> Verdict:
    """Compare bottom vs top mass over every matchable (top set, bottom set)
    pair at once: the statistic, the largest learned p(B) - p(T), is the
    weight of max_violation_matching on the learned distribution (the empty
    pair gives 0); reject iff it exceeds eps/2. Each sample moves a pair's
    count difference by +1, -1 or 0, so by Hoeffding and a union bound over
    the M pairs a pool of ceil(32 (ln M + ln 6) / eps^2) samples keeps every
    pair within eps/4 with probability at least 2/3. log_pair_bound, the sum
    over bottoms of ln(1 + out-degree), bounds ln M (each bottom is unmatched
    or matched to one of its neighbours), exactly on a matching poset.
    """
    _check_inputs("all_matchings_test", G, ("bipartite", "matching"), access, eps)
    # edges run bottom -> top, so only bottoms have out-edges
    log_m = float(np.log1p(np.bincount(G.edge_array[:, 0])).sum())
    s = _sample_count("sample pool", MASS_EST_CONST * (log_m + math.log(6.0)), eps * eps)
    counts = _drawn(access, s, rng)
    matching = max_violation_matching(G, Distribution(counts / s))
    edges = [edge for edge, _ in matching.edges]
    worst = (tuple(sorted(v for _, v in edges)), tuple(sorted(u for u, _ in edges)))
    return _verdict(matching.weight, eps / 2.0, s, log_pair_bound=log_m, worst_pair=worst)
