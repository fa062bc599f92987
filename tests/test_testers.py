import re

import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    LearnerSpec,
    PairHistogram,
    Poset,
    Rng,
    SampleAccess,
    SizeCapError,
    Verdict,
    all_matchings_test,
    bipartite_to_matching,
    bigness_test,
    bipartite_bounded_degree_test,
    dist_to_bigness,
    general_to_bipartite,
    is_monotone,
    make_bipartite,
    make_line,
    make_matching,
    matching_monotonicity_test,
    uniform_subset_test,
)
from posetdist.oracles import _midpoint_cost
from posetdist.reductions import LiftedAccess, _lifted
from posetdist.testers import MixedWithUniform, _mixed

from genutil import (
    far_matching_dist,
    monotone_matching_dist,
    random_bipartite,
    random_dag,
    reference_matchable_pairs,
    two_sample_chi2_pvalue,
)


def rates(fn, trials=30, seed=101):
    return sum(fn(Rng(seed).derive(t)).accepted for t in range(trials)) / trials


def test_verdict_consistency():
    """The decision is derived from stat and threshold, inclusively."""
    assert Verdict(0.1, 0.2, 10).decision == "accept"
    tie = Verdict(0.2, 0.2, 10)
    assert tie.decision == "accept" and tie.accepted
    over = Verdict(0.2000000000000001, 0.2, 10, {"branch": 1})
    assert over.decision == "reject" and not over.accepted
    with pytest.raises(TypeError):
        Verdict("reject", 0.1, 0.2, 10)  # decision is not a parameter


def test_verdict_compares_by_content_and_is_unhashable():
    v = Verdict(0.1, 0.2, 5, {"a": 1})
    assert v == Verdict(0.1, 0.2, 5, {"a": 1}) and v != Verdict(0.1, 0.2, 5, {"a": 2})
    with pytest.raises(TypeError, match="unhashable type: 'Verdict'"):
        hash(v)


def test_learner_spec():
    spec = LearnerSpec()
    assert spec.budget(100, 0.1) == int(np.ceil(20 * 100 / 0.01))
    spec2 = LearnerSpec(budget_multiplier=2.0)
    assert spec2.budget(100, 0.1) < spec.budget(100, 0.1)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget_multiplier must be positive and finite"):
            LearnerSpec(budget_multiplier=bad)
    # the budget is multiplier * 100 / (0.01 * ln 100), about 2171 * multiplier
    with pytest.raises(ValueError, match="learn budget of 9.33.*e\\+18 samples exceeds 9223372036854775807"):
        LearnerSpec(budget_multiplier=4.3e15).budget(100, 0.1)
    assert 9e18 < LearnerSpec(budget_multiplier=4.2e15).budget(100, 0.1) <= 2**63 - 1


def test_bigness_completeness_and_soundness():
    n = 100
    uni = ExactDistAccess(Distribution.uniform(n))
    assert rates(lambda r: bigness_test(uni, 1.0 / n, 0.2, rng=r)) >= 0.9
    k = 20  # k/n = eps zero-mass elements
    v = np.zeros(n)
    v[k:] = 1.0 / (n - k)
    far = ExactDistAccess(Distribution(v))
    assert dist_to_bigness(Distribution(v), 1.0 / n) >= 0.2
    assert rates(lambda r: bigness_test(far, 1.0 / n, 0.2, rng=r)) <= 0.1


class _FixedCounts(SampleAccess):
    """Returns the same counts whatever the number of draws."""

    def __init__(self, counts):
        self.counts, self.n = np.asarray(counts, dtype=np.int64), len(counts)

    def histogram(self, s, rng):
        return self.counts.copy()


def test_bigness_boundary_inclusive():
    # counts whose learned distribution lies at distance exactly eps/3
    v = bigness_test(_FixedCounts([0, 1, 1, 1, 1]), 0.1875, 0.5625, rng=Rng(0))
    assert v.stat == v.threshold == 0.1875  # 3/16 exactly representable
    assert v.accepted


def test_bigness_stat_is_label_free():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 50, size=12)
    base = bigness_test(_FixedCounts(counts), 0.05, 0.9, rng=Rng(0)).stat
    for _ in range(10):
        permuted = bigness_test(_FixedCounts(counts[rng.permutation(12)]), 0.05, 0.9, rng=Rng(0)).stat
        assert permuted == pytest.approx(base, abs=1e-15)


def test_bigness_validation():
    acc = ExactDistAccess(Distribution.uniform(4))
    with pytest.raises(ValueError):
        bigness_test(acc, 0.5, 0.2, rng=Rng(0))  # T > 1/n
    with pytest.raises(ValueError):
        bigness_test(acc, 0.25, 1.5, rng=Rng(0))


def test_mixing_preserves_monotone():
    p = monotone_matching_dist(np.random.default_rng(2), 20)
    mixed = 0.5 * p.probs + 0.5 / 40.0
    assert is_monotone(make_matching(20), mixed)


def test_mixed_access_histogram_law():
    base = ExactDistAccess(Distribution.point_mass(4, 3))
    mixed = MixedWithUniform(base)
    h = mixed.histogram(80_000, Rng(5))
    np.testing.assert_allclose(h / 80_000, [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=0.01)


class _CallLog(SampleAccess):
    """Passes every call on to base and logs (method, s)."""

    def __init__(self, base):
        self.base, self.n, self.calls = base, base.n, []

    def histogram(self, s, rng):
        self.calls.append(("histogram", s))
        return self.base.histogram(s, rng)

    def count_in(self, mask, s, rng):
        self.calls.append(("count_in", s))
        return self.base.count_in(mask, s, rng)


def test_testers_draw_one_histogram_and_one_side_count(monkeypatch):
    """The matching tester learns from one histogram and estimates the bottom
    mass by one count_in (each of about half its budget, as the rest comes
    from uniform), and scores its learned keys without building a
    PairHistogram; the uniform-subset tester's stage 2 is one count_in."""

    def no_pair_histogram(*args, **kwargs):
        raise AssertionError("a tester built a PairHistogram")

    monkeypatch.setattr(PairHistogram, "from_arrays", no_pair_histogram)
    monkeypatch.setattr(PairHistogram, "__init__", no_pair_histogram)
    G = make_matching(10)
    log = _CallLog(ExactDistAccess(monotone_matching_dist(np.random.default_rng(6), 10)))
    v = matching_monotonicity_test(G, log, 0.3, rng=Rng(3))
    assert [name for name, _ in log.calls] == ["histogram", "count_in"]
    assert log.calls[0][1] <= v.details["learn_budget"] and log.calls[1][1] <= v.details["mass_budget"]
    M = make_bipartite(4, [(0, 2), (1, 3), (0, 3)], bottom=[0, 1])
    v = bipartite_bounded_degree_test(M, ExactDistAccess(Distribution.uniform(4)), 2, 0.3, rng=Rng(3))
    assert v.decision in ("accept", "reject")
    G = _star_family(100, 3)
    log = _CallLog(ExactDistAccess(Distribution.uniform(G.n)))
    v = uniform_subset_test(G, log, G.n, 0.5, rng=Rng(3))
    assert v.details["branch"] == 2
    assert log.calls == [("histogram", v.details["stage1"]), ("count_in", v.details["stage2"])]


class _OwnHistogram(ExactDistAccess):
    """An ExactDistAccess subclass that draws its histogram itself."""

    def histogram(self, s, rng):
        return super().histogram(s, rng)


class _CountingGen:
    """Generator stand-in that passes every call on and counts the methods
    fetched through it."""

    def __init__(self, gen):
        self.gen, self.calls = gen, {}

    def __getattr__(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return getattr(self.gen, name)


_P10 = Distribution(np.array([0.02, 0.1, 0.0, 0.08, 0.05, 0.15, 0.2, 0.1, 0.1, 0.2]))
_B10 = make_bipartite(10, [(0, 5), (0, 6), (1, 6), (2, 7), (3, 8), (4, 9), (4, 5)], bottom=range(5))


def _one_trial_each(access, counting=False):
    """One matching trial on make_matching(5) and one bipartite trial on _B10
    (delta 2), each with its own Rng: (verdict, the Rng after it) pairs."""
    out = []
    for seed, run in ((21, lambda a, r: matching_monotonicity_test(make_matching(5), a, 0.5, rng=r)),
                      (22, lambda a, r: bipartite_bounded_degree_test(_B10, a, 2, 0.5, rng=r))):
        rng = Rng(seed)
        if counting:
            rng.gen = _CountingGen(rng.gen)
        out.append((run(access(), rng), rng))
    return out


def test_a_trial_over_an_exact_distribution_draws_one_multinomial_and_one_binomial():
    """Over an ExactDistAccess both testers draw from the composed law: one
    multinomial for the learn step and one binomial for the mass estimate."""
    for _, rng in _one_trial_each(lambda: ExactDistAccess(_P10), counting=True):
        assert rng.gen.calls == {"multinomial": 1, "binomial": 1}


# Both trials of _one_trial_each as the MixedWithUniform and LiftedAccess
# wrappers draw them, with the Rng's next uniform after each: an access that
# is not exactly an ExactDistAccess must keep these draws.
WRAPPER_ROUTE = [
    ("Verdict(decision='accept', stat=0.0, threshold=0.10714285714285714, samples=103489, details="
     "{'bottom_mass': 0.3745466140539679, 'learn_budget': 78400, 'mass_budget': 25089})", 0.7886682121005397),
    ("Verdict(decision='accept', stat=1.1522187100040243e-05, threshold=0.026785714285714284, samples=3662849, "
     "details={'bottom_mass': 0.32981821533647726, 'learn_budget': 3261440, 'mass_budget': 401409})",
     0.15122130280570667),
]


@pytest.mark.parametrize("access", [lambda: _CallLog(ExactDistAccess(_P10)), lambda: _OwnHistogram(_P10)],
                         ids=["user access", "subclass"])
def test_any_other_access_keeps_the_wrapper_draws(access):
    got = [(repr(v), rng.gen.random()) for v, rng in _one_trial_each(access)]
    assert got == WRAPPER_ROUTE
    for _, rng in _one_trial_each(access, counting=True):
        assert rng.gen.calls["multinomial"] >= 2 and rng.gen.calls["binomial"] >= 3


@pytest.mark.parametrize("access", [ExactDistAccess, _OwnHistogram], ids=["exact", "subclass"])
def test_both_routes_refuse_a_wrong_length_access_alike(access):
    wrong = access(Distribution.uniform(9))
    with pytest.raises(ValueError, match=re.escape("sample access does not match the poset: shape (9,), poset n=10")):
        matching_monotonicity_test(make_matching(5), wrong, 0.5, rng=Rng(0))
    with pytest.raises(ValueError, match=re.escape("base access does not match the poset: shape (9,), poset n=10")):
        bipartite_bounded_degree_test(_B10, wrong, 2, 0.5, rng=Rng(0))


def _with_zero_cell(n: int, seed: int) -> Distribution:
    """A random distribution on n cells whose cell 0 has no mass."""
    v = np.random.default_rng(seed).exponential(1.0, n)
    v[0] = 0.0
    return Distribution(v / v.sum())


def _b2m_case(n: int) -> tuple:
    """A degree-<=2 bipartite poset on n vertices reduced to a matching at
    delta 2, so that free copies pair with dummies."""
    nb = n // 2
    edges = [(i, nb + i) for i in range(nb)] + [(i, nb + (i + 1) % (n - nb)) for i in range(0, nb, 3)]
    return bipartite_to_matching(make_bipartite(n, sorted(set(edges)), bottom=range(nb)), 2)


def _route_cases():
    """(id, wrapper route, composed route) over a distribution with a
    zero-mass cell, for n in {2, 7, 200}: the uniform mixture, both lifts,
    and the mixture of each lift."""
    cases = []
    for n in (2, 7, 200):
        p = ExactDistAccess(_with_zero_cell(n, n))
        g2b = general_to_bipartite(random_dag(np.random.default_rng(n), n, 0.05))
        b2m = _b2m_case(n)
        cases.append((f"mix-{n}", MixedWithUniform(p), _mixed(p)))
        for name, red in (("g2b", g2b), ("b2m", b2m)):
            cases.append((f"{name}-{n}", LiftedAccess(p, red), _lifted(p, red)))
            cases.append((f"mix-{name}-{n}", MixedWithUniform(LiftedAccess(p, red)), _mixed(_lifted(p, red))))
    return cases


ROUTE_CASES = _route_cases()


@pytest.mark.parametrize("wrapper,composed", [c[1:] for c in ROUTE_CASES], ids=[c[0] for c in ROUTE_CASES])
def test_the_composed_access_draws_the_wrapper_law(wrapper, composed):
    """Two-sample chi-square tests, seeded, that the composed ExactDistAccess
    and the wrapper route draw one law: the pooled cell counts of 150
    histograms of 400 draws, the tally of one cell's count in each of them,
    and the tally of 150 count_in draws of 200 samples in a mask. A cell the
    composed law gives no mass gets no draw from either route."""
    assert type(composed) is ExactDistAccess and composed.n == wrapper.n
    mask = np.random.default_rng(composed.n).random(composed.n) < 0.5
    mask[0] = True
    cell = int(np.argmax(composed.dist.probs))
    draws = []
    for acc, seed in ((wrapper, 1), (composed, 2)):
        rng = Rng(seed)
        hists = np.array([acc.histogram(400, rng) for _ in range(150)])
        counts = np.array([acc.count_in(mask, 200, rng) for _ in range(150)])
        assert not hists[:, composed.dist.probs == 0].any()
        draws.append((hists.sum(axis=0), np.bincount(hists[:, cell]), np.bincount(counts)))
    for a, b in zip(*draws):
        assert two_sample_chi2_pvalue(a, b) > 1e-3


def test_matching_tester_completeness_soundness():
    n_pairs = 50
    G = make_matching(n_pairs)
    pm = monotone_matching_dist(np.random.default_rng(3), n_pairs)
    assert rates(lambda r: matching_monotonicity_test(G, ExactDistAccess(pm), 0.2, rng=r), 20) >= 0.9
    pf, d = far_matching_dist(np.random.default_rng(4), n_pairs, 0.2)
    assert rates(lambda r: matching_monotonicity_test(G, ExactDistAccess(pf), 0.2, rng=r), 20) <= 0.1


def test_matching_tester_deterministic():
    G = make_matching(10)
    p = monotone_matching_dist(np.random.default_rng(5), 10)
    v1 = matching_monotonicity_test(G, ExactDistAccess(p), 0.3, rng=Rng(9, 1))
    v2 = matching_monotonicity_test(G, ExactDistAccess(p), 0.3, rng=Rng(9, 1))
    assert v1.stat == v2.stat and v1.decision == v2.decision
    with pytest.raises(ValueError):
        matching_monotonicity_test(make_line(4), ExactDistAccess(Distribution.uniform(4)), 0.2, rng=Rng(0))


def test_bipartite_tester():
    nb = 12
    edges = [(i, nb + i) for i in range(nb)] + [(i, nb + (i + 1) % nb) for i in range(nb)]
    G = make_bipartite(2 * nb, edges, bottom=range(nb))
    x, y = 0.6 / (2 * nb), 1.4 / (2 * nb)
    pm = Distribution(np.array([x] * nb + [y] * nb))
    assert is_monotone(G, pm.probs)
    assert rates(lambda r: bipartite_bounded_degree_test(G, ExactDistAccess(pm), 2, 0.2, rng=r), 15) >= 0.9
    pf = Distribution(np.array([y] * nb + [x] * nb))
    assert rates(lambda r: bipartite_bounded_degree_test(G, ExactDistAccess(pf), 2, 0.2, rng=r), 15) <= 0.1
    # delta=1 on a perfect matching degenerates to the matching tester
    M = make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1])
    pmono = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
    v = bipartite_bounded_degree_test(M, ExactDistAccess(pmono), 1, 0.3, rng=Rng(11))
    assert v.accepted


def test_bipartite_tester_named_graphs():
    from posetdist import exact_dtv_to_monotone

    # monotone on the star K_{1,3}
    star = make_bipartite(4, [(0, 1), (0, 2), (0, 3)], bottom=[0])
    pm = Distribution(np.array([0.1, 0.3, 0.3, 0.3]))
    assert is_monotone(star, pm.probs)
    assert rates(lambda r: bipartite_bounded_degree_test(star, ExactDistAccess(pm), 3, 0.2, rng=r), 15) >= 0.9
    # eps-far on K_{2,2}
    K22 = make_bipartite(4, [(0, 2), (0, 3), (1, 2), (1, 3)], bottom=[0, 1])
    pf = Distribution(np.array([0.36, 0.36, 0.14, 0.14]))
    assert exact_dtv_to_monotone(K22, pf) >= 0.2
    assert rates(lambda r: bipartite_bounded_degree_test(K22, ExactDistAccess(pf), 2, 0.2, rng=r), 15) <= 0.1


def _star_family(n_bottom=50, deg=3):
    n = n_bottom * (1 + deg)
    edges = [(b, n_bottom + b * deg + j) for b in range(n_bottom) for j in range(deg)]
    return make_bipartite(n, edges, bottom=range(n_bottom))


def test_uniform_subset_tester():
    G = _star_family()
    n = G.n
    uni = ExactDistAccess(Distribution.uniform(n))
    assert rates(lambda r: uniform_subset_test(G, uni, n, 0.2, rng=r), 20) >= 0.9
    bottoms_only = np.zeros(n)
    bottoms_only[:50] = 1 / 50
    far = ExactDistAccess(Distribution(bottoms_only))
    assert rates(lambda r: uniform_subset_test(G, far, 50, 0.2, rng=r), 20) <= 0.1


def test_uniform_subset_empty_bottom_branch():
    G = make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1])
    tops_only = Distribution(np.array([0.0, 0.0, 0.5, 0.5]))
    v = uniform_subset_test(G, ExactDistAccess(tops_only), 2, 0.5, rng=Rng(1))
    assert v.accepted and v.details["branch"] == 1 and v.stat == 0.0


def test_uniform_subset_rejects_mismatched_access():
    G = make_matching(3)
    with pytest.raises(ValueError, match="sample access does not match the poset"):
        uniform_subset_test(G, ExactDistAccess(Distribution.uniform(10)), 6, 0.2, rng=Rng(0))


def test_all_matchings_rejects_mismatched_access():
    G = make_matching(3)
    with pytest.raises(ValueError, match="sample access does not match the poset"):
        all_matchings_test(G, ExactDistAccess(Distribution.uniform(10)), 0.2, rng=Rng(0))


def test_all_matchings_tester():
    K22 = make_bipartite(4, [(0, 2), (0, 3), (1, 2), (1, 3)], bottom=[0, 1])
    pm = Distribution(np.array([0.15, 0.15, 0.35, 0.35]))
    assert rates(lambda r: all_matchings_test(K22, ExactDistAccess(pm), 0.2, rng=r), 20) >= 0.9
    single = make_bipartite(2, [(0, 1)], bottom=[0])
    heavy = Distribution(np.array([0.9, 0.1]))
    assert rates(lambda r: all_matchings_test(single, ExactDistAccess(heavy), 0.2, rng=r), 20) <= 0.1
    empty = make_bipartite(3, [], bottom=[0])
    v = all_matchings_test(empty, ExactDistAccess(Distribution.uniform(3)), 0.2, rng=Rng(0))
    assert v.accepted and v.stat == 0.0 and v.details == {"log_pair_bound": 0.0, "worst_pair": ((), ())}


def _complete_bipartite(k: int):
    return make_bipartite(2 * k, [(b, k + t) for b in range(k) for t in range(k)], bottom=range(k))


def _matchable_pair_grid():
    rng = np.random.default_rng(2424)
    for density in (0.15, 0.3, 0.5, 0.8):
        for _ in range(12):
            nb, nt = (int(x) for x in rng.integers(1, 9, size=2))
            yield f"random {nb}+{nt} p={density}", random_bipartite(rng, nb, nt, edge_prob=density)
    for k in range(1, 13):
        yield f"matching {k}", make_matching(k)
    for k in range(1, 7):
        yield f"K{k},{k}", _complete_bipartite(k)


def test_all_matchings_statistic_is_the_brute_force_over_matchable_pairs():
    """The statistic, the violation-matching weight of the learned
    histogram, equals the largest learned p(B) - p(T) over every matchable
    pair that the per-matching walk lists, and worst_pair is one such pair
    that attains it."""
    rng = np.random.default_rng(4242)
    walked = 0
    for t, (name, G) in enumerate(_matchable_pair_grid()):
        try:
            pairs = reference_matchable_pairs(G, 4096)
        except SizeCapError:
            continue  # the walk alone is too slow past a few thousand pairs
        walked += 1
        p = Distribution.normalized(rng.exponential(1.0, G.n))
        v = all_matchings_test(G, ExactDistAccess(p), 0.5, rng=Rng(t))
        q = ExactDistAccess(p).histogram(v.samples, Rng(t)) / v.samples  # the draw the tester learned from
        gaps = {pair: q[list(pair[1])].sum() - q[list(pair[0])].sum() for pair in pairs}
        assert abs(v.stat - max(gaps.values())) <= 1e-12, name
        assert abs(gaps[v.details["worst_pair"]] - v.stat) <= 1e-12, name
    assert walked == 65  # all but one random 7+8 poset, which has more than 4096 pairs


def test_all_matchings_runs_past_the_old_pair_cap():
    """A 13-pair matching (8192 matchable pairs) and a 12+12 bipartite poset
    of degree 3 (527346) get verdicts, with pools sized from the bound on
    ln M: exact on the matching, 12 ln 4 on the bipartite poset."""
    m13 = make_matching(13)
    ring = make_bipartite(24, [(b, 12 + (b + k) % 12) for b in range(12) for k in range(3)], bottom=range(12))
    for G, log_m in ((m13, 13 * np.log(2)), (ring, 12 * np.log(4))):
        bottoms = np.isin(np.arange(G.n), G.edge_array[:, 0])
        mono = Distribution.normalized(np.where(bottoms, 1.0, 3.0))
        v = all_matchings_test(G, ExactDistAccess(mono), 0.25, rng=Rng(3))
        assert v.accepted
        assert v.details["log_pair_bound"] == pytest.approx(log_m, rel=1e-12)
        assert v.samples == int(np.ceil(32 * (log_m + np.log(6)) / 0.0625))
        far = Distribution.normalized(np.where(bottoms, 3.0, 1.0))
        assert not all_matchings_test(G, ExactDistAccess(far), 0.25, rng=Rng(4)).accepted


# What repeated trials over one input share is built once and kept: the
# p/2 + u/2 Distribution on the base Distribution, the bottom mask on the
# Poset, bipartite_to_matching's Reduction in its cache.


def _equal_copy(G: Poset) -> Poset:
    return Poset(G.n, G.edge_array.copy(), kind=G.kind, bottom=G.bottom_array.copy())


def _matching_trial(G, access, t, rng):
    return matching_monotonicity_test(G, access, 0.3, rng=rng)


def _bipartite_trial(G, access, t, rng):
    return bipartite_bounded_degree_test(G, access, (2, 2, 3)[t % 3], 0.3, rng=rng)


_TRIAL_CASES = {
    "matching": (_matching_trial, make_matching(20), (monotone_matching_dist(np.random.default_rng(8), 20),
                                                      far_matching_dist(np.random.default_rng(9), 20, 0.3)[0])),
    "bipartite": (_bipartite_trial, _B10, (_P10, Distribution(_P10.probs[::-1]))),
}


@pytest.mark.parametrize("access", [ExactDistAccess, _OwnHistogram], ids=["exact", "subclass"])
@pytest.mark.parametrize("case", list(_TRIAL_CASES))
def test_trials_reusing_one_input_equal_trials_over_fresh_equal_inputs(case, access):
    """Six trials over one poset and one access per distribution, two
    distributions alternating (and two deltas on the bipartite tester), give
    the verdicts of the same seeds over freshly built equal objects with the
    reduction cache emptied before each: what trials share is keyed on its
    input and built from it alone."""
    run, G, dists = _TRIAL_CASES[case]
    shared = [access(p) for p in dists]
    reused = [run(G, shared[t % 2], t, Rng(40 + t)) for t in range(6)]
    fresh = []
    for t in range(6):
        bipartite_to_matching.cache_clear()
        fresh.append(run(_equal_copy(G), access(Distribution(dists[t % 2].probs.copy())), t, Rng(40 + t)))
    assert reused == fresh
    assert len({v.stat for v in reused}) > 2


def test_shared_trial_inputs_are_read_only_and_bit_equal_to_the_per_trial_expressions():
    """_half_uniform is the Distribution 0.5 * p + 0.5 / n, _bottom_mask the
    in_bottom vector a matching trial built from the edge tails (and, on a
    bipartite poset, from bottom_array), both bit for bit, built once and
    read-only; the unit-weight midpoint cost equals the one with
    np.ones weights bit for bit."""
    for p in (_P10, _with_zero_cell(7, 7), monotone_matching_dist(np.random.default_rng(10), 500)):
        half = p._half_uniform
        assert half is p._half_uniform
        assert half.probs.tobytes() == Distribution(0.5 * p.probs + 0.5 / p.n).probs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            half.probs[0] = 0.0
    for G in (make_matching(7), _b2m_case(200).target, _B10, make_line(3)):
        in_bottom = np.zeros(G.n, dtype=bool)
        in_bottom[G.edge_array[:, 0] if G.kind == "matching" else G.bottom_array] = True
        mask = G._bottom_mask
        assert mask is G._bottom_mask
        assert mask.dtype == bool and mask.tobytes() == in_bottom.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = True
    x, y = np.random.default_rng(11).random((2, 5000))
    assert _midpoint_cost(x, y).hex() == _midpoint_cost(x, y, np.ones(x.size)).hex()
