import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    LearnerSpec,
    PairHistogram,
    Rng,
    SampleAccess,
    SizeCapError,
    Verdict,
    all_matchings_test,
    bigness_test,
    bipartite_bounded_degree_test,
    dist_to_bigness,
    is_monotone,
    make_bipartite,
    make_line,
    make_matching,
    matching_monotonicity_test,
    uniform_subset_test,
)
from posetdist.testers import PAIR_CAP, MixedWithUniform, _enumerate_matchable_pairs

from genutil import (
    far_matching_dist,
    monotone_matching_dist,
    pair_admits_perfect_matching,
    random_bipartite,
    reference_matchable_pairs,
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
    assert v.accepted and v.details["pair_count"] == 1


def test_matchable_pair_enumeration():
    K22 = make_bipartite(4, [(0, 2), (0, 3), (1, 2), (1, 3)], bottom=[0, 1])
    pairs = _enumerate_matchable_pairs(K22, 100)
    # empty, four single edges -> 4 distinct endpoint pairs, one full pair
    assert ((), ()) in pairs
    assert ((2, 3), (0, 1)) in pairs
    assert len(pairs) == 6
    for tops, bottoms in pairs:
        if tops:
            assert pair_admits_perfect_matching(K22, tops, bottoms)
    shared_top = make_bipartite(4, [(0, 2), (1, 2)], bottom=[0, 1])
    assert not pair_admits_perfect_matching(shared_top, (2, 3), (0, 1))
    assert not pair_admits_perfect_matching(shared_top, (2,), (0, 1))
    with pytest.raises(SizeCapError):
        _enumerate_matchable_pairs(K22, 3)


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


def _pairs_or_refusal(enumerate_pairs, G, cap):
    try:
        return enumerate_pairs(G, cap)
    except SizeCapError as exc:
        return f"SizeCapError: {exc}"


@pytest.mark.parametrize("cap", [3, 50, PAIR_CAP])
def test_matchable_pairs_match_the_per_matching_walk(cap):
    outcomes = set()
    for name, G in _matchable_pair_grid():
        want = _pairs_or_refusal(reference_matchable_pairs, G, cap)
        assert _pairs_or_refusal(_enumerate_matchable_pairs, G, cap) == want, name
        outcomes.add(isinstance(want, str))
    assert outcomes == {False, True}  # both lists and refusals at every cap
