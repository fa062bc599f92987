"""Every entry refusal of the library, each raised once with its type and
message: one row per refusal, so a new check adds one more input here."""

import dataclasses
import math
import re

import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    LiftedAccess,
    PairHistogram,
    ParameterError,
    Poset,
    PosetError,
    PriorsError,
    Rng,
    SampleAccess,
    SizeCapError,
    WeightedMatching,
    all_matchings_test,
    assign_parameters,
    bigness_test,
    bipartite_bounded_degree_test,
    bipartite_to_matching,
    build_priors,
    closest_monotone_on_matching,
    func_dist_to_monotone,
    general_to_bipartite,
    generate_instance,
    hypercube_embedding,
    indistinguishability_probe,
    is_monotone,
    make_hypercube,
    make_bipartite,
    make_line,
    make_matching,
    matching_monotonicity_test,
    uniform_subset_test,
    matching_to_hypercube,
    max_violation_matching,
    pair_histogram,
    transitive_closure,
    tv_distance,
)
from posetdist.lowerbound import MAX_L
from posetdist.poset import MAX_DOMAIN

LINE3 = make_line(3)
U3, U4 = Distribution.uniform(3), Distribution.uniform(4)
B4 = make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1])
PRIORS = build_priors(0.5, 6.0, 4)
LONG_LINE = make_line(2897)  # 4194856 closure pairs, 552 above MAX_DOMAIN
CLOSURE_CAP = f"the transitive closure exceeds the limit of {MAX_DOMAIN} pairs"
CAP = f"hypercube dimension 19: its 19*2^18 edges exceed the limit of {MAX_DOMAIN}"  # 4980736 edges


class _DrawsNothing(ExactDistAccess):
    """Sample access whose histogram is all zeros, whatever s is."""

    def histogram(self, s, rng):
        return np.zeros(self.n, dtype=np.int64)


class _UserDraws(SampleAccess):
    """A user access whose histogram(s) is hist(s) and whose count_in is
    count(s), whatever the law."""

    def __init__(self, n, hist, count=lambda s: 0):
        self.n, self.hist, self.count = n, hist, count

    def histogram(self, s, rng):
        return self.hist(s)

    def count_in(self, mask, s, rng):
        return self.count(s)


M200, M300 = make_matching(200), make_matching(300)
_FAIR400 = ExactDistAccess(Distribution.uniform(400))


def test_violation_matching_has_no_cell_cap():
    """2049 disjoint violated edges (2049 x 2049 > MAX_DOMAIN) give every
    edge and the fsum weight: the matching has no size cap of its own."""
    k = 2049
    G = make_bipartite(2 * k, [(i, k + i) for i in range(k)], bottom=range(k))
    p = Distribution.normalized(np.repeat([2.0, 1.0], k))
    m = max_violation_matching(G, p)
    top, bottom = p.probs[0], p.probs[k]
    assert m.edges == tuple(((i, k + i), top - bottom) for i in range(k))
    assert m.weight == math.fsum([top, -bottom] * k)


def _validate(**changes):
    """MomentPriors.validate on the bench priors with some fields replaced."""
    return lambda: dataclasses.replace(PRIORS, **changes).validate()


# (id, call, exception type, a fragment of its message)
REFUSALS = [
    ("func_dist length", lambda: func_dist_to_monotone(LINE3, U4), ValueError,
     "distribution does not match the poset: shape (4,), poset n=3"),
    ("matching oracle length", lambda: max_violation_matching(LINE3, U4), ValueError,
     "distribution does not match the poset: shape (4,), poset n=3"),
    ("midpoint fix length", lambda: closest_monotone_on_matching(make_matching(2), U3), ValueError,
     "distribution does not match the poset: shape (3,), poset n=4"),
    ("Reduction.apply length", lambda: general_to_bipartite(LINE3).apply(U4), ValueError,
     "distribution does not match the poset: shape (4,), poset n=3"),
    ("LiftedAccess length", lambda: LiftedAccess(ExactDistAccess(U4), general_to_bipartite(LINE3)), ValueError,
     "base access does not match the poset: shape (4,), poset n=3"),
    ("is_monotone 2-D", lambda: is_monotone(LINE3, [[0.5, 0.3, 0.2]]), ValueError,
     "distribution does not match the poset: shape (1, 3), poset n=3"),
    ("m2hyp source size", lambda: matching_to_hypercube(4, 2, U4, 0.5), ValueError,
     "matching distribution must cover 6 vertices for d=4, ell=2"),
    ("tester eps", lambda: matching_monotonicity_test(make_matching(2), ExactDistAccess(U4), 0.0, rng=Rng(0)),
     ValueError, "eps must lie in (0, 1]"),
    ("bigness eps", lambda: bigness_test(ExactDistAccess(U4), 0.25, 1.5, rng=Rng(0)), ValueError,
     "eps must lie in (0, 1]"),
    ("bigness drew nothing", lambda: bigness_test(_DrawsNothing(Distribution.uniform(10)), 0.1, 0.2, rng=Rng(0)),
     ValueError, "sample access drew a total of 0 from a budget of 45000 samples"),
    ("all-matchings drew nothing", lambda: all_matchings_test(B4, _DrawsNothing(U4), 0.2, rng=Rng(0)), ValueError,
     "sample access drew a total of 0 from a budget of 2543 samples"),
    ("user histogram of floats",
     lambda: matching_monotonicity_test(M200, _UserDraws(400, lambda s: np.full(400, 0.5), lambda s: -5), 0.2,
                                        rng=Rng(0)),
     ValueError, "sample access drew float64 counts of shape (400,), not n=400 integer counts"),
    ("user histogram too long",
     lambda: matching_monotonicity_test(M200, _UserDraws(400, lambda s: np.eye(403, dtype=np.int64)[0] * s), 0.2,
                                        rng=Rng(0)),
     ValueError, "sample access drew int64 counts of shape (403,), not n=400 integer counts"),
    ("user negative count",
     lambda: bigness_test(_UserDraws(4, lambda s: np.array([s + 1, -1, 0, 0])), 0.1, 0.2, rng=Rng(0)), ValueError,
     "sample access drew a negative count from a budget of"),
    ("user lifted total",
     lambda: bipartite_bounded_degree_test(B4, _UserDraws(4, lambda s: np.array([2 * s, 0, 0, 0])), 2, 0.5,
                                           rng=Rng(0)),
     ValueError, "sample access drew a total of"),
    ("user count_in below 0",
     lambda: matching_monotonicity_test(M200, _UserDraws(400, lambda s: _FAIR400.histogram(s, Rng(1)), lambda s: -5),
                                        0.2, rng=Rng(0)),
     ValueError, "sample access counted -5 of"),
    ("user count_in above s",  # every bottom drawn, so stage 2 runs and counts
     lambda: uniform_subset_test(M300, _UserDraws(600, lambda s: np.bincount(np.arange(s) % 300, minlength=600),
                                                  lambda s: s + 1), 600, 1.0, rng=Rng(0)),
     ValueError, "sample access counted 571 of 570 samples in a mask"),
    ("bipartite eps", lambda: bipartite_bounded_degree_test(make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1]),
                                                            ExactDistAccess(U4), 2, 4.0, rng=Rng(0)), ValueError,
     "eps must lie in (0, 1]"),
    ("unmatched vertex", lambda: matching_monotonicity_test(Poset(3, [(0, 1)], kind="matching"),
                                                            ExactDistAccess(U3), 0.2, rng=Rng(0)), ValueError,
     "every vertex must be matched"),
    ("negative n", lambda: Poset(-1, []), PosetError, "vertex count must be nonnegative"),
    ("unknown kind", lambda: Poset(2, [], kind="x"), PosetError, "unknown kind 'x'"),
    ("hypercube edge", lambda: Poset(4, [(0, 3)], kind="hypercube"), PosetError,
     "hypercube edge (0,3) is not a single 0->1 bit flip"),
    ("make_matching(0)", lambda: make_matching(0), PosetError, "matching poset needs at least one pair"),
    ("make_hypercube(0)", lambda: make_hypercube(0), PosetError, "hypercube needs d >= 1"),
    ("hypercube_embedding d=0", lambda: hypercube_embedding(0, 1), PosetError, "hypercube needs d >= 1"),
    ("make_hypercube cap", lambda: make_hypercube(19), SizeCapError, CAP),
    ("hypercube_embedding cap", lambda: hypercube_embedding(19, 1), SizeCapError, CAP),
    ("normalize no mass", lambda: Distribution.normalized(np.zeros(3)), ValueError,
     "cannot normalize a vector with no mass"),
    ("normalize inf entry", lambda: Distribution.normalized([1, np.inf]), ValueError,
     "distribution has non-finite entries"),
    ("normalize all inf", lambda: Distribution.normalized([np.inf, np.inf]), ValueError,
     "distribution has non-finite entries"),
    ("normalize -inf entry", lambda: Distribution.normalized([-np.inf, 1]), ValueError,
     "distribution has non-finite entries"),
    ("normalize overflow", lambda: Distribution.normalized([1e308, 1e308]), ValueError,
     "cannot normalize a vector whose total overflows"),
    ("is_monotone nan", lambda: is_monotone(make_line(2), [0.5, np.nan]), ValueError,
     "distribution has non-finite entries"),
    ("from_arrays length", lambda: PairHistogram.from_arrays([1.0], [1.0, 2.0], [1.0]), ValueError,
     "from_arrays needs three equal-length vectors"),
    ("pair-histogram repeated pair", lambda: PairHistogram([((0.1, 0.2), 1.0), ((0.1, 0.2), 2.0)]), ValueError,
     "pair-histogram support has duplicate keys"),
    ("pair_histogram length", lambda: pair_histogram([0.5, 0.5], [1.0]), ValueError,
     "pair_histogram needs two equal-length vectors"),
    ("tv_distance length", lambda: tv_distance(U3, U4), ValueError, "distributions have different lengths"),
    ("matching weight", lambda: WeightedMatching((((0, 1), 0.0),), 0.0), ValueError,
     "matching weights must be positive"),
    ("matching disjoint", lambda: WeightedMatching((((0, 1), 0.1), ((1, 2), 0.1)), 0.2), ValueError,
     "matching edges must be vertex-disjoint"),
    ("priors mass", _validate(mass_big=PRIORS.mass_big * 2), PriorsError, "big mass sums to 2.0"),
    ("priors mean", _validate(atoms_far=PRIORS.atoms_far * 1.5), PriorsError, "far mean is 1.5"),
    ("priors big atom", _validate(atoms_big=PRIORS.atoms_big * 3), PriorsError,
     "big-side atom outside [(1+nu)/beta, lam/beta]"),
    ("priors far atom", _validate(atoms_far=PRIORS.atoms_far * 10), PriorsError,
     "far-side nonzero atom outside the interval"),
    ("priors beta", _validate(beta=100.0), PriorsError, "beta 100.0 outside [1+nu, min(lam, 1/gap)]"),
    ("gap below 2*eps", lambda: assign_parameters(1000, 0.007477648819402561, 3), ParameterError,
     "gap 0.01481 below 2*eps=0.01496"),
    ("Rng float seed", lambda: Rng(0.7), ValueError, "seed and stream must be integers, got 0.7 and 0"),
    ("Rng negative stream", lambda: Rng(0, -1), ValueError, "stream must lie in [0, 2^64), got -1"),
    ("Rng stream over 64 bits", lambda: Rng(0, 2**64), ValueError, f"stream must lie in [0, 2^64), got {2**64}"),
    ("b2m target cap", lambda: bipartite_to_matching(B4, 10**12), SizeCapError,
     f"7999999999996 target vertices exceed the limit of {MAX_DOMAIN}"),
    ("probe trials cap", lambda: indistinguishability_probe(PRIORS, 50, [0], 10**12, Rng(0)), SizeCapError,
     f"{10**12} trials exceed the limit of {MAX_DOMAIN}"),
    ("closure cap", lambda: transitive_closure(LONG_LINE), SizeCapError, CLOSURE_CAP),
    ("g2b closure cap", lambda: general_to_bipartite(LONG_LINE), SizeCapError, CLOSURE_CAP),
    ("matching closure cap", lambda: max_violation_matching(LONG_LINE, Distribution.uniform(2897)), SizeCapError,
     CLOSURE_CAP),
    ("func dist closure cap", lambda: func_dist_to_monotone(LONG_LINE, Distribution.uniform(2897)), SizeCapError,
     CLOSURE_CAP),
    ("L cap", lambda: build_priors(0.5, 1e16, MAX_L + 1), SizeCapError, f"L={MAX_L + 1} exceeds the limit of {MAX_L}"),
    ("instance size cap", lambda: generate_instance(PRIORS, MAX_DOMAIN + 1, 0, Rng(0)), SizeCapError,
     f"{MAX_DOMAIN + 1} instance elements exceed the limit of {MAX_DOMAIN}"),
]


@pytest.mark.parametrize("call,exc,message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_entry_refusal(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)) as info:
        call()
    assert type(info.value) is exc

