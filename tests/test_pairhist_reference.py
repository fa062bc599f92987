"""The array pair-histogram pipeline against its dict-loop references.

pair_histogram and the midpoint statistic of min_w_to_monotone_pairhist must
agree with genutil's one-key-at-a-time loops exactly: the same keys, the same
counts and the same bits of the cost. The matching tester scores its learned
counts one vertex pair at a time; its statistic must have the bits of
genutil's one-pair-at-a-time loop, since its verdicts are compared byte for
byte, and must agree with the midpoint cost of the rescaled pair histogram
of its normalized counts, which ties it to the pair histogram.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetdist import (
    PairHistogram,
    Rng,
    SampleAccess,
    make_matching,
    matching_monotonicity_test,
    min_w_to_monotone_pairhist,
    pair_histogram,
)
from posetdist import testers
from posetdist.testers import MAX_SAMPLES

from genutil import reference_midpoint, reference_pair_cost, reference_pair_histogram, reference_rescale

# A coarse grid with zeros (so (0, 0) entries and duplicate keys are common),
# -0.0, and a few arbitrary floats.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0 / 3.0, 0.7]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)
COUNT = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(min_value=1e-6, max_value=50.0))
# The tester's estimated bottom mass. Each side of the mixed distribution
# holds at least 1/4 of the mass, so the estimate is 0 or 1 only when none or
# all of its at least 6272 draws land on one side.
WEIGHT = st.one_of(st.sampled_from([0.5, 0.25, 0.75, 1.0 / 3.0]), st.floats(min_value=0.01, max_value=0.99))


def _same(h: PairHistogram, ref: dict) -> bool:
    """Equal keys and counts, bit for bit (repr tells -0.0 from 0.0)."""
    return repr(h.items()) == repr(list(ref.items()))


@st.composite
def histograms(draw):
    keys = draw(st.lists(st.tuples(COORD, COORD), max_size=40))
    support = {k: draw(COUNT) for k in keys if not (k[0] == 0.0 and k[1] == 0.0)}
    return PairHistogram(support)


@given(st.lists(st.tuples(COORD, COORD), max_size=60))
@settings(max_examples=300, deadline=None)
def test_pair_histogram_equals_reference(pairs):
    a = np.array([x for x, _ in pairs], dtype=float)
    b = np.array([y for _, y in pairs], dtype=float)
    assert _same(pair_histogram(a, b), reference_pair_histogram(a, b))


@given(histograms())
@settings(max_examples=300, deadline=None)
def test_min_w_equals_reference(h):
    cost, fixed = min_w_to_monotone_pairhist(h)
    ref_cost, ref_fixed = reference_midpoint(h.items())
    assert cost.hex() == ref_cost.hex()
    assert _same(fixed, ref_fixed)


# Small counts (zero pairs and repeated pairs are common), arbitrary ones, and
# counts beyond a float's 53 bits, up to the largest sample count a tester
# draws (2^63 - 1, which rounds to 2^63 as a float).
COUNT_VALUE = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([2**32 + 1, 2**53 + 2, 2**62, 2**63 - 1]),
)


@st.composite
def learned_counts(draw):
    """The (bottom, top) counts of the vertex pairs in one learned histogram.
    Its total, the learn budget, is at most MAX_SAMPLES, so each count is
    cut to the room the earlier ones leave."""
    room = MAX_SAMPLES
    pairs = []
    for b, t in draw(st.lists(st.tuples(COUNT_VALUE, COUNT_VALUE), min_size=1, max_size=60)):
        b = min(b, room)
        t = min(t, room - b)
        room -= b + t
        pairs.append((b, t))
    return pairs


class _Learned(SampleAccess):
    """Access whose every histogram is these counts and whose bottom count
    is w_bottom of the draws, so the tester's learned counts and mass
    estimate are fixed."""

    def __init__(self, counts, w_bottom: float):
        self.n, self.counts, self.w_bottom = counts.size, counts, w_bottom

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        return self.counts

    def count_in(self, mask, s: int, rng: Rng) -> int:
        return round(self.w_bottom * s)


def _tester_stat(pairs, w_bottom):
    """The matching tester's statistic when it learns exactly these (bottom,
    top) counts, with the mixture with uniform taken out, and the bottom
    mass it estimated."""
    counts = np.array([b for b, _ in pairs] + [t for _, t in pairs], dtype=np.int64)
    with mock.patch.object(testers, "MixedWithUniform", lambda access: access):
        v = matching_monotonicity_test(make_matching(len(pairs)), _Learned(counts, w_bottom), 1.0, rng=Rng(0))
    return v.stat, v.details["bottom_mass"]


# 20 pairs with 9 violations whose cost, summed pairwise as np.sum does,
# differs in its last bit from the sum in pair order
IN_PAIR_ORDER = list(zip(*np.random.default_rng(1).integers(0, 10**6, (2, 20)).tolist()))


@given(learned_counts(), WEIGHT)
@example(IN_PAIR_ORDER, 0.5)
@settings(max_examples=400, deadline=None)
def test_tester_stat_equals_pair_loop(pairs, w_bottom):
    stat, w = _tester_stat(pairs, w_bottom)
    assert stat.hex() == reference_pair_cost([b for b, _ in pairs], [t for _, t in pairs], w).hex()


@given(learned_counts(), WEIGHT)
@settings(max_examples=400, deadline=None)
def test_tester_stat_is_the_pair_histogram_midpoint_cost(pairs, w_bottom):
    stat, w = _tester_stat(pairs, w_bottom)
    cb = np.array([b for b, _ in pairs], dtype=float)
    ct = np.array([t for _, t in pairs], dtype=float)
    nb, nt = max(sum(b for b, _ in pairs), 1), max(sum(t for _, t in pairs), 1)
    hist = reference_pair_histogram(cb / nb, ct / nt)
    ref = reference_midpoint(reference_rescale(hist.items(), w, 1.0 - w).items())[0]
    assert math.isclose(stat, ref, rel_tol=1e-12, abs_tol=0.0)
