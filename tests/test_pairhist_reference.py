"""The array pair-histogram pipeline against its dict-loop references.

pair_histogram, the midpoint statistic of min_w_to_monotone_pairhist, and the
matching tester's key route (its learned counts grouped, snapped and
rescaled by the side masses, then scored by _midpoint_cost) must agree with
genutil's one-key-at-a-time loops exactly: the same keys, the same counts and
the same bits of the cost, since the tester's verdicts are compared byte for
byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import PairHistogram, min_w_to_monotone_pairhist, pair_histogram
from posetdist.oracles import _midpoint_cost
from posetdist.testers import _learned_keys

from genutil import reference_midpoint, reference_pair_histogram, reference_rescale

# A coarse grid with zeros (so (0, 0) entries and duplicate keys are common),
# -0.0, and a few arbitrary floats.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0 / 3.0, 0.7]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)
COUNT = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(min_value=1e-6, max_value=50.0))
# The tester's estimated bottom mass. Each side of the mixed distribution
# holds at least 1/4 of the mass, so the estimate is 0 or 1, where keys can
# collide after the rescale, only when none or all of its at least 6272 draws
# land on one side.
WEIGHT = st.one_of(st.sampled_from([0.5, 0.25, 0.75, 1.0 / 3.0]), st.floats(min_value=0.01, max_value=0.99))


def _same(h: PairHistogram, ref: dict) -> bool:
    """Equal keys and counts, bit for bit (repr tells -0.0 from 0.0)."""
    return repr(h.items()) == repr(list(ref.items()))


@st.composite
def histograms(draw):
    keys = draw(st.lists(st.tuples(COORD, COORD), max_size=40))
    support = {k: draw(COUNT) for k in keys if not (k[0] == 0.0 and k[1] == 0.0)}
    return PairHistogram(support)


@given(
    st.lists(st.tuples(COORD, COORD), max_size=60),
    st.sampled_from([None, 0.05, 1.0 / 3.0, 1e-3]),
)
@settings(max_examples=300, deadline=None)
def test_pair_histogram_equals_reference(pairs, quantize):
    a = np.array([x for x, _ in pairs], dtype=float)
    b = np.array([y for _, y in pairs], dtype=float)
    assert _same(pair_histogram(a, b, quantize), reference_pair_histogram(a, b, quantize))


@given(histograms())
@settings(max_examples=300, deadline=None)
def test_min_w_equals_reference(h):
    cost, fixed = min_w_to_monotone_pairhist(h)
    ref_cost, ref_fixed = reference_midpoint(h.items())
    assert cost.hex() == ref_cost.hex()
    assert _same(fixed, ref_fixed)


# Small counts (zero pairs and repeated pairs are common), arbitrary ones, and
# counts whose bottom * top product overflows int64 and uint64, up to the
# largest sample count a tester draws (2^63 - 1, which rounds to 2^63 as a
# float).
COUNT_VALUE = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([2**32 + 1, 2**53 + 2, 2**62, 2**63 - 1]),
)


def _tester_route(pairs, w_bottom):
    """The tester's rescaled learned keys for these (bottom, top) count
    pairs at its step, 1 / (4 * total), and genutil's reference for them:
    pair_histogram of the normalized counts, then the rescale."""
    cb = np.array([b for b, _ in pairs], dtype=float)
    ct = np.array([t for _, t in pairs], dtype=float)
    nb, nt = max(int(cb.sum()), 1), max(int(ct.sum()), 1)
    step = 1.0 / (4.0 * (nb + nt))
    ref = reference_pair_histogram(cb / nb, ct / nt, quantize=step)
    return _learned_keys(cb, ct, step, w_bottom), reference_rescale(ref.items(), w_bottom, 1.0 - w_bottom)


@given(st.lists(st.tuples(COUNT_VALUE, COUNT_VALUE), max_size=60), WEIGHT)
@settings(max_examples=400, deadline=None)
def test_learner_pair_hist_equals_pair_histogram(pairs, w_bottom):
    (x, y, count), ref = _tester_route(pairs, w_bottom)
    keep = (x != 0.0) | (y != 0.0)  # the all-zero count pair, which scores 0
    got = list(zip(zip(x[keep].tolist(), y[keep].tolist()), count[keep].tolist()))
    assert repr(got) == repr(list(ref.items()))


@given(st.lists(st.tuples(COUNT_VALUE, COUNT_VALUE), max_size=60), WEIGHT)
@settings(max_examples=400, deadline=None)
def test_midpoint_equals_reference(pairs, w_bottom):
    keys, ref = _tester_route(pairs, w_bottom)
    assert _midpoint_cost(*keys).hex() == reference_midpoint(ref.items())[0].hex()
