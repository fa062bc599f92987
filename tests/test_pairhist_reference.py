"""The array pair-histogram pipeline against its dict-loop references.

pair_histogram, PairHistogram.scaled (the tester's rescale by the estimated
side masses) and the midpoint statistic of min_w_to_monotone_pairhist must
agree with genutil's one-key-at-a-time loops exactly: the same keys, the same
counts and the same bits of the cost, since the tester's verdicts are compared
byte for byte. The learner's count-pair grouping must in turn agree exactly
with pair_histogram.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import LearnerSpec, PairHistogram, min_w_to_monotone_pairhist, pair_histogram
from posetdist.oracles import _midpoint_cost

from genutil import reference_midpoint, reference_pair_histogram, reference_rescale

# A coarse grid with zeros (so (0, 0) entries and duplicate keys are common),
# -0.0, and a few arbitrary floats.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0 / 3.0, 0.7]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)
COUNT = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(min_value=1e-6, max_value=50.0))
# 0 and 1 make every key collide on one axis after the rescale.
WEIGHT = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0))


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


@given(histograms(), WEIGHT)
@settings(max_examples=300, deadline=None)
def test_rescale_equals_reference(h, w_bottom):
    w_top = 1.0 - w_bottom
    assert _same(h.scaled(w_bottom, w_top), reference_rescale(h.items(), w_bottom, w_top))


@given(histograms(), WEIGHT)
@settings(max_examples=300, deadline=None)
def test_midpoint_equals_reference(h, w_bottom):
    g = h.scaled(w_bottom, 1.0 - w_bottom)  # the histogram the tester scores
    cost, fixed = min_w_to_monotone_pairhist(g)
    ref_cost, ref_fixed = reference_midpoint(g.items())
    assert cost.hex() == ref_cost.hex()
    assert _midpoint_cost(g).hex() == ref_cost.hex()
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


@given(
    st.lists(st.tuples(COUNT_VALUE, COUNT_VALUE), max_size=60),
    # None: the tester's step for this total; the rest are coarse enough to
    # merge distinct counts into one key
    st.sampled_from([None, 1e-3, 0.05, 1.0 / 3.0, 0.5, 2.0]),
)
@settings(max_examples=400, deadline=None)
def test_learner_pair_hist_equals_pair_histogram(pairs, step):
    cb = np.array([b for b, _ in pairs], dtype=float)
    ct = np.array([t for _, t in pairs], dtype=float)
    nb, nt = int(cb.sum()), int(ct.sum())
    if step is None:
        step = 1.0 / (4.0 * max(nb + nt, 1))
    got = LearnerSpec().pair_hist(cb, ct, step)
    want = pair_histogram(cb / max(nb, 1), ct / max(nt, 1), quantize=step)
    for a in ("x", "y", "count"):
        assert getattr(got, a).tobytes() == getattr(want, a).tobytes()


def test_collisions_after_rescale_merge_in_key_order():
    h = PairHistogram({(0.1, 0.2): 0.1, (0.3, 0.2): 0.2, (0.5, 0.2): 0.3, (0.2, 0.0): 1.5})
    g = h.scaled(0.0, 1.0)  # bottom mass 0: every key lands on (0, y)
    assert g.items() == [((0.0, 0.2), (0.1 + 0.2) + 0.3)]
    assert g.items() == list(reference_rescale(h.items(), 0.0, 1.0).items())
    # w_top = 0: the y-only key (0.2, 0) is kept, the rest collide on x
    assert h.scaled(1.0, 0.0).items() == list(reference_rescale(h.items(), 1.0, 0.0).items())
