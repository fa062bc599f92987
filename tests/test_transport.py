"""w_distance: pinned values, the network simplex against an LP route,
scipy's HiGHS on the dense equality transport LP, its pivot counts, and its
least-cost starting basis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetdist import PairHistogram, min_perm_l1, w_distance
from posetdist import oracles, simplex
from posetdist.simplex import LpError

from genutil import (
    array_digest,
    bench_shaped_pair_histograms,
    counting_pivots,
    record_pivot_path,
    reference_transport_cost,
)

# w_distance on bench_shaped_pair_histograms(101), in order.
BENCH_PINS = [
    4.377241847536695, 7.374230863713011, 7.252071653517372, 4.6031050550252, 8.122041887499165,
    5.452704986366863, 5.5280263489412125, 6.959197173191061, 6.547240230136838, 3.787382229238683,
]

HAND_PINS = [
    ({(0.2, 0.3): 1}, {(0.5, 0.3): 1}, 0.3),
    ({(0.0, 0.4): 1, (0.4, 0.0): 1}, {(0.2, 0.2): 2}, 0.8),
    ({(0.2, 0.3): 1}, {(0.2, 0.3): 2}, 0.5),
    ({(0.2, 0.3): 2.5, (0.1, 0.7): 0.25}, {(0.3, 0.3): 1.5, (0.05, 0.05): 0.75, (0.6, 0.1): 1.0}, 0.975),
    ({(0.1, 0.1): 3, (0.9, 0.2): 1}, {}, 1.7000000000000002),
    ({(0.25, 0.5): 1, (0.5, 0.25): 1, (0.5, 0.5): 2},
     {(0.25, 0.25): 2, (0.5, 0.5): 1, (0.75, 0.25): 1, (0.25, 0.75): 1}, 1.5),
]


def test_w_distance_bench_shaped_pins():
    got = [w_distance(h, g) for h, g in bench_shaped_pair_histograms(101)]
    assert got == pytest.approx(BENCH_PINS, rel=1e-12)


@pytest.mark.parametrize("h, g, want", HAND_PINS)
def test_w_distance_hand_pins(h, g, want):
    assert w_distance(PairHistogram(h), PairHistogram(g)) == pytest.approx(want, rel=1e-12)


def _padded(h: PairHistogram, g: PairHistogram):
    """Supply and demand point lists with the lighter side padded at (0, 0)."""
    supply, demand = h.items(), g.items()
    diff = sum(c for _, c in supply) - sum(c for _, c in demand)
    if diff > 0:
        demand.append(((0.0, 0.0), diff))
    elif diff < 0:
        supply.append(((0.0, 0.0), -diff))
    return supply, demand


def _check_against_references(h: PairHistogram, g: PairHistogram) -> None:
    got = w_distance(h, g)
    supply, demand = _padded(h, g)
    if not supply:
        assert got == 0.0
        return
    assert got == pytest.approx(reference_transport_cost(supply, demand), rel=1e-9, abs=1e-12)


# Keys on a fine grid, or on a 1/4 grid where equal costs force ties and
# degenerate pivots; counts integer or fractional.
_fine = st.integers(0, 1000).map(lambda k: k / 1000)
_coarse = st.integers(0, 4).map(lambda k: k / 4)
_counts = st.one_of(st.integers(1, 5).map(float), st.floats(0.01, 5.0, allow_nan=False))


@st.composite
def pair_hists(draw, coords, min_keys=0, max_keys=8):
    keys = draw(st.lists(st.tuples(coords, coords).filter(any), min_size=min_keys, max_size=max_keys, unique=True))
    return PairHistogram({k: draw(_counts) for k in keys})


_hists = st.one_of(pair_hists(_fine), pair_hists(_coarse))
# the benchmark's size, 20-24 keys a side; the 1/4 grid has 24 keys
_bench_sized = st.one_of(pair_hists(_fine, 20, 24), pair_hists(_coarse, 20, 24))


@settings(deadline=None, max_examples=150)
@given(_hists, _hists)
@example(PairHistogram({(0.25, 0.5): 2.0}), PairHistogram({(0.5, 0.0): 2.0}))  # 1 x 1
@example(PairHistogram({}), PairHistogram({(0.25, 0.5): 1.5, (1.0, 0.75): 3.0}))
@example(PairHistogram({(0.25, 0.5): 1.5, (1.0, 0.75): 3.0}), PairHistogram({}))
@example(PairHistogram({}), PairHistogram({}))
def test_w_distance_matches_lp_routes(h, g):
    _check_against_references(h, g)


@settings(deadline=None, max_examples=25)
@given(_bench_sized, _bench_sized)
def test_w_distance_matches_lp_routes_at_bench_size(h, g):
    _check_against_references(h, g)


@settings(deadline=None, max_examples=50)
@given(_hists)
def test_w_distance_to_itself_is_zero(h):
    assert w_distance(h, h) == 0.0


# 1/4-grid pairs whose least-cost start is not optimal, so ties and
# degenerate pivots reach Bland's rule; the last pair is padded at (0, 0).
TIED_PAIRS = [
    ({(0.25, 1.0): 1, (1.0, 0.5): 2, (1.0, 1.0): 3},
     {(0.25, 0.0): 1, (0.25, 0.25): 1, (0.5, 0.75): 3, (0.75, 1.0): 1}),
    ({(0.25, 0.5): 2, (0.25, 0.75): 3, (0.25, 1.0): 2, (0.5, 0.5): 3},
     {(0.0, 0.5): 2, (0.5, 0.75): 2, (0.75, 0.75): 3, (1.0, 0.0): 1, (1.0, 0.5): 2}),
    ({(0.5, 0.5): 3, (0.5, 1.0): 2, (1.0, 0.25): 3, (1.0, 0.75): 3, (1.0, 1.0): 2},
     {(0.25, 0.0): 3, (0.25, 0.75): 1, (0.5, 0.5): 2, (0.75, 0.5): 3, (0.75, 1.0): 1}),
]


def test_bland_from_the_first_pivot_matches_reference(monkeypatch):
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    entered = counting_pivots(monkeypatch)
    cases = bench_shaped_pair_histograms(7, pairs=3) + [(PairHistogram(h), PairHistogram(g)) for h, g in TIED_PAIRS]
    for h, g in cases:
        entered.clear()
        _check_against_references(h, g)
        assert entered, "the case never pivots, so it does not exercise Bland's rule"


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    entered = counting_pivots(monkeypatch)
    h, g = bench_shaped_pair_histograms(101, pairs=1)[0]
    with pytest.raises(LpError, match="iteration limit"):
        w_distance(h, g)
    assert entered


def test_pivot_budget_on_bench_pairs(monkeypatch):
    # the least-cost start takes 255 pivots here; a northwest-corner start took 480
    entered = counting_pivots(monkeypatch)
    for h, g in bench_shaped_pair_histograms(101):
        w_distance(h, g)
    assert len(entered) <= 255


_RNG = np.random.default_rng(5)
_SHORT = [0.1, 0.2]
_LONG = [0.2, 1.1, 1.3]
# (supply, demand, cost); the last entry pads fractional counts the way
# w_distance does, and the two totals then differ by rounding (2.6 against
# 2.5999999999999996)
START_CASES = {
    "1xk": ([3.5], [1.0, 0.5, 2.0], _RNG.random((1, 3))),
    "kx1": ([1.0, 0.25, 2.25], [3.5], _RNG.random((3, 1))),
    "row and column close together": ([1.0, 2.0, 3.0], [1.0, 4.0, 1.0], [[0, 5, 5], [5, 1, 5], [5, 5, 2]]),
    "all-equal costs": ([2.0, 1.0, 3.0], [1.5, 1.5, 1.5, 1.5], np.ones((3, 4))),
    "fractional padding": (_LONG, _SHORT + [sum(_LONG) - sum(_SHORT)], _RNG.random((3, 3))),
    "unit assignment with tied costs": ([1.0] * 4, [1.0] * 4, _RNG.integers(0, 3, (4, 4))),
}


@pytest.mark.parametrize("name", START_CASES)
def test_least_cost_start_is_a_feasible_spanning_tree(name):
    supply, demand, cost = START_CASES[name]
    cost = np.asarray(cost, dtype=float)
    ns, nd = cost.shape
    flow, cells = simplex._least_cost_start(supply, demand, cost)
    assert len(cells) == len(set(cells)) == ns + nd - 1
    # ns + nd - 1 edges with no cycle make a spanning tree: union-find
    root = list(range(ns + nd))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for k in cells:
        a, b = find(k // nd), find(ns + k % nd)
        assert a != b, f"cell {k} closes a cycle"
        root[a] = b
    assert (flow >= 0).all()
    assert not flow[np.setdiff1d(np.arange(ns * nd), cells)].any()
    flow = flow.reshape(ns, nd)
    assert flow.sum(axis=1) == pytest.approx(supply, rel=1e-12)
    assert flow.sum(axis=0) == pytest.approx(demand, rel=1e-12)


def _perm(n: int, seed, quarter: bool):
    rng = np.random.default_rng(seed)
    vecs = [rng.integers(0, 5, n) / 4 if quarter else rng.random(n) for _ in range(4)]
    return lambda: min_perm_l1(*vecs)


def _quarter_assignment(n: int, seed):
    cost = np.random.default_rng(seed).integers(0, 5, (n, n)) / 4
    return lambda: oracles._transport_cost([1.0] * n, [1.0] * n, cost)


def _tied_at_bland(monkeypatch):
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    return lambda: [w_distance(PairHistogram(h), PairHistogram(g)) for h, g in TIED_PAIRS]


TRANSPORT_CASES = {
    "w20x22": lambda mp: lambda: [w_distance(h, g) for h, g in bench_shaped_pair_histograms(101)],
    "perm40": lambda mp: _perm(40, [40, 24], False),
    "perm80-quarter": lambda mp: _perm(80, [7, 80, 0], True),
    # degenerate quarter-grid costs: the default stall limit switches to
    # Bland's rule on the assignment, and the tied pairs run under it from
    # their first pivot
    "assign120-quarter-bland": lambda mp: _quarter_assignment(120, [11, 120, 3]),
    "tied-bland": _tied_at_bland,
}

# (pricing calls, digest of every _transport_cost (value, flow) and of every
# pricing call's (cell, bland)) per case. Work on the pivot loop
# keeps every pivot and every output byte, so it never moves these pins.
TRANSPORT_PATH_PINS = {
    "w20x22": (265, "df47c856eed1c471418783032e5045ca"),
    "perm40": (44, "e6dcd82db9d422c84ad580033c84e57e"),
    "perm80-quarter": (113, "be29cca10bbb273d2fc33d9d4595acf6"),
    "assign120-quarter-bland": (125, "822e2821d1fa2326cabecc9d6dc345f4"),
    "tied-bland": (17, "29c0447a7fe0d8b88a5032af74524b33"),
}


@pytest.mark.parametrize("name", TRANSPORT_CASES)
def test_transport_pivot_path_pins(monkeypatch, name):
    solve = TRANSPORT_CASES[name](monkeypatch)
    calls, results = record_pivot_path(monkeypatch, oracles, "_transport_cost")
    solve()
    assert results
    assert name.endswith("-bland") == any(bland for _, bland in calls)
    parts = [x for value, flow in results for x in (value, flow)]
    assert (len(calls), array_digest(parts + [calls])) == TRANSPORT_PATH_PINS[name]
