import graphlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import (
    Distribution,
    PairHistogram,
    Poset,
    SizeCapError,
    closest_monotone_on_matching,
    dist_to_bigness,
    exact_dtv_to_monotone,
    func_dist_to_monotone,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    max_violation_matching,
    min_perm_l1,
    min_w_to_monotone_pairhist,
    pair_histogram,
    w_distance,
)
from posetdist import oracles, simplex
from posetdist.oracles import DEFAULT_LP_CAP
from posetdist.poset import transitive_closure

from genutil import (
    GridInfeasibleError,
    brute_force_min_perm_l1,
    brute_force_violation_matching,
    counting_pivots,
    highs_lp,
    learned_ring,
    lp_min_w_to_monotone_pairhist,
    random_bipartite,
    random_dag,
    random_distribution,
    reference_dtv_to_monotone,
    reference_midpoint_fix,
    reference_func_dist_lp,
)


def bigness_distance_lp(p: Distribution, T: float) -> float:
    """Independent oracle: TV distance to the T-big polytope by LP (HiGHS)."""
    n = p.n
    c = np.concatenate([np.zeros(n), np.full(n, 0.5)])
    A, b = [], []
    for i in range(n):
        row = np.zeros(2 * n)
        row[i], row[n + i] = 1.0, -1.0
        A.append(row)
        b.append(p.probs[i])
        row = np.zeros(2 * n)
        row[i], row[n + i] = -1.0, -1.0
        A.append(row)
        b.append(-p.probs[i])
        row = np.zeros(2 * n)
        row[i] = -1.0
        A.append(row)
        b.append(-T)  # q_i >= T
    A_eq = np.zeros((1, 2 * n))
    A_eq[0, :n] = 1.0
    return highs_lp(c, np.array(A), np.array(b), A_eq, [1.0]).fun


def test_dist_to_bigness_examples():
    assert dist_to_bigness(Distribution.uniform(5), 0.2) == 0.0
    p = Distribution(np.array([0.1, 0.25, 0.25, 0.4]))
    assert dist_to_bigness(p, 0.25) == pytest.approx(0.15)
    p = Distribution(np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
    assert dist_to_bigness(p, 0.25) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        dist_to_bigness(Distribution.uniform(4), 0.3)
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1/n\], got T="):
            dist_to_bigness(Distribution.uniform(4), bad)


def test_dist_to_bigness_matches_lp():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        p = random_distribution(rng, n)
        T = float(rng.uniform(0.2, 1.0)) / n
        assert dist_to_bigness(p, T) == pytest.approx(bigness_distance_lp(p, T), abs=1e-8)


def test_func_dist_examples():
    d, sol = func_dist_to_monotone(make_matching(1), Distribution(np.array([0.75, 0.25])))
    assert d == pytest.approx(0.5, abs=1e-9)
    assert sol.objective == d
    d, _ = func_dist_to_monotone(make_line(3), Distribution(np.array([0.5, 0.3, 0.2])))
    assert d == pytest.approx(0.3, abs=1e-9)
    d, _ = func_dist_to_monotone(make_line(3), Distribution(np.array([0.2, 0.3, 0.5])))
    assert d == 0.0
    with pytest.raises(SizeCapError):
        func_dist_to_monotone(make_line(DEFAULT_LP_CAP + 1), Distribution.uniform(DEFAULT_LP_CAP + 1))


def test_matching_examples_and_tiebreak():
    G = make_line(3)
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    m = max_violation_matching(G, p)
    # the assignment links 0 -> 1 -> 2, and the chain collapses to (0, 2)
    assert m.edges == (((0, 2), pytest.approx(0.3)),)
    assert m.weight == pytest.approx(0.3)
    assert max_violation_matching(G, Distribution(np.array([0.2, 0.3, 0.5]))).edges == ()
    m = max_violation_matching(make_matching(1), Distribution(np.array([0.75, 0.25])))
    assert m.weight == pytest.approx(0.5)


def test_matching_equals_bruteforce_and_lp():
    rng = np.random.default_rng(33)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        G = random_dag(rng, n)
        p = random_distribution(rng, n)
        W = max_violation_matching(G, p).weight
        assert W == pytest.approx(brute_force_violation_matching(G, p), abs=1e-10)
        d, _ = func_dist_to_monotone(G, p)
        assert d == pytest.approx(W, abs=1e-7)  # LP duality + integrality
    # 1/4-grid probabilities tie many violation weights and many p values
    for _ in range(40):
        n = int(rng.integers(3, 9))
        G, p = random_dag(rng, n), Distribution.normalized(rng.integers(1, 5, n) / 4)
        assert max_violation_matching(G, p).weight == pytest.approx(brute_force_violation_matching(G, p), abs=1e-12)


def test_bipartite_matching_path_agrees_with_dp():
    rng = np.random.default_rng(34)
    for _ in range(40):
        G = random_bipartite(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        p = random_distribution(rng, G.n)
        W = max_violation_matching(G, p).weight
        assert W == pytest.approx(brute_force_violation_matching(G, p), abs=1e-10)


def test_matching_on_large_posets_equals_lp():
    # beyond brute-force reach the function-distance LP is the independent route
    rng = np.random.default_rng(35)
    posets = [random_dag(rng, n, edge_prob=0.1) for n in (25, 40, 64)] + [make_hypercube(5), make_hypercube(6)]
    cases = [(G, random_distribution(rng, G.n)) for G in posets] + [learned_ring(300, 36)]
    for G, p in cases:
        m = max_violation_matching(G, p)
        if G.n <= DEFAULT_LP_CAP:
            d, _ = func_dist_to_monotone(G, p)
            assert m.weight == pytest.approx(d, abs=1e-7)
        else:  # the learned 300 + 300 ring: HiGHS, past the flow LP's cap
            assert m.weight == pytest.approx(reference_func_dist_lp(G, p), abs=1e-9)
        tc = transitive_closure(G)
        for (u, v), w in m.edges:
            assert tc.reach(u, v)
            assert w == p.probs[u] - p.probs[v]
        assert list(m.edges) == sorted(m.edges)


def test_matching_runs_no_transportation_simplex(monkeypatch):
    """The violation matching is an augmenting-path search: no kind of poset
    reaches _transport_cost, on random p or on learned counts with many tied
    values."""
    rng = np.random.default_rng(42)
    cases = [(G, random_distribution(rng, G.n)) for G in (random_bipartite(rng, 6, 7), random_dag(rng, 9))]
    cube = make_hypercube(6)
    ring = learned_ring(200, 43)

    def no_transport(*args):
        raise AssertionError("the transportation simplex was called")

    monkeypatch.setattr(oracles, "_transport_cost", no_transport)
    for G, p in cases:
        assert max_violation_matching(G, p).weight == pytest.approx(brute_force_violation_matching(G, p), abs=1e-12)
    p = random_distribution(rng, cube.n)
    assert max_violation_matching(cube, p).weight == pytest.approx(func_dist_to_monotone(cube, p)[0], abs=1e-7)
    G, p = ring
    u, v = G.edge_array.T
    assert (p.probs[u] - p.probs[v] > 1e-12).all()
    assert max_violation_matching(G, p).weight == pytest.approx(reference_func_dist_lp(G, p), abs=1e-9)


def test_bipartite_matching_needs_no_closure(monkeypatch):
    """A bipartite poset's closure is its edges, so max_violation_matching
    never builds one, and it returns what the closure route returns: the
    same edges as a general poset, whose matching reads the closure."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 24))
        bottom = np.flatnonzero(rng.random(n) < 0.5)
        top = np.setdiff1d(np.arange(n), bottom)
        edges = [(b, t) for b in bottom for t in top if rng.random() < 0.3]
        G = make_bipartite(n, edges, bottom=bottom)
        assert np.array_equal(transitive_closure(G).edge_array(), G.edge_array)
        p = random_distribution(rng, n)
        cases.append((G, p, max_violation_matching(Poset(n, edges, kind="general"), p)))

    def no_closure(G):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(oracles, "transitive_closure", no_closure)
    assert sum(bool(want.edges) for _, _, want in cases) >= 20
    for G, p, want in cases:
        assert max_violation_matching(G, p) == want


def test_matching_structural_tie_is_deterministic():
    # a chain 0 < 1 < 2 < 3 among 30 vertices, decreasing in p:
    # {(0,3),(1,2)} and {(0,2),(1,3)} weigh the same
    G = Poset(30, ((0, 1), (1, 2), (2, 3)), kind="general")
    p = Distribution.normalized([4.0, 3.0, 2.0, 1.0] + [1.0] * 26)
    first = max_violation_matching(G, p)
    assert first.weight == pytest.approx(p.probs[0] + p.probs[1] - p.probs[2] - p.probs[3])
    assert len(first.edges) == 2
    for _ in range(5):
        assert max_violation_matching(G, p) == first


def test_exact_dtv_examples_and_sandwich():
    assert exact_dtv_to_monotone(make_line(3), Distribution(np.array([0.2, 0.3, 0.5]))) == pytest.approx(0.0, abs=1e-9)
    d = exact_dtv_to_monotone(make_matching(1), Distribution(np.array([0.75, 0.25])))
    assert d == pytest.approx(0.25, abs=1e-9)
    rng = np.random.default_rng(44)
    for _ in range(40):
        G = random_dag(rng, int(rng.integers(2, 8)))
        p = random_distribution(rng, G.n)
        d = exact_dtv_to_monotone(G, p)
        W = max_violation_matching(G, p).weight
        assert W / 2 - 1e-9 <= d <= W + 1e-9


@st.composite
def monotone_instances(draw):
    """(G, p, shape): a line, matching, bipartite poset, hypercube (d <= 5),
    random DAG, or random DAG with isolated vertices added; edgeless and
    one-vertex posets included. p is random, a point mass, constant, or
    already monotone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["line", "matching", "bipartite", "hypercube", "general", "isolated"]))
    if kind == "line":
        G = make_line(draw(st.integers(1, 12)))
    elif kind == "matching":
        G = make_matching(draw(st.integers(1, 6)))
    elif kind == "bipartite":
        n_bottom, n_top = draw(st.integers(1, 6)), draw(st.integers(0, 6))
        if draw(st.booleans()):
            G = random_bipartite(rng, n_bottom, n_top, edge_prob=draw(st.sampled_from([0.3, 0.7])))
        else:
            G = make_bipartite(n_bottom + n_top, [], bottom=range(n_bottom))
    elif kind == "hypercube":
        G = make_hypercube(draw(st.integers(1, 5)))
    elif kind == "general":
        G = random_dag(rng, draw(st.integers(1, 12)), edge_prob=draw(st.sampled_from([0.0, 0.2, 0.5])))
    else:
        core = random_dag(rng, draw(st.integers(2, 10)), edge_prob=0.5)
        G = Poset(core.n + draw(st.integers(1, 4)), core.edges, kind="general")
    shape = draw(st.sampled_from(["random", "point", "constant", "monotone"]))
    p = random_distribution(rng, G.n)
    if shape == "point":
        probs = np.zeros(G.n)
        probs[draw(st.integers(0, G.n - 1))] = 1.0
        p = Distribution(probs)
    elif shape == "constant":
        p = Distribution.uniform(G.n)
    elif shape == "monotone":
        # ascending values along a linear extension
        preds = {v: set() for v in range(G.n)}
        for u, v in G.edges:
            preds[v].add(u)
        order = list(graphlib.TopologicalSorter(preds).static_order())
        probs = np.empty(G.n)
        probs[order] = np.sort(p.probs)
        p = Distribution(probs)
    return G, p, shape


@settings(max_examples=200, deadline=None)
@given(monotone_instances())
def test_exact_dtv_matches_the_polytope_lp(inst):
    G, p, shape = inst
    d = exact_dtv_to_monotone(G, p)
    assert d == pytest.approx(reference_dtv_to_monotone(G, p), rel=1e-9, abs=1e-12)
    W = max_violation_matching(G, p).weight
    assert W / 2 - 1e-9 <= d <= W + 1e-9
    if shape in ("monotone", "constant") or not G.edges:
        assert d == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(monotone_instances())
def test_func_dist_matches_the_primal_lp_and_its_x_is_optimal(inst):
    G, p, shape = inst
    d, sol = func_dist_to_monotone(G, p)
    assert sol.objective == d
    assert d == pytest.approx(reference_func_dist_lp(G, p), rel=1e-9, abs=1e-12)
    assert d == pytest.approx(max_violation_matching(G, p).weight, rel=1e-9, abs=1e-12)
    q = p.probs + sol.x
    u, v = G.edge_array.T
    assert np.all(q[u] <= q[v] + 1e-12)
    assert float(np.abs(sol.x).sum()) == pytest.approx(d, rel=0, abs=1e-12)
    if shape in ("monotone", "constant") or not G.edges:
        assert d == 0.0 and not sol.x.any()


def _ascending(G: Poset, rng) -> Distribution:
    """A random p made monotone: its sorted values along a linear extension of G."""
    preds = {v: {u for u, w in G.edges if w == v} for v in range(G.n)}
    probs = np.empty(G.n)
    probs[list(graphlib.TopologicalSorter(preds).static_order())] = np.sort(random_distribution(rng, G.n).probs)
    return Distribution(probs)


@pytest.mark.parametrize("G", [
    make_line(7),
    make_matching(4),
    make_bipartite(7, [(0, 4), (0, 5), (1, 5), (2, 6), (3, 6)], bottom=range(4)),
    make_hypercube(4),
    Poset(6, [(0, 2), (1, 2), (2, 3), (1, 4), (4, 5)]),
    Poset(5, []),
], ids=["line", "matching", "bipartite", "hypercube", "general", "edgeless"])
def test_monotone_input_gives_the_empty_answers(G):
    """The general paths answer a p with no violating edge, and an edgeless
    poset, with an empty matching, distances of 0.0 and an all-zero x."""
    p = _ascending(G, np.random.default_rng(G.n)) if G.edges else Distribution(np.array([0.4, 0.3, 0.2, 0.1, 0.0]))
    assert is_monotone(G, p.probs)
    m = max_violation_matching(G, p)
    assert m.edges == () and repr(m.weight) == "0.0"
    d, sol = func_dist_to_monotone(G, p)
    assert repr(d) == "0.0" and repr(exact_dtv_to_monotone(G, p)) == "0.0"
    assert not sol.x.any() and not np.signbit(sol.x).any()


def test_closest_monotone_on_matching():
    G = make_matching(1)
    p = Distribution(np.array([0.75, 0.25]))
    q = closest_monotone_on_matching(G, p)
    np.testing.assert_allclose(q.probs, [0.5, 0.5])
    mono = Distribution(np.array([0.25, 0.75]))
    np.testing.assert_array_equal(closest_monotone_on_matching(G, mono).probs, mono.probs)
    with pytest.raises(ValueError):
        closest_monotone_on_matching(make_line(2), p)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_midpoint_fix_matches_the_edge_loop(data):
    """The masked midpoint fix equals fixing one edge at a time, on matchings
    whose edges run either way between vertex labels."""
    n_pairs = data.draw(st.integers(1, 8))
    order = data.draw(st.permutations(range(2 * n_pairs)))
    G = Poset(2 * n_pairs, [order[2 * i : 2 * i + 2] for i in range(n_pairs)], kind="matching")
    weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n_pairs, max_size=2 * n_pairs)))
    p = Distribution((weights + 1e-3) / (weights + 1e-3).sum())
    np.testing.assert_array_equal(closest_monotone_on_matching(G, p).probs, reference_midpoint_fix(G, p.probs))


def test_midpoint_fix_attains_exact_distance():
    rng = np.random.default_rng(55)
    for _ in range(500):
        n_pairs = int(rng.integers(1, 4))  # n <= 6 vertices keeps the LP quick
        G = make_matching(n_pairs)
        p = random_distribution(rng, 2 * n_pairs)
        q = closest_monotone_on_matching(G, p)
        assert is_monotone(G, q.probs)
        cost = 0.5 * float(np.abs(q.probs - p.probs).sum())
        assert cost == pytest.approx(exact_dtv_to_monotone(G, p), abs=1e-9)


def test_w_distance_examples():
    h = PairHistogram({(0.2, 0.3): 1})
    assert w_distance(h, h) == 0.0
    assert w_distance(h, PairHistogram({(0.5, 0.3): 1})) == pytest.approx(0.3, abs=1e-9)
    h2 = PairHistogram({(0.0, 0.4): 1, (0.4, 0.0): 1})
    g2 = PairHistogram({(0.2, 0.2): 2})
    assert w_distance(h2, g2) == pytest.approx(0.8, abs=1e-9)
    # unbalanced totals pad at the origin
    assert w_distance(h, PairHistogram({(0.2, 0.3): 2})) == pytest.approx(0.5, abs=1e-9)


def _random_pairhist(rng, max_pts=5):
    pts = {}
    for _ in range(int(rng.integers(1, max_pts + 1))):
        key = (round(float(rng.uniform(0, 1)), 2), round(float(rng.uniform(0, 1)), 2))
        if key == (0.0, 0.0):
            continue
        pts[key] = pts.get(key, 0) + int(rng.integers(1, 4))
    return PairHistogram(pts) if pts else PairHistogram({(0.5, 0.5): 1})


def test_w_distance_symmetry_triangle():
    rng = np.random.default_rng(66)
    for _ in range(25):
        a, b, c = (_random_pairhist(rng) for _ in range(3))
        assert w_distance(a, b) == pytest.approx(w_distance(b, a), abs=1e-8)
        assert w_distance(a, c) <= w_distance(a, b) + w_distance(b, c) + 1e-8


def test_min_w_grid_cap():
    g = PairHistogram({(0.75, 0.25): 1})
    with pytest.raises(GridInfeasibleError):
        lp_min_w_to_monotone_pairhist(g, grid_step=0.25, max_grid_points=3)
    with pytest.raises(ValueError):
        lp_min_w_to_monotone_pairhist(g, grid_step=0.0)
    with pytest.raises(TypeError):
        min_w_to_monotone_pairhist(g, mode="lp")  # the library keeps the midpoint statistic only


def test_min_w_modes():
    g = PairHistogram({(0.75, 0.25): 1})
    val, gstar = lp_min_w_to_monotone_pairhist(g, grid_step=0.25)
    assert val == pytest.approx(0.5, abs=1e-9)
    for (x, y), _ in gstar.items():
        assert x <= y
    val_mid, gstar_mid = min_w_to_monotone_pairhist(g)
    assert val_mid == pytest.approx(0.5)
    assert gstar_mid.items() == [((0.5, 0.5), 1.0)]
    assert lp_min_w_to_monotone_pairhist(PairHistogram({}), grid_step=0.1)[0] == 0.0


def test_min_w_monotone_input_is_zero():
    p = Distribution(np.array([0.1, 0.15, 0.3, 0.45]))
    g = pair_histogram(p.probs[:2], p.probs[2:])
    for val, _ in (lp_min_w_to_monotone_pairhist(g, grid_step=0.05), min_w_to_monotone_pairhist(g)):
        assert val == pytest.approx(0.0, abs=1e-9)


def test_midpoint_upper_bounds_lp():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n_pairs = int(rng.integers(1, 4))
        v = rng.integers(0, 5, size=2 * n_pairs) * 0.05
        if v.sum() == 0:
            continue
        v = v / v.sum()
        v = np.round(v / 0.05) * 0.05  # keep keys on the lp grid
        if abs(v.sum() - 1.0) > 1e-9:
            continue
        g = pair_histogram(v[:n_pairs], v[n_pairs:])
        if not g.support:
            continue
        lp_val, _ = lp_min_w_to_monotone_pairhist(g, grid_step=0.05)
        mid_val, _ = min_w_to_monotone_pairhist(g)
        assert mid_val >= lp_val - 1e-9


def test_min_perm_l1(monkeypatch):
    assert min_perm_l1([], [], [], []) == 0.0
    assert min_perm_l1([0.5, 0.5], [0.1, 0.9], [0.5, 0.5], [0.1, 0.9]) == 0.0
    assert min_perm_l1([0.4, 0.6], [0.1, 0.9], [0.6, 0.4], [0.9, 0.1]) == 0.0
    rng = np.random.default_rng(7)
    for n in (10, 50):  # beyond enumeration: a permuted copy is at distance 0
        p1, p2 = random_distribution(rng, n).probs, random_distribution(rng, n).probs
        pi = rng.permutation(n)
        assert min_perm_l1(p1, p2, p1[pi], p2[pi]) == 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        p1, p2, q1, q2 = (random_distribution(rng, n).probs for _ in range(4))
        assert min_perm_l1(p1, p2, q1, q2) == pytest.approx(brute_force_min_perm_l1(p1, p2, q1, q2), abs=1e-12)
    # 1/4-grid vectors: tied costs and degenerate pivots; once more with
    # Bland's rule from the first pivot
    tied = [rng.integers(0, 5, (4, int(rng.integers(2, 8)))) / 4 for _ in range(40)]
    entered = counting_pivots(monkeypatch)
    for stall_limit in (simplex._STALL_LIMIT, 0):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
        entered.clear()
        for vecs in tied:
            assert min_perm_l1(*vecs) == pytest.approx(brute_force_min_perm_l1(*vecs), abs=1e-12)
        assert entered
    with pytest.raises(ValueError, match="share a length"):
        min_perm_l1([0.5], [0.5], [0.5, 0.5], [0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="1-D vectors of finite numbers"):
            min_perm_l1([0.5, bad], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="1-D vectors of finite numbers"):
        min_perm_l1([[0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(ValueError, match="1-D vectors of finite numbers"):
        min_perm_l1(0.5, 0.5, 0.5, 0.5)


def test_w_dominates_min_perm_l1():
    # transport distance between pair histograms upper-bounds the best
    # label-matching l1 gap
    rng = np.random.default_rng(88)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        p1, p2, q1, q2 = (random_distribution(rng, n).probs for _ in range(4))
        W = w_distance(pair_histogram(p1, p2), pair_histogram(q1, q2))
        assert W >= min_perm_l1(p1, p2, q1, q2) - 1e-8
