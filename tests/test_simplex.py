import numpy as np
import pytest
from scipy.optimize import linprog

from posetdist import PairHistogram, make_hypercube, oracles, simplex
from posetdist.simplex import LpError, _simplex, solve_lp

from genutil import array_digest, random_dag, random_distribution, record_pivot_path
from test_transport import TIED_PAIRS, _check_against_references


def test_basic_inequality():
    obj, x, _ = solve_lp([-1, -1], [[1, 2], [3, 1]], -np.inf, [4, 6])
    assert obj == pytest.approx(-2.8, abs=1e-9)
    np.testing.assert_allclose(x, [1.6, 1.2], atol=1e-9)


def test_negative_rhs_raises():
    # x >= 1 as -x <= -1: the slack basis is infeasible, a caller's bug
    with pytest.raises(LpError, match="holds no 0"):
        solve_lp([1], [[-1]], -np.inf, [-1])


def test_unbounded_raises():
    with pytest.raises(LpError, match="objective unbounded below"):
        solve_lp([-1, 0], [[0, 1]], -np.inf, [1])


def _assert_dual_optimal(c, A_ub, b_ub, obj, duals):
    """duals solve the dual LP: y <= 0, A^T y <= c, and b.y = obj."""
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    assert duals.shape == (len(b),)
    assert np.all(duals <= 1e-9)
    assert np.all(A.T @ duals <= np.asarray(c, dtype=float) + 1e-9)
    assert b @ duals == pytest.approx(obj, abs=1e-7)


def test_random_lps_match_scipy():
    """Dual route: feasible bounded random LPs, our simplex vs HiGHS, primal
    value and row duals (HiGHS's marginals; the optimum is nondegenerate)."""
    rng = np.random.default_rng(20240817)
    for trial in range(60):
        m, n = rng.integers(1, 5), rng.integers(2, 8)
        A_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0, 1, m)  # x = 0 is feasible
        c = rng.uniform(-1, 1, n)
        A_ub[0] = np.abs(A_ub[0]) + 0.1  # a positive row keeps the LP bounded
        obj, x, duals = solve_lp(c, A_ub, -np.inf, b_ub)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None))
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        np.testing.assert_allclose(duals, ref.ineqlin.marginals, rtol=0, atol=1e-7)
        assert np.all(A_ub @ x <= b_ub + 1e-9)
        assert np.all(x >= -1e-12)


def test_degenerate_transportation_like():
    # many ties: an assignment LP with <= rows, uniform capacities, every
    # pair worth 1 and the diagonal worth 2
    n = 6
    c = -np.ones(n * n)
    c[:: n + 1] = -2.0
    A_ub = np.zeros((2 * n, n * n))
    for i in range(n):
        A_ub[i, i * n : (i + 1) * n] = 1.0
        A_ub[n + i, i::n] = 1.0
    obj, _, _ = solve_lp(c, A_ub, -np.inf, np.full(2 * n, 1.0))
    assert obj == pytest.approx(-2.0 * n, abs=1e-9)


def _tied_transports():
    for h, g in TIED_PAIRS:
        _check_against_references(PairHistogram(h), PairHistogram(g))


@pytest.mark.parametrize("solve", [test_degenerate_transportation_like, _tied_transports], ids=["dense", "transport"])
def test_both_methods_read_the_solver_constants(monkeypatch, solve):
    """One _STALL_LIMIT and one _MAX_ITER govern both simplex methods: at a
    stall limit of 0 each prices by Bland's rule from its first pivot and
    still meets its reference, and at one pivot each stops at the limit."""
    bland_flags = []
    entering = simplex._entering

    def recording(reduced, basis, bland):
        bland_flags.append(bland)
        return entering(reduced, basis, bland)

    monkeypatch.setattr(simplex, "_entering", recording)
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    solve()
    assert bland_flags and all(bland_flags)
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    with pytest.raises(LpError, match="iteration limit"):
        solve()


def _ranged_lp(rng, tall: bool):
    """Random LP with finite ranges lo < 0 < hi on every row; a positive
    row 0 keeps it bounded. Tall LPs have more rows than columns, so many
    rows are tight at either end."""
    n = int(rng.integers(3, 10)) if tall else int(rng.integers(4, 12))
    m = int(rng.integers(8, 30)) if tall else n
    A = rng.normal(size=(m, n))
    A[0] = np.abs(A[0]) + 0.1
    lo, hi = -rng.uniform(0.05, 1, m), rng.uniform(0.05, 1, m)
    return rng.normal(size=n), A, lo, hi


def test_ranged_rows_match_scipy(monkeypatch):
    """lo <= A x <= hi against HiGHS on the stacked rows [A; -A] <= [hi; -lo]:
    the objective, feasibility, and each row dual as HiGHS's upper marginal
    minus its lower one. The ratio tests include bound flips and basic
    slacks leaving at their upper bound."""
    seen = {"flip": 0, "upper": 0}
    leaving = simplex._leaving

    def counting(xB, e, uB, span, basis, bland):
        leave, theta = leaving(xB, e, uB, span, basis, bland)
        if leave < 0:
            seen["flip"] += 1
        elif e[leave] < 0:
            seen["upper"] += 1
        return leave, theta

    monkeypatch.setattr(simplex, "_leaving", counting)
    rng = np.random.default_rng(20261022)
    for trial in range(60):
        c, A, lo, hi = _ranged_lp(rng, tall=trial % 2 == 0)
        obj, x, duals = solve_lp(c, A, lo, hi)
        m = A.shape[0]
        ref = linprog(c, A_ub=np.vstack([A, -A]), b_ub=np.concatenate([hi, -lo]), bounds=(0, None), method="highs")
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        assert np.all(A @ x <= hi + 1e-9) and np.all(A @ x >= lo - 1e-9) and np.all(x >= -1e-9)
        marginals = ref.ineqlin.marginals
        np.testing.assert_allclose(duals, marginals[:m] - marginals[m:], atol=1e-7, err_msg=f"trial {trial}")
    assert seen["flip"] and seen["upper"], seen


def test_row_range_must_hold_zero():
    for lo, hi in ((0.5, 1.0), (-1.0, -0.5), (-1.0, np.inf), (-1.0, np.nan)):
        with pytest.raises(LpError, match="slack basis is infeasible"):
            solve_lp([1], [[1]], lo, hi)


def _desk_lp(rng, m_ub, n):
    """Feasible bounded LP with sparse small-integer rows, nonnegative
    small-integer right-hand sides and many tight constraints, so vertices
    are highly degenerate. Row 0 bounds sum(x), so any cost vector keeps it
    bounded."""
    A_ub = rng.integers(-2, 3, size=(m_ub, n)) * (rng.random((m_ub, n)) < 0.2)
    A_ub[0] = 1
    c = rng.integers(-3, 4, size=n).astype(float)
    b_ub = rng.integers(0, 3, m_ub).astype(float)
    b_ub[0] = n // 4
    return c, A_ub, b_ub


@pytest.mark.parametrize("trial", range(12))
def test_desk_scale_lps_match_scipy(trial):
    """Slack start and eta-updated pivots at 50-300 rows, against HiGHS."""
    rng = np.random.default_rng([20261018, trial])
    rows = int(rng.integers(50, 301))
    n = int(rng.integers(rows // 2, rows + 1))
    c, A_ub, b_ub = _desk_lp(rng, rows, n)
    obj, x, duals = solve_lp(c, A_ub, -np.inf, b_ub)
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert obj == pytest.approx(ref.fun, abs=1e-7)
    assert obj == pytest.approx(float(c @ x), abs=1e-12)
    _assert_dual_optimal(c, A_ub, b_ub, obj, duals)
    assert np.all(A_ub @ x <= b_ub + 1e-9)
    assert np.all(x >= -1e-9)


def test_end_of_phase_check_recovers_from_a_stale_inverse():
    # min -x1 - 3 x2  s.t.  x1 + 2 x2 + s = 2, started from basis {x1} with a
    # wrong B^-1 = [[2]] under which every reduced cost looks nonnegative.
    A = np.array([[1.0, 2.0, 1.0]])
    b = np.array([2.0])
    c = np.array([-1.0, -3.0, 0.0])
    basis, Binv, x, duals = _simplex(A, b, c, np.full(3, np.inf), np.array([0]), np.array([[2.0]]))
    assert basis.tolist() == [1]
    np.testing.assert_allclose(x, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(Binv, [[0.5]])
    np.testing.assert_allclose(duals, [-1.5])


def _flow_lp(G, seed):
    p = random_distribution(np.random.default_rng(seed), G.n)
    return lambda: oracles.exact_dtv_to_monotone(G, p)


def _desk_case(trial: int):
    rng = np.random.default_rng([20261018, trial])
    rows = int(rng.integers(50, 301))
    n = int(rng.integers(rows // 2, rows + 1))
    c, A_ub, b_ub = _desk_lp(rng, rows, n)
    return lambda: oracles.solve_lp(c, A_ub, -np.inf, b_ub)


DENSE_CASES = {
    **{f"cube{d}-shift": (lambda d=d: _flow_lp(make_hypercube(d), [d, 11])) for d in (5, 6, 7)},
    **{f"dag{n}-shift": (lambda n=n: _flow_lp(random_dag(np.random.default_rng([n, 12]), n), [n, 13])) for n in (24, 40)},
    "desk5-bland": lambda: _desk_case(5),  # degenerate: 44 of its pricing calls are Bland's
}

# (pricing calls, digest of solve_lp's (objective, x, duals) and of every
# pricing call's (column, bland)) per case. Work on the pivot loop
# keeps every pivot and every output byte, so it never moves these pins.
DENSE_PATH_PINS = {
    "cube5-shift": (32, "d7a6426cbdad0c175280088d8612756f"),
    "cube6-shift": (68, "01f285154343ab21e80c10dab2a8a071"),
    "cube7-shift": (143, "59443ff238308f6e84b02796d40931a4"),
    "dag24-shift": (32, "a6214f04f67d032e2d0c143f86afe6c9"),
    "dag40-shift": (59, "daff0fedc215534940d436b6cb2c041a"),
    "desk5-bland": (236, "92172fbdf13e7b197b7e13fe79a2c641"),
}


@pytest.mark.parametrize("name", DENSE_CASES)
def test_dense_pivot_path_pins(monkeypatch, name):
    solve = DENSE_CASES[name]()
    calls, results = record_pivot_path(monkeypatch, oracles, "solve_lp")
    solve()
    (obj, x, duals), = results
    assert name.endswith("-bland") == any(bland for _, bland in calls)
    assert (len(calls), array_digest([obj, x, duals, calls])) == DENSE_PATH_PINS[name]
