import numpy as np
import pytest
from scipy.optimize import linprog

from posetdist import PairHistogram, make_hypercube, oracles, simplex
from posetdist.simplex import LpError, _simplex, solve_lp

from genutil import array_digest, random_dag, random_distribution, record_pivot_path
from test_transport import TIED_PAIRS, _check_against_references


def test_basic_inequality():
    obj, x, _ = solve_lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert obj == pytest.approx(-2.8, abs=1e-9)
    np.testing.assert_allclose(x, [1.6, 1.2], atol=1e-9)


def test_negative_rhs_raises():
    # x >= 1 as -x <= -1: the slack basis is infeasible, a caller's bug
    with pytest.raises(LpError, match="negative"):
        solve_lp([1], A_ub=[[-1]], b_ub=[-1])


def test_unbounded_raises():
    with pytest.raises(LpError, match="objective unbounded below"):
        solve_lp([-1, 0], A_ub=[[0, 1]], b_ub=[1])


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
        obj, x, duals = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
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
    obj, _, _ = solve_lp(c, A_ub=A_ub, b_ub=np.full(2 * n, 1.0))
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
    obj, x, duals = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
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
    basis, Binv, xB, duals = _simplex(A, b, c, np.array([0]), np.array([[2.0]]))
    assert basis.tolist() == [1]
    np.testing.assert_allclose(xB, [1.0])
    np.testing.assert_allclose(Binv, [[0.5]])
    np.testing.assert_allclose(duals, [-1.5])


def _flow_lp(G, seed, shift: bool):
    p = random_distribution(np.random.default_rng(seed), G.n)
    return lambda: oracles._monotone_flow(G, p, 0.5 if shift else 1.0, shift)


def _desk_case(trial: int):
    rng = np.random.default_rng([20261018, trial])
    rows = int(rng.integers(50, 301))
    n = int(rng.integers(rows // 2, rows + 1))
    return lambda: oracles.solve_lp(*_desk_lp(rng, rows, n))


DENSE_CASES = {
    **{f"cube{d}{tag}": (lambda d=d, shift=shift: _flow_lp(make_hypercube(d), [d, 11], shift))
       for d in (5, 6, 7) for tag, shift in (("", False), ("-shift", True))},
    **{f"dag{n}{tag}": (lambda n=n, shift=shift: _flow_lp(random_dag(np.random.default_rng([n, 12]), n), [n, 13], shift))
       for n in (24, 40) for tag, shift in (("", False), ("-shift", True))},
    "desk5-bland": lambda: _desk_case(5),  # degenerate: 44 of its pricing calls are Bland's
}

# (pricing calls, digest of solve_lp's (objective, x, duals) and of every
# pricing call's (column, bland)) per case. Work on the pivot loop
# keeps every pivot and every output byte, so it never moves these pins.
DENSE_PATH_PINS = {
    "cube5": (26, "51b1478ba1de10b15c89a54535ad6f9d"),
    "cube5-shift": (32, "1449d1b0ec606545046bc857c248ab79"),
    "cube6": (61, "d92b111f9997457c683631840abda7eb"),
    "cube6-shift": (63, "82603c2ca14c26714cff0c73f113f3c6"),
    "cube7": (143, "1808b12c314ce62f89ce9b2ca939fd04"),
    "cube7-shift": (153, "024c65c69a89116cf95e439eee5d1fe9"),
    "dag24": (24, "90f38d18d0363162e2f7b91edac2dc66"),
    "dag24-shift": (30, "13462b9d4dbd9a2194f3f983814e7327"),
    "dag40": (68, "f6f8c31cf4599b58d05b5e9cc06e3fdd"),
    "dag40-shift": (54, "b36c21d14d38ec922919e74c29da37b6"),
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
