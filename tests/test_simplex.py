import numpy as np
import pytest
from scipy.optimize import linprog

from posetdist.simplex import LpInfeasibleError, LpUnboundedError, _simplex, solve_lp


def test_basic_inequality():
    obj, x, _ = solve_lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert obj == pytest.approx(-2.8, abs=1e-9)
    np.testing.assert_allclose(x, [1.6, 1.2], atol=1e-9)


def test_equality_and_negative_rhs():
    obj, _, _ = solve_lp([1, 1], A_eq=[[1, 1]], b_eq=[2])
    assert obj == pytest.approx(2.0, abs=1e-9)
    obj, x, _ = solve_lp([1], A_ub=[[-1]], b_ub=[-1])  # x >= 1
    assert obj == pytest.approx(1.0, abs=1e-9)


def test_redundant_equalities():
    obj, _, _ = solve_lp([1, 1], A_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
    assert obj == pytest.approx(2.0, abs=1e-9)


def test_infeasible_raises():
    with pytest.raises(LpInfeasibleError):
        solve_lp([0, 0], A_eq=[[1, 1], [1, 1]], b_eq=[1, 2])


def test_unbounded_raises():
    with pytest.raises(LpUnboundedError):
        solve_lp([-1, 0])
    with pytest.raises(LpUnboundedError):
        solve_lp([-1, 0], A_ub=[[0, 1]], b_ub=[1])


def _assert_dual_optimal(c, A_ub, b_ub, A_eq, b_eq, obj, duals):
    """duals solve the dual LP: y_ub <= 0, A^T y <= c, and b.y = obj."""
    A = np.vstack([M for M in (A_ub, A_eq) if M is not None]).astype(float)
    b = np.concatenate([np.ravel(v) for v in (b_ub, b_eq) if v is not None]).astype(float)
    m_ub = 0 if A_ub is None else len(A_ub)
    assert duals.shape == (len(b),)
    assert np.all(duals[:m_ub] <= 1e-9)
    assert np.all(A.T @ duals <= np.asarray(c, dtype=float) + 1e-9)
    assert b @ duals == pytest.approx(obj, abs=1e-7)


def test_random_lps_match_scipy():
    """Dual route: feasible bounded random LPs, our simplex vs HiGHS, primal
    value and row duals (HiGHS's marginals; the optimum is nondegenerate)."""
    rng = np.random.default_rng(20240817)
    for trial in range(60):
        m, k, n = rng.integers(1, 5), rng.integers(0, 3), rng.integers(2, 8)
        A_ub = rng.normal(size=(m, n))
        A_eq = rng.normal(size=(k, n)) if k else None
        x0 = rng.uniform(0, 1, n)  # feasibility witness
        b_ub = A_ub @ x0 + rng.uniform(0, 1, m)
        b_eq = A_eq @ x0 if k else None
        c = rng.uniform(0, 1, n)  # nonnegative cost keeps the LP bounded
        obj, x, duals = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        np.testing.assert_allclose(duals[:m], ref.ineqlin.marginals, rtol=0, atol=1e-7)
        if k:
            np.testing.assert_allclose(duals[m:], ref.eqlin.marginals, rtol=0, atol=1e-7)
        assert np.all(A_ub @ x <= b_ub + 1e-9)
        if k:
            np.testing.assert_allclose(A_eq @ x, b_eq, atol=1e-9)
        assert np.all(x >= -1e-12)


def test_degenerate_transportation_like():
    # many ties: uniform supplies and demands, zero-cost diagonal
    n = 6
    c = np.ones(n * n)
    c[:: n + 1] = 0.0
    A_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        A_eq[i, i * n : (i + 1) * n] = 1.0
        A_eq[n + i, i::n] = 1.0
    b_eq = np.full(2 * n, 1.0)
    obj, _, _ = solve_lp(c, A_eq=A_eq, b_eq=b_eq)
    assert obj == pytest.approx(0.0, abs=1e-9)


def _desk_lp(rng, m_ub, m_eq, n, skip_phase1):
    """Feasible bounded LP with sparse small-integer rows and many tight
    constraints, so vertices are highly degenerate.

    Row 0 bounds sum(x), so any cost vector keeps it bounded. With
    skip_phase1 every b_ub is nonnegative and there are no equalities, so the
    slack basis is feasible; otherwise b_ub has mixed signs and the equality
    block ends with a scaled copy of its first row (a redundant equality).
    """
    A_ub = rng.integers(-2, 3, size=(m_ub, n)) * (rng.random((m_ub, n)) < 0.2)
    A_ub[0] = 1
    c = rng.integers(-3, 4, size=n).astype(float)
    if skip_phase1:
        b_ub = rng.integers(0, 3, m_ub).astype(float)
        b_ub[0] = n // 4
        return c, A_ub, b_ub, None, None
    x0 = rng.integers(0, 2, n).astype(float)
    b_ub = A_ub @ x0 + rng.integers(0, 2, m_ub)
    A_eq = rng.integers(-2, 3, size=(m_eq, n)) * (rng.random((m_eq, n)) < 0.3)
    A_eq = np.vstack([A_eq, 2 * A_eq[:1]])
    return c, A_ub, b_ub, A_eq, A_eq @ x0


@pytest.mark.parametrize("trial", range(12))
def test_desk_scale_lps_match_scipy(trial):
    """Slack start, phase-1 skip, artificial removal with a redundant row and
    eta-updated pivots at 50-300 rows, against HiGHS."""
    rng = np.random.default_rng([20261018, trial])
    rows = int(rng.integers(50, 301))
    skip_phase1 = trial % 3 == 0
    m_eq = 0 if skip_phase1 else int(rng.integers(1, 6))
    m_ub = rows - m_eq - (0 if skip_phase1 else 1)
    n = int(rng.integers(rows // 2, rows + 1))
    c, A_ub, b_ub, A_eq, b_eq = _desk_lp(rng, m_ub, m_eq, n, skip_phase1)
    if not skip_phase1:
        assert (b_ub < 0).any() and (b_ub > 0).any()
    obj, x, duals = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert obj == pytest.approx(ref.fun, abs=1e-7)
    assert obj == pytest.approx(float(c @ x), abs=1e-12)
    _assert_dual_optimal(c, A_ub, b_ub, A_eq, b_eq, obj, duals)
    assert np.all(A_ub @ x <= b_ub + 1e-9)
    if A_eq is not None:
        np.testing.assert_allclose(A_eq @ x, b_eq, rtol=0, atol=1e-9)
    assert np.all(x >= -1e-9)


def test_small_degenerate_lps_match_scipy():
    """Tiny integer LPs whose phase 1 often ends with an artificial basic at
    level zero, so the removal loop pivots it out through B^-1."""
    rng = np.random.default_rng(20261019)
    for trial in range(200):
        m_ub, m_eq, n = rng.integers(0, 4), rng.integers(1, 4), rng.integers(2, 6)
        A_ub = rng.integers(-2, 3, size=(m_ub, n)) if m_ub else None
        A_eq = rng.integers(-2, 3, size=(m_eq, n))
        x0 = rng.integers(0, 2, n)
        b_ub = A_ub @ x0 + rng.integers(0, 2, m_ub) if m_ub else None
        b_eq = A_eq @ x0
        c = rng.integers(0, 3, n)
        obj, x, duals = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        _assert_dual_optimal(c, A_ub, b_ub, A_eq, b_eq, obj, duals)
        if m_ub:
            assert np.all(A_ub @ x <= b_ub + 1e-9)
        np.testing.assert_allclose(A_eq @ x, b_eq, rtol=0, atol=1e-9)
        assert np.all(x >= -1e-9)


def test_zero_level_artificial_pivots_out():
    # phase 1 stops with the equality row's artificial basic at zero
    obj, x, _ = solve_lp([0, 1, 0, 0], A_ub=[[0, 2, 1, 1]], b_ub=[0], A_eq=[[0, -1, -1, 0]], b_eq=[0])
    assert obj == 0.0
    np.testing.assert_allclose(x, 0.0, atol=1e-12)


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
