"""Small dense LP solver: revised simplex from the slack basis, Bland's rule on stalls.

Solves   min c.x   s.t.  A_ub x <= b_ub,  x >= 0,   with b_ub >= 0.

Every LP in this library is desk-scale (a few hundred rows at most), so the
basis inverse is kept as a dense array. With every right-hand side
nonnegative the slack basis is feasible, so the solver starts there, from
B^-1 = I, and runs one simplex phase. Each pivot updates B^-1 with one
rank-1 eta step, touching only the block where the entering column and the
pivot row are nonzero, so a pivot costs at most O(m^2) rather than a
refactorization.

When no entering column is left, the basic point and the duals are
recomputed from the original data by a linear solve. If the fresh reduced
costs still admit an entering column, B^-1 is re-inverted and the simplex
goes on; otherwise the fresh point and duals are what it reports, so the
returned point satisfies the constraints to linear-solve precision and eta
drift never reaches it. solve_lp returns the row duals with the point, each
the derivative of the optimum in that row's right-hand side (so <= 0).
Pricing is most-negative-reduced-cost; when the objective stalls on
degenerate pivots the solver switches to Bland's anti-cycling rule, which
guarantees termination. The feasibility contract is the 1e-9 tolerance.
LpError, the one error, is a fault of the code, never of user input: a
negative right-hand side, an unbounded objective, the iteration limit, or a
singular basis at a fresh solve (numpy's LinAlgError, a ValueError).
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
_MAX_ITER = 100_000
_STALL_LIMIT = 50


class LpError(RuntimeError):
    pass


def _entering(reduced: np.ndarray, basis: np.ndarray, bland: bool) -> int:
    """Column to enter the basis, or -1 when no reduced cost is below -TOL."""
    reduced[basis] = 0.0
    if bland:
        nz = np.flatnonzero(reduced < -TOL)
        return int(nz[0]) if nz.size else -1
    j = int(np.argmin(reduced))
    return j if reduced[j] < -TOL else -1


def _pivot(Binv: np.ndarray, d: np.ndarray, leave: int) -> None:
    """Eta update of B^-1 in place for the basis change at row `leave`,
    where d = B^-1 a is the entering column. Only the block where d and the
    pivot row are both nonzero changes; B^-1 of these LPs stays sparse."""
    pivot_row = Binv[leave] / d[leave]
    rows = np.flatnonzero(d)
    cols = np.flatnonzero(pivot_row)
    Binv[np.ix_(rows, cols)] -= np.outer(d[rows], pivot_row[cols])
    Binv[leave, cols] = pivot_row[cols]


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray, Binv: np.ndarray):
    """Run the revised simplex to optimality from a feasible basis.

    Binv is the inverse of A[:, basis] and is updated in place, except when
    the final check re-inverts it. Returns (basis, Binv, x_basic,
    duals) with x_basic and the row duals solved afresh from the original data.
    """
    m = A.shape[0]
    xB = np.maximum(Binv @ b, 0.0)
    bland = False
    stall = 0
    prev_obj = np.inf
    for _ in range(_MAX_ITER):
        obj = float(c[basis] @ xB)
        if obj < prev_obj - 1e-12:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        prev_obj = obj
        enter = _entering(c - (c[basis] @ Binv) @ A, basis, bland)
        if enter < 0:
            B = A[:, basis]
            try:  # a LinAlgError is a ValueError, which would read as bad input
                xB = np.maximum(np.linalg.solve(B, b), 0.0)  # clip solve noise on degenerate rows
                duals = np.linalg.solve(B.T, c[basis])
                enter = _entering(c - duals @ A, basis, bland)
                if enter < 0:
                    return basis, Binv, xB, duals
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError as exc:
                raise LpError(f"singular basis: {exc}") from exc
        d = Binv @ A[:, enter]
        pos = d > TOL
        if not pos.any():
            raise LpError("objective unbounded below")
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + TOL)[0]
        if bland:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(d[ties])])
        theta = xB[leave] / d[leave]
        xB -= theta * d
        xB[leave] = theta
        np.maximum(xB, 0.0, out=xB)
        _pivot(Binv, d, leave)
        basis[leave] = enter
    raise LpError("simplex iteration limit exceeded")


def solve_lp(c, A_ub, b_ub) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (objective, x, duals) for the minimization LP, one dual per
    A_ub row; raises LpError on a negative b_ub or an unbounded objective."""
    c = np.asarray(c, dtype=float)
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    if (b < 0).any():
        raise LpError("a right-hand side is negative: the slack basis is infeasible")
    m, nvar = A_ub.shape[0], c.size
    A = np.zeros((m, nvar + m))
    A[:, :nvar] = A_ub
    A[np.arange(m), nvar + np.arange(m)] = 1.0
    cost = np.zeros(nvar + m)
    cost[:nvar] = c
    basis, _, xB, duals = _simplex(A, b, cost, nvar + np.arange(m), np.eye(m))
    x = np.zeros(nvar + m)
    x[basis] = xB
    return float(c @ x[:nvar]), x[:nvar], duals
