"""Small dense LP solver: two-phase revised simplex, Bland's rule on stalls.

Solves   min c.x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Every LP in this library is desk-scale (a few hundred rows at most), so the
basis inverse is kept as a dense array. The start basis is the slack of every
<= row with a nonnegative right-hand side plus one artificial for each other
row; it is exactly the identity, and an LP that needs no artificial skips
phase 1. Each pivot updates B^-1 with one rank-1 eta step, touching only the
block where the entering column and the pivot row are nonzero, so a pivot
costs at most O(m^2) rather than a refactorization. B^-1 carries over from
phase 1, through the removal of leftover artificials, into phase 2.

When a phase finds no entering column, the basic point and the duals are
recomputed from the original data by a linear solve. If the fresh reduced
costs still admit an entering column, B^-1 is re-inverted and the phase goes
on; otherwise the fresh point and duals are what the phase reports, so the
returned point satisfies the constraints to linear-solve precision and eta
drift never reaches it. solve_lp returns the row duals with the point, each
the derivative of the optimum in that row's right-hand side (so <= 0 on a
<= row). Pricing is most-negative-reduced-cost; when the objective stalls
on degenerate pivots the solver switches to Bland's anti-cycling rule, which
guarantees termination. The feasibility contract is the 1e-9 tolerance.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
_MAX_ITER = 100_000
_STALL_LIMIT = 50


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
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
    the end-of-phase check re-inverts it. Returns (basis, Binv, x_basic,
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
            xB = np.linalg.solve(B, b)
            np.maximum(xB, 0.0, out=xB)  # clip solve noise on degenerate rows
            duals = np.linalg.solve(B.T, c[basis])
            enter = _entering(c - duals @ A, basis, bland)
            if enter < 0:
                return basis, Binv, xB, duals
            Binv = np.linalg.inv(B)
        d = Binv @ A[:, enter]
        pos = d > TOL
        if not pos.any():
            raise LpUnboundedError("objective unbounded below")
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


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (objective, x, duals) for the minimization LP, duals over the
    A_ub rows then the A_eq rows; raises on infeasible/unbounded."""
    c = np.asarray(c, dtype=float)
    nvar = c.size
    blocks = []
    rhs_parts = []
    n_ub = 0
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        blocks.append(A_ub)
        rhs_parts.append(np.asarray(b_ub, dtype=float).ravel())
        n_ub = A_ub.shape[0]
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        blocks.append(A_eq)
        rhs_parts.append(np.asarray(b_eq, dtype=float).ravel())
    if not blocks:
        if np.all(c >= -TOL):
            return 0.0, np.zeros(nvar), np.zeros(0)
        raise LpUnboundedError("no constraints and a negative cost direction")
    A0 = np.vstack(blocks)
    b0 = np.concatenate(rhs_parts)
    m = A0.shape[0]

    # Slacks for the <= rows, then flip rows to nonnegative rhs. A <= row that
    # kept its sign starts with its slack basic; every other row (equalities
    # and flipped rows) gets an artificial. The start basis is the identity.
    n_real = nvar + n_ub
    b = b0.copy()
    neg = b < 0
    b[neg] *= -1.0
    art_rows = np.flatnonzero(neg | (np.arange(m) >= n_ub))
    A = np.zeros((m, n_real + art_rows.size))
    A[:, :nvar] = A0
    A[np.arange(n_ub), nvar + np.arange(n_ub)] = 1.0
    A[neg] *= -1.0
    A[art_rows, n_real + np.arange(art_rows.size)] = 1.0
    basis = nvar + np.arange(m)
    basis[art_rows] = n_real + np.arange(art_rows.size)
    Binv = np.eye(m)

    if art_rows.size:
        c1 = np.zeros(A.shape[1])
        c1[n_real:] = 1.0
        basis, Binv, xB, _ = _simplex(A, b, c1, basis, Binv)
        art_level = float(xB[basis >= n_real].sum())
        if art_level > 1e-7:
            raise LpInfeasibleError(f"phase-1 residual {art_level:g}")
    A = np.ascontiguousarray(A[:, :n_real])

    # Remove artificials from the basis: pivot onto any real column with a
    # nonzero coefficient in that row of B^-1 A, else the row is redundant.
    # An artificial never changes basis position, so the one at position i is
    # row i's own unit column, and dropping row i with position i leaves B^-1
    # of the smaller basis as B^-1 without row i and column i.
    keep = np.arange(m)
    drop_rows = []
    for i in np.flatnonzero(basis >= n_real):
        row = Binv[i] @ A
        row[basis[basis < n_real]] = 0.0
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > 1e-7:
            _pivot(Binv, Binv @ A[:, j], i)
            basis[i] = j
        else:
            drop_rows.append(i)
    if drop_rows:
        keep = np.setdiff1d(np.arange(m), drop_rows)
        A = A[keep]
        b = b[keep]
        basis = basis[keep]
        Binv = Binv[np.ix_(keep, keep)]
        if basis.size == 0:
            if np.all(c >= -TOL):
                return 0.0, np.zeros(nvar), np.zeros(m)
            raise LpUnboundedError("all rows redundant with a negative cost direction")

    c2 = np.zeros(n_real)
    c2[:nvar] = c
    basis, _, xB, kept_duals = _simplex(A, b, c2, basis, Binv)
    x = np.zeros(n_real)
    x[basis] = xB
    # A dropped row is redundant and takes dual 0; a flipped row's dual
    # changes sign with the row.
    duals = np.zeros(m)
    duals[keep] = kept_duals
    duals[neg] *= -1.0
    return float(c @ x[:nvar]), x[:nvar], duals
