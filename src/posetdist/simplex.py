"""The library's two simplex methods, under one pivot rule.

solve_lp is a dense revised simplex for  min c.x  s.t.  lo <= A x <= hi
row by row, x >= 0, with lo <= 0 <= hi. Each row has one slack
s = hi - A x, bounded in [0, hi - lo] (unbounded above on a plain <= row,
lo = -inf), so the slack basis is feasible at s = hi and the solver starts
there, from B^-1 = I, and runs one simplex phase. The bounds are kept by
the upper-bounding technique (Dantzig 1955; Chvatal 1983, ch. 8): a
nonbasic variable sits at either bound, pricing reads each reduced cost
with the sign of the direction the variable can move, and the ratio test
is two-sided; an entering variable whose own range is the shortest step
flips bound with no basis change. Every LP in this library is desk-scale
(a few hundred rows at most), so the basis inverse is kept as a dense
array. Each pivot prices every column, ratio-tests the entering column in
two masked divides, and updates B^-1 with one rank-1 eta step that reads
and writes only the block where the entering column and the pivot row are
nonzero, so a pivot costs at most O(m^2) rather than a refactorization.
When no entering column is left, the basic point (from b - A_N x_N) and the
duals are recomputed from the original data by a linear solve. If the
fresh reduced costs still admit an entering column, B^-1 is re-inverted
and the simplex goes on; otherwise the fresh point and duals are what it
reports, so the returned point satisfies the constraints to linear-solve
precision and eta drift never reaches it. The row duals come with the
point, each the derivative of the optimum in the bound its row holds:
<= 0 where A x = hi, >= 0 where A x = lo, 0 where neither holds. The
feasibility contract is the 1e-9 tolerance.

_transport_cost, a transportation simplex, solves the library's two
transportation problems, W and min_perm_l1's assignment, on their dense
cost matrices from the least-cost basis. A pivot moves flow cell by cell
around its cycle, the flow becoming an array only at the end, and re-walks
only the subtree whose potentials move, writing those alone into the one
potential array that pricing reads.

Both price by _entering, the most negative reduced cost. A pivot that lowers
the objective by at most 1e-12 is a stall; from _STALL_LIMIT stalls in a row
until a pivot makes progress, pricing takes the lowest-index improving
column (Bland's rule, which guarantees termination). A run past _MAX_ITER
pivots, an unbounded objective, a row range without 0 or a singular
basis at a fresh solve (numpy's LinAlgError, a ValueError) raises LpError,
a fault of the code, never of user input.
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
        nz = (reduced < -TOL).nonzero()[0]
        return int(nz[0]) if nz.size else -1
    j = int(reduced.argmin())
    return j if reduced[j] < -TOL else -1


def _pivot(Binv: np.ndarray, d: np.ndarray, leave: int) -> None:
    """Eta update of B^-1 in place for the basis change at row `leave`,
    where d = B^-1 a is the entering column. Only the block where d and the
    pivot row are both nonzero changes; B^-1 of these LPs stays sparse."""
    pivot_row = Binv[leave] / d[leave]
    rows = d.nonzero()[0]
    cols = pivot_row.nonzero()[0]
    pivot_row = pivot_row[cols]
    Binv[rows[:, None], cols] -= d[rows, None] * pivot_row
    Binv[leave, cols] = pivot_row


def _leaving(xB: np.ndarray, e: np.ndarray, uB: np.ndarray, span: float, basis: np.ndarray, bland: bool):
    """(row, theta) of the two-sided ratio test for an entering variable
    that moves by theta >= 0 while each basic variable falls by theta * e:
    the first to reach a bound leaves, at 0 where e > 0 and at its upper
    bound uB where e < 0; ties go to the largest |e|, or under Bland's rule
    to the lowest variable index. The row is -1 when the entering
    variable's own span is no longer: it flips bound with no basis change."""
    ratios = np.empty(e.size)
    ratios.fill(np.inf)
    np.divide(xB, e, out=ratios, where=e > TOL)
    np.divide(xB - uB, e, out=ratios, where=e < -TOL)
    step = ratios[ratios.argmin()]  # .min() costs three times as much at this size
    if span <= step:
        if span == np.inf:
            raise LpError("objective unbounded below")
        return -1, span
    ties = (ratios <= step + TOL).nonzero()[0]
    if ties.size == 1:
        leave = int(ties[0])
    elif bland:
        leave = int(ties[basis[ties].argmin()])
    else:
        leave = int(ties[np.abs(e[ties]).argmax()])
    return leave, (xB[leave] - (0.0 if e[leave] > 0 else uB[leave])) / e[leave]


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, upper: np.ndarray, basis: np.ndarray, Binv: np.ndarray):
    """Run the bounded-variable revised simplex to optimality for
    min c.x  s.t.  A x = b,  0 <= x <= upper, from a feasible basis with
    every nonbasic variable at 0.

    Binv is the inverse of A[:, basis] and is updated in place, except when
    the final check re-inverts it. A nonbasic variable sits at 0 or at its
    upper bound; sign is -1 at the upper bound and +1 elsewhere, so
    sign * reduced is what _entering prices. Returns (basis, Binv, x,
    duals) with the basic part of x and the row duals solved afresh from
    the original data.
    """
    sign = np.ones(c.size)
    uB = upper[basis]
    xB = np.minimum(np.maximum(Binv @ b, 0.0), uB)
    stall = 0
    for _ in range(_MAX_ITER):
        bland = stall >= _STALL_LIMIT
        reduced = c - (c[basis] @ Binv) @ A
        reduced *= sign
        enter = _entering(reduced, basis, bland)
        if enter < 0:
            B = A[:, basis]
            x = np.where(sign < 0, upper, 0.0)
            try:  # a LinAlgError is a ValueError, which would read as bad input
                # clip solve noise on degenerate rows
                xB = np.minimum(np.maximum(np.linalg.solve(B, b - A @ x), 0.0), uB)
                duals = np.linalg.solve(B.T, c[basis])
                reduced = c - duals @ A
                reduced *= sign
                enter = _entering(reduced, basis, bland)
                if enter < 0:
                    x[basis] = xB
                    return basis, Binv, x, duals
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError as exc:
                raise LpError(f"singular basis: {exc}") from exc
        d = Binv @ A[:, enter]
        e = -d if sign[enter] < 0 else d
        leave, theta = _leaving(xB, e, uB, upper[enter], basis, bland)
        xB -= theta * e
        if leave < 0:
            sign[enter] = -sign[enter]
        else:
            if e[leave] < 0:
                sign[basis[leave]] = -1.0
            xB[leave] = theta if sign[enter] > 0 else upper[enter] - theta
            sign[enter] = 1.0
            uB[leave] = upper[enter]
            _pivot(Binv, d, leave)
            basis[leave] = enter
        np.maximum(xB, 0.0, out=xB)
        np.minimum(xB, uB, out=xB)
        stall = 0 if -reduced[enter] * theta > 1e-12 else stall + 1
    raise LpError("simplex iteration limit exceeded")


def solve_lp(c, A, lo, hi) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (objective, x, duals) for  min c.x  s.t.  lo <= A x <= hi row
    by row, x >= 0, one dual per row. lo and hi are scalars or one value per
    row; lo = -inf makes a plain <= row. Raises LpError on a row whose range
    excludes 0 or on an unbounded objective."""
    c = np.asarray(c, dtype=float)
    A_rows = np.atleast_2d(np.asarray(A, dtype=float))
    m, nvar = A_rows.shape[0], c.size
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (m,)) for v in (lo, hi))
    if not ((lo <= 0) & (0 <= hi) & (hi < np.inf)).all():
        raise LpError("a row range holds no 0 or has no finite hi: the slack basis is infeasible")
    A = np.zeros((m, nvar + m))
    A[:, :nvar] = A_rows
    A[np.arange(m), nvar + np.arange(m)] = 1.0
    cost = np.zeros(nvar + m)
    cost[:nvar] = c
    upper = np.full(nvar + m, np.inf)
    upper[nvar:] = hi - lo
    _, _, x, duals = _simplex(A, hi, cost, upper, nvar + np.arange(m), np.eye(m))
    return float(c @ x[:nvar]), x[:nvar], duals


def _least_cost_start(supply: list[float], demand: list[float], cost: np.ndarray):
    """(flow, cells) of the least-cost starting basis. The cells are visited
    in (cost, index) order, and each one whose row and column are both open
    gets the smaller of their residuals. Each allocation closes one line: the
    row when its residual is no larger and it is not the last open row, or
    when the column is the last open one; otherwise the column. The last open
    cell closes both, so the ns + nd - 1 cells, zero-flow ones included, form
    a spanning tree on the row and column nodes."""
    ns, nd = cost.shape
    flow = np.zeros(ns * nd)
    cells = []
    rs, rd = list(supply), list(demand)
    row_open, col_open = [True] * ns, [True] * nd
    rows_left, cols_left = ns, nd
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip((order // nd).tolist(), (order % nd).tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        k = i * nd + j
        f = min(rs[i], rd[j])
        flow[k] = f
        cells.append(k)
        if rows_left == cols_left == 1:
            break
        rs[i] -= f
        rd[j] -= f
        if cols_left == 1 or (rows_left > 1 and rs[i] <= rd[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flow, cells


def _transport_cost(supply: list[float], demand: list[float], cost: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, flow): the minimum of sum(cost * flow) over ns x nd flows with
    row sums `supply` and column sums `demand` (equal totals), and a flow
    attaining it, by the transportation simplex. With no rows or no columns
    the value is 0.0 and the flow empty. Unit supplies and demands make it
    an assignment: every allocation and pivot moves exactly 0 or 1, so each
    row of the flow holds a single 1.0 and flow.nonzero() lists the chosen
    column of every row in row order.

    The basis is a spanning tree on the ns + nd row and column nodes whose
    edges are the ns + nd - 1 basic cells; _least_cost_start gives the first
    one. The tree hangs from row 0 with parent, depth and potential pointers
    (u_i + v_j = cost_ij on every basic cell). A cell enters by the pivot
    rule above, the largest feasible flow goes around the cycle it closes,
    and the lowest-index tied cell on the cycle's minus side leaves. Only the
    subtree that the leaving cell cuts off is walked again, re-hung from the
    entering cell; every potential is still summed along its own tree path
    from row 0, so the values match a walk of the whole tree.
    """
    ns, nd = cost.shape
    if not (ns and nd):
        return 0.0, np.zeros((ns, nd))
    c = cost.ravel().tolist()
    start, cells = _least_cost_start(supply, demand, cost)
    # Python floats: a cycle has too few cells for numpy calls to pay
    flow = [0.0] * (ns * nd)
    for k, f in zip(cells, start[cells].tolist()):
        flow[k] = f
    basic = np.zeros(ns * nd, dtype=bool)
    # node i < ns is row i, node ns + j column j; a tree edge is (node, cell)
    adj = [[] for _ in range(ns + nd)]

    def link(k: int) -> None:
        i, j = divmod(k, nd)
        basic[k] = True
        adj[i].append((ns + j, k))
        adj[ns + j].append((i, k))

    for k in cells:
        link(k)
    pot = np.zeros(ns + nd)
    parent = [-1] * (ns + nd)
    up_cell = [-1] * (ns + nd)  # the cell joining a node to its parent
    depth = [0] * (ns + nd)

    def hang(top: int) -> None:
        """Set the pointers of every node below `top` from top's own."""
        stack = [top]
        while stack:
            a = stack.pop()
            pa, da, qa = parent[a], depth[a] + 1, pot[a]
            for b, k in adj[a]:
                if b != pa:
                    parent[b], up_cell[b], depth[b] = a, k, da
                    pot[b] = c[k] - qa
                    stack.append(b)

    hang(0)
    row_pot, col_pot = pot[:ns, None], pot[ns:]  # views: they see every write to pot
    reduced = np.empty((ns, nd))
    stall = 0
    for _ in range(_MAX_ITER):
        np.subtract(cost, row_pot, out=reduced)
        reduced -= col_pot
        enter = _entering(reduced.ravel(), basic, stall >= _STALL_LIMIT)
        if enter < 0:
            flow = np.array(flow)
            return float(cost.ravel() @ flow), flow.reshape(ns, nd)
        i, j = divmod(enter, nd)
        # The tree path from column j back to row i, as the cells along it.
        a, b = i, ns + j
        up_a, up_b = [], []
        while depth[b] > depth[a]:
            up_b.append(b)
            b = parent[b]
        while depth[a] > depth[b]:
            up_a.append(a)
            a = parent[a]
        while a != b:
            up_b.append(b)
            b = parent[b]
            up_a.append(a)
            a = parent[a]
        path = [up_cell[z] for z in up_b + up_a[::-1]]
        minus, plus = path[0::2], path[1::2]
        theta = min([flow[k] for k in minus])
        leave = min(k for k in minus if flow[k] <= theta + TOL)
        theta = flow[leave]
        for k in minus:
            f = flow[k] - theta
            flow[k] = f if f > 0.0 else 0.0
        for k in plus:
            flow[k] += theta
        flow[enter] = theta
        flow[leave] = 0.0
        basic[leave] = False
        li, lj = divmod(leave, nd)
        adj[li].remove((ns + lj, leave))
        adj[ns + lj].remove((li, leave))
        link(enter)
        # The leaving cell lies on j's side of the cycle when it joins a node
        # of up_b to its parent; the part cut off then holds j, else i.
        top, anchor = (ns + j, i) if path.index(leave) < len(up_b) else (i, ns + j)
        parent[top], up_cell[top], depth[top] = anchor, enter, depth[anchor] + 1
        pot[top] = c[enter] - pot[anchor]
        hang(top)
        stall = 0 if -reduced.flat[enter] * theta > 1e-12 else stall + 1
    raise LpError("transportation simplex iteration limit exceeded")
