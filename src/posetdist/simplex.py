"""The library's two simplex methods, under one pivot rule.

solve_lp is a dense revised simplex for  min c.x  s.t.  A_ub x <= b_ub,
x >= 0, with b_ub >= 0. Every LP in this library is desk-scale (a few
hundred rows at most), so the basis inverse is kept as a dense array. With
every right-hand side nonnegative the slack basis is feasible, so the
solver starts there, from B^-1 = I, and runs one simplex phase. Each pivot
prices every column, ratio-tests the entering column in one masked divide,
and updates B^-1 with one rank-1 eta step that reads and writes only the
block where the entering column and the pivot row are nonzero, so a pivot
costs at most O(m^2) rather than a refactorization. When no entering column
is left, the basic point and the duals are recomputed from the original
data by a linear solve. If the fresh reduced costs still admit an entering
column, B^-1 is re-inverted and the simplex goes on; otherwise the fresh
point and duals are what it reports, so the returned point satisfies the
constraints to linear-solve precision and eta drift never reaches it. The
row duals come with the point, each the derivative of the optimum in that
row's right-hand side (so <= 0). The feasibility contract is the 1e-9
tolerance.

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
pivots, an unbounded objective, a negative right-hand side or a singular
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


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray, Binv: np.ndarray):
    """Run the revised simplex to optimality from a feasible basis.

    Binv is the inverse of A[:, basis] and is updated in place, except when
    the final check re-inverts it. Returns (basis, Binv, x_basic,
    duals) with x_basic and the row duals solved afresh from the original data.
    """
    m = A.shape[0]
    xB = np.maximum(Binv @ b, 0.0)
    stall = 0
    for _ in range(_MAX_ITER):
        bland = stall >= _STALL_LIMIT
        reduced = c - (c[basis] @ Binv) @ A
        enter = _entering(reduced, basis, bland)
        if enter < 0:
            B = A[:, basis]
            try:  # a LinAlgError is a ValueError, which would read as bad input
                xB = np.maximum(np.linalg.solve(B, b), 0.0)  # clip solve noise on degenerate rows
                duals = np.linalg.solve(B.T, c[basis])
                reduced = c - duals @ A
                enter = _entering(reduced, basis, bland)
                if enter < 0:
                    return basis, Binv, xB, duals
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError as exc:
                raise LpError(f"singular basis: {exc}") from exc
        d = Binv @ A[:, enter]
        pos = d > TOL
        if not pos.any():
            raise LpError("objective unbounded below")
        ratios = np.divide(xB, d, out=np.full(m, np.inf), where=pos)
        ties = (ratios <= ratios.min() + TOL).nonzero()[0]
        if bland:
            leave = int(ties[basis[ties].argmin()])
        else:
            leave = int(ties[d[ties].argmax()])
        theta = xB[leave] / d[leave]
        xB -= theta * d
        xB[leave] = theta
        np.maximum(xB, 0.0, out=xB)
        _pivot(Binv, d, leave)
        basis[leave] = enter
        stall = 0 if -reduced[enter] * theta > 1e-12 else stall + 1
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
