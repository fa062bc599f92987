"""Ground-truth distance computations.

Four distances live here, all desk-scale exact:

* distance to T-bigness (closed form),
* l1 distance from a distribution to the nearest monotone *function*,
* total variation distance to the nearest monotone *distribution*,
* the transport distance W between pair histograms, with unit cost
  |dx| + |dy| and (0,0) padding to balance totals (the transportation network
  simplex on the dense key-to-key cost matrix; no LP).

Both monotone distances minimize ||x||_1 over perturbations x with p + x
monotone on every edge (TV also holds sum(x) at 0). Each is solved as its
LP dual, a flow on G's own edges with 2n rows |out - in + mu| <= c: no
closure, no mass row, positive right-hand sides, so the slack basis is
feasible. The row duals are x.

LP duality makes the function distance equal the weight of a maximum-weight
matching on the transitive closure with violation weights max(0, p(u)-p(v)),
and the TV distance is sandwiched between half that weight and the weight
itself; both facts are exercised heavily by the test suite. That matching is
found by one assignment on the closure's double cover (tails as rows, heads as
columns): the chosen links form vertex-disjoint chains whose weights
telescope, so each chain collapses to the closure edge between its endpoints
without losing weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import Poset, transitive_closure
from .prob import Distribution, PairHistogram
from .simplex import _MAX_ITER, _STALL_LIMIT, TOL, LpError, solve_lp

DEFAULT_LP_CAP = 192
WEIGHT_TOL = 1e-12


class SizeCapError(ValueError):
    """Instance exceeds the configured exact-computation cap."""


@dataclass(frozen=True)
class WeightedMatching:
    """Vertex-disjoint directed edges with positive violation weights."""

    edges: tuple[tuple[tuple[int, int], float], ...]
    weight: float

    def __post_init__(self):
        used = set()
        for (u, v), w in self.edges:
            if w <= 0:
                raise ValueError("matching weights must be positive")
            if u in used or v in used:
                raise ValueError("matching edges must be vertex-disjoint")
            used.update((u, v))


@dataclass(frozen=True)
class LpSolution:
    objective: float
    x: np.ndarray


def dist_to_bigness(p: Distribution, threshold: float) -> float:
    """TV distance from p to the T-big polytope: sum of deficits below T.

    The closed form assumes T <= 1/n (otherwise the polytope shrinks and the
    deficit sum is no longer the distance), so larger thresholds are rejected.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if threshold > 1.0 / p.n + 1e-15:
        raise ValueError(f"threshold {threshold} exceeds 1/n")
    return float(np.maximum(0.0, threshold - p.probs).sum())


def _monotone_flow(G: Poset, p: Distribution, lp_cap: int, c: float, shift: bool):
    """(value, x) of the LP dual to the monotone-perturbation LP: a flow on
    G's own edges. Maximize sum_e y_e * (p(u) - p(v)) over y >= 0 on the
    edges (u, v) subject to -c <= out_y(w) - in_y(w) + mu <= c at every
    vertex w, with mu = 0 or, with `shift`, free (passed as mu+ - mu-). All
    2n right-hand sides are c > 0, so the slack basis is feasible. The
    perturbation x is read off the row duals: upper row's dual minus lower
    row's."""
    if G.n > lp_cap:
        raise SizeCapError(f"n={G.n} exceeds LP cap {lp_cap}")
    if p.n != G.n:
        raise ValueError("distribution length does not match poset")
    n, m = G.n, len(G.edge_array)
    if not m:
        return 0.0, np.zeros(n)
    u, v = G.edge_array.T
    D = np.zeros((n, m + 2 * shift))
    D[u, np.arange(m)] = 1.0
    D[v, np.arange(m)] = -1.0
    if shift:
        D[:, m:] = [1.0, -1.0]
    cost = np.zeros(D.shape[1])
    cost[:m] = p.probs[v] - p.probs[u]
    obj, _, duals = solve_lp(cost, A_ub=np.vstack([D, -D]), b_ub=np.full(2 * n, c))
    return 0.0 - obj, duals[:n] - duals[n:]  # 0.0 - obj: never -0.0


def func_dist_to_monotone(G: Poset, p: Distribution, lp_cap: int = DEFAULT_LP_CAP):
    """Minimal l1 perturbation x making p + x a monotone function on G.

    Returns (d, LpSolution) with d = ||x||_1, by the flow LP with c = 1.
    """
    d, x = _monotone_flow(G, p, lp_cap, 1.0, False)
    return d, LpSolution(d, x)


def exact_dtv_to_monotone(G: Poset, p: Distribution, lp_cap: int = DEFAULT_LP_CAP) -> float:
    """TV distance from p to the set of monotone distributions on G, by LP.

    The primal minimizes ||x||_1 / 2 over x with p + x monotone and
    sum(x) = 0; its dual is the flow LP with c = 1/2 and the mass row's
    multiplier as the free shift. No q >= 0 rows are needed: clipping a
    monotone q of mass 1 at 0 keeps it monotone and, as p >= 0, lowers
    ||q - p||_1 by exactly the mass N it adds; rescaling by 1/(1 + N) keeps it
    monotone and moves it by N in l1, so the result is a monotone
    distribution no farther from p.
    """
    return _monotone_flow(G, p, lp_cap, 0.5, True)[0]


def _violation_edges(G: Poset, probs: np.ndarray):
    """(tails, heads, weights) of the TC edges with positive violation
    weight, sorted by (tail, head) as both edge arrays already are."""
    # a matching has no 2-paths: its closure is its edges
    u, v = (G.edge_array if G.kind == "matching" else transitive_closure(G).edge_array()).T
    w = probs[u] - probs[v]
    keep = w > WEIGHT_TOL
    return u[keep], v[keep], w[keep]


def _assignment_max_weight(weights: np.ndarray):
    """Max-weight assignment on a square matrix via shortest augmenting paths
    with potentials. Returns the column matched to each row."""
    n = weights.shape[0]
    cost = -weights
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=int)  # row assigned to each column (1-based)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            upd = ~used[1:] & (cur < minv[1:])
            minv[1:][upd] = cur[upd]
            way[1:][upd] = j0
            free = ~used[1:]
            if not free.any():
                break
            j1 = int(np.argmin(np.where(free, minv[1:], INF))) + 1
            delta = minv[j1]
            u[match_row[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    return np.argsort(match_row[1:])  # every column is matched: invert the permutation


def max_violation_matching(G: Poset, p: Distribution) -> WeightedMatching:
    """Maximum-weight matching on TC(G) under weights max(0, p(u) - p(v)).

    Matching posets have no 2-paths, so every violating edge is taken. Every
    other kind runs one max-weight assignment on the double cover of the
    closure: rows are the tails of the violating edges, columns their heads,
    and each cell holds that edge's violation weight. The chosen links leave
    and enter each vertex at most once and follow the acyclic order, so they
    form vertex-disjoint chains. A chain's weights telescope to
    p(start) - p(end), the weight of the closure edge start -> end, so
    collapsing each chain to that edge gives a matching of the assignment's
    weight, and every matching is itself an assignment: the result is exact.
    Each output edge (u, v) weighs p(u) - p(v) as the candidate scan computes
    it, the edges come out sorted, and zero-weight edges never appear in the
    output.
    """
    if p.n != G.n:
        raise ValueError("distribution length does not match poset")
    u, v, w = _violation_edges(G, p.probs)
    if not w.size:
        return WeightedMatching((), 0.0)
    if G.kind == "matching":
        weights = w.tolist()
        return WeightedMatching(tuple(zip(zip(u.tolist(), v.tolist()), weights)), float(sum(weights)))
    tails, row = np.unique(u, return_inverse=True)
    heads, col = np.unique(v, return_inverse=True)
    W = np.zeros((max(tails.size, heads.size),) * 2)
    W[row, col] = w
    link = {}
    for i, j in enumerate(_assignment_max_weight(W)[: tails.size]):
        if W[i, j] > 0:
            link[tails[i].item()] = heads[j].item()
    chosen = []
    for start in link.keys() - set(link.values()):
        end = start
        while end in link:
            end = link[end]
        chosen.append(((start, end), float(p.probs[start] - p.probs[end])))
    chosen.sort()
    return WeightedMatching(tuple(chosen), float(sum(w for _, w in chosen)))


def closest_monotone_on_matching(G: Poset, p: Distribution) -> Distribution:
    """Midpoint fix on a matching poset: both endpoints of each violating edge
    move to their average. Attains the exact TV distance to monotonicity."""
    if G.kind != "matching":
        raise ValueError("closest_monotone_on_matching needs a matching poset")
    if p.n != G.n:
        raise ValueError("distribution length does not match poset")
    q = p.probs.copy()
    u, v = G.edge_array.T
    bad = q[u] > q[v]
    u, v = u[bad], v[bad]
    q[u] = q[v] = 0.5 * (q[u] + q[v])  # matching edges are disjoint, so no fix sees another's
    return Distribution(q)


def _transport_cost(supply: list[float], demand: list[float], cost: np.ndarray) -> float:
    """Minimum of sum(cost * flow) over flows with row sums `supply` and
    column sums `demand` (equal totals), by the transportation simplex.

    The basis is a spanning tree on the ns + nd row and column nodes whose
    edges are the ns + nd - 1 basic cells; the northwest corner rule gives the
    first one, zero-flow cells included. Each pivot walks the tree once for
    the potentials u_i + v_j = cost_ij and the parent and depth pointers,
    lets the cell of most negative reduced cost enter, and sends the largest
    feasible flow around the cycle it closes; the lowest-index tied cell on
    the cycle's minus side leaves. After _STALL_LIMIT pivots without progress
    the lowest-index improving cell enters instead (Bland's rule), which
    guarantees termination; the stall and pivot limits are the dense
    simplex's, and LpError reports a run past _MAX_ITER pivots.
    """
    ns, nd = cost.shape
    c = cost.ravel().tolist()
    flow = np.zeros(ns * nd)
    basic = np.zeros(ns * nd, dtype=bool)
    # node i < ns is row i, node ns + j column j; a tree edge is (node, cell)
    adj = [[] for _ in range(ns + nd)]

    def link(k: int) -> None:
        i, j = divmod(k, nd)
        basic[k] = True
        adj[i].append((ns + j, k))
        adj[ns + j].append((i, k))

    rs, rd = list(supply), list(demand)
    i = j = 0
    while True:
        f = min(rs[i], rd[j])
        flow[i * nd + j] = f
        link(i * nd + j)
        rs[i] -= f
        rd[j] -= f
        if i == ns - 1 and j == nd - 1:
            break
        if j == nd - 1 or (i < ns - 1 and rs[i] <= rd[j]):
            i += 1
        else:
            j += 1

    stall = 0
    for _ in range(_MAX_ITER):
        pot = [0.0] * (ns + nd)
        parent = [-1] * (ns + nd)
        up_cell = [-1] * (ns + nd)  # the cell joining a node to its parent
        depth = [0] * (ns + nd)
        stack = [0]
        while stack:
            a = stack.pop()
            for b, k in adj[a]:
                if b != parent[a]:
                    parent[b], up_cell[b], depth[b] = a, k, depth[a] + 1
                    pot[b] = c[k] - pot[a]
                    stack.append(b)
        u = np.array(pot)
        reduced = (cost - u[:ns, None] - u[None, ns:]).ravel()
        reduced[basic] = 0.0
        if stall >= _STALL_LIMIT:
            below = np.flatnonzero(reduced < -TOL)
            enter = int(below[0]) if below.size else -1
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -TOL:
                enter = -1
        if enter < 0:
            return float(cost.ravel() @ flow)
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
        theta = flow[minus].min()
        leave = min(k for k in minus if flow[k] <= theta + TOL)
        theta = flow[leave]
        flow[minus] = np.maximum(flow[minus] - theta, 0.0)
        flow[plus] += theta
        flow[enter] = theta
        flow[leave] = 0.0
        basic[leave] = False
        li, lj = divmod(leave, nd)
        adj[li].remove((ns + lj, leave))
        adj[ns + lj].remove((li, leave))
        link(enter)
        stall = 0 if -reduced[enter] * theta > 1e-12 else stall + 1
    raise LpError("transportation simplex iteration limit exceeded")


def w_distance(h: PairHistogram, g: PairHistogram) -> float:
    """Transport distance between pair histograms; per-unit cost |dx| + |dy|,
    totals balanced by padding the lighter side at (0, 0). Solved by the
    transportation network simplex on the dense key-to-key cost matrix."""
    sx, sy, supply = h.x, h.y, h.count.tolist()
    dx, dy, demand = g.x, g.y, g.count.tolist()
    diff = sum(supply) - sum(demand)
    if diff > 0:
        dx, dy, demand = np.append(dx, 0.0), np.append(dy, 0.0), demand + [diff]
    elif diff < 0:
        sx, sy, supply = np.append(sx, 0.0), np.append(sy, 0.0), supply + [-diff]
    if not supply:
        return 0.0
    cost = np.abs(sx[:, None] - dx) + np.abs(sy[:, None] - dy)
    return _transport_cost(supply, demand, cost)


def _midpoint_cost(g: PairHistogram) -> float:
    """Transport cost of the midpoint fix of g: the sum of count * (x - y)
    over the violating keys (x > y)."""
    x, y, c = g.x, g.y, g.count
    bad = x > y
    # summed one term at a time in key order, so the value does not
    # depend on numpy's pairwise summation
    return float(np.cumsum(c[bad] * (x[bad] - y[bad]))[-1]) if bad.any() else 0.0


def min_w_to_monotone_pairhist(g: PairHistogram):
    """Distance from g to the pair histogram of some monotone distribution.

    Reconstructs a labeling consistent with g, applies the matching midpoint
    fix to each violating key (x > y), and reports that scheme's transport
    cost: an upper bound on the true minimum, exact enough for tester
    thresholds. The value is _midpoint_cost(g), which the matching tester
    calls alone, since it never reads g*.

    Returns (value, g*).
    """
    x, y, c = g.x, g.y, g.count
    bad = x > y
    mid = 0.5 * (x + y)
    return _midpoint_cost(g), PairHistogram.from_arrays(np.where(bad, mid, x), np.where(bad, mid, y), c)


def min_perm_l1(p1, p2, q1, q2) -> float:
    """min over label permutations pi of |p1 - q1 o pi|_1 + |p2 - q2 o pi|_1.

    An assignment problem: label i goes to label j at cost
    |p1_i - q1_j| + |p2_i - q2_j|.
    """
    a1 = np.asarray(p1, dtype=float)
    a2 = np.asarray(p2, dtype=float)
    b1 = np.asarray(q1, dtype=float)
    b2 = np.asarray(q2, dtype=float)
    n = a1.size
    if not (a2.size == b1.size == b2.size == n):
        raise ValueError("all four vectors must share a length")
    cost = np.abs(a1[:, None] - b1[None, :]) + np.abs(a2[:, None] - b2[None, :])
    pi = _assignment_max_weight(-cost)
    return float(np.abs(a1 - b1[pi]).sum() + np.abs(a2 - b2[pi]).sum())
