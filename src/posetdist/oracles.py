"""Ground-truth distance computations.

Four distances live here, all desk-scale exact:

* distance to T-bigness (closed form),
* l1 distance from a distribution to the nearest monotone *function*,
* total variation distance to the nearest monotone *distribution*,
* the transport distance W between pair histograms, with unit cost
  |dx| + |dy| and (0,0) padding to balance totals.

Both monotone distances minimize ||x||_1 over perturbations x with p + x
monotone on every edge (TV also holds sum(x) at 0). Each is solved as its
LP dual, a flow on G's own edges with 2n rows |out - in + mu| <= c: no
closure, no mass row, positive right-hand sides, so the slack basis is
feasible. The row duals are x.

LP duality makes the function distance equal the weight of a maximum-weight
matching on the transitive closure with violation weights max(0, p(u)-p(v)),
and the TV distance is sandwiched between half that weight and the weight
itself; both facts are exercised heavily by the test suite. That matching is
found by augmenting paths on the closure's double cover (the violating edges'
tails on one side, their heads on the other): the chosen links form
vertex-disjoint chains whose weights telescope, so each chain collapses to the
closure edge between its endpoints without losing weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poset import MONOTONE_TOL, Poset, SizeCapError, _check_over, _csr, transitive_closure
from .prob import Distribution, PairHistogram
from .simplex import _transport_cost, solve_lp

DEFAULT_LP_CAP = 192


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


@dataclass(frozen=True, eq=False)
class LpSolution:
    objective: float
    x: np.ndarray


def _check_threshold(threshold: float, n: int) -> None:
    """A bigness threshold T on n elements must lie in (0, 1/n]."""
    if not 0 < threshold <= 1.0 / n + 1e-15:
        raise ValueError(f"threshold must lie in (0, 1/n], got T={threshold}")


def dist_to_bigness(p: Distribution, threshold: float) -> float:
    """TV distance from p to the T-big polytope: sum of deficits below T.

    The closed form assumes T <= 1/n (otherwise the polytope shrinks and the
    deficit sum is no longer the distance), so larger thresholds are rejected.
    """
    _check_threshold(threshold, p.n)
    return float(np.maximum(0.0, threshold - p.probs).sum())


def _monotone_flow(G: Poset, p: Distribution, c: float, shift: bool):
    """(value, x) of the LP dual to the monotone-perturbation LP: a flow on
    G's own edges. Maximize sum_e y_e * (p(u) - p(v)) over y >= 0 on the
    edges (u, v) subject to -c <= out_y(w) - in_y(w) + mu <= c at every
    vertex w, with mu = 0 or, with `shift`, free (passed as mu+ - mu-). All
    2n right-hand sides are c > 0, so the slack basis is feasible. The
    perturbation x is read off the row duals: upper row's dual minus lower
    row's. The 2n x m constraint matrix is dense, so n is capped at
    DEFAULT_LP_CAP."""
    if G.n > DEFAULT_LP_CAP:
        raise SizeCapError(f"n={G.n} exceeds LP cap {DEFAULT_LP_CAP}")
    _check_over(G, "distribution", (p.n,))
    n, m = G.n, len(G.edge_array)
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


def func_dist_to_monotone(G: Poset, p: Distribution):
    """Minimal l1 perturbation x making p + x a monotone function on G.

    Returns (d, LpSolution) with d = ||x||_1, by the flow LP with c = 1.
    """
    d, x = _monotone_flow(G, p, 1.0, False)
    return d, LpSolution(d, x)


def exact_dtv_to_monotone(G: Poset, p: Distribution) -> float:
    """TV distance from p to the set of monotone distributions on G, by LP.

    The primal minimizes ||x||_1 / 2 over x with p + x monotone and
    sum(x) = 0; its dual is the flow LP with c = 1/2 and the mass row's
    multiplier as the free shift. No q >= 0 rows are needed: clipping a
    monotone q of mass 1 at 0 keeps it monotone and, as p >= 0, lowers
    ||q - p||_1 by exactly the mass N it adds; rescaling by 1/(1 + N) keeps it
    monotone and moves it by N in l1, so the result is a monotone
    distribution no farther from p.
    """
    return _monotone_flow(G, p, 0.5, True)[0]


def _violation_edges(G: Poset, probs: np.ndarray):
    """(tails, heads, weights) of the TC edges with positive violation
    weight, sorted by (tail, head) as both edge arrays already are."""
    # no matching or bipartite edge starts at a head: no 2-paths, the closure is the edges
    u, v = (G.edge_array if G.kind in ("matching", "bipartite") else transitive_closure(G).edge_array()).T
    w = probs[u] - probs[v]
    keep = w > MONOTONE_TOL
    return u[keep], v[keep], w[keep]


def max_violation_matching(G: Poset, p: Distribution) -> WeightedMatching:
    """Maximum-weight matching on TC(G) under weights max(0, p(u) - p(v)).

    Matching posets have no 2-paths, so every violating edge is taken. Every
    other kind matches the violating edges' tails to their heads (the closure's
    double cover) by the Hungarian method: each tail r also has a private dummy
    head of cost 0 (r stays unmatched), and a link t -> h costs p(h) - p(t).
    These costs are potential differences, so an alternating path from a new
    root r to a free head h costs p(h) - p(r) whatever lies between, and the
    cheapest augmenting path ends at the reachable free head of least p, when
    that p is below p(r). Roots come in decreasing p, ties by vertex, so a path
    to an earlier root's dummy is never cheaper than r's own: only real heads
    are searched. Matched heads stay matched, so a search stops at the lowest
    free head overall, and a root not above it is skipped. The links form
    vertex-disjoint chains whose weights telescope to p(start) - p(end), the
    weight of the closure edge start -> end, so each chain collapses to that
    edge and the result is exact.
    Each output edge (u, v) weighs p(u) - p(v), the edges come out sorted, and
    zero-weight edges never appear. Off the matching kind, the total weight is
    math.fsum of p(start) and -p(end) over the chosen edges: the correctly
    rounded exact weight, whichever optimum a tie selects. On a matching poset
    the edge set is unique and the weights are summed left to right.
    """
    _check_over(G, "distribution", (p.n,))
    u, v, w = _violation_edges(G, p.probs)
    if G.kind == "matching":
        weights = w.tolist()
        return WeightedMatching(tuple(zip(zip(u.tolist(), v.tolist()), weights)), float(sum(weights)))
    probs = p.probs.tolist()
    first, arcs = _csr(np.column_stack((u, v)), G.n)
    free, link, mate = sorted(set(v.tolist()), key=probs.__getitem__, reverse=True), {}, {}
    for r in sorted(dict.fromkeys(u.tolist()), key=probs.__getitem__, reverse=True):  # np.unique would import numpy.ma
        while free and free[-1] in mate:  # matched heads stay matched
            free.pop()
        via, stack, end, low = {}, [r], None, probs[r]
        while stack and free and probs[free[-1]] < low:  # nothing reachable is lower than free[-1]
            t = stack.pop()
            for h in arcs[first[t] : first[t + 1]]:
                if h not in via:
                    via[h] = t
                    if h in mate:
                        stack.append(mate[h])
                    elif probs[h] < low:
                        end, low = h, probs[h]
        while end is not None:  # flip the path r -> ... -> end
            link[via[end]], mate[end], end = end, via[end], link.get(via[end])
    chosen = []
    for start in sorted(link.keys() - mate.keys()):  # one chain per start
        end = start
        while end in link:
            end = link[end]
        chosen.append(((start, end), probs[start] - probs[end]))
    weight = math.fsum(x for (a, b), _ in chosen for x in (probs[a], -probs[b]))
    return WeightedMatching(tuple(chosen), weight)


def closest_monotone_on_matching(G: Poset, p: Distribution) -> Distribution:
    """Midpoint fix on a matching poset: both endpoints of each violating edge
    move to their average. Attains the exact TV distance to monotonicity."""
    if G.kind != "matching":
        raise ValueError("closest_monotone_on_matching needs a matching poset")
    _check_over(G, "distribution", (p.n,))
    q = p.probs.copy()
    u, v = G.edge_array.T
    bad = q[u] > q[v]
    u, v = u[bad], v[bad]
    q[u] = q[v] = 0.5 * (q[u] + q[v])  # matching edges are disjoint, so no fix sees another's
    return Distribution(q)


def w_distance(h: PairHistogram, g: PairHistogram) -> float:
    """Transport distance between pair histograms; per-unit cost |dx| + |dy|,
    totals balanced by padding the lighter side at (0, 0). Solved by
    _transport_cost on the dense key-to-key cost matrix."""
    sx, sy, supply = h.x, h.y, h.count.tolist()
    dx, dy, demand = g.x, g.y, g.count.tolist()
    diff = sum(supply) - sum(demand)
    if diff > 0:
        dx, dy, demand = np.append(dx, 0.0), np.append(dy, 0.0), demand + [diff]
    elif diff < 0:
        sx, sy, supply = np.append(sx, 0.0), np.append(sy, 0.0), supply + [-diff]
    cost = np.abs(sx[:, None] - dx) + np.abs(sy[:, None] - dy)
    return _transport_cost(supply, demand, cost)[0]


def _midpoint_cost(x, y, c=None) -> float:
    """Transport cost of the midpoint fix of the pair histogram with keys
    (x[i], y[i]) -> c[i], every c[i] 1 when c is None: the sum of c * (x - y)
    over the violating keys (x > y)."""
    bad = x > y
    # summed one term at a time in array order, so the value does not
    # depend on numpy's pairwise summation
    return float(np.cumsum((x[bad] - y[bad]) * (1.0 if c is None else c[bad]))[-1]) if bad.any() else 0.0


def min_w_to_monotone_pairhist(g: PairHistogram):
    """Distance from g to the pair histogram of some monotone distribution.

    Reconstructs a labeling consistent with g, applies the matching midpoint
    fix to each violating key (x > y), and reports that scheme's transport
    cost: an upper bound on the true minimum, exact enough for tester
    thresholds. The value is _midpoint_cost(g.x, g.y, g.count), which the
    matching tester calls alone with one unit key per vertex pair, since it
    never reads g*.

    Returns (value, g*).
    """
    x, y, c = g.x, g.y, g.count
    bad = x > y
    mid = 0.5 * (x + y)
    return _midpoint_cost(x, y, c), PairHistogram.from_arrays(np.where(bad, mid, x), np.where(bad, mid, y), c)


def min_perm_l1(p1, p2, q1, q2) -> float:
    """min over label permutations pi of |p1 - q1 o pi|_1 + |p2 - q2 o pi|_1.

    An assignment problem, solved by _transport_cost with unit supplies and
    demands: label i goes to label j at cost |p1_i - q1_j| + |p2_i - q2_j|.
    The four inputs must be 1-D vectors of finite numbers of one length;
    anything else raises ValueError.
    """
    a1, a2, b1, b2 = (np.asarray(x, dtype=float) for x in (p1, p2, q1, q2))
    if not all(x.ndim == 1 and np.isfinite(x).all() for x in (a1, a2, b1, b2)):
        raise ValueError("min_perm_l1 needs four 1-D vectors of finite numbers")
    n = a1.size
    if not (a2.size == b1.size == b2.size == n):
        raise ValueError("all four vectors must share a length")
    cost = np.abs(a1[:, None] - b1[None, :]) + np.abs(a2[:, None] - b2[None, :])
    pi = _transport_cost([1.0] * n, [1.0] * n, cost)[1].nonzero()[1]
    return float(np.abs(a1 - b1[pi]).sum() + np.abs(a2 - b2[pi]).sum())
