"""Shared random-instance generators and brute-force oracles for the tests.

Everything is driven by an explicit numpy Generator so test modules control
their seeds. The brute-force oracles here are deliberately independent of the
library's algorithms (recursive edge-set enumeration instead of DP/duality)
so each check runs along two routes.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
from scipy import stats
from scipy.optimize import linprog

from posetdist import (
    Distribution,
    LBInstance,
    PairHistogram,
    Poset,
    PosetError,
    Rng,
    SizeCapError,
    generate_instance,
    make_bipartite,
    transitive_closure,
)
from posetdist import simplex
from posetdist.poset import KINDS, MAX_DOMAIN
from posetdist.prob import _blocks
from posetdist.simplex import _entering

# (nu, lam, L) of the two prior pairs the benchmark draws from
BENCH_PRIORS = [(0.5, 6.0, 4), (0.5, 12.0, 5)]


def chebyshev_grid(nu: float, lam: float, size: int) -> np.ndarray:
    """Chebyshev-extrema points on [1+nu, lam], ascending."""
    lo, hi = 1 + nu, lam
    k = np.arange(size)
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (size - 1)))


def reference_moments(sides, L: int):
    """Each (atoms, mass) side's mass @ atoms**j for j = 1..L, a pow per atom and j:
    the moment loop MomentPriors.validate ran before its running products."""
    for j in range(1, L + 1):
        yield tuple(float(a**j @ m) for a, m in sides)


def grid_moment_gap(nu: float, lam: float, L: int, size: int = 400) -> float:
    """The moment-gap program discretized, an independent route to its value:
    maximize E[1/X] - E[1/X'] over two PMFs on a Chebyshev grid of `size`
    points subject to E[X^j] = E[X'^j], j = 1..L-1, as one equality LP solved
    by HiGHS. The optimum falls short of the continuous one by grid error."""
    grid = chebyshev_grid(nu, lam, size)
    g = grid.size
    A_eq = np.zeros((L + 1, 2 * g))
    A_eq[0, :g] = A_eq[1, g:] = 1.0
    for j in range(1, L):
        scaled = (grid / lam) ** j  # row scaling keeps the rows O(1)
        A_eq[1 + j, :g] = scaled
        A_eq[1 + j, g:] = -scaled
    b_eq = np.zeros(L + 1)
    b_eq[:2] = 1.0
    return -float(highs_lp(np.concatenate([-1.0 / grid, 1.0 / grid]), A_eq=A_eq, b_eq=b_eq).fun)


def two_sample_chi2_pvalue(a, b, min_count: int = 10) -> float:
    """p-value of the chi-square test that two count vectors over the same
    ordered categories come from one law: the 2 x k table of a and b, with
    adjacent categories merged from the left until each holds at least
    min_count counts on the two sides together (a short last run joins the
    cell before it). The counts may be pooled histograms (one law of cells)
    or the tallies of a statistic's values (one law of that statistic)."""
    cells, run = [], np.zeros(2)
    for pair in zip(np.asarray(a, dtype=float), np.asarray(b, dtype=float)):
        run = run + pair
        if run.sum() >= min_count:
            cells.append(run)
            run = np.zeros(2)
    if len(cells) < 2:
        return 1.0
    cells[-1] = cells[-1] + run
    table = np.array(cells).T
    if not table.sum(axis=1).all():  # one side drew nothing, the other did
        return 0.0
    return float(stats.chi2_contingency(table, correction=False).pvalue)


def random_dag(rng: np.random.Generator, n: int, edge_prob: float = 0.35) -> Poset:
    """Random DAG: orient a random relabeling of a random upper-triangular graph."""
    perm = rng.permutation(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((int(perm[i]), int(perm[j])))
    return Poset(n, tuple(edges), kind="general")


def random_bipartite(rng: np.random.Generator, n_bottom: int, n_top: int, edge_prob: float = 0.5) -> Poset:
    n = n_bottom + n_top
    edges = [
        (b, n_bottom + t)
        for b in range(n_bottom)
        for t in range(n_top)
        if rng.random() < edge_prob
    ]
    return make_bipartite(n, edges, bottom=range(n_bottom))


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    v = rng.exponential(1.0, n)
    return Distribution(v / v.sum())


def learned_ring(k: int, seed) -> tuple[Poset, Distribution]:
    """A k + k bipartite poset of degree 3, bottom b below tops k + (b + j) mod k
    for j = 0, 1, 2, with the learned distribution counts / s of s = 100 k
    draws from a law whose bottoms lie in [3, 5] and tops in [0.5, 1]: every
    edge is violated and many values tie, as in an all-matchings trial."""
    rng = np.random.default_rng(seed)
    G = make_bipartite(2 * k, [(b, k + (b + j) % k) for b in range(k) for j in range(3)], bottom=range(k))
    law = np.concatenate([rng.uniform(3.0, 5.0, k), rng.uniform(0.5, 1.0, k)])
    s = 100 * k
    return G, Distribution(rng.multinomial(s, law / law.sum()) / s)


def brute_force_violation_matching(G: Poset, p: Distribution) -> float:
    """Max-weight matching weight by recursive enumeration over TC edges."""
    if G.kind == "matching":
        tc_edges = list(G.edges)
    else:
        tc_edges = map(tuple, transitive_closure(G).edge_array().tolist())
    cand = [(u, v, float(p.probs[u] - p.probs[v])) for u, v in sorted(tc_edges)]
    cand = [(u, v, w) for u, v, w in cand if w > 1e-12]

    def rec(k: int, used: frozenset) -> float:
        if k == len(cand):
            return 0.0
        u, v, w = cand[k]
        best = rec(k + 1, used)
        if u not in used and v not in used:
            best = max(best, w + rec(k + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


def brute_force_min_perm_l1(p1, p2, q1, q2) -> float:
    """min over label permutations pi of |p1 - q1 o pi|_1 + |p2 - q2 o pi|_1
    by factorial enumeration (desk scale: n <= 7)."""
    a1, a2, b1, b2 = (np.asarray(v, dtype=float) for v in (p1, p2, q1, q2))
    best = np.inf
    for perm in itertools.permutations(range(a1.size)):
        pi = np.asarray(perm, dtype=int)
        best = min(best, float(np.abs(a1 - b1[pi]).sum() + np.abs(a2 - b2[pi]).sum()))
    return best


def monotone_matching_dist(rng: np.random.Generator, n_pairs: int) -> Distribution:
    lo = rng.uniform(0.2, 1.0, n_pairs)
    hi = lo + rng.uniform(0.0, 1.0, n_pairs)
    v = np.concatenate([lo, hi])
    return Distribution(v / v.sum())


def far_matching_dist(rng: np.random.Generator, n_pairs: int, eps: float) -> tuple[Distribution, float]:
    """Every pair violated; returns (distribution, exact distance >= eps).

    On a matching the TV distance to monotonicity is half the total violation
    (midpoint fix), so the distance is available in closed form at any size.
    """
    theta = rng.uniform(2.1 * eps, 2.9 * eps, n_pairs)
    c = 1.0 / (2.0 * n_pairs)
    bottoms = c * (1.0 + theta)
    tops = c * (1.0 - theta)
    v = np.concatenate([bottoms, tops])
    p = Distribution(v / v.sum())
    dist = 0.5 * float(np.maximum(0.0, p.probs[:n_pairs] - p.probs[n_pairs:]).sum())
    assert dist >= eps, dist
    return p, dist


def reference_dtv_lp(G: Poset, p: Distribution):
    """TV distance to the monotone distributions as an LP on the defining
    polytope: variables [q, t], minimize sum(t)/2 subject to |q - p| <= t,
    q(u) <= q(v) on every edge, sum(q) = 1 (and q >= 0 by the variable
    bounds). Returns (c, A_ub, b_ub, A_eq, b_eq), rows built one at a time."""
    n = G.n
    c = np.concatenate([np.zeros(n), np.full(n, 0.5)])
    A_rows = []
    b_rows = []
    for i in range(n):
        row = np.zeros(2 * n)
        row[i] = 1.0
        row[n + i] = -1.0
        A_rows.append(row)
        b_rows.append(p.probs[i])  # q_i - t_i <= p_i
        row = np.zeros(2 * n)
        row[i] = -1.0
        row[n + i] = -1.0
        A_rows.append(row)
        b_rows.append(-p.probs[i])  # -q_i - t_i <= -p_i
    for u, v in G.edges:
        row = np.zeros(2 * n)
        row[u] = 1.0
        row[v] = -1.0
        A_rows.append(row)
        b_rows.append(0.0)  # q_u <= q_v
    A_eq = np.zeros((1, 2 * n))
    A_eq[0, :n] = 1.0
    return c, np.array(A_rows), np.array(b_rows), A_eq, np.array([1.0])


def reference_func_dist_lp(G: Poset, p: Distribution) -> float:
    """l1 distance from p to the monotone functions on G as the primal LP:
    variables z = [x+, x-], minimize sum(z) subject to one row
    x(v) - x(u) >= p(u) - p(v) per edge (u, v), i.e. p + x is monotone on
    that edge. Solved by HiGHS."""
    n = G.n
    if not G.edges:
        return 0.0
    A = np.zeros((len(G.edges), 2 * n))
    b = np.zeros(len(G.edges))
    for k, (u, v) in enumerate(G.edges):
        A[k, u] = A[k, n + v] = 1.0
        A[k, v] = A[k, n + u] = -1.0
        b[k] = p.probs[v] - p.probs[u]
    return float(highs_lp(np.ones(2 * n), A, b).fun)


def reference_dtv_to_monotone(G: Poset, p: Distribution) -> float:
    """reference_dtv_lp solved by HiGHS."""
    return float(highs_lp(*reference_dtv_lp(G, p)).fun)


def highs_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """min c.x subject to the rows and x >= 0, solved by HiGHS; the result
    must be optimal."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res


# Dict-loop references for the pair-histogram pipeline of the matching tester:
# one Python pass per key, the way the library computed it before its
# histograms became sorted numpy arrays. Each returns plain sorted dicts.


def reference_pair_histogram(p1, p2) -> dict:
    """Pair histogram by counting the elements one at a time."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    support: dict[tuple[float, float], float] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x == 0.0 and y == 0.0:
            continue
        support[(x, y)] = support.get((x, y), 0.0) + 1.0
    return dict(sorted(support.items()))


def reference_rescale(items, w_bottom: float, w_top: float) -> dict:
    """Keys (x, y) moved to (w_bottom * x, w_top * y) in item order; (0, 0)
    dropped, colliding keys summed in that order."""
    out: dict[tuple[float, float], float] = {}
    for (x, y), c in items:
        key = (w_bottom * x, w_top * y)
        if key == (0.0, 0.0):
            continue
        out[key] = out.get(key, 0.0) + c
    return dict(sorted(out.items()))


def reference_midpoint(items) -> tuple[float, dict]:
    """Midpoint fix of every violating key (x > y) in item order: its cost
    summed one term at a time, and the fixed histogram."""
    cost = 0.0
    out: dict[tuple[float, float], float] = {}
    for (x, y), c in items:
        if x > y:
            mid = 0.5 * (x + y)
            cost += c * (x - y)
            key = (mid, mid)
        else:
            key = (x, y)
        if key != (0.0, 0.0):
            out[key] = out.get(key, 0.0) + c
    return float(cost), dict(sorted(out.items()))


def reference_pair_cost(counts_bottom, counts_top, w_bottom: float) -> float:
    """The matching tester's statistic one vertex pair at a time: with nb, nt
    the side totals of the integer counts (at least 1), pair i has
    x = w_bottom * (b_i / nb) and y = (1 - w_bottom) * (t_i / nt) in floats,
    and adds x - y to the cost when x > y."""
    nb = float(max(sum(int(b) for b in counts_bottom), 1))
    nt = float(max(sum(int(t) for t in counts_top), 1))
    cost = 0.0
    for b, t in zip(counts_bottom, counts_top):
        x = w_bottom * (float(b) / nb)
        y = (1.0 - w_bottom) * (float(t) / nt)
        if x > y:
            cost += x - y
    return cost


def reference_matchable_pairs(G: Poset, cap: int):
    """The (top set, bottom set) endpoint pairs of G's matchings, as sorted
    tuples, empty pair included, by walking every matching edge by edge;
    SizeCapError as soon as more than cap distinct pairs are seen."""
    edges = G.edge_array.tolist()
    pairs = {((), ())}
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def walk(start: int):
        for k in range(start, len(edges)):
            u, v = edges[k]
            if u in used or v in used:
                continue
            used.update((u, v))
            chosen.append((u, v))
            pairs.add((tuple(sorted(t for _, t in chosen)), tuple(sorted(b for b, _ in chosen))))
            if len(pairs) > cap:
                raise SizeCapError(f"more than {cap} matchable subset pairs")
            walk(k + 1)
            used.difference_update((u, v))
            chosen.pop()

    walk(0)
    return sorted(pairs)


# Generator-call references for the library's sampling routines: the numpy
# calls they replace, one call per draw or per row.


def reference_choice(p, size, gen: np.random.Generator):
    """Indices drawn by Generator.choice itself."""
    return gen.choice(len(p), size=size, p=p)


def reference_instance_counts(priors, n: int, s: int, gen: np.random.Generator):
    """[(atom indices, counts)] of generate_instance's big and far side, drawn
    per element: Generator.choice for each side's atoms, then one
    Generator.poisson over each side's n rates s * w_i / n."""
    idx = [reference_choice(mass / mass.sum(), n, gen) for mass in (priors.mass_big, priors.mass_far)]
    return [(i, gen.poisson((s * (atoms / n)).take(i))) for atoms, i in zip((priors.atoms_big, priors.atoms_far), idx)]


def reference_poisson_counts(rates: np.ndarray, idx: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Independent Poisson(rates[idx[i]]) counts drawn per atom, atoms in
    index order, each nonzero-rate atom's members found by comparing the
    whole index with it: rate r <= 1 draws the members' total and shares it
    out by uniform picks, a higher rate draws each member's count."""
    picks, direct = [], []
    for k in rates.nonzero()[0]:
        members = (idx == k).nonzero()[0]
        if members.size == 0:
            continue
        r = rates[k]
        if r <= 1.0:
            total = gen.poisson(r * members.size)
            picks.append(members.take(gen.integers(members.size, size=total)))
        else:
            direct.append((members, gen.poisson(r, members.size)))
    if picks:
        counts = np.bincount(np.concatenate(picks), minlength=idx.size).astype(np.int64, copy=False)
    else:
        counts = np.zeros(idx.size, dtype=np.int64)
    for members, drawn in direct:
        counts[members] = drawn
    return counts


def reference_instance(priors, n: int, s: int, gen: np.random.Generator) -> LBInstance:
    """generate_instance along the route that reads every statistic off the
    n-length outputs: atoms by Generator.choice, counts by
    reference_poisson_counts (big side first), then the masses, count totals,
    zeros and peak each from a scan of the raw vectors and histograms. The
    event flags are Python bools."""
    idx_big, idx_far = (reference_choice(mass / mass.sum(), n, gen) for mass in (priors.mass_big, priors.mass_far))
    raw_big = (priors.atoms_big / n).take(idx_big)
    raw_far = (priors.atoms_far / n).take(idx_far)
    hist_big = reference_poisson_counts(s * (priors.atoms_big / n), idx_big, gen)
    hist_far = reference_poisson_counts(s * (priors.atoms_far / n), idx_far, gen)
    mass_big, mass_far = raw_big.sum(), raw_far.sum()
    zero_count = int(np.count_nonzero(raw_far == 0.0))
    # the count clause holds vacuously at s = 0, where nothing is drawn
    count_floor = s * (1 - priors.nu) / 2.0
    event_big = bool(abs(mass_big - 1.0) <= priors.nu and (s == 0 or hist_big.sum() > count_floor))
    event_far = bool(
        abs(mass_far - 1.0) <= priors.nu
        and zero_count >= priors.beta * n * priors.gap / 2.0
        and (s == 0 or hist_far.sum() > count_floor)
    )
    peaks = [raw.max() / mass for raw, mass in ((raw_big, mass_big), (raw_far, mass_far)) if mass > 0]
    return LBInstance(n=n, s=s, raw_big=raw_big, raw_far=raw_far, zero_count=zero_count, hist_big=hist_big,
                      hist_far=hist_far, event_big=event_big, event_far=event_far,
                      p_max=float(max(peaks, default=0.0)))


def fingerprint_stats(hist: np.ndarray) -> tuple[int, int, int, int]:
    """(zero count, singleton count, doubleton count, total samples): the
    label-free summary a symmetric-property tester would look at."""
    return (
        int(np.count_nonzero(hist == 0)),
        int(np.count_nonzero(hist == 1)),
        int(np.count_nonzero(hist == 2)),
        int(hist.sum()),
    )


def reference_fingerprints(priors, n: int, s: int, seeds) -> dict:
    """{side: (fingerprints, events)} over one generate_instance per seed:
    each side's fingerprint_stats of its histogram as rows of an int array,
    and its event flags. The probe's fingerprint law is this route's."""
    rows = {"big": ([], []), "far": ([], [])}
    for seed in seeds:
        inst = generate_instance(priors, n, s, Rng(seed))
        for side, (tallies, events) in rows.items():
            tallies.append(fingerprint_stats(getattr(inst, f"hist_{side}")))
            events.append(getattr(inst, f"event_{side}"))
    return {side: (np.array(st, dtype=np.int64), np.array(ev)) for side, (st, ev) in rows.items()}


def reference_lift_histogram(reduction, src_counts, gen: np.random.Generator) -> np.ndarray:
    """Lift of a source histogram with one multinomial call per nonzero row;
    with a single copy nothing is drawn."""
    k = reduction.copies.shape[1]
    out = np.zeros(reduction.target.n, dtype=np.int64)
    for i in np.nonzero(src_counts)[0]:
        row = reduction.copies[int(i)]
        if k == 1:
            out[row[0]] += src_counts[i]
            continue
        split = gen.multinomial(int(src_counts[i]), np.full(k, 1.0 / k))
        for j, cnt in zip(row, split):
            out[j] += cnt
    return out


def reference_bipartite_to_matching(G: Poset, delta: int, probs) -> tuple[Poset, np.ndarray]:
    """The bipartite-to-matching target built one edge at a time, and probs
    mapped onto it one (row, copy) term at a time: the loops the library ran
    while a reduction carried a per-row lift table."""
    n = G.n

    def copy_id(w: int, c: int) -> int:
        return w * delta + c

    next_free = [0] * n
    copy_edges = []
    for u, v in G.edges:
        cu = next_free[u]
        next_free[u] += 1
        cv = next_free[v]
        next_free[v] += 1
        copy_edges.append((copy_id(u, cu), copy_id(v, cv)))
    dummy_base = n * delta
    dummies = 0
    dummy_edges = []
    for w in range(n):
        for c in range(next_free[w], delta):
            dummy_edges.append((dummy_base + dummies, copy_id(w, c)))
            dummies += 1
    target = Poset(dummy_base + dummies, copy_edges + dummy_edges, kind="matching")
    share = 1.0 / delta
    q = np.zeros(target.n)
    for w in range(n):
        for c in range(delta):
            q[copy_id(w, c)] += probs[w] * share
    return target, q


# Loop-based reference for Poset validation: the checks the library ran one
# edge at a time before its edges became a sorted array, with top and dim
# passed in, and the matching bottom/top filled in from the edges.


def reference_poset_check(n: int, edges, kind: str = "general", bottom=(), top=(), dim: int = 0):
    """Return (edges, bottom, top) the way the loop-based Poset stored them,
    or raise PosetError with the message it raised."""
    if n < 0:
        raise PosetError("vertex count must be nonnegative")
    if kind not in KINDS:
        raise PosetError(f"unknown kind {kind!r}")
    edges = tuple(sorted((int(u), int(v)) for u, v in edges))
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise PosetError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise PosetError(f"self-loop at {u}")
        if (u, v) in seen:
            raise PosetError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    adj = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        adj[u].append(v)
        indeg[v] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    done = 0
    while stack:
        u = stack.pop()
        done += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if done != n:
        raise PosetError("edge relation contains a cycle")
    bottom = tuple(int(i) for i in bottom)
    top = tuple(int(i) for i in top)
    if kind == "line":
        if edges != tuple((i, i + 1) for i in range(n - 1)):
            raise PosetError("line kind requires exactly the edges (i, i+1)")
    elif kind == "matching":
        endpoints = [w for e in edges for w in e]
        if len(endpoints) != len(set(endpoints)):
            raise PosetError("matching kind requires vertex-disjoint edges")
    elif kind == "bipartite":
        if set(bottom) & set(top):
            raise PosetError("bottom and top sets overlap")
        for u, v in edges:
            if u not in bottom or v not in top:
                raise PosetError(f"bipartite edge ({u},{v}) must run bottom -> top")
    elif kind == "hypercube":
        if dim < 1 or n != 1 << dim:
            raise PosetError("hypercube kind requires n = 2^dim")
        for u, v in edges:
            diff = u ^ v
            if v <= u or diff & (diff - 1):
                raise PosetError(f"hypercube edge ({u},{v}) is not a single 0->1 bit flip")
    if kind == "matching" and not bottom and edges:
        bottom = tuple(sorted(u for u, _ in edges))
        top = tuple(sorted(v for _, v in edges))
    return edges, bottom, top


# LP reference for the tester's midpoint statistic: the exact minimum of
# W(g, g*) over histograms g* on a quantized monotone grid, one transport LP.


class GridInfeasibleError(ValueError):
    """The quantized monotone grid would exceed its point cap."""


def _monotone_grid(step: float, upper: float, max_points: int):
    ticks = int(np.ceil(upper / step - 1e-12)) + 1
    pts = [
        (i * step, j * step)
        for j in range(ticks)
        for i in range(j + 1)
        if not (i == 0 and j == 0)
    ]
    if len(pts) > max_points:
        raise GridInfeasibleError(f"monotone grid needs {len(pts)} points (cap {max_points})")
    return pts


def lp_min_w_to_monotone_pairhist(g, grid_step: float, max_grid_points: int = 5000):
    """Minimize W(g, g*) jointly over transport plans and histograms g*
    supported on a quantized monotone grid carrying total probability mass 1.
    Returns (value, g*)."""
    items = g.items()
    if not items:
        return 0.0, PairHistogram({})
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    upper = max(max(x, y) for (x, y), _ in items)
    grid = _monotone_grid(grid_step, upper, max_grid_points)
    supply = [((x, y), c) for (x, y), c in items]
    ns = len(supply)
    nd = len(grid)
    # Columns: moves F[i, j] from supply i to grid point j, one sink column per
    # supply (mass destroyed at (0,0)), one source column per grid point (mass
    # created from (0,0)).
    nvar = ns * nd + ns + nd
    c_vec = np.empty(nvar)
    for i, ((x, y), _) in enumerate(supply):
        for j, (a, b) in enumerate(grid):
            c_vec[i * nd + j] = abs(x - a) + abs(y - b)
        c_vec[ns * nd + i] = x + y  # to the (0,0) sink
    for j, (a, b) in enumerate(grid):
        c_vec[ns * nd + ns + j] = a + b  # created from (0,0)
    A_eq = np.zeros((ns + 1, nvar))
    b_eq = np.zeros(ns + 1)
    for i, (_, cnt) in enumerate(supply):
        A_eq[i, i * nd : (i + 1) * nd] = 1.0
        A_eq[i, ns * nd + i] = 1.0
        b_eq[i] = cnt
    # g* must be the histogram of a probability distribution: total mass 1.
    for j, (a, b) in enumerate(grid):
        A_eq[ns, j::nd][:ns] = a + b
        A_eq[ns, ns * nd + ns + j] = a + b
    b_eq[ns] = 1.0
    res = highs_lp(c_vec, A_eq=A_eq, b_eq=b_eq)
    obj, flow = res.fun, res.x
    out = {}
    for j, pt in enumerate(grid):
        col = float(flow[j:ns * nd:nd].sum() + flow[ns * nd + ns + j])
        if col > 1e-9:
            out[pt] = col
    return float(obj), PairHistogram(out)


# Seed that perfbench/workloads.py draws the oracle workload's instance shapes from.
ORACLE_BASE_SEED = 1907_03182


def bench_shaped_pair_histograms(seed: int, pairs: int = 10) -> list[tuple[PairHistogram, PairHistogram]]:
    """Pairs of 20- and 22-key pair histograms built the way the benchmark's
    oracle workload builds its w_distance inputs: keys on a 1/200 grid below
    0.4 with counts 1-4 drawn from ORACLE_BASE_SEED, every coordinate then
    moved by at most 0.5% by a generator on `seed`."""
    base = np.random.default_rng(ORACLE_BASE_SEED)
    rng = np.random.default_rng(seed)

    def keys(k: int) -> dict:
        support = {}
        while len(support) < k:
            x, y = (int(t) for t in base.integers(0, 80, 2))
            if x or y:
                support[(x / 200.0, y / 200.0)] = float(base.integers(1, 5))
        return {(x * (1 + 0.005 * (2 * rng.random() - 1)), y * (1 + 0.005 * (2 * rng.random() - 1))): c
                for (x, y), c in support.items()}

    return [(PairHistogram(keys(20)), PairHistogram(keys(22))) for _ in range(pairs)]


def counting_pivots(monkeypatch) -> list[int]:
    """Wrap simplex._entering, the pricing step of both simplex methods;
    the returned list gets each entering column or cell."""
    entered = []

    def counting(reduced, basic, bland):
        enter = _entering(reduced, basic, bland)
        if enter >= 0:
            entered.append(enter)
        return enter

    monkeypatch.setattr(simplex, "_entering", counting)
    return entered


def record_pivot_path(monkeypatch, module, solver: str) -> tuple[list, list]:
    """Wrap simplex._entering and module.<solver> (solve_lp or _transport_cost
    as the caller imported it). The first list gets (result, bland) of every
    pricing call, the -1 that ends each solve included; the second gets what
    each solve returned."""
    calls, results = [], []
    solve = getattr(module, solver)

    def entering(reduced, basic, bland):
        enter = _entering(reduced, basic, bland)
        calls.append((enter, bland))
        return enter

    def solving(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(simplex, "_entering", entering)
    monkeypatch.setattr(module, solver, solving)
    return calls, results


def array_digest(arrays) -> str:
    """sha256 (first 32 hex digits) over the dtype, shape and bytes of each
    array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def reference_transport_cost(supply, demand) -> float:
    """Balanced transportation problem between weighted point lists
    [((x, y), mass), ...] under l1 ground cost, as one dense equality LP
    solved by HiGHS: a row per supply and per demand point, a column per
    pair."""
    ns, nd = len(supply), len(demand)
    nvar = ns * nd
    c = np.empty(nvar)
    for i, ((x, y), _) in enumerate(supply):
        for j, ((a, b), _) in enumerate(demand):
            c[i * nd + j] = abs(x - a) + abs(y - b)
    A_eq = np.zeros((ns + nd, nvar))
    b_eq = np.zeros(ns + nd)
    for i, (_, s) in enumerate(supply):
        A_eq[i, i * nd : (i + 1) * nd] = 1.0
        b_eq[i] = s
    for j, (_, d) in enumerate(demand):
        A_eq[ns + j, j::nd] = 1.0
        b_eq[ns + j] = d
    return float(highs_lp(c, A_eq=A_eq, b_eq=b_eq).fun)


def reference_hypercube_edges(d: int) -> list[tuple[int, int]]:
    """The d-cube's edges by the double loop make_hypercube once ran: every
    vertex u and every bit j that is 0 in u give the edge (u, u | 1 << j)."""
    edges = []
    for u in range(1 << d):
        for j in range(d):
            if not u >> j & 1:
                edges.append((u, u | 1 << j))
    return edges


def reference_midpoint_fix(G: Poset, probs: np.ndarray) -> np.ndarray:
    """closest_monotone_on_matching's result by a loop over the edges: each
    violating edge's endpoints move to their average, one edge at a time."""
    q = probs.copy()
    for u, v in G.edges:
        if q[u] > q[v]:
            mid = 0.5 * (q[u] + q[v])
            q[u] = mid
            q[v] = mid
    return q


def reference_closure_edges(tc) -> list[tuple[int, int]]:
    """The pairs of TransitiveClosure.edge_array() by walking each row bitset
    one bit at a time."""
    out = []
    for u in range(tc.n):
        bits = tc._bits[u]
        while bits:
            low = bits & -bits
            out.append((u, low.bit_length() - 1))
            bits ^= low
    return out


def text_lines(path, error: type[ValueError] = ValueError):
    """The lines of a UTF-8 text file one at a time, read by the readers' own
    _blocks, so that a non-UTF-8 byte fails here as it does in them."""
    return itertools.chain.from_iterable(_blocks(path, error))


# The file readers line by line, one int()/float() per token, as they were
# before the block-wise parse, each raising the first fault in file order.
# They refuse what the library's readers refuse on purpose: a header
# declaring more than MAX_DOMAIN vertices and a line after the bottom line.


def reference_read_distribution(path) -> Distribution:
    vals = []
    for k, ln in enumerate(text_lines(path), 1):
        tok = ln.strip()
        if not tok or tok.startswith("#"):
            continue
        try:
            vals.append(float(tok))
        except ValueError:
            raise ValueError(f"{path}:{k}: not a number: {tok!r}") from None
    try:
        return Distribution(np.array(vals))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reference_ints(path, lineno: int, toks, count: int | None = None) -> list[int]:
    if count is not None and len(toks) != count:
        raise PosetError(f"{path}:{lineno}: expected {count} integers, got {len(toks)}")
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise PosetError(f"{path}:{lineno}: non-integer token in {' '.join(toks)!r}") from None


def reference_read_poset(path) -> Poset:
    """Line by line, raising the first fault in file order; too few edge
    lines and an empty file are found at the end."""
    kind, edges, bottom = None, [], None
    for k, ln in enumerate(text_lines(path, PosetError), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if kind is None:
            head = ln.split()
            if len(head) != 3:
                raise PosetError(f"{path}:{k}: header must be 'n m kind'")
            (n, m), kind = _reference_ints(path, k, head[:2]), head[2]
            if kind not in KINDS:
                raise PosetError(f"{path}:{k}: unknown kind {kind!r}")
            if n > MAX_DOMAIN:
                raise PosetError(f"{path}:{k}: {n} vertices exceed the limit of {MAX_DOMAIN}")
            if m < 0:
                raise PosetError(f"{path}:{k}: negative edge count {m}")
        elif len(edges) < m:
            edges.append(tuple(_reference_ints(path, k, ln.split(), 2)))
        elif bottom is not None:
            raise PosetError(f"{path}:{k}: trailing content after the bottom line")
        elif not ln.startswith("bottom:"):
            raise PosetError(f"{path}:{k}: trailing content is not a bottom line")
        else:
            bottom = tuple(_reference_ints(path, k, ln[len("bottom:") :].split()))
    if kind is None:
        raise PosetError(f"{path}: empty poset file")
    if len(edges) < m:
        raise PosetError(f"{path}: expected {m} edge lines")
    try:
        return Poset(n, edges, kind=kind, bottom=bottom or ())
    except PosetError as exc:
        raise PosetError(f"{path}: {exc}") from None
