"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    Rng,
    all_matchings_test,
    assign_parameters,
    bigness_test,
    bigness_to_matching,
    bipartite_bounded_degree_test,
    bipartite_to_matching,
    build_priors,
    closest_monotone_on_matching,
    dist_to_bigness,
    exact_dtv_to_monotone,
    func_dist_to_monotone,
    general_to_bipartite,
    generate_instance,
    hypercube_embedding,
    indistinguishability_probe,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_matching,
    matching_monotonicity_test,
    matching_to_hypercube,
    hypercube_scale,
    max_violation_matching,
    min_perm_l1,
    moment_gap_value,
    pair_histogram,
    solve_moment_gap,
    transitive_closure,
    uniform_subset_test,
    w_distance,
)

from genutil import (
    far_matching_dist,
    grid_moment_gap,
    monotone_matching_dist,
    random_bipartite,
    random_dag,
    random_distribution,
)

EPS = 0.2
TRIALS = 100
MAX_ERR = 1 / 3


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def duality_instances():
    """500 random posets with n <= 10; (W, lp objective, exact TV distance)."""
    rng = np.random.default_rng(777)
    out = []
    start = time.time()
    for _ in range(500):
        n = int(rng.integers(2, 11))
        G = random_dag(rng, n)
        p = random_distribution(rng, n)
        W = max_violation_matching(G, p).weight
        lp, _ = func_dist_to_monotone(G, p)
        d = exact_dtv_to_monotone(G, p)
        out.append((W, lp, d))
    return out, time.time() - start


def test_criterion_01_duality_integrality(duality_instances):
    rows, elapsed = duality_instances
    worst = max(abs(W - lp) for W, lp, _ in rows)
    ok = worst <= 1e-7 and elapsed < 30.0
    report(1, "LP optimum equals max violation matching", ok,
           f"worst gap {worst:.2e}, {elapsed:.1f}s for 500 instances")


def test_criterion_02_factor_two_sandwich(duality_instances):
    rows, _ = duality_instances
    ok = all(W / 2 - 1e-9 <= d <= W + 1e-9 for W, _, d in rows)
    worst_lo = min(d - W / 2 for W, _, d in rows)
    worst_hi = min(W - d for W, _, d in rows)
    report(2, "W/2 <= d_tv <= W on 500 instances", ok,
           f"min slack low {worst_lo:.2e} high {worst_hi:.2e}")


def test_criterion_03_closed_form_vs_lp():
    start = time.time()
    worst = 0.0
    for lam in (4.0, 6.0, 9.0):
        for L in (3, 4, 5):
            closed = moment_gap_value(0.5, lam, L)
            solved, _, _ = solve_moment_gap(0.5, lam, L)
            worst = max(worst, abs(closed - solved), abs(closed - grid_moment_gap(0.5, lam, L)))
    v, _, _ = solve_moment_gap(0.5, 6.0, 4)
    elapsed = time.time() - start
    ok = worst <= 1e-3 and abs(v - 1 / 54) <= 1e-3 and elapsed < 60.0
    report(3, "gap closed form vs alternation points and discretized LP (9 combos)", ok,
           f"worst gap {worst:.2e}, (6,4) value {v:.6f}, {elapsed:.1f}s")


def test_criterion_04_moment_matching():
    worst_rel = 0.0
    for lam in (4.0, 6.0, 9.0):
        for L in (3, 4, 5):
            priors = build_priors(0.5, lam, L)
            priors.validate()  # raises on any invariant breach
            for side_atoms, side_mass in (
                (priors.atoms_big, priors.mass_big),
                (priors.atoms_far, priors.mass_far),
            ):
                assert abs(float(side_atoms @ side_mass) - 1.0) <= 1e-8
            for j in range(1, L + 1):
                a = float(priors.atoms_big**j @ priors.mass_big)
                b = float(priors.atoms_far**j @ priors.mass_far)
                worst_rel = max(worst_rel, abs(a - b) / max(1.0, a))
            lo = (1 + 0.5) / priors.beta - 1e-12
            hi = lam / priors.beta + 1e-12
            assert np.all((priors.atoms_big >= lo) & (priors.atoms_big <= hi))
            nz = priors.atoms_far[priors.atoms_far != 0.0]
            assert np.all((nz >= lo) & (nz <= hi))
    ok = worst_rel <= 1e-8
    report(4, "moment matching of built priors", ok, f"worst relative gap {worst_rel:.2e}")


def test_criterion_05_event_and_bigness_structure():
    n = 10_000
    eps = math.exp(-8.0 / 3.0) / 27.0
    params = assign_parameters(n, eps, 4)
    assert params.lam == pytest.approx(6.0)
    priors = build_priors(params.nu, params.lam, 4)
    threshold = 1.0 / (priors.beta * n)
    mass_cap = params.lam / (n * (1 - params.nu))
    hits = 0
    checked_far = 0
    for t in range(1000):
        inst = generate_instance(priors, n, params.s, Rng(424242).derive(t))
        if inst.event_big:
            hits += 1
            assert inst.norm_big.probs.min() >= threshold - 1e-12
            assert inst.norm_big.probs.max() <= mass_cap + 1e-12
        if inst.event_far:
            checked_far += 1
            d = dist_to_bigness(inst.norm_far, threshold)
            assert d >= priors.gap / 2 - 1e-12
            assert inst.norm_far.probs.max() <= mass_cap + 1e-12
    ok = hits >= 950
    report(5, "events hold and imply bigness structure", ok,
           f"E rate {hits/1000:.3f}, E' checked {checked_far}")


def _monotone_bipartite(rng, G):
    tc = transitive_closure(G)
    depth = np.array([sum(tc.reach(w, u) for w in range(G.n)) for u in range(G.n)], float)
    v = 1.0 + depth + rng.uniform(0, 0.05, G.n)
    # raise every top above every bottom it covers
    for u, w in transitive_closure(G).edge_array().tolist():
        if v[w] < v[u]:
            v[w] = v[u]
    return Distribution(v / v.sum())


def test_criterion_06_reduction_distance_contracts():
    rng = np.random.default_rng(909)
    checked = {k: 0 for k in ("g2b", "b2m", "big2m", "m2hyp")}

    for _ in range(200):
        G = random_dag(rng, int(rng.integers(2, 7)))
        p = random_distribution(rng, G.n)
        red = general_to_bipartite(G)
        src = exact_dtv_to_monotone(G, p)
        tgt = exact_dtv_to_monotone(red.target, red.apply(p).dist)
        assert tgt >= src / 4.0 - 1e-9
        checked["g2b"] += 1
    G = random_dag(rng, 6)
    pm = _monotone_bipartite(rng, G)
    red = general_to_bipartite(G)
    assert is_monotone(red.target, red.apply(pm).dist.probs)

    for _ in range(200):
        G = random_bipartite(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        delta = max(G.max_degree(), 1)
        p = random_distribution(rng, G.n)
        red = bipartite_to_matching(G, delta)
        src = exact_dtv_to_monotone(G, p)
        tgt = exact_dtv_to_monotone(red.target, red.apply(p).dist)
        assert tgt >= src / (2.0 * delta) - 1e-9
        checked["b2m"] += 1
    G = make_bipartite(5, [(0, 2), (0, 3), (1, 4)], bottom=[0, 1])
    pm = Distribution(np.array([0.05, 0.05, 0.3, 0.3, 0.3]))
    red = bipartite_to_matching(G, 2)
    assert is_monotone(G, pm.probs) and is_monotone(red.target, red.apply(pm).dist.probs)

    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = random_distribution(rng, n)
        T = float(rng.uniform(0.3, 1.0)) / n
        inst = bigness_to_matching(p, T)
        src = dist_to_bigness(p, T)
        tgt = exact_dtv_to_monotone(inst.target, inst.dist)
        assert tgt >= src / (2.0 * (1.0 + n * T)) - 1e-9
        checked["big2m"] += 1
    inst = bigness_to_matching(Distribution.uniform(5), 0.2)  # big source
    assert is_monotone(inst.target, inst.dist.probs)

    d, ell = 4, 2
    n_pairs = math.comb(d - 1, ell - 1)
    H = make_hypercube(d)
    M = make_matching(n_pairs)
    for _ in range(200):
        p = random_distribution(rng, 2 * n_pairs)
        p_max = float(p.probs.max()) * float(rng.uniform(1.0, 1.5))
        q = matching_to_hypercube(d, ell, p, p_max).dist
        scale = hypercube_scale(d, ell, p_max)
        src = exact_dtv_to_monotone(M, p)
        tgt = exact_dtv_to_monotone(H, q)
        assert tgt >= src / scale - 1e-9
        checked["m2hyp"] += 1
    pm = monotone_matching_dist(rng, n_pairs)
    assert is_monotone(H, matching_to_hypercube(d, ell, pm, float(pm.probs.max())).dist.probs)

    ok = all(v >= 200 for v in checked.values())
    report(6, "reduction distance contracts (4 x 200 sweeps)", ok, str(checked))


def test_criterion_07_hypercube_embedding_structure():
    pairs_checked = 0
    for d in range(1, 11):
        H = make_hypercube(d)
        tc = transitive_closure(H)
        for ell in range(1, d + 1):
            emb = hypercube_embedding(d, ell)
            assert len(emb.pairs) == math.comb(d - 1, ell - 1)
            expected = sum(math.comb(d, i) for i in range(ell, d + 1)) - math.comb(d - 1, ell - 1)
            assert len(emb.filler) == expected
            for i, (a, ta) in enumerate(emb.pairs):
                assert tc.reach(a, ta)
                for b, tb in emb.pairs[i + 1 :]:
                    for x in (a, ta):
                        for y in (b, tb):
                            assert not tc.reach(x, y) and not tc.reach(y, x)
                            assert (x | y) != x and (x | y) != y  # independent bitmask route
                    pairs_checked += 1
    report(7, "hypercube embedding incomparability + filler counts (d <= 10)", True,
           f"{pairs_checked} pair comparisons")


def _trial_stats(fn, trials=TRIALS, seed=1000):
    accepts = 0
    slowest = 0.0
    for t in range(trials):
        t0 = time.time()
        v = fn(Rng(seed).derive(t))
        slowest = max(slowest, time.time() - t0)
        accepts += v.accepted
    return accepts / trials, slowest


def _bigness_instances(rng, n, eps):
    big, far = [], []
    T = 1.0 / (2 * n)
    for _ in range(5):
        w = rng.dirichlet(np.ones(n))
        p = Distribution(0.5 / n + 0.5 * w)
        assert dist_to_bigness(p, T) == 0.0
        big.append(p)
        k = math.ceil(2.1 * eps * n)
        v = np.zeros(n)
        idx = rng.permutation(n)[: n - k]
        v[idx] = 1.0 / (n - k)
        q = Distribution(v)
        assert dist_to_bigness(q, T) >= eps
        far.append(q)
    return T, big, far


def _bipartite_cycle(nb):
    edges = [(i, nb + i) for i in range(nb)] + [(i, nb + (i + 1) % nb) for i in range(nb)]
    return make_bipartite(2 * nb, edges, bottom=range(nb))


def _bipartite_instances(rng, n_vertices, eps):
    nb = n_vertices // 2
    G = _bipartite_cycle(nb)
    mono, far = [], []
    for _ in range(5):
        bots = 0.6 / n_vertices * (1.0 + 0.2 * rng.random(nb))
        tops = 1.4 / n_vertices * (1.0 + 0.2 * rng.random(nb))
        v = np.concatenate([bots, tops])
        p = Distribution(v / v.sum())
        assert is_monotone(G, p.probs)
        mono.append(p)
        bots = 1.5 / n_vertices * (1.0 + 0.1 * rng.random(nb))
        tops = 0.5 / n_vertices * (1.0 + 0.1 * rng.random(nb))
        v = np.concatenate([bots, tops])
        q = Distribution(v / v.sum())
        W = max_violation_matching(G, q).weight
        assert W / 2 >= eps  # sound far certificate: d_tv >= W/2
        far.append(q)
    return G, mono, far


def _sparse_edges_instances(rng, n_vertices, eps):
    half = n_vertices // 2
    k = 6
    edges = [(i, half + i) for i in range(k)]
    G = make_bipartite(n_vertices, edges, bottom=range(half))
    mono, far = [], []
    for _ in range(5):
        v = np.full(n_vertices, 1.0, float)
        v[half : half + k] = 2.0 + rng.random(k)
        p = Distribution(v / v.sum())
        assert is_monotone(G, p.probs)
        mono.append(p)
        v = np.full(n_vertices, (1.0 - 0.57) / (n_vertices - 2 * k), float)
        v[:k] = 0.085
        v[half : half + k] = 0.01
        q = Distribution(v)
        W = max_violation_matching(G, q).weight
        assert W / 2 >= eps
        if n_vertices <= 64:
            assert exact_dtv_to_monotone(G, q) >= eps
        far.append(q)
    return G, mono, far


def test_criterion_08_tester_operating_characteristics():
    rng = np.random.default_rng(5150)
    lines = []
    slow = 0.0

    def run_case(label, fn_for, instances, expect_accept):
        nonlocal slow
        errors = 0
        per_instance = TRIALS // len(instances)
        for k, inst in enumerate(instances):
            rate, worst = _trial_stats(fn_for(inst), per_instance, seed=2000 + k)
            slow = max(slow, worst)
            wrong = rate if not expect_accept else 1.0 - rate
            errors += wrong * per_instance
        err_rate = errors / (per_instance * len(instances))
        lines.append(f"{label}: err {err_rate:.2f}")
        assert err_rate <= MAX_ERR, f"{label} error rate {err_rate}"

    for n in (50, 200):
        T, big, far = _bigness_instances(rng, n, EPS)
        run_case(f"bigness n={n} big", lambda p: (
            lambda r: bigness_test(ExactDistAccess(p), T, EPS, rng=r)), big, True)
        run_case(f"bigness n={n} far", lambda p: (
            lambda r: bigness_test(ExactDistAccess(p), T, EPS, rng=r)), far, False)

    for n_pairs in (50, 200):
        G = make_matching(n_pairs)
        mono = [monotone_matching_dist(rng, n_pairs) for _ in range(5)]
        far = [far_matching_dist(rng, n_pairs, EPS)[0] for _ in range(5)]
        run_case(f"matching n={n_pairs} mono", lambda p, G=G: (
            lambda r: matching_monotonicity_test(G, ExactDistAccess(p), EPS, rng=r)), mono, True)
        run_case(f"matching n={n_pairs} far", lambda p, G=G: (
            lambda r: matching_monotonicity_test(G, ExactDistAccess(p), EPS, rng=r)), far, False)

    for n in (50, 200):
        G, mono, far = _bipartite_instances(rng, n, EPS)
        run_case(f"bipartite n={n} mono", lambda p, G=G: (
            lambda r: bipartite_bounded_degree_test(G, ExactDistAccess(p), 2, EPS, rng=r)), mono, True)
        run_case(f"bipartite n={n} far", lambda p, G=G: (
            lambda r: bipartite_bounded_degree_test(G, ExactDistAccess(p), 2, EPS, rng=r)), far, False)

    # uniform-subset runs at n=200 only: with the pinned constants the stage-1
    # accept threshold eps*s1/2 = 4*n^(2/3) is >= n for every n <= 64, so no
    # 50-vertex instance can ever be rejected. Assert that vacuity, then test
    # at the feasible size from the stated set.
    s1_50 = math.ceil(8 * 50 ** (2 / 3) / EPS)
    assert EPS * s1_50 / 2 >= 50
    nb, deg = 50, 3
    n = nb * (1 + deg)
    stars = make_bipartite(
        n, [(b, nb + b * deg + j) for b in range(nb) for j in range(deg)], bottom=range(nb)
    )
    uni = Distribution.uniform(n)
    run_case("uniform-subset n=200 mono", lambda p: (
        lambda r: uniform_subset_test(stars, ExactDistAccess(p), n, EPS, rng=r)), [uni], True)
    bottoms_only = np.zeros(n)
    bottoms_only[:nb] = 1.0 / nb
    qfar = Distribution(bottoms_only)
    assert max_violation_matching(stars, qfar).weight / 2 >= EPS
    run_case("uniform-subset n=200 far", lambda p: (
        lambda r: uniform_subset_test(stars, ExactDistAccess(p), nb, EPS, rng=r)), [qfar], False)

    for n in (50, 200):
        G, mono, far = _sparse_edges_instances(rng, n, EPS)
        run_case(f"all-matchings n={n} mono", lambda p, G=G: (
            lambda r: all_matchings_test(G, ExactDistAccess(p), EPS, rng=r)), mono, True)
        run_case(f"all-matchings n={n} far", lambda p, G=G: (
            lambda r: all_matchings_test(G, ExactDistAccess(p), EPS, rng=r)), far, False)

    ok = slow < 10.0
    report(8, "tester operating characteristics", ok,
           f"slowest trial {slow:.2f}s; " + "; ".join(lines))


def test_criterion_09_pair_histogram_laws():
    rng = np.random.default_rng(6006)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        p1, p2 = random_distribution(rng, n).probs, random_distribution(rng, n).probs
        q1, q2 = random_distribution(rng, n).probs, random_distribution(rng, n).probs
        r1, r2 = random_distribution(rng, n).probs, random_distribution(rng, n).probs
        h, g, f = pair_histogram(p1, p2), pair_histogram(q1, q2), pair_histogram(r1, r2)
        whg = w_distance(h, g)
        assert whg == pytest.approx(w_distance(g, h), abs=1e-8)
        assert w_distance(h, f) <= whg + w_distance(g, f) + 1e-8
        assert whg >= min_perm_l1(p1, p2, q1, q2) - 1e-8
        checked += 1
    report(9, "W symmetry, triangle, and W >= min-perm l1 (100 instances)", checked == 100,
           f"{checked} instances, n <= 7, min-perm l1 by assignment")


def test_criterion_10_probe_monotone_in_s():
    n = 10_000
    eps = math.exp(-8.0 / 3.0) / 27.0
    params = assign_parameters(n, eps, 4)
    priors = build_priors(params.nu, params.lam, 4)
    sweep = [0, 300, params.s, 3 * params.s, 30 * params.s, 500 * params.s]
    rows = indistinguishability_probe(priors, n, sweep, 1000, Rng(31337))
    monotone_ok = all(
        rows[k + 1].advantage >= rows[k].advantage - (rows[k].ci_half + rows[k + 1].ci_half)
        for k in range(len(rows) - 1)
    )
    star = next(r for r in rows if r.s == params.s)
    threshold_ok = star.advantage <= 0.1 + star.ci_half
    detail = "; ".join(f"s={r.s}: {r.advantage:.3f}+-{r.ci_half:.3f}" for r in rows)
    report(10, "probe advantage non-decreasing and small at s*", monotone_ok and threshold_ok, detail)
