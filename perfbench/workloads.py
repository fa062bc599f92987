"""The four benchmark workloads: input generation, set-up, job list, checks.

Each workload is driven in three steps that run in different processes:

* ``generate(rng, d, small)`` runs in the harness. It writes the inputs to
  directory ``d`` in the library's file formats with its own writers (so the
  inputs do not change when the library's writers do) and returns a JSON spec.
* ``setup(pd, d, spec)`` runs in a fresh worker interpreter and loads those
  inputs through the library's readers and constructors. This is what
  ``setup_s`` times.
* ``jobs(pd, state)`` lists the operations of one pass. An op is one public-API
  call. The benchmark times each op, compares every pass with the warm-up pass,
  and hands the warm-up outputs to ``check``.

Library calls are looked up on the package at call time (``pd.name``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

class Op:
    """One public-API call. ``fn()`` gives the output; ``view`` reduces it to a
    small value that is kept, compared across passes for the determinism check
    and handed to the workload's ``check``."""

    __slots__ = ("label", "fn", "view")

    def __init__(self, label: str, fn, view=lambda result: result):
        self.label = label
        self.fn = fn
        self.view = view


def spread(*groups) -> list:
    """The groups' items interleaved evenly over one list. A pass then times
    each group's ops at moments spread across the pass instead of in one
    burst, so a slow phase of the host moves a statistic over a group less."""
    keyed = [((i + 0.5) / len(g), j, i) for j, g in enumerate(groups) for i in range(len(g))]
    return [groups[j][i] for _, j, i in sorted(keyed)]


# -- writers in the library's file formats ---------------------------------


def write_poset_file(path: str, n: int, edges, kind: str, bottom=None) -> None:
    """``n m kind`` header, one edge per line, optional ``bottom:`` line; this is
    what ``posetdist.write_poset`` writes for the same poset."""
    edges = sorted(edges)
    lines = [f"{n} {len(edges)} {kind}"]
    lines += [f"{u} {v}" for u, v in edges]
    if bottom is not None:
        lines.append("bottom: " + " ".join(str(i) for i in sorted(bottom)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dist_file(path: str, probs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(repr(float(x)) + "\n" for x in probs))


def normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / v.sum()


ORACLE_BASE_SEED = 1907_03182
JITTER = 0.02


def jitter(rng, v) -> np.ndarray:
    """``v`` with every entry scaled by a factor in [1 - JITTER, 1 + JITTER], normalized."""
    return normalized(np.asarray(v) * (1 + JITTER * (2 * rng.random(len(v)) - 1)))


# -- instance generators ----------------------------------------------------


def hypercube_edges(d: int):
    return [(u, u | 1 << j) for u in range(1 << d) for j in range(d) if not u >> j & 1]


def dag_with_closure(rng, n: int, target: int):
    """A random DAG whose closure has ``target`` pairs or just over, so the LP
    sizes (and hence the cost) do not swing with the seed. Edges i -> j (i < j
    in a random order) are added one at a time; each keeps the closure exact.
    Returns the edges and the closure pairs."""
    perm = [int(v) for v in rng.permutation(n)]
    reach = [0] * n  # reach[i]: bitset of positions reachable from position i
    edges = set()
    while sum(r.bit_count() for r in reach) < target:
        i, j = sorted(int(t) for t in rng.choice(n, 2, replace=False))
        if (i, j) in edges:
            continue
        edges.add((i, j))
        gained = reach[j] | 1 << j
        for a in range(i + 1):
            if a == i or reach[a] >> i & 1:
                reach[a] |= gained
    tc = [(perm[a], perm[b]) for a in range(n) for b in range(n) if reach[a] >> b & 1]
    return [(perm[a], perm[b]) for a, b in sorted(edges)], tc


def violated_everywhere(n: int, tc, p) -> bool:
    """Every vertex meets a closure pair (u, v) with p(u) > p(v), so the
    subset-DP matching spans all n vertices (its cost is 2^n)."""
    hit = set()
    for u, v in tc:
        if p[u] > p[v]:
            hit.update((u, v))
    return len(hit) == n


def dag_instance(base, rng, n: int):
    """General DAG for the subset-DP matching path: the shape (closure of
    0.4 n^2 pairs) and base distribution come from ``base``, the jitter from
    ``rng``. Returns the edges, the closure pairs and the distribution."""
    edges, tc = dag_with_closure(base, n, int(0.4 * n * n))
    p0 = normalized(base.exponential(1.0, n))
    while not violated_everywhere(n, tc, p0):
        p0 = normalized(base.exponential(1.0, n))
    p = jitter(rng, p0)
    while not violated_everywhere(n, tc, p):
        p = jitter(rng, p0)
    return edges, tc, p


def random_pair_hist(rng, keys: int) -> dict:
    """Pair histogram with ``keys`` distinct (x, y) keys on a 1/200 grid."""
    support = {}
    while len(support) < keys:
        x, y = (int(t) for t in rng.integers(0, 80, 2))
        if x or y:
            support[(x / 200.0, y / 200.0)] = float(rng.integers(1, 5))
    return support


def monotone_matching(rng, n_pairs: int) -> np.ndarray:
    lo = rng.uniform(0.2, 1.0, n_pairs)
    return normalized(np.concatenate([lo, lo + rng.uniform(0.05, 1.0, n_pairs)]))


def far_matching(rng, n_pairs: int, eps: float):
    """Every pair violated. On a matching the TV distance to monotone is half the
    total violation (the midpoint fix attains it), so it is known exactly."""
    theta = rng.uniform(2.1 * eps, 2.9 * eps, n_pairs)
    p = normalized(np.concatenate([1.0 + theta, 1.0 - theta]))
    return p, 0.5 * float(np.maximum(0.0, p[:n_pairs] - p[n_pairs:]).sum())


def degree_bounded_bipartite(rng, nb: int, delta: int):
    """Union of ``delta`` random perfect matchings between nb bottoms and nb
    tops; the first one is the identity, so a perfect matching is present."""
    edges = {(i, nb + i) for i in range(nb)}
    for _ in range(delta - 1):
        perm = rng.permutation(nb)
        edges.update((i, nb + int(perm[i])) for i in range(nb))
    return sorted(edges)


def bipartite_inputs(rng, nb: int, heavy_bottom: bool) -> np.ndarray:
    """Monotone (light bottoms) or far (heavy bottoms) input on the bipartite
    poset. Far: the identity matching alone has violation weight
    W0 = sum(p_b - p_t), so d_tv >= W0/2."""
    if heavy_bottom:
        bots, tops = 1.5 * (1 + 0.1 * rng.random(nb)), 0.5 * (1 + 0.1 * rng.random(nb))
    else:
        bots, tops = 0.6 * (1 + 0.2 * rng.random(nb)), 1.4 * (1 + 0.2 * rng.random(nb))
    return normalized(np.concatenate([bots, tops]))


# -- views: small, comparable forms of large outputs -------------------------


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def view_func(res) -> tuple:
    return (res[0], digest(res[1].x))


def view_priors(pr) -> tuple:
    """(digest, gap, closed-form gap, validate() message or None)."""
    import posetdist

    try:
        pr.validate()
        problem = None
    except posetdist.PriorsError as exc:
        problem = str(exc)
    closed = posetdist.moment_gap_value(pr.nu, pr.lam, pr.L)
    return (digest(pr.atoms_big, pr.mass_big, pr.atoms_far, pr.mass_far), pr.beta, pr.gap, closed, problem)


def view_instance(inst) -> tuple:
    """Digest and summary of an LBInstance, plus whether its zero count and
    event flags agree with their definitions (needs the priors' nu only)."""
    zeros_ok = inst.zero_count == int(np.count_nonzero(inst.raw_far == 0.0))
    hist_ok = (inst.hist_big.shape == inst.hist_far.shape == (inst.n,)
               and inst.hist_big.min() >= 0 and inst.hist_far.min() >= 0)
    return (digest(inst.raw_big, inst.raw_far, inst.hist_big, inst.hist_far), inst.zero_count,
            inst.event_big, inst.event_far, inst.p_max, zeros_ok and hist_ok,
            float(inst.raw_big.sum()), int(inst.hist_big.sum()))


def close(a: float, b: float, tol: float = 1e-7) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ===========================================================================
# oracle: exact distances (simplex, matching paths, closure, transport LP)
# ===========================================================================


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    # Seconds one pass takes on the reference host (2-core Xeon, Python 3.11,
    # numpy 2.4) at its usual speed; with --seconds it fixes the pass count.
    ref_pass_s = 1.0
    # Fresh interpreters whose set-up times give setup_s (their median).
    setup_runs = 5
    # POSET_DIST_THREADS for the end-to-end run; None leaves it unset.
    e2e_threads = None

    @staticmethod
    def extras(state, ops, results) -> dict:
        """Per-layer metrics only the workload can compute from its outputs."""
        return {}


class Oracle(Workload):
    name = "oracle"
    ref_pass_s = 7.0

    @staticmethod
    def generate(rng, d: str, small: bool) -> dict:
        # Instance shapes and base values come from a fixed seed: LP pivot
        # counts and the subset DP's cost swing by a third between random
        # instances of one shape, which would drown any change in the code.
        # The workload seed jitters every probability and pair-histogram
        # coordinate, so each seed still gives its own inputs and outputs.
        base = np.random.default_rng(ORACLE_BASE_SEED)
        insts = []

        def add(label, n, edges, kind, p, bottom=None):
            write_poset_file(os.path.join(d, label + ".poset"), n, edges, kind, bottom)
            write_dist_file(os.path.join(d, label + ".dist"), p)
            insts.append(label)

        for dim in ((3, 4) if small else (4, 5, 6)):
            n = 1 << dim
            add(f"cube{dim}", n, hypercube_edges(dim), "hypercube", jitter(rng, base.exponential(1.0, n)))
        n = 8 if small else 18
        edges, _, p = dag_instance(base, rng, n)
        add(f"dag{n}", n, edges, "general", p)
        # general_to_bipartite targets: the closure becomes the edge set.
        for n, target in (((6, 8), (8, 12)) if small else ((16, 40), (24, 60))):
            _, tc = dag_with_closure(base, n, target)
            edges = [(u, n + v) for u, v in tc]
            add(f"g2b{2 * n}", 2 * n, edges, "bipartite", jitter(rng, base.exponential(1.0, 2 * n)), range(n))
        pairs = 4 if small else 32
        add(f"match{2 * pairs}", 2 * pairs, [(i, pairs + i) for i in range(pairs)], "matching",
            jitter(rng, base.exponential(1.0, 2 * pairs)), range(pairs))
        # Many transport LPs of one size put a dense cluster of equal ops at
        # the ranks op_p50_ms and op_tail_ms read, which steadies both. The
        # coordinates move by at most 0.5%, less than half the 1/200 grid
        # step, so keys stay distinct.
        w_pairs = [[{(x * (1 + 0.005 * (2 * rng.random() - 1)), y * (1 + 0.005 * (2 * rng.random() - 1))): c
                     for (x, y), c in random_pair_hist(base, k).items()} for k in (20, 22)]
                   for _ in range(2 if small else 10)]
        with open(os.path.join(d, "pairhist.json"), "w", encoding="utf-8") as fh:
            json.dump([[[[x, y, c] for (x, y), c in h.items()] for h in pair] for pair in w_pairs], fh)
        return {"instances": insts}

    @staticmethod
    def setup(pd, d: str, spec: dict):
        insts = [
            (label, pd.read_poset(os.path.join(d, label + ".poset")),
             pd.read_distribution(os.path.join(d, label + ".dist")))
            for label in spec["instances"]
        ]
        with open(os.path.join(d, "pairhist.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        w_pairs = [tuple(pd.PairHistogram({(x, y): c for x, y, c in h}) for h in pair) for pair in raw]
        return {"insts": insts, "w_pairs": w_pairs}

    @staticmethod
    def jobs(pd, state) -> list[Op]:
        # The three calls ``posetdist oracle`` makes, in its order.
        triples = [[
            Op(f"{label}:dtv", lambda G=G, p=p: pd.exact_dtv_to_monotone(G, p)),
            Op(f"{label}:matching", lambda G=G, p=p: pd.max_violation_matching(G, p)),
            Op(f"{label}:func", lambda G=G, p=p: pd.func_dist_to_monotone(G, p), view_func),
        ] for label, G, p in state["insts"]]
        w_ops = [[Op(f"w{k}:w_distance", lambda h=h, g=g: pd.w_distance(h, g))]
                 for k, (h, g) in enumerate(state["w_pairs"])]
        return [op for unit in spread(triples, w_ops) for op in unit]

    @staticmethod
    def check(pd, state, ops, results) -> dict:
        """Duality (func LP = matching weight), the sandwich W/2 <= d_tv <= W,
        and w_distance against scipy's LP solver on the same transport problem."""
        from scipy.optimize import linprog

        problems = {}
        out = {op.label: res for op, res in zip(ops, results)}
        for label, _, _ in state["insts"]:
            dtv, m, func = out[f"{label}:dtv"], out[f"{label}:matching"], out[f"{label}:func"]
            if dtv is None or func is None:
                continue  # raised; already counted
            W = func[0]
            if m is not None:
                if not close(m.weight, W):
                    problems[f"{label}:matching"] = f"matching weight {m.weight!r} != func LP {W!r}"
                W = m.weight
            if not (W / 2 - 1e-9 <= dtv <= W + 1e-9):
                problems[f"{label}:dtv"] = f"d_tv {dtv!r} outside [W/2, W] for W={W!r}"
        for k, (h, g) in enumerate(state["w_pairs"]):
            got = out[f"w{k}:w_distance"]
            if got is None:
                continue
            supply, demand = list(h.items()), list(g.items())
            diff = sum(c for _, c in supply) - sum(c for _, c in demand)
            (demand if diff > 0 else supply).append(((0.0, 0.0), abs(diff)))
            cost = np.array([[abs(x - a) + abs(y - b) for (a, b), _ in demand] for (x, y), _ in supply])
            ns, nd = cost.shape
            A = np.zeros((ns + nd, ns * nd))
            for i in range(ns):
                A[i, i * nd:(i + 1) * nd] = 1.0
            for j in range(nd):
                A[ns + j, j::nd] = 1.0
            b = np.array([c for _, c in supply] + [c for _, c in demand])
            ref = linprog(cost.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if not (ref.status == 0 and close(got, ref.fun)):
                problems[f"w{k}:w_distance"] = f"w_distance {got!r} != linprog {ref.fun!r}"
        return problems


# ===========================================================================
# tester: matching_monotonicity_test at three sizes plus bipartite trials
# ===========================================================================

TESTER_EPS = 0.25
BIP_DELTA = 3


class Tester(Workload):
    name = "tester"
    ref_pass_s = 5.0
    setup_runs = 3  # each reads the 10^4-pair poset, about 5 s

    @staticmethod
    def generate(rng, d: str, small: bool) -> dict:
        # (n_pairs, trials per pass, read from file): many small trials, few large.
        sizes = [(100, 8, True), (300, 4, True), (1000, 2, False)] if small else \
            [(1000, 40, True), (10_000, 12, True), (100_000, 2, False)]
        for n_pairs, _, from_file in sizes:
            if from_file:
                write_poset_file(os.path.join(d, f"m{n_pairs}.poset"), 2 * n_pairs,
                                 [(i, n_pairs + i) for i in range(n_pairs)], "matching", range(n_pairs))
            write_dist_file(os.path.join(d, f"m{n_pairs}.mono.dist"), monotone_matching(rng, n_pairs))
            p, dist = far_matching(rng, n_pairs, TESTER_EPS)
            if dist < TESTER_EPS:
                raise AssertionError(f"far input at distance {dist} < eps")
            write_dist_file(os.path.join(d, f"m{n_pairs}.far.dist"), p)
        nb = 50 if small else 500
        write_poset_file(os.path.join(d, "bip.poset"), 2 * nb, degree_bounded_bipartite(rng, nb, BIP_DELTA),
                         "bipartite", range(nb))
        write_dist_file(os.path.join(d, "bip.mono.dist"), bipartite_inputs(rng, nb, False))
        write_dist_file(os.path.join(d, "bip.far.dist"), bipartite_inputs(rng, nb, True))
        return {"sizes": sizes, "bip_trials": 4 if small else 8, "lib_seed": int(rng.integers(2**31))}

    @staticmethod
    def setup(pd, d: str, spec: dict):
        groups = []
        for n_pairs, trials, from_file in spec["sizes"]:
            G = pd.read_poset(os.path.join(d, f"m{n_pairs}.poset")) if from_file else pd.make_matching(n_pairs)
            dists = {kind: pd.ExactDistAccess(pd.read_distribution(os.path.join(d, f"m{n_pairs}.{kind}.dist")))
                     for kind in ("mono", "far")}
            groups.append((f"m{n_pairs}", G, dists, trials))
        B = pd.read_poset(os.path.join(d, "bip.poset"))
        bdists = {kind: pd.ExactDistAccess(pd.read_distribution(os.path.join(d, f"bip.{kind}.dist")))
                  for kind in ("mono", "far")}
        groups.append(("bip", B, bdists, spec["bip_trials"]))
        return {"groups": groups, "seed": spec["lib_seed"]}

    @staticmethod
    def jobs(pd, state) -> list[Op]:
        groups = []
        base = pd.Rng(state["seed"])
        stream = 0
        for label, G, dists, trials in state["groups"]:
            ops = []
            groups.append(ops)
            for t in range(trials):
                kind = "mono" if t % 2 == 0 else "far"
                access = dists[kind]
                stream += 1
                if label == "bip":
                    fn = (lambda G=G, a=access, s=stream: pd.bipartite_bounded_degree_test(
                        G, a, BIP_DELTA, TESTER_EPS, rng=base.derive(s)))
                else:
                    fn = (lambda G=G, a=access, s=stream: pd.matching_monotonicity_test(
                        G, a, TESTER_EPS, rng=base.derive(s)))
                ops.append(Op(f"{label}:{kind}:{t}", fn))
        return spread(*groups)

    @staticmethod
    def check(pd, state, ops, results) -> dict:
        """Every Verdict reproduces its decision from its diagnostics; accept rate
        >= 2/3 on monotone and <= 1/3 on far inputs, per size."""
        problems = {}
        rates = {}
        for op, v in zip(ops, results):
            if v is None:
                continue
            group, kind, _ = op.label.split(":")
            eps = TESTER_EPS / (2 * BIP_DELTA) if group == "bip" else TESTER_EPS
            want = "accept" if v.stat <= v.threshold else "reject"
            if (v.decision != want or not close(v.threshold, 3 * eps / 14, 1e-12)
                    or v.samples != v.details["learn_budget"] + v.details["mass_budget"]):
                problems[op.label] = f"inconsistent verdict {v!r}"
            rates.setdefault((group, kind), []).append((op.label, v.accepted))
        for (group, kind), got in rates.items():
            rate = sum(a for _, a in got) / len(got)
            if (kind == "mono" and rate < 2 / 3) or (kind == "far" and rate > 1 / 3):
                for label, accepted in got:
                    if accepted != (kind == "mono"):
                        problems[label] = f"{group} {kind} accept rate {rate:.2f}"
        return problems

    @staticmethod
    def extras(state, ops, results) -> dict:
        acc = {"mono": [], "far": []}
        for op, v in zip(ops, results):
            if v is not None:
                acc[op.label.split(":")[1]].append(v.accepted)
        return {f"testers.accept_rate.{k}": (sum(a) / len(a) if a else 0.0) for k, a in acc.items()}


# ===========================================================================
# lowerbound: moment-gap LP (wide), rejection sampling, instance generation
# ===========================================================================

PRIOR_SETTINGS = [(0.5, 6.0, 4), (0.5, 12.0, 5)]


class Lowerbound(Workload):
    name = "lowerbound"
    ref_pass_s = 5.0

    @staticmethod
    def generate(rng, d: str, small: bool) -> dict:
        if small:
            return {"probe_n": 500, "s_values": [0, 300], "trials": 20,
                    "gen_n": 10_000, "gen_s": 1000, "gen_calls": 3, "lib_seed": int(rng.integers(2**31))}
        return {"probe_n": 10_000, "s_values": [0, 300, 1226, 36780], "trials": 200,
                "gen_n": 1_000_000, "gen_s": 100_000, "gen_calls": 20, "lib_seed": int(rng.integers(2**31))}

    @staticmethod
    def setup(pd, d: str, spec: dict):
        priors = [pd.build_priors(nu, lam, L) for nu, lam, L in PRIOR_SETTINGS]
        return {"priors": priors, **spec}

    @staticmethod
    def jobs(pd, state) -> list[Op]:
        probe_priors, gen_priors = state["priors"]
        seed = state["lib_seed"]
        priors = [Op(f"priors:{lam:g}:{L}", lambda a=(nu, lam, L): pd.build_priors(*a), view_priors)
                  for nu, lam, L in PRIOR_SETTINGS]
        probes = [Op(f"probe:{s}", lambda s=s: pd.indistinguishability_probe(
            probe_priors, state["probe_n"], [s], state["trials"], pd.Rng(seed, s)), tuple)
            for s in state["s_values"]]
        generates = [Op(f"generate:{k}", lambda k=k: pd.generate_instance(
            gen_priors, state["gen_n"], state["gen_s"], pd.Rng(seed).derive(k)), view_instance)
            for k in range(state["gen_calls"])]
        return spread(priors, probes, generates)

    @staticmethod
    def check(pd, state, ops, results) -> dict:
        """priors.validate() passes and the LP gap matches the closed form; probe
        rows keep every trial; instances agree with their event definitions."""
        problems = {}
        nu = state["priors"][1].nu
        floor = state["gen_s"] * (1 - nu) / 2.0
        for op, res in zip(ops, results):
            if res is None:
                continue
            kind = op.label.split(":")[0]
            if kind == "priors":
                _, _, gap, closed, invalid = res
                if invalid or abs(gap - closed) > 1e-3:
                    problems[op.label] = f"validate: {invalid}; gap {gap!r} vs closed form {closed!r}"
            elif kind == "probe":
                for r in res:
                    if not (r.kept_big == r.kept_far == state["trials"] and 0.0 <= r.advantage <= 1.0
                            and r.ci_half >= 0.0):
                        problems[op.label] = f"bad probe row {r!r}"
            else:
                _, _, event_big, _, _, consistent, raw_mass, hist_total = res
                if not (consistent and event_big == (abs(raw_mass - 1.0) <= nu and hist_total > floor)):
                    problems[op.label] = f"instance disagrees with its definition: {res!r}"
        return problems


# ===========================================================================
# suite: ``posetdist suite`` in-process through cli.main
# ===========================================================================


class Suite(Workload):
    name = "suite"
    ref_pass_s = 7.0
    # The end-to-end run uses one worker. With the default two, the suite's
    # time drifted by a quarter between two sets of ten runs made twenty
    # minutes apart (medians 5.24 s and 6.52 s), and no probe run between
    # calls tracks a two-thread call (see worker.slowdown). The traced run
    # keeps the program's default pool, so cli.pool_speedup still says
    # whether the pool pays.
    e2e_threads = 1

    @staticmethod
    def generate(rng, d: str, small: bool) -> dict:
        from scipy.optimize import linprog

        n_pairs, nb, dag_n = (300, 50, 8) if small else (10_000, 500, 18)
        write_poset_file(os.path.join(d, "m.poset"), 2 * n_pairs,
                         [(i, n_pairs + i) for i in range(n_pairs)], "matching", range(n_pairs))
        write_dist_file(os.path.join(d, "m.mono.dist"), monotone_matching(rng, n_pairs))
        write_poset_file(os.path.join(d, "bip.poset"), 2 * nb, degree_bounded_bipartite(rng, nb, BIP_DELTA),
                         "bipartite", range(nb))
        write_dist_file(os.path.join(d, "bip.far.dist"), bipartite_inputs(rng, nb, True))
        # As in the oracle workload: a fixed DAG shape, jittered values.
        edges, tc, p = dag_instance(np.random.default_rng(ORACLE_BASE_SEED + 1), rng, dag_n)
        write_poset_file(os.path.join(d, "dag.poset"), dag_n, edges, "general")
        write_dist_file(os.path.join(d, "dag.dist"), p)
        # Expected matching weight from scipy's LP on the function-distance
        # program over the closure (equal by LP duality).
        A = np.zeros((len(tc), 2 * dag_n))
        for k, (u, v) in enumerate(tc):
            A[k, [u, dag_n + u, v, dag_n + v]] = [1.0, -1.0, -1.0, 1.0]
        b = np.array([p[v] - p[u] for u, v in tc])
        lp = linprog(np.ones(2 * dag_n), A_ub=A, b_ub=b, bounds=(0, None), method="highs").fun
        probe = "n=500 s_values=0,2000 trials=20" if small else "n=2000 s_values=0,20000 trials=40"
        rows = [
            f"verb=test alg=matching poset=m.poset dist=m.mono.dist eps={TESTER_EPS} trials=3"
            " expect_field=accept_rate expect_min=0.66 expect_max=1",
            f"verb=test alg=bipartite poset=bip.poset dist=bip.far.dist eps={TESTER_EPS} trials=3"
            " expect_field=accept_rate expect_min=0 expect_max=0.34",
            f"verb=oracle poset=dag.poset dist=dag.dist expect_field=matching_weight"
            f" expect_min={lp - 1e-7!r} expect_max={lp + 1e-7!r}",
            f"verb=lb-probe nu=0.5 lambda=6 L=4 {probe}"
            " expect_field=advantage_at_max_s expect_min=0.5 expect_max=1",
        ]
        with open(os.path.join(d, "bench.suite"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        return {"rows": len(rows), "lib_seed": int(rng.integers(2**31))}

    @staticmethod
    def setup(pd, d: str, spec: dict):
        """Import only: the suite command reads every row's inputs itself, and
        that reading is part of each suite call."""
        import posetdist.cli

        return {"cli": posetdist.cli, "dir": d, **spec}

    @staticmethod
    def jobs(pd, state) -> list[Op]:
        d = state["dir"]
        argv = ["suite", "--manifest", os.path.join(d, "bench.suite"), "--seed", str(state["lib_seed"]),
                "--out", os.path.join(d, "suite.csv")]

        def run():
            code = state["cli"].main(argv)
            if code != 0:
                raise RuntimeError(f"posetdist suite exited {code}")
            with open(argv[-1], "rb") as fh:
                return fh.read()

        return [Op("suite", run)]

    @staticmethod
    def check(pd, state, ops, results) -> dict:
        """Every row ran (status 0) and met its expect_* range (check=pass)."""
        problems = {}
        for op, csv in zip(ops, results):
            if csv is None:
                continue
            rows = csv.decode().splitlines()[1:]
            bad = [r for r in rows if not r.endswith(",pass") or r.split(",")[2] != "0"]
            if len(rows) != state["rows"] or bad:
                problems[op.label] = f"suite rows failed: {bad or rows!r}"
        return problems

    @staticmethod
    def extras(state, ops, results) -> dict:
        failed = 0
        for csv in results:
            if csv is not None:
                failed += sum(not r.endswith(",pass") for r in csv.decode().splitlines()[1:])
        out = {"cli.rows_failed": failed}
        if results[0] is not None:
            rows = results[0].decode().splitlines()[1:]
            out["testers.accept_rate.mono"] = float(rows[0].split(",")[3])
            out["testers.accept_rate.far"] = float(rows[1].split(",")[3])
        return out


WORKLOADS = {w.name: w for w in (Oracle, Tester, Lowerbound, Suite)}
