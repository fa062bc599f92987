"""Batch CLI: oracle evaluation, tester runs, reductions, lower-bound
experiments, and manifest-driven suites, all seeded and CSV-reporting.

Verbs: oracle, test, reduce, lb {solve,gen,probe}, suite. Every run embeds its
resolved seed, so identical (config, seed) produce byte-identical CSV (LF line
endings, repr-formatted floats, "." decimals). Exit codes: 0 ok, 2 validation
error, 3 infeasible parameters.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

import numpy as np

from .lowerbound import (
    ParameterError,
    assign_parameters,
    build_priors,
    generate_instance,
    indistinguishability_probe,
)
from .oracles import exact_dtv_to_monotone, func_dist_to_monotone, max_violation_matching
from .poset import read_poset, write_poset
from .prob import (
    Distribution,
    ExactDistAccess,
    Rng,
    SampleHistogram,
    read_distribution,
    write_distribution,
    write_histogram_csv,
)
from .reductions import (
    bigness_to_matching,
    bipartite_to_matching,
    general_to_bipartite,
    matching_to_hypercube,
)
from .testers import (
    LearnerSpec,
    all_matchings_test,
    bigness_test,
    bipartite_bounded_degree_test,
    matching_monotonicity_test,
    uniform_subset_test,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_config_sidecar(cfg: dict, out: str) -> None:
    """Record the fully resolved config (seed included) next to the artifact."""
    items = sorted((k, v) for k, v in cfg.items() if v is not None and k != "out")
    text = "".join(f"{k}={v}\n" for k, v in items)
    _emit(text, out + ".config")


def _resolve(path: str, base: str | None) -> str:
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _run_oracle(cfg: dict, base=None):
    G = read_poset(_resolve(cfg["poset"], base))
    p = read_distribution(_resolve(cfg["dist"], base))
    d_tv = exact_dtv_to_monotone(G, p)
    W = max_violation_matching(G, p).weight
    lp, _ = func_dist_to_monotone(G, p)
    header = ["d_tv", "matching_weight", "lp_value"]
    text = _csv(header, [[d_tv, W, lp]])
    return {"d_tv": d_tv, "matching_weight": W, "lp_value": lp}, text


def _run_test(cfg: dict, base=None):
    alg = cfg["alg"]
    p = read_distribution(_resolve(cfg["dist"], base))
    eps = float(cfg["eps"])
    seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 1))
    mult = cfg.get("multiplier")
    learner = LearnerSpec(budget_multiplier=float(mult)) if mult is not None else LearnerSpec()
    G = read_poset(_resolve(cfg["poset"], base)) if cfg.get("poset") else None
    if alg != "bigness" and G is None:
        raise ValueError(f"algorithm {alg!r} needs --poset")
    access = ExactDistAccess(p)
    rows = []
    accepts = 0
    for t in range(trials):
        rng = Rng(seed).derive(t)
        if alg == "bigness":
            T = float(cfg["T"]) if cfg.get("T") else 1.0 / p.n
            v = bigness_test(access, p.n, T, eps, learner, rng)
        elif alg == "matching":
            v = matching_monotonicity_test(G, access, eps, learner, rng)
        elif alg == "bipartite":
            delta = int(cfg["delta"]) if cfg.get("delta") else G.max_degree()
            v = bipartite_bounded_degree_test(G, access, delta, eps, learner, rng)
        elif alg == "uniform-subset":
            size = int(cfg["support_size"]) if cfg.get("support_size") else int(np.count_nonzero(p.probs))
            v = uniform_subset_test(G, size, eps, access, rng)
        elif alg == "all-matchings":
            v = all_matchings_test(G, eps, access, rng)
        else:
            raise ValueError(f"unknown algorithm {alg!r}")
        accepts += v.accepted
        rows.append([t, v.decision, v.stat, v.threshold])
    text = _csv(["trial", "decision", "stat", "threshold"], rows)
    return {"accept_rate": accepts / trials, "trials": trials}, text


def _run_reduce(cfg: dict, base=None):
    kind = cfg["kind"]
    out_poset = _resolve(cfg["out_poset"], base)
    out_dist = _resolve(cfg["out_dist"], base)
    if kind in ("g2b", "b2m"):
        G = read_poset(_resolve(cfg["from"], base))
        if kind == "g2b":
            red = general_to_bipartite(G)
        else:
            delta = int(cfg["delta"]) if cfg.get("delta") else G.max_degree()
            red = bipartite_to_matching(G, delta)
        write_poset(red.target, out_poset)
        if not cfg.get("dist"):
            raise ValueError(f"{kind} needs a source distribution (--dist) to emit one")
        q = red.map_distribution(read_distribution(_resolve(cfg["dist"], base)))
        write_distribution(q, out_dist)
        summary = {"target_n": red.target.n, "far_divisor": red.far_divisor}
    elif kind == "big2m":
        p = read_distribution(_resolve(cfg["from"], base))
        T = float(cfg["T"]) if cfg.get("T") else 1.0 / p.n
        q, meta = bigness_to_matching(p, T)
        write_poset(meta["poset"], out_poset)
        write_distribution(q, out_dist)
        summary = {"target_n": meta["poset"].n, "far_divisor": meta["far_divisor"]}
    elif kind == "m2hyp":
        from .poset import make_hypercube

        p = read_distribution(_resolve(cfg["from"], base))
        d = int(cfg["d"])
        ell = int(cfg["ell"])
        pmax = float(cfg["pmax"])
        q = matching_to_hypercube(d, ell, p, pmax)
        write_poset(make_hypercube(d), out_poset)
        write_distribution(q, out_dist)
        summary = {"target_n": q.n, "far_divisor": 0.0}
    else:
        raise ValueError(f"unknown reduction kind {kind!r}")
    return summary, None


def _lb_params(cfg):
    nu = float(cfg["nu"])
    lam = float(cfg["lambda"])
    L = int(cfg["L"])
    grid = int(cfg.get("grid", 400))
    return nu, lam, L, grid


def _run_lb_solve(cfg: dict, base=None):
    nu, lam, L, grid = _lb_params(cfg)
    priors = build_priors(nu, lam, L, grid)
    rows = []
    for side, atoms, mass in ((0, priors.atoms_big, priors.mass_big), (1, priors.atoms_far, priors.mass_far)):
        for a, m in zip(atoms, mass):
            rows.append([side, float(a), float(m), priors.beta, priors.gap])
    text = _csv(["side", "atom", "mass", "beta", "objective"], rows)
    return {"objective": priors.gap, "beta": priors.beta}, text


def _run_lb_gen(cfg: dict, base=None):
    seed = int(cfg.get("seed", 0))
    n = int(cfg["n"])
    L = int(cfg["L"])
    if cfg.get("eps"):
        params = assign_parameters(n, float(cfg["eps"]), L)
        nu, lam, s = params.nu, params.lam, params.s
        grid = int(cfg.get("grid", 400))
    else:
        nu, lam, L, grid = _lb_params(cfg)
        s = int(cfg["s"])
    priors = build_priors(nu, lam, L, grid)
    inst = generate_instance(priors, n, s, Rng(seed))
    prefix = _resolve(cfg["out_prefix"], base)
    if inst.norm_big is not None:
        write_distribution(inst.norm_big, prefix + ".big.dist")
    if inst.norm_far is not None:
        write_distribution(inst.norm_far, prefix + ".far.dist")
    write_histogram_csv(SampleHistogram(inst.hist_big), prefix + ".big.hist.csv")
    write_histogram_csv(SampleHistogram(inst.hist_far), prefix + ".far.hist.csv")
    header = ["n", "s", "zero_count", "event_big", "event_far", "p_max"]
    row = [n, s, inst.zero_count, inst.event_big, inst.event_far, inst.p_max]
    _emit(_csv(header, [row]), prefix + ".events.csv")
    return {
        "event_big": int(inst.event_big),
        "event_far": int(inst.event_far),
        "zero_count": inst.zero_count,
    }, None


def _run_lb_probe(cfg: dict, base=None):
    nu, lam, L, grid = _lb_params(cfg)
    n = int(cfg["n"])
    trials = int(cfg.get("trials", 200))
    seed = int(cfg.get("seed", 0))
    s_values = [int(tok) for tok in str(cfg["s_values"]).split(",") if tok != ""]
    priors = build_priors(nu, lam, L, grid)
    rows = indistinguishability_probe(priors, n, s_values, trials, Rng(seed))
    table = [[r.s, r.kept_big, r.kept_far, r.best_stat, r.advantage, r.ci_half] for r in rows]
    text = _csv(["s", "kept_big", "kept_far", "best_stat", "advantage", "ci_half"], table)
    last = rows[-1] if rows else None
    return {"advantage_at_max_s": last.advantage if last else 0.0}, text


_HANDLERS = {
    "oracle": _run_oracle,
    "test": _run_test,
    "reduce": _run_reduce,
    "lb-solve": _run_lb_solve,
    "lb-gen": _run_lb_gen,
    "lb-probe": _run_lb_probe,
}


def run_config(cfg: dict, base: str | None = None):
    """Dispatch one flat config to its verb handler: returns (summary, csv text)."""
    verb = cfg.get("verb")
    if verb not in _HANDLERS:
        raise ValueError(f"unknown verb {verb!r}")
    return _HANDLERS[verb](cfg, base)


def _parse_manifest_line(line: str) -> dict:
    cfg = {}
    for tok in shlex.split(line, comments=True):
        if "=" not in tok:
            raise ValueError(f"manifest token {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        cfg[k.replace("-", "_")] = v
    return cfg


def run_suite(manifest: str, out: str | None, master_seed: int) -> str:
    """Run every manifest row (derived seed = master xor row index), aggregate
    one line per row with a pass/fail check column. Row failures mark the row
    and never abort the suite."""
    base = os.path.dirname(os.path.abspath(manifest))
    with open(manifest, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    rows = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        rows.append(_parse_manifest_line(ln))

    def run_row(idx, cfg):
        cfg = dict(cfg)
        cfg["seed"] = master_seed ^ idx
        try:
            summary, text = run_config(cfg, base)
            if cfg.get("out"):
                path = _resolve(cfg["out"], base)
                _emit(text or "", path)
                _write_config_sidecar(cfg, path)
            status = EXIT_OK
        except ParameterError:
            summary, status = {}, EXIT_INFEASIBLE
        except Exception:
            summary, status = {}, EXIT_VALIDATION
        check = "pass"
        value = 0.0
        field = cfg.get("expect_field")
        if status != EXIT_OK:
            check = "fail"
        elif field:
            if field not in summary:
                check = "fail"
            else:
                value = float(summary[field])
                lo = float(cfg.get("expect_min", "-inf"))
                hi = float(cfg.get("expect_max", "inf"))
                check = "pass" if lo <= value <= hi else "fail"
        return [idx, cfg["seed"], status, value, check]

    results = [run_row(idx, cfg) for idx, cfg in enumerate(rows)]
    text = _csv(["row", "seed", "status", "value", "check"], results)
    _emit(text, out)
    return text


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="posetdist", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    o = sub.add_parser("oracle", help="exact distances for a poset + distribution")
    o.add_argument("--poset", required=True)
    o.add_argument("--dist", required=True)
    o.add_argument("--out")

    t = sub.add_parser("test", help="run a tester for several seeded trials")
    t.add_argument("--alg", required=True, choices=["bigness", "matching", "bipartite", "uniform-subset", "all-matchings"])
    t.add_argument("--poset")
    t.add_argument("--dist", required=True)
    t.add_argument("--eps", required=True, type=float)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--trials", type=int, default=1)
    t.add_argument("--T", type=float)
    t.add_argument("--delta", type=int)
    t.add_argument("--support-size", dest="support_size", type=int)
    t.add_argument("--multiplier", type=float)
    t.add_argument("--out")

    r = sub.add_parser("reduce", help="apply a structural reduction")
    r.add_argument("--from", dest="from", required=True)
    r.add_argument("--kind", required=True, choices=["g2b", "b2m", "big2m", "m2hyp"])
    r.add_argument("--out-poset", dest="out_poset", required=True)
    r.add_argument("--out-dist", dest="out_dist", required=True)
    r.add_argument("--dist")
    r.add_argument("--T", type=float)
    r.add_argument("--delta", type=int)
    r.add_argument("--d", type=int)
    r.add_argument("--ell", type=int)
    r.add_argument("--pmax", type=float)

    lb = sub.add_parser("lb", help="lower-bound construction tools")
    lbsub = lb.add_subparsers(dest="lbverb", required=True)
    ls = lbsub.add_parser("solve", help="solve the prior construction, print atoms")
    ls.add_argument("--nu", required=True, type=float)
    ls.add_argument("--lambda", dest="lam", required=True, type=float)
    ls.add_argument("--L", required=True, type=int)
    ls.add_argument("--grid", type=int, default=400)
    ls.add_argument("--out")
    lg = lbsub.add_parser("gen", help="generate one two-sided instance")
    lg.add_argument("--n", required=True, type=int)
    lg.add_argument("--L", required=True, type=int)
    lg.add_argument("--eps", type=float)
    lg.add_argument("--nu", type=float)
    lg.add_argument("--lambda", dest="lam", type=float)
    lg.add_argument("--s", type=int)
    lg.add_argument("--grid", type=int, default=400)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--out-prefix", dest="out_prefix", required=True)
    lp = lbsub.add_parser("probe", help="advantage-vs-s indistinguishability probe")
    lp.add_argument("--nu", required=True, type=float)
    lp.add_argument("--lambda", dest="lam", required=True, type=float)
    lp.add_argument("--L", required=True, type=int)
    lp.add_argument("--n", required=True, type=int)
    lp.add_argument("--s-values", dest="s_values", required=True)
    lp.add_argument("--trials", type=int, default=200)
    lp.add_argument("--grid", type=int, default=400)
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--out")

    s = sub.add_parser("suite", help="run a manifest of configs, aggregate pass/fail")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out")
    s.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    ns = vars(args)
    try:
        if args.verb == "suite":
            run_suite(args.manifest, args.out, args.seed)
            return EXIT_OK
        cfg = {k: v for k, v in ns.items() if v is not None}
        if args.verb == "lb":
            cfg["verb"] = f"lb-{ns['lbverb']}"
            if "lam" in cfg:
                cfg["lambda"] = cfg.pop("lam")
        summary, text = run_config(cfg)
        if text is not None:
            _emit(text, cfg.get("out"))
        if cfg.get("out"):
            _write_config_sidecar(cfg, cfg["out"])
        return EXIT_OK
    except ParameterError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
