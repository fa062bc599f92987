"""Batch CLI: oracle evaluation, tester runs, reductions, lower-bound
experiments, and manifest-driven suites, all seeded and CSV-reporting.

Verbs: oracle, test, reduce, lb {solve,gen,probe}, suite. A suite manifest row
`verb=V k=v ...` is read as the command line `V --k=v ...` by the same parser.
Every run embeds its resolved seed, so identical (config, seed) produce
byte-identical CSV (LF line endings, repr-formatted floats, "." decimals).
Exit codes, and suite row statuses: 0 ok, 1 internal error (a bug; the
traceback is printed), 2 validation or usage error, 3 infeasible parameters.
A suite exits with the first of 1, 2, 3 that a row has, else 4 if a check
failed, else 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import platform
import shlex
import sys
import traceback

import numpy as np

from . import _HOME, __version__

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4


def __getattr__(name):
    """A public function or class of the package read here, as in
    `cli.read_poset`, is the package's; no other name, and no submodule, is.
    The verbs read what they run off the package when they run, so importing
    this module imports no submodule."""
    if _HOME.get(name, name) == name:
        raise AttributeError(f"{__name__} forwards only the package's public names, not {name!r}")
    return getattr(sys.modules[__package__], name)


# Suite-only row keys: they check a row's summary and are not verb flags.
_EXPECT_KEYS = ("expect_field", "expect_min", "expect_max")

# The optional flags (dests) each `test --alg` and `reduce --kind` reads; "!" marks a needed one.
_READS = {
    "alg": {"bigness": "T multiplier", "matching": "poset! multiplier", "bipartite": "poset! delta multiplier",
            "uniform-subset": "poset! support_size", "all-matchings": "poset!"},
    "kind": {"g2b": "dist!", "b2m": "dist! delta", "big2m": "T", "m2hyp": "d! ell! pmax!"},
}
# The type of each read flag that converts its value; the others are paths.
_READ_TYPES = {"T": float, "multiplier": float, "delta": int, "support_size": int, "d": int, "ell": int, "pmax": float}


def _read_flags(selector: str) -> dict[str, str]:
    """{dest: option string} of each flag that some --alg or --kind choice reads, in _READS order."""
    dests = dict.fromkeys(f.rstrip("!") for text in _READS[selector].values() for f in text.split())
    return {flag: "--" + flag.replace("_", "-") for flag in dests}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(map(_fmt, line)) + "\n" for line in [header, *rows])


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_all(*writes) -> None:
    """Each (write, data, path) as write(data, path), all as one step: when
    one raises, the files already written are removed and the error
    re-raised, so a failed write leaves none of them."""
    done = []
    try:
        for write, data, path in writes:
            write(data, path)
            done.append(path)
    except BaseException:
        for path in done:
            os.remove(path)
        raise


def _save(a: argparse.Namespace, text: str, base: str = "") -> bool:
    """Write a run's CSV to its --out file, if it has one, with the fully
    resolved config (seed included) and the posetdist, numpy and Python
    versions that made the bytes in FILE.config, both as one step (a failed
    write leaves neither); True iff it wrote."""
    out = getattr(a, "out", None)
    if out is None:
        return False
    path = os.path.join(base, out)
    items = [(k, v) for k, v in vars(a).items() if v is not None and k not in ("out", "run")]
    items = sorted(items + [("numpy_version", np.__version__), ("posetdist_version", __version__),
                            ("python_version", platform.python_version())])
    _write_all((_emit, text, path), (_emit, "".join(f"{k}={v}\n" for k, v in items), path + ".config"))
    return True


def _run_oracle(a, base=""):
    from . import exact_dtv_to_monotone, max_violation_matching, read_distribution, read_poset
    G = read_poset(os.path.join(base, a.poset))
    p = read_distribution(os.path.join(base, a.dist))
    d_tv = exact_dtv_to_monotone(G, p)  # first: an n above DEFAULT_LP_CAP is refused before the matching works
    W = max_violation_matching(G, p).weight  # lp_value too: the function distance, by LP duality
    summary = {"d_tv": d_tv, "matching_weight": W, "lp_value": W}
    return summary, _csv(list(summary), [list(summary.values())])


def _check_flags(a, selector: str) -> None:
    """Name a flag that the chosen --alg or --kind needs and lacks, or is given and does not read."""
    choice = getattr(a, selector)
    reads = _READS[selector][choice].split()
    for flag, name in _read_flags(selector).items():
        given = getattr(a, flag) is not None
        if not given and flag + "!" in reads:
            raise ValueError(f"--{selector} {choice} needs {name}")
        if given and flag not in reads and flag + "!" not in reads:
            raise ValueError(f"--{selector} {choice} does not read {name}")


def _delta(a, G) -> int:
    """--delta, or else G's largest degree (at least 1)."""
    return a.delta if a.delta is not None else max(G.max_degree(), 1)


def _threshold(a, p) -> float:
    """--T, or else 1/n for p over n elements."""
    return a.T if a.T is not None else 1.0 / p.n


def _run_test(a, base=""):
    from . import (ExactDistAccess, LearnerSpec, Rng, all_matchings_test, bigness_test,
                   bipartite_bounded_degree_test, matching_monotonicity_test, read_distribution, read_poset,
                   uniform_subset_test)
    _check_flags(a, "alg")
    if a.trials < 1:
        raise ValueError("--trials must be at least 1")
    p = read_distribution(os.path.join(base, a.dist))
    G = read_poset(os.path.join(base, a.poset)) if a.poset is not None else None
    access = ExactDistAccess(p)
    learner = LearnerSpec(a.multiplier)
    rows = []
    accepts = 0
    for t in range(a.trials):
        rng = Rng(a.seed, t)
        if a.alg == "bigness":
            v = bigness_test(access, _threshold(a, p), a.eps, learner=learner, rng=rng)
        elif a.alg == "matching":
            v = matching_monotonicity_test(G, access, a.eps, learner=learner, rng=rng)
        elif a.alg == "bipartite":
            v = bipartite_bounded_degree_test(G, access, _delta(a, G), a.eps, learner=learner, rng=rng)
        elif a.alg == "uniform-subset":
            size = a.support_size if a.support_size is not None else int(np.count_nonzero(p.probs))
            v = uniform_subset_test(G, access, size, a.eps, rng=rng)
        else:
            v = all_matchings_test(G, access, a.eps, rng=rng)
        accepts += v.accepted
        rows.append([t, v.decision, v.stat, v.threshold])
    text = _csv(["trial", "decision", "stat", "threshold"], rows)
    return {"accept_rate": accepts / a.trials, "trials": a.trials}, text


def _run_reduce(a, base=""):
    """Read and reduce the source, then write the target poset and the
    reduced distribution; a refused input or a failed write leaves no file."""
    from . import (bigness_to_matching, bipartite_to_matching, general_to_bipartite, matching_to_hypercube,
                   read_distribution, read_poset, write_distribution, write_poset)
    _check_flags(a, "kind")
    source = os.path.join(base, getattr(a, "from"))
    if a.kind in ("g2b", "b2m"):
        G = read_poset(source)
        red = general_to_bipartite(G) if a.kind == "g2b" else bipartite_to_matching(G, _delta(a, G))
        inst = red.apply(read_distribution(os.path.join(base, a.dist)))
    elif a.kind == "big2m":
        p = read_distribution(source)
        inst = bigness_to_matching(p, _threshold(a, p))
    else:
        inst = matching_to_hypercube(a.d, a.ell, read_distribution(source), a.pmax)
    _write_all((write_poset, inst.target, os.path.join(base, a.out_poset)),
               (write_distribution, inst.dist, os.path.join(base, a.out_dist)))
    return {"target_n": inst.target.n, "far_divisor": inst.far_divisor}, None


def _run_lb_solve(a, base=""):
    from . import build_priors
    priors = build_priors(a.nu, a.lam, a.L)
    rows = []
    for side, atoms, mass in ((0, priors.atoms_big, priors.mass_big), (1, priors.atoms_far, priors.mass_far)):
        for x, m in zip(atoms, mass):
            rows.append([side, float(x), float(m), priors.beta, priors.gap])
    text = _csv(["side", "atom", "mass", "beta", "objective"], rows)
    return {"objective": priors.gap, "beta": priors.beta}, text


def _run_lb_gen(a, base=""):
    from . import Rng, assign_parameters, build_priors, generate_instance, write_distribution
    from .prob import write_histogram_csv
    explicit = (a.nu, a.lam, a.s)
    if a.eps is not None and explicit == (None, None, None):
        params = assign_parameters(a.n, a.eps, a.L)
        nu, lam, s = params.nu, params.lam, params.s
    elif a.eps is None and None not in explicit:
        nu, lam, s = explicit
    else:
        raise ValueError("lb gen takes either --eps or all of --nu, --lambda and --s")
    priors = build_priors(nu, lam, a.L)
    inst = generate_instance(priors, a.n, s, Rng(a.seed))
    prefix = os.path.join(base, a.out_prefix)
    header = ["n", "s", "zero_count", "event_big", "event_far", "p_max"]
    row = [a.n, s, inst.zero_count, inst.event_big, inst.event_far, inst.p_max]
    writes = [
        (write_distribution, inst.norm_big, prefix + ".big.dist"),
        (write_distribution, inst.norm_far, prefix + ".far.dist"),
        (write_histogram_csv, inst.hist_big, prefix + ".big.hist.csv"),
        (write_histogram_csv, inst.hist_far, prefix + ".far.hist.csv"),
        (_emit, _csv(header, [row]), prefix + ".events.csv"),
    ]
    _write_all(*(w for w in writes if w[1] is not None))
    return {
        "event_big": int(inst.event_big),
        "event_far": int(inst.event_far),
        "zero_count": inst.zero_count,
    }, None


def _s_values(text: str) -> list[int]:
    """An --s-values list: integers separated by commas, at least one."""
    s_values = []
    for tok in text.split(","):
        try:
            s_values.append(int(tok))
        except ValueError:
            raise ValueError(f"--s-values must be a comma-separated list of integers, got {tok!r} "
                             f"in {text!r}") from None
    return s_values


def _run_lb_probe(a, base=""):
    from . import Rng, build_priors, indistinguishability_probe
    s_values = _s_values(a.s_values)
    priors = build_priors(a.nu, a.lam, a.L)
    rows = indistinguishability_probe(priors, a.n, s_values, a.trials, Rng(a.seed))
    table = [[r.s, r.best_stat, r.advantage, r.ci_half] for r in rows]
    text = _csv(["s", "best_stat", "advantage", "ci_half"], table)
    return {"advantage_at_max_s": rows[-1].advantage}, text


def run_config(a: argparse.Namespace, base: str = ""):
    """Run one parsed config, a CLI run or a suite row, through the handler
    its subparser set: returns (summary, csv text). Relative paths resolve
    against base."""
    return a.run(a, base)


def _row_argv(line: str) -> tuple[list[str], dict]:
    """One manifest row `verb=V k=v ...` as the argv `V --k=v ...`, plus its
    expect_* keys. `lb-<sub>` verbs become `lb <sub>` and `_` in a key
    becomes `-`; the `--k=v` form keeps a value that starts with '-' a value."""
    verb, argv, expect = None, [], {}
    for tok in shlex.split(line, comments=True):
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"token {tok!r} is not key=value")
        key = key.replace("-", "_")
        if key in _EXPECT_KEYS:
            expect[key] = val
        elif key == "verb":
            verb = val
        elif key == "seed":
            raise ValueError("a row cannot set seed: it is the suite seed xor the row index")
        else:
            argv.append(f"--{key.replace('_', '-')}={val}")
    if verb is None:
        raise ValueError("row has no verb=")
    if verb == "suite":
        raise ValueError("a suite row cannot run a suite")
    return (verb.split("-", 1) if verb.startswith("lb-") else [verb]) + argv, expect


def _run_row(parser, line: str, seed: int, base: str) -> tuple[float, str | None]:
    """Run one manifest row: returns (checked value, the check it missed or
    None)."""
    argv, expect = _row_argv(line)
    field = expect.get("expect_field")
    if field is None and expect:
        raise ValueError("expect_min/expect_max need expect_field")
    bounds = []
    for key, default in (("expect_min", "-inf"), ("expect_max", "inf")):
        text = expect.get(key, default)
        try:
            bounds.append(float(text))
        except ValueError:
            raise ValueError(f"{key} must be a number, got {text!r}") from None
        if np.isnan(bounds[-1]):
            raise ValueError(f"{key} must not be nan (inf and -inf are allowed)")
    lo, hi = bounds
    a = parser.parse_args(argv)
    if hasattr(a, "seed"):
        a.seed = seed
    summary, text = run_config(a, base)
    _save(a, text, base)
    if field is None:
        return 0.0, None
    if field not in summary:
        raise ValueError(f"expect_field {field!r} is not in the summary ({', '.join(summary)})")
    value = float(summary[field])
    return value, None if lo <= value <= hi else f"{field}={value!r} not in [{lo!r}, {hi!r}]"


def run_suite(manifest: str, out: str | None, master_seed: int) -> str:
    """Run every manifest row (derived seed = master xor row index), aggregate
    one line per row with a pass/fail check column. A failed row or a missed
    check gets one stderr line naming manifest:line; the suite goes on."""
    from .prob import _blocks, _content
    base = os.path.dirname(os.path.abspath(manifest))
    rows = _content(itertools.chain.from_iterable(_blocks(manifest)), 1)
    parser = _build_parser()
    results = []
    for idx, (lineno, line) in enumerate(rows):
        seed = master_seed ^ idx
        value, status = 0.0, EXIT_OK
        try:
            value, message = _run_row(parser, line, seed, base)
        except Exception as exc:
            status, message = _fault(exc)
        if message is not None:
            print(f"{manifest}:{lineno}: row {idx}: {message}", file=sys.stderr)
        results.append([idx, seed, status, value, "fail" if message is not None else "pass"])
    text = _csv(["row", "seed", "status", "value", "check"], results)
    _emit(text, out)
    return text


def _fault(exc: Exception) -> tuple[int, str]:
    """The exit status of a run, or a suite row, that raised exc, and its
    message: infeasible parameters, bad input (a ValueError or OSError), or
    else a bug, whose message keeps the traceback. A ParameterError exists
    only once `lowerbound` is loaded, so a run that never loaded it loads
    nothing here."""
    lowerbound = sys.modules.get(f"{__package__}.lowerbound")
    if lowerbound is not None and isinstance(exc, lowerbound.ParameterError):
        return EXIT_INFEASIBLE, f"infeasible parameters: {exc}"
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_VALIDATION, str(exc)
    return EXIT_INTERNAL, f"internal error: {exc!r}\n{traceback.format_exc().rstrip()}"


def _suite_exit(text: str) -> int:
    """A suite's exit code from its CSV: the least status of a failed row,
    a missed check counting as 4, or 0 when no row failed."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return min((int(r[2]) or EXIT_CHECK_FAILED for r in rows if r[4] == "fail"), default=EXIT_OK)


class UsageError(ValueError):
    """A command line or manifest row that the parser rejects."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(f"{parser.prog}: {message}")
        self.parser, self.message = parser, message


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, so that a bad manifest row fails
    only that row; flags must be spelled out, as a row key names one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(self, message)


def _seed(text: str) -> int:
    """A --seed value: an integer that Rng takes as a seed; Rng states the range."""
    from . import Rng
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return Rng(seed).seed
    except ValueError as exc:  # argparse names the flag: "argument --seed: must lie in ..."
        raise argparse.ArgumentTypeError(str(exc).removeprefix("seed ")) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing never changes it."""
    # A flag that verbs take alike is declared once, in a parent parser (its flags come first in usage).
    # --dist stays per verb: as a parent it would reorder the missing flags that oracle and test name.
    seed, out, n, L, priors = (_Parser(add_help=False) for _ in range(5))
    seed.add_argument("--seed", type=_seed, default=0)
    out.add_argument("--out")
    n.add_argument("--n", required=True, type=int)
    L.add_argument("--L", required=True, type=int)  # apart from --nu/--lambda: lb gen requires --L alone
    priors.add_argument("--nu", required=True, type=float)
    priors.add_argument("--lambda", dest="lam", required=True, type=float)

    ap = _Parser(prog="posetdist", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    o = sub.add_parser("oracle", parents=[out], help="exact distances for a poset + distribution")
    o.add_argument("--poset", required=True)
    o.add_argument("--dist", required=True)
    o.set_defaults(run=_run_oracle)

    t = sub.add_parser("test", parents=[seed, out], help="run a tester for several seeded trials")
    t.add_argument("--alg", required=True, choices=list(_READS["alg"]))
    t.add_argument("--dist", required=True)
    t.add_argument("--eps", required=True, type=float)
    t.add_argument("--trials", type=int, default=1)
    t.set_defaults(run=_run_test)

    r = sub.add_parser("reduce", help="apply a structural reduction")
    r.add_argument("--from", required=True)
    r.add_argument("--kind", required=True, choices=list(_READS["kind"]))
    r.add_argument("--out-poset", required=True)
    r.add_argument("--out-dist", required=True)
    r.set_defaults(run=_run_reduce)

    for verb, selector in ((t, "alg"), (r, "kind")):  # the flags _check_flags checks
        for flag, name in _read_flags(selector).items():
            verb.add_argument(name, type=_READ_TYPES.get(flag))

    lb = sub.add_parser("lb", help="lower-bound construction tools")
    lbsub = lb.add_subparsers(dest="lbverb", required=True)
    ls = lbsub.add_parser("solve", parents=[priors, L, out], help="solve the prior construction, print atoms")
    ls.set_defaults(run=_run_lb_solve)
    lg = lbsub.add_parser("gen", parents=[n, L, seed], help="generate one two-sided instance")
    lg.add_argument("--eps", type=float)
    lg.add_argument("--nu", type=float)
    lg.add_argument("--lambda", dest="lam", type=float)
    lg.add_argument("--s", type=int)
    lg.add_argument("--out-prefix", required=True)
    lg.set_defaults(run=_run_lb_gen)
    lp = lbsub.add_parser("probe", parents=[priors, L, n, seed, out], help="advantage-vs-s indistinguishability "
                          "probe (advantage - ci_half lower-bounds the histogram TV distance)")
    lp.add_argument("--s-values", required=True)
    lp.add_argument("--trials", type=int, default=200)
    lp.set_defaults(run=_run_lb_probe)

    s = sub.add_parser("suite", parents=[seed, out], help="run a manifest of configs, aggregate pass/fail")
    s.add_argument("--manifest", required=True)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        argparse.ArgumentParser.error(exc.parser, exc.message)  # usage line, exit 2
    try:
        if args.verb == "suite":
            return _suite_exit(run_suite(args.manifest, args.out, args.seed))
        _, text = run_config(args)
        if not _save(args, text) and text is not None:
            sys.stdout.write(text)
        return EXIT_OK
    except Exception as exc:
        status, message = _fault(exc)
        if status == EXIT_INTERNAL:
            raise  # a bug: the interpreter prints the traceback and exits 1
        print(message if status == EXIT_INFEASIBLE else f"error: {message}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
