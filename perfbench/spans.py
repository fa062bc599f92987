"""In-memory span tracer that wraps posetdist's public functions from outside.

The program carries no instrumentation of its own yet, so the tracer replaces
each traced function at the names the calling modules import (for example
``posetdist.oracles.solve_lp`` and ``posetdist.lowerbound.solve_lp``) and
restores the originals on ``uninstall``. Every wrapped call records a
``Span`` (name, start, end, parent, self time, thread, thread CPU time); self
time is the span minus the time its direct children cover. Counts ride along
on the same wrappers. Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, namedtuple

# (span name, function name, modules importing it). The package itself is
# listed where the benchmark calls the function as ``posetdist.<name>``.
FUNCTION_SITES = [
    ("poset.read", "read_poset", ("", "cli")),
    ("poset.closure", "transitive_closure", ("", "poset", "oracles", "reductions")),
    ("prob.read_dist", "read_distribution", ("", "cli")),
    ("prob.pair_histogram", "pair_histogram", ("", "testers")),
    ("simplex.solve", "solve_lp", ("oracles", "lowerbound")),
    ("oracles.dtv", "exact_dtv_to_monotone", ("", "cli")),
    ("oracles.func", "func_dist_to_monotone", ("", "cli")),
    ("oracles.matching", "max_violation_matching", ("", "cli")),
    ("oracles.w_distance", "w_distance", ("",)),
    ("oracles.min_w", "min_w_to_monotone_pairhist", ("", "testers")),
    ("reductions.b2m", "bipartite_to_matching", ("", "testers", "cli")),
    ("reductions.g2b", "general_to_bipartite", ("", "cli")),
    ("testers.matching", "matching_monotonicity_test", ("", "testers", "cli")),
    ("testers.bipartite", "bipartite_bounded_degree_test", ("", "cli")),
    ("lowerbound.priors", "build_priors", ("", "cli")),
    ("lowerbound.moment_gap", "solve_moment_gap", ("", "lowerbound")),
    ("lowerbound.generate", "generate_instance", ("", "lowerbound", "cli")),
    ("lowerbound.probe", "indistinguishability_probe", ("", "cli")),
    ("cli.row", "run_config", ("cli",)),
]

# (span name, module, class, method)
METHOD_SITES = [
    ("poset.construct", "poset", "Poset", "__post_init__"),
    ("prob.histogram", "prob", "ExactDistAccess", "histogram"),
    ("prob.pairhist_init", "prob", "PairHistogram", "__init__"),
    ("prob.rng", "prob", "Rng", "__init__"),
    ("reductions.lift_hist", "reductions", "LiftedAccess", "histogram"),
]


def _matching_path(args, kwargs) -> str:
    """Span name for max_violation_matching: the path it takes for this kind."""
    kind = args[0].kind
    return "oracles.matching." + (kind if kind in ("matching", "bipartite") else "general")


Span = namedtuple("Span", "phase name start end parent_name self_s thread id parent cpu")


class Tracer:
    """Records spans and counts from wrappers installed on a posetdist package.

    Only one tracer may be installed at a time; ``phase`` tags every span so
    the set-up phase and each traced pass can be told apart afterwards.
    """

    def __init__(self, pd):
        self.pd = pd
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self.counts: list[tuple] = []
        self.phase = "setup"
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, k: float = 1) -> None:
        with self._lock:
            self.counts.append((self.phase, name, k))

    def parent_name(self):
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn, args, kwargs, after=None):
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        frame = [next(self._ids), name, 0.0]  # [id, name, time covered by direct children]
        stack.append(frame)
        cpu = time.thread_time()
        start = time.perf_counter()
        err = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            err = exc
            raise
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            if stack:
                stack[-1][2] += end - start
            self.spans.append(Span(
                self.phase, name, start, end, parent[1], end - start - frame[2],
                threading.get_ident(), frame[0], parent[0], cpu,
            ))
            if isinstance(err, self.pd.SizeCapError):
                self.count(name + ".refused")
        if after is not None:
            after(args, kwargs, result)
        return result

    # -- installation ------------------------------------------------------

    def _module(self, short: str):
        return self.pd if short == "" else importlib.import_module(f"{self.pd.__name__}.{short}")

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        afters = _after_hooks(self)
        for name, fname, modules in FUNCTION_SITES:
            for short in modules:
                mod = self._module(short)
                orig = getattr(mod, fname)
                self._saved.append((mod, fname, orig))
                setattr(mod, fname, self._wrap(name, orig, afters.get(name)))
        for name, short, cls_name, meth in METHOD_SITES:
            cls = getattr(self._module(short), cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, afters.get(name)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn, after):
        tracer = self
        namer = _matching_path if name == "oracles.matching" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            return tracer.call(span, fn, args, kwargs, after)

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and count as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "phase": sp.phase, "name": sp.name,
                    "start": sp.start, "end": sp.end, "self_s": sp.self_s, "cpu_s": sp.cpu,
                    "thread": sp.thread,
                }) + "\n")
            for phase, name, k in self.counts:
                fh.write(json.dumps({"phase": phase, "count": name, "k": k}) + "\n")


def _after_hooks(tracer: Tracer) -> dict:
    """Counts taken from a wrapped call's arguments and result."""

    def closure_edges(args, kwargs, tc):
        tracer.count("poset.closure_edges", sum(b.bit_count() for b in tc._bits))

    def samples(name):
        def hook(args, kwargs, result):
            s = args[1] if len(args) > 1 else kwargs["s"]
            tracer.count(name, int(s))
        return hook

    def pairhist_keys(args, kwargs, result):
        tracer.count("prob.pairhist_keys", len(args[0].support))

    def lp_size(args, kwargs, result):
        rows = 0
        for key, pos in (("b_ub", 2), ("b_eq", 4)):
            b = kwargs.get(key, args[pos] if len(args) > pos else None)
            if b is not None:
                rows += len(b)
        c = kwargs.get("c", args[0] if args else None)
        tracer.count("simplex.rows", rows)
        tracer.count("simplex.cols", len(c))

    def w_keys(args, kwargs, result):
        tracer.count("oracles.w_keys", len(args[0].support) + len(args[1].support))

    def b2m_key(args, kwargs, result):
        G = args[0]
        delta = args[1] if len(args) > 1 else kwargs["delta"]
        tracer.count("reductions.b2m_key", hash((G.n, G.edges, int(delta))))

    def verdict(args, kwargs, v):
        if tracer.parent_name() not in _TESTERS:
            tracer.count("testers.samples", v.samples)

    def probe_rows(args, kwargs, rows):
        tracer.count("lowerbound.kept", sum(r.kept_big + r.kept_far for r in rows))

    return {
        "poset.closure": closure_edges,
        "prob.histogram": samples("prob.samples_drawn"),
        "reductions.lift_hist": samples("reductions.lift_samples"),
        "prob.pairhist_init": pairhist_keys,
        "simplex.solve": lp_size,
        "oracles.w_distance": w_keys,
        "reductions.b2m": b2m_key,
        "testers.matching": verdict,
        "testers.bipartite": verdict,
        "lowerbound.probe": probe_rows,
    }


RATIOS = {
    "reductions.b2m_repeat_share", "testers.accept_rate.mono", "testers.accept_rate.far",
    "lowerbound.keep_ratio", "cli.pool_speedup", "trace.overhead", "fail_frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name in RATIOS else "count"


# Which traced operation's LP a ``simplex.solve`` span serves, by parent span.
_LP_CALLERS = {
    "oracles.dtv": "dtv",
    "oracles.func": "func",
    "oracles.w_distance": "transport",
    "lowerbound.moment_gap": "moment_gap",
}

_TESTERS = ("testers.matching", "testers.bipartite")


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics for one slice of spans and counts (set-up plus one
    traced pass)."""
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    cnt: Counter = Counter()
    b2m_keys = []
    for _, name, k in counts:
        if name == "reductions.b2m_key":
            b2m_keys.append(k)
        else:
            cnt[name] += k

    def total(name):
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    def self_total(name):
        return sum(sp.self_s for sp in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {
        "poset.read_s": total("poset.read"),
        "poset.construct_s": total("poset.construct"),
        "poset.construct_calls": calls("poset.construct"),
        "poset.closure_s": total("poset.closure"),
        "poset.closure_edges": cnt["poset.closure_edges"],
        "prob.histogram_s": total("prob.histogram"),
        "prob.samples_drawn": cnt["prob.samples_drawn"],
        "prob.pair_histogram_s": total("prob.pair_histogram"),
        "prob.pairhist_init_s": total("prob.pairhist_init"),
        "prob.pairhist_keys": cnt["prob.pairhist_keys"],
        "prob.rng_new": calls("prob.rng"),
        "prob.rng_s": total("prob.rng"),
        "prob.read_dist_s": total("prob.read_dist"),
        "simplex.solve_s": total("simplex.solve"),
        "simplex.calls": calls("simplex.solve"),
        "simplex.rows": cnt["simplex.rows"],
        "simplex.cols": cnt["simplex.cols"],
    }
    for caller in _LP_CALLERS.values():
        m[f"simplex.solve_s.{caller}"] = 0.0
    for sp in by_name.get("simplex.solve", ()):
        caller = _LP_CALLERS.get(sp.parent_name)
        if caller is not None:
            m[f"simplex.solve_s.{caller}"] += sp.end - sp.start

    m["oracles.dtv_self_s"] = self_total("oracles.dtv")
    m["oracles.func_self_s"] = self_total("oracles.func")
    for kind in ("matching", "bipartite", "general"):
        m[f"oracles.matching_s.{kind}"] = total(f"oracles.matching.{kind}")
    m["oracles.matching_refused"] = sum(
        cnt[f"oracles.matching.{kind}.refused"] for kind in ("matching", "bipartite", "general")
    )
    m["oracles.w_distance_self_s"] = self_total("oracles.w_distance")
    m["oracles.w_keys"] = cnt["oracles.w_keys"]
    m["oracles.min_w_s"] = total("oracles.min_w")

    m["reductions.lift_hist_s"] = total("reductions.lift_hist")
    m["reductions.lift_samples"] = cnt["reductions.lift_samples"]
    m["reductions.b2m_s"] = total("reductions.b2m")
    m["reductions.b2m_calls"] = calls("reductions.b2m")
    seen: set = set()
    repeats = 0
    for key in b2m_keys:
        repeats += key in seen
        seen.add(key)
    m["reductions.b2m_repeat_share"] = repeats / len(b2m_keys) if b2m_keys else 0.0
    m["reductions.g2b_s"] = total("reductions.g2b")

    m["testers.self_s.matching"] = self_total("testers.matching")
    m["testers.self_s.bipartite"] = self_total("testers.bipartite")
    top_level = [sp for name in _TESTERS for sp in by_name.get(name, ()) if sp.parent_name not in _TESTERS]
    m["testers.trials"] = len(top_level)
    m["testers.samples"] = cnt["testers.samples"]
    # Accept rates need to know which inputs are monotone: the workload
    # supplies them from its outputs, as it does the suite's failed rows.
    m["testers.accept_rate.mono"] = m["testers.accept_rate.far"] = 0.0

    m["lowerbound.priors_s"] = total("lowerbound.priors")
    m["lowerbound.generate_s"] = total("lowerbound.generate")
    m["lowerbound.generate_calls"] = calls("lowerbound.generate")
    in_probe = sum(1 for sp in by_name.get("lowerbound.generate", ()) if sp.parent_name == "lowerbound.probe")
    m["lowerbound.keep_ratio"] = cnt["lowerbound.kept"] / (2 * in_probe) if in_probe else 0.0
    m["lowerbound.probe_self_s"] = self_total("lowerbound.probe")

    # Suite rows share the interpreter lock across the pool's threads, so a
    # row's wall span includes waiting for the lock; its thread's CPU time
    # is the work it did.
    m["cli.row_s"] = sum(sp.cpu for sp in by_name.get("cli.row", ()))
    m["cli.read_s"] = sum(
        sp.end - sp.start
        for name in ("poset.read", "prob.read_dist")
        for sp in by_name.get(name, ())
        if sp.parent_name == "cli.row"
    )
    m["cli.rows_failed"] = 0
    return m
