"""One benchmark worker: a fresh interpreter that sets up a workload and runs it.

    python3 perfbench/worker.py --workload NAME --inputs DIR --out RESULT.json
        [--seconds S] [--trace 0|1] [--trace-out SPANS.jsonl] [--setup-only]

The worker imports posetdist from the checkout's ``src``, loads the inputs the
harness generated in DIR (timed: this is one ``setup_s`` sample), then runs
the workload's job list in passes, in a closed loop: as many whole passes as
fit in S seconds at the workload's reference pass time, and at least three.
The first pass is the warm-up. With ``--trace 1`` the passes after the warm-up
alternate traced and untraced. Results go to RESULT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

OK, REFUSED, ERROR = "ok", "refused", "error"
MIN_PASSES = 3
# Seconds probe_loop() takes on the reference host (2-core Xeon, Python 3.11)
# at its usual speed.
PROBE_REF_S = 0.55e-3


def probe_loop() -> float:
    acc = 0
    for i in range(8000):
        acc += i * i
    return acc


def slowdown() -> float:
    """The host's slowdown at this moment: the median time of three runs of a
    fixed interpreter loop over its reference time (1 at the reference host's
    usual speed, 1.4 when the loop takes 40% longer).

    The host this benchmark was tuned on shares its cores with other tenants,
    and its speed drifts by up to half over tens of seconds to minutes, far
    beyond what any statistic inside one run can average out. Every
    end-to-end time is divided by the slowdown measured just before and just
    after it, which brings times made minutes apart back to a common speed;
    the raw times are kept in the detail line. The loop touches almost
    no memory, so what an op leaves in the caches does not change its speed,
    and it runs none of the library's code, so a change to the library does
    not move it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_REF_S


def typical(passes, key: str = "adj") -> list[float]:
    """Each op's median latency over the passes (speed-adjusted by default).
    The median, not the fastest pass: an op's adjusted passes differ by the
    adjustment's error, whose extreme the fastest pass would pick, and the
    fastest of n passes reads lower as n grows."""
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


def op_stats(lat: list[float]) -> dict:
    """Median latency and the highest percentile with at least ten ops beyond
    it (the maximum when there are ten ops or fewer)."""
    s = sorted(lat)
    n = len(s)
    k = n - 11 if n > 10 else n - 1
    return {"p50": statistics.median(s), "tail": s[k], "tail_pct": 100.0 * (k + 1) / n}


def run_pass(pd, ops) -> dict:
    """Run every op once, with ``slowdown()`` between ops (outside their
    timing). ``lat`` holds the raw latencies, ``adj`` each latency divided by
    the mean slowdown before and after the op. Wall time is the sum of the op
    latencies, so the harness's bookkeeping between ops is not counted."""
    lat, adj, slow, status, views = [], [], [], [], []
    before = slowdown()
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.fn()
            st = OK
        except pd.SizeCapError:
            result, st = None, REFUSED
        except Exception as exc:  # a failed op is counted, the run goes on
            result, st = None, f"{ERROR}: {type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - start)
        after = slowdown()
        slow.append(0.5 * (before + after))
        adj.append(lat[-1] / slow[-1])
        before = after
        status.append(st)
        views.append(None if result is None else op.view(result))
        del result
    return {"lat": lat, "adj": adj, "status": status, "views": views, "wall": sum(lat),
            "slowdown": statistics.median(slow)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(args.inputs, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    probe_loop()  # first-call costs
    before = slowdown()
    t0 = time.perf_counter()
    import posetdist as pd
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer(pd)
        tracer.install()
    wl = WORKLOADS[args.workload]
    state = wl.setup(pd, args.inputs, spec)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    setup = {"setup_s": setup_s / (0.5 * (before + slowdown())), "setup_raw_s": setup_s}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return 0

    ops = wl.jobs(pd, state)
    # The pass count depends on the workload and --seconds only, never on how
    # fast this host runs today. Three passes at least, so a traced run has a
    # traced and an untraced pass after the warm-up.
    n_passes = max(MIN_PASSES, round(args.seconds / wl.ref_pass_s))
    passes = []
    for k in range(n_passes):
        # Pass 0 is the warm-up: the reference for the determinism check and
        # never traced. Untraced, its times count as one sample of each op's
        # median, which first-call costs in the warm-up alone do not move.
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.phase = f"pass{len(passes)}"
            tracer.install()
        p = run_pass(pd, ops)
        if traced:
            tracer.uninstall()
        p["traced"] = traced
        if passes:
            p["mismatch"] = [i for i, (a, b) in enumerate(zip(passes[0]["views"], p["views"])) if a != b]
            p["views"] = None
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness checks, outside the timed region, on the warm-up outputs;
    # every later pass gave identical outputs or is counted failed below.
    warm = passes[0]
    problems = wl.check(pd, state, ops, warm["views"])
    checked_bad = {i for i, op in enumerate(ops) if op.label in problems}
    messages = [f"{ops[i].label}: {problems[ops[i].label]}" for i in sorted(checked_bad)]
    attempted = failed = refused = 0
    for k, p in enumerate(passes):
        bad = set(checked_bad) | set(p.get("mismatch", ()))
        bad |= {i for i, st in enumerate(p["status"]) if st.startswith(ERROR)}
        attempted += len(ops)
        failed += len(bad)
        refused += sum(1 for i, st in enumerate(p["status"]) if st == REFUSED and i not in bad)
        messages += [f"pass {k}: {ops[i].label}: {st}" for i, st in enumerate(p["status"]) if st.startswith(ERROR)]
        messages += [f"pass {k}: {ops[i].label}: output differs from the warm-up pass" for i in p.get("mismatch", ())]

    untraced = [p for p in passes if not p["traced"]]
    lat = typical(untraced)
    stats = op_stats(lat)
    result = {
        **setup,
        "wall_s": sum(lat),
        "raw_wall_s": sum(typical(untraced, "lat")),
        "pass_walls": [p["wall"] for p in untraced],
        "pass_slowdowns": [p["slowdown"] for p in untraced],
        "op_p50_s": stats["p50"],
        "op_tail_s": stats["tail"],
        "op_tail_pct": stats["tail_pct"],
        "ops_per_pass": len(ops),
        "op_s": {op.label: t for op, t in zip(ops, lat)},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "messages": messages[:20],
    }
    if tracer:
        traced_passes = [(k, p) for k, p in enumerate(passes) if p["traced"]]
        extras = wl.extras(state, ops, warm["views"])
        per_pass = []
        for k, p in traced_passes:
            phases = ("setup", f"pass{k}")
            m = layer_metrics([s for s in tracer.spans if s.phase in phases],
                              [c for c in tracer.counts if c[0] in phases])
            m.update(extras)
            m["cli.pool_speedup"] = m["cli.row_s"] / p["wall"] if m["cli.row_s"] else 0.0
            per_pass.append(m)
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        # Both sides leave out the warm-up, whose first-call costs only one
        # side would carry.
        layers["trace.overhead"] = (sum(typical([p for _, p in traced_passes]))
                                    / sum(typical(untraced[1:])))
        layers["fail_frac"] = (failed + refused) / attempted
        result["layers"] = layers
        if args.trace_out:
            tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
