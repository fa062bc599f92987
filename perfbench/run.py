"""posetdist benchmark: one command, four workloads, correctness-checked.

    python3 perfbench/run.py --workload {oracle,tester,lowerbound,suite}
        --seed N [--seconds S] [--trace 0|1] [--small]

Run from anywhere inside a checkout of the repository. The harness generates
the workload's inputs from the seed under ``$CARGO_TARGET_DIR`` (default
``.bench_build``), then starts fresh worker interpreters (see ``worker.py``):

* with ``--trace 0``, the workload's fixed number of set-up-only workers and
  one full worker; it reports every end-to-end metric (``setup_s`` is the
  median of the set-ups);
* with ``--trace 1``, one full worker whose passes after the warm-up alternate
  traced and untraced; it reports the per-layer metrics and ``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the machine, the command, the seed and details of the metrics. Full
results and the trace spans stay under ``$CARGO_TARGET_DIR/perfbench``.
``--small`` runs tiny inputs, for the smoke test. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # every run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_sha() -> str:
    """HEAD's commit from the .git directory, without running git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref)).strip()
    if sha:
        return sha
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    """BLAS library numpy was built against, and its thread count as the
    library reports it (OpenBLAS builds) or as the environment sets it."""
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    libs = sorted({ln.split()[-1] for ln in _read("/proc/self/maps").splitlines() if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    import numpy as np

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
    }


def run_worker(args: list[str], deadline: float, threads) -> None:
    """Run one worker interpreter to completion, or kill it at the deadline.
    ``threads`` sets POSET_DIST_THREADS; None leaves the program's default."""
    env = dict(os.environ)
    env.pop("POSET_DIST_THREADS", None)
    if threads is not None:
        env["POSET_DIST_THREADS"] = str(threads)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark: worker ran past the time limit")
    if code != 0:
        raise SystemExit(f"benchmark: worker exited with code {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs (smoke test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "posetdist", "__init__.py")):
        print(f"benchmark: no posetdist sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    inputs = os.path.join(build, "inputs", f"{tag}-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(os.path.join(build, "results"), exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        spec = wl.generate(rng, inputs, args.small)
        with open(os.path.join(inputs, "spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

        common = ["--workload", args.workload, "--inputs", inputs]
        setups = []
        # The full worker's own set-up is the last sample.
        for k in range(0 if args.trace else wl.setup_runs - 1):
            out = os.path.join(inputs, f"setup{k}.json")
            run_worker(common + ["--setup-only", "--out", out], deadline, wl.e2e_threads)
            setups.append(json.loads(_read(out)))
        out = os.path.join(inputs, "result.json")
        trace_out = os.path.join(build, "results", f"{tag}.spans.jsonl")
        run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--out", out, "--trace-out", trace_out], deadline,
                   None if args.trace else wl.e2e_threads)
        res = json.loads(_read(out))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    setups.append(res)
    if args.trace:
        from spans import layer_unit

        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(res["layers"].items())}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": res["wall_s"],
            "op_p50_ms": 1000.0 * res["op_p50_s"],
            "op_tail_ms": 1000.0 * res["op_tail_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - (res["failed"] + res["refused"]) / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    detail = {
        "machine": machine_info(),
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["setup_raw_s"] for s in setups],
        "raw_wall_s": res["raw_wall_s"],
        "raw_pass_walls_s": res["pass_walls"],
        "pass_slowdowns": res["pass_slowdowns"],
        "ops_per_pass": res["ops_per_pass"],
        "op_tail_percentile": res["op_tail_pct"],
        "refused": res["refused"],
        "messages": res["messages"],
    }
    final = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(build, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**detail, **final, "op_s": res["op_s"]}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
