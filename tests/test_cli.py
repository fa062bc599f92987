import math
import os
import shlex

import numpy as np
import pytest

from posetdist import (
    Distribution,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    read_distribution,
    read_poset,
    write_distribution,
    write_poset,
)
from posetdist.cli import (
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    _build_parser,
    main,
    run_suite,
)


@pytest.fixture()
def workdir(tmp_path):
    write_poset(make_line(3), tmp_path / "line3.poset")
    write_distribution(Distribution(np.array([0.5, 0.3, 0.2])), tmp_path / "line3.dist")
    G = make_matching(6)
    write_poset(G, tmp_path / "m6.poset")
    lo = np.full(6, 0.4 / 6)
    hi = np.full(6, 1.6 / 6)
    write_distribution(Distribution(np.concatenate([lo, hi]) / 2), tmp_path / "m6mono.dist")
    write_distribution(Distribution.uniform(40), tmp_path / "u40.dist")
    return tmp_path


def test_oracle_verb(workdir, capsys):
    rc = main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    header, row = out.strip().split("\n")
    assert header == "d_tv,matching_weight,lp_value"
    d_tv, w, lp = (float(tok) for tok in row.split(","))
    assert w == pytest.approx(0.3) and lp == pytest.approx(0.3)
    assert d_tv == pytest.approx(1 / 6, abs=1e-9)


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_validation_error_exits_2(workdir, capsys):
    rc = main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "missing.dist")])
    assert rc == EXIT_VALIDATION
    rc = main([
        "test", "--alg", "matching", "--poset", str(workdir / "line3.poset"),
        "--dist", str(workdir / "line3.dist"), "--eps", "0.2",
    ])
    assert rc == EXIT_VALIDATION
    rc = main(["test", "--alg", "matching", "--dist", str(workdir / "line3.dist"), "--eps", "0.2"])
    assert rc == EXIT_VALIDATION  # poset-based tester without --poset


def test_test_verb_csv(workdir, capsys):
    rc = main([
        "test", "--alg", "matching", "--poset", str(workdir / "m6.poset"),
        "--dist", str(workdir / "m6mono.dist"), "--eps", "0.3",
        "--seed", "5", "--trials", "4",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "trial,decision,stat,threshold"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(i)
        assert cells[1] in ("accept", "reject")


def test_bigness_test_verb(workdir, capsys):
    rc = main([
        "test", "--alg", "bigness", "--dist", str(workdir / "u40.dist"),
        "--eps", "0.2", "--trials", "3", "--seed", "1",
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("accept") == 3


def test_lb_solve_verb(workdir, capsys):
    rc = main(["lb", "solve", "--nu", "0.5", "--lambda", "6", "--L", "4"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "side,atom,mass,beta,objective"
    objective = float(lines[1].split(",")[4])
    assert objective == pytest.approx(1 / 54, abs=1e-3)


def test_lb_infeasible_exits_3(workdir):
    rc = main([
        "lb", "gen", "--n", "100", "--L", "4", "--eps", "1e-6",
        "--out-prefix", str(workdir / "inst"),
    ])
    assert rc == EXIT_INFEASIBLE


def test_lb_gen_writes_files(workdir):
    prefix = workdir / "inst"
    rc = main([
        "lb", "gen", "--n", "500", "--L", "4", "--nu", "0.5", "--lambda", "6",
        "--s", "61", "--seed", "9", "--out-prefix", str(prefix),
    ])
    assert rc == EXIT_OK
    for suffix in (".big.dist", ".far.dist", ".big.hist.csv", ".far.hist.csv", ".events.csv"):
        assert os.path.exists(str(prefix) + suffix)
    p = read_distribution(str(prefix) + ".big.dist")
    assert p.n == 500
    events = (workdir / "inst.events.csv").read_text().strip().split("\n")
    assert events[0] == "n,s,zero_count,event_big,event_far,p_max"


def test_lb_probe_verb(workdir, capsys):
    rc = main([
        "lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "200",
        "--s-values", "0,20", "--trials", "20", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "s,kept_big,kept_far,best_stat,advantage,ci_half"
    assert len(lines) == 3


def test_reduce_verbs(workdir):
    out_p, out_d = workdir / "r.poset", workdir / "r.dist"
    rc = main([
        "reduce", "--from", str(workdir / "line3.poset"), "--kind", "g2b",
        "--dist", str(workdir / "line3.dist"),
        "--out-poset", str(out_p), "--out-dist", str(out_d),
    ])
    assert rc == EXIT_OK
    G = read_poset(out_p)
    assert G.kind == "bipartite" and G.n == 6
    q = read_distribution(out_d)
    np.testing.assert_allclose(q.probs.sum(), 1.0)

    rc = main([
        "reduce", "--from", str(workdir / "line3.dist"), "--kind", "big2m",
        "--T", "0.2", "--out-poset", str(out_p), "--out-dist", str(out_d),
    ])
    assert rc == EXIT_OK
    assert read_poset(out_p).kind == "matching"

    # m2hyp: needs a matching distribution of the right size for d=4, ell=2
    v = np.array([0.05, 0.05, 0.05, 0.25, 0.3, 0.3])
    write_distribution(Distribution(v), workdir / "m3.dist")
    rc = main([
        "reduce", "--from", str(workdir / "m3.dist"), "--kind", "m2hyp",
        "--d", "4", "--ell", "2", "--pmax", "0.3",
        "--out-poset", str(out_p), "--out-dist", str(out_d),
    ])
    assert rc == EXIT_OK
    assert read_poset(out_p).kind == "hypercube"
    assert read_distribution(out_d).n == 16


def test_suite_runs_and_is_deterministic(workdir):
    manifest = workdir / "demo.suite"
    manifest.write_text(
        "# demo\n"
        "verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value expect_min=0.299 expect_max=0.301\n"
        "verb=test alg=bigness dist=u40.dist eps=0.3 trials=5 expect_field=accept_rate expect_min=0.8\n"
        "verb=oracle poset=line3.poset dist=missing.dist\n"
        "verb=lb-gen n=100 L=4 eps=1e-9 out_prefix=nope\n"
    )
    out1 = run_suite(str(manifest), None, 42)
    out2 = run_suite(str(manifest), None, 42)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "row,seed,status,value,check"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[1]) for r in rows] == [42 ^ i for i in range(4)]
    assert rows[0][4] == "pass" and rows[1][4] == "pass"
    assert rows[2][2] == str(EXIT_VALIDATION) and rows[2][4] == "fail"
    assert rows[3][2] == str(EXIT_INFEASIBLE) and rows[3][4] == "fail"


def test_suite_empty_manifest(workdir):
    manifest = workdir / "empty.suite"
    manifest.write_text("# nothing here\n")
    out = run_suite(str(manifest), str(workdir / "agg.csv"), 0)
    assert out == "row,seed,status,value,check\n"
    assert (workdir / "agg.csv").read_text() == out


def test_suite_single_row(workdir):
    manifest = workdir / "one.suite"
    manifest.write_text("verb=oracle poset=line3.poset dist=line3.dist\n")
    out = run_suite(str(manifest), None, 7)
    assert "pass" in out


def test_oracle_verb_on_six_cube(tmp_path, capsys):
    G = make_hypercube(6)
    write_poset(G, tmp_path / "cube6.poset")
    v = np.random.default_rng(36).exponential(1.0, G.n)
    write_distribution(Distribution(v / v.sum()), tmp_path / "cube6.dist")
    rc = main(["oracle", "--poset", str(tmp_path / "cube6.poset"), "--dist", str(tmp_path / "cube6.dist")])
    assert rc == EXIT_OK
    d_tv, w, lp = (float(tok) for tok in capsys.readouterr().out.strip().split("\n")[1].split(","))
    assert w == pytest.approx(lp, abs=1e-7)
    assert w / 2 - 1e-9 <= d_tv <= w + 1e-9


def test_malformed_poset_exits_2_with_file_and_line(workdir, capsys):
    bad = workdir / "bad.poset"
    bad.write_text("# a comment\n3 2 line\n0 1\n1\n")
    rc = main(["oracle", "--poset", str(bad), "--dist", str(workdir / "line3.dist")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}:4:" in err
    assert "Traceback" not in err


def test_malformed_distribution_exits_2_with_file_and_line(workdir, capsys):
    bad = workdir / "bad.dist"
    bad.write_text("0.5\n\n# a comment\nabc\n0.5\n")
    rc = main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(bad)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}:4:" in err and "abc" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["poset", "dist"])
def test_non_utf8_input_exits_2_with_file_and_line(workdir, capsys, which):
    bad = workdir / f"bad.{which}"
    good = (workdir / f"line3.{which}").read_bytes()
    bad.write_bytes(good.replace(b"\n", b"\n\xff", 1))
    files = {"poset": str(workdir / "line3.poset"), "dist": str(workdir / "line3.dist"), which: str(bad)}
    rc = main(["oracle", "--poset", files["poset"], "--dist", files["dist"]])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text: byte 0xff at column 1\n"
    manifest = workdir / "bad.suite"
    manifest.write_text(f"verb=oracle poset={files['poset']} dist={files['dist']}\n")
    assert run_suite(str(manifest), None, 0).splitlines()[1] == "0,0,2,0.0,fail"
    assert f"{manifest}:1: row 0: {bad}:2: not UTF-8" in capsys.readouterr().err


def test_non_utf8_manifest_exits_2_with_file_and_line(workdir, capsys):
    manifest = workdir / "bad.suite"
    manifest.write_bytes(b"# rows\nverb=oracle poset=line3.poset dist=line3.dist\nverb=\xe2\x82\n")
    rc = main(["suite", "--manifest", str(manifest)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {manifest}:3: not UTF-8 text: byte 0xe2 at column 6\n"


def test_structural_poset_fault_exits_2_with_file(workdir, capsys):
    bad = workdir / "bad.poset"
    bad.write_text("3 1 general\n0 5\n")
    rc = main(["oracle", "--poset", str(bad), "--dist", str(workdir / "line3.dist")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}: edge (0,5) out of range for n=3" in err


def test_oracle_verb_on_128_vertices(tmp_path, capsys):
    n = 128  # the 7-cube's size, inside DEFAULT_LP_CAP
    G = make_line(n)
    write_poset(G, tmp_path / "line.poset")
    v = np.random.default_rng(128).exponential(1.0, n)
    write_distribution(Distribution(v / v.sum()), tmp_path / "line.dist")
    rc = main(["oracle", "--poset", str(tmp_path / "line.poset"), "--dist", str(tmp_path / "line.dist")])
    assert rc == EXIT_OK
    d_tv, w, lp = (float(tok) for tok in capsys.readouterr().out.strip().split("\n")[1].split(","))
    assert w == pytest.approx(lp, abs=1e-7)
    assert w / 2 - 1e-9 <= d_tv <= w + 1e-9


def test_run_record_embeds_config(workdir, capsys):
    out = workdir / "run.csv"
    rc = main([
        "oracle", "--poset", str(workdir / "line3.poset"),
        "--dist", str(workdir / "line3.dist"), "--out", str(out),
    ])
    assert rc == EXIT_OK
    sidecar = (workdir / "run.csv.config").read_text()
    assert "verb=oracle" in sidecar and "poset=" in sidecar


def test_shipped_demo_manifest():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "manifests", "demo.suite")
    out = run_suite(manifest, None, 42)
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert rows and all(r[4] == "pass" for r in rows)


# One config per verb, as argv; the parity test derives the manifest row from
# it (`--out-poset X` -> `out_poset=X`, `lb solve` -> `verb=lb-solve`). Output
# names carry "{o}" so the two runs write side by side.
PARITY_ARGV = [
    ["oracle", "--poset", "line3.poset", "--dist", "line3.dist", "--out", "{o}.csv"],
    ["test", "--alg", "matching", "--poset", "m6.poset", "--dist", "m6mono.dist", "--eps", "0.3",
     "--trials", "3", "--seed", "5", "--out", "{o}.csv"],
    ["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "0.2", "--T", "0.02", "--multiplier", "2",
     "--seed", "5", "--out", "{o}.csv"],
    ["reduce", "--from", "line3.poset", "--kind", "g2b", "--dist", "line3.dist",
     "--out-poset", "{o}.poset", "--out-dist", "{o}.dist"],
    ["lb", "solve", "--nu", "0.5", "--lambda", "6", "--L", "4", "--out", "{o}.csv"],
    ["lb", "gen", "--n", "300", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "40", "--seed", "5",
     "--out-prefix", "{o}"],
    ["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "200", "--s-values", "0,20",
     "--trials", "10", "--seed", "5", "--out", "{o}.csv"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: "-".join(argv[:2]))
def test_argv_and_manifest_row_give_identical_bytes(workdir, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    nverb = 2 if argv[0] == "lb" else 1
    assert main([tok.format(o="cli") for tok in argv]) == EXIT_OK
    flags = argv[nverb:]
    pairs = [(flags[i][2:].replace("-", "_"), flags[i + 1]) for i in range(0, len(flags), 2)]
    row = " ".join([f"verb={'-'.join(argv[:nverb])}"] + [f"{k}={v}" for k, v in pairs if k != "seed"])
    (workdir / "parity.suite").write_text(row.format(o="row") + "\n")
    out = run_suite("parity.suite", None, 5)  # row 0 runs with seed 5 xor 0
    assert out.split("\n")[1].split(",")[2:] == ["0", "0.0", "pass"]
    cli_files = sorted(p.name for p in workdir.glob("cli*"))
    assert cli_files and cli_files == sorted(p.name.replace("row", "cli", 1) for p in workdir.glob("row*"))
    for name in cli_files:
        assert (workdir / name).read_bytes() == (workdir / name.replace("cli", "row", 1)).read_bytes(), name
    if "--seed" in argv and "--out" in argv:
        assert "seed=5\n" in (workdir / "cli.csv.config").read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "0.2", "--T", "0"], EXIT_VALIDATION),
        (["test", "--alg", "bipartite", "--poset", "b.poset", "--dist", "b.dist", "--eps", "0.2", "--delta", "0"],
         EXIT_VALIDATION),
        (["test", "--alg", "uniform-subset", "--poset", "b.poset", "--dist", "b.dist", "--eps", "0.2",
          "--support-size", "0"], EXIT_VALIDATION),
        (["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "0.2", "--trials", "0"], EXIT_VALIDATION),
        (["test", "--alg", "matching", "--poset", "m6.poset", "--dist", "m6mono.dist", "--eps", "0.2",
          "--multiplier", "0"], EXIT_VALIDATION),
        (["reduce", "--from", "u40.dist", "--kind", "big2m", "--T", "0", "--out-poset", "x.poset",
          "--out-dist", "x.dist"], EXIT_VALIDATION),
        (["reduce", "--from", "u40.dist", "--kind", "m2hyp", "--d", "4", "--out-poset", "x.poset",
          "--out-dist", "x.dist"], EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--eps", "0", "--out-prefix", "x"], EXIT_INFEASIBLE),
        (["lb", "gen", "--n", "100", "--L", "4", "--eps", "0.001", "--s", "3", "--out-prefix", "x"],
         EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--nu", "0.5", "--lambda", "6", "--out-prefix", "x"],
         EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--out-prefix", "x"], EXIT_VALIDATION),
    ],
)
def test_explicit_values_are_never_replaced_by_defaults(workdir, monkeypatch, capsys, argv, code):
    """An explicit zero (or an incomplete parameter set) fails loudly instead
    of falling back to the default."""
    monkeypatch.chdir(workdir)
    write_poset(make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1]), workdir / "b.poset")
    write_distribution(Distribution.uniform(4), workdir / "b.dist")
    assert main(argv) == code
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize(
    "row, message",
    [
        ("verb=test alg=bigness dist=u40.dist eps=0.2 trails=20", "unrecognized arguments: --trails=20"),
        ("verb=test alg=bigness dist=u40.dist eps=0.2 trial=3", "unrecognized arguments: --trial=3"),
        ("verb=oracle poset=line3.poset dist=line3.dist expect_feild=lp_value expect_min=5",
         "expect_min/expect_max need expect_field"),
        ("verb=oracle poset=line3.poset dist=line3.dist expect_feild=lp_value",
         "unrecognized arguments: --expect-feild=lp_value"),
        ("verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_vlaue",
         "expect_field 'lp_vlaue' is not in the summary (d_tv, matching_weight, lp_value)"),
        ("verb=oracle poset=line3.poset", "the following arguments are required: --dist"),
        ("verb=test alg=bigness dist=u40.dist eps=0.2 T=0", "threshold must lie in (0, 1/n]"),
        ("verb=test alg=bigness dist=u40.dist eps=zero", "argument --eps: invalid float value: 'zero'"),
        ("verb=reduce from=line3.poset kind=g2b dist=line3.dist out_poset=a out_dist=b out=c",
         "unrecognized arguments: --out=c"),
        ("verb=test alg=bigness dist=u40.dist eps=0.2 seed=3", "a row cannot set seed"),
        ("verb=suite manifest=x.suite", "a suite row cannot run a suite"),
        ("verb=frob", "invalid choice: 'frob'"),
        ("poset=line3.poset dist=line3.dist", "row has no verb="),
        ("verb=oracle poset=line3.poset dist", "token 'dist' is not key=value"),
        ("verb=oracle poset='line3.poset dist=line3.dist", "No closing quotation"),
    ],
)
def test_bad_manifest_row_fails_only_that_row(workdir, capsys, row, message):
    manifest = workdir / "bad.suite"
    manifest.write_text(f"# the bad row is on line 2\n{row}\n\nverb=oracle poset=line3.poset dist=line3.dist\n")
    out = run_suite(str(manifest), None, 0)
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert rows == [["0", "0", "2", "0.0", "fail"], ["1", "1", "0", "0.0", "pass"]]
    err = capsys.readouterr().err
    assert err.startswith(f"{manifest}:2: row 0: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("bug", [KeyError, RuntimeError])
def test_internal_error_is_not_a_validation_error(workdir, monkeypatch, capsys, bug):
    import posetdist.cli as cli

    def broken(path):
        raise bug("a bug")

    monkeypatch.setattr(cli, "read_poset", broken)
    manifest = workdir / "one.suite"
    manifest.write_text("verb=oracle poset=line3.poset dist=line3.dist\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_INTERNAL},0.0,fail"
    err = capsys.readouterr().err
    assert err.startswith(f"{manifest}:1: row 0: internal error: {bug.__name__}('a bug')") and "Traceback" in err
    with pytest.raises(bug):  # the command line shows the traceback and exits 1
        main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist")])


def test_readme_examples_parse():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.startswith("posetdist ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.verb == "suite" or callable(args.run), line


def test_m2hyp_above_the_dimension_cap_exits_2_at_once(workdir):
    # Without the cap, hypercube_embedding would enumerate 2^40 vertices and
    # never return; a child process with a timeout makes such a regression
    # fail instead of hanging the suite.
    import subprocess
    import sys

    import posetdist

    write_distribution(Distribution(np.full(6, 1 / 6)), workdir / "m3.dist")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetdist.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "posetdist.cli", "reduce", "--from", str(workdir / "m3.dist"),
         "--kind", "m2hyp", "--d", "40", "--ell", "2", "--pmax", "0.3",
         "--out-poset", str(workdir / "h.poset"), "--out-dist", str(workdir / "h.dist")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert "hypercube dimension 40 exceeds capacity cap" in proc.stderr
    assert not (workdir / "h.poset").exists()


LB_BAD_INPUTS = [
    (["lb", "gen", "--n", "0", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "10"], "n must be at least 1"),
    (["lb", "gen", "--n", "50", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "-1"], "s must be nonnegative"),
    (["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "0", "--s-values", "0,20"],
     "n must be at least 1"),
    (["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "-5"],
     "sample rates must be nonnegative"),
    (["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "0",
      "--trials", "0"], "trials must be at least 1"),
    (["lb", "gen", "--n", "1", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "100000000000000000000"],
     "s=100000000000000000000 at n=1 is too large"),
]


def test_matching_bottom_naming_the_heads_exits_2(workdir, capsys):
    n = 200
    edges = "".join(f"{i} {n + i}\n" for i in range(n))
    write_distribution(Distribution.uniform(2 * n), workdir / "u400.dist")
    argv = ["test", "--alg", "uniform-subset", "--dist", str(workdir / "u400.dist"), "--eps", "0.5"]
    for name, bottom, code in (("tails", range(n), EXIT_OK), ("heads", range(n, 2 * n), EXIT_VALIDATION)):
        path = workdir / f"{name}.poset"
        path.write_text(f"{2 * n} {n} matching\n{edges}bottom: {' '.join(map(str, bottom))}\n")
        capsys.readouterr()
        assert main(argv + ["--poset", str(path)]) == code
    err = capsys.readouterr().err
    assert f"{workdir / 'heads.poset'}: a matching's bottom set must be its edge tails" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", LB_BAD_INPUTS)
def test_lb_bad_inputs_exit_2(workdir, capsys, argv, message):
    if argv[1] == "gen":
        argv = argv + ["--out-prefix", str(workdir / "inst")]
    assert main(argv) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not list(workdir.glob("inst*"))


@pytest.mark.parametrize("argv,message", LB_BAD_INPUTS)
def test_lb_bad_inputs_are_status_2_in_a_suite(workdir, capsys, argv, message):
    row = "verb=lb-" + argv[1] + " " + " ".join(
        f"{flag[2:].replace('-', '_')}={value}" for flag, value in zip(argv[2::2], argv[3::2])
    )
    if argv[1] == "gen":
        row += " out_prefix=inst"
    manifest = workdir / "lb.suite"
    manifest.write_text(row + "\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_VALIDATION},0.0,fail"
    assert message in capsys.readouterr().err


# sample counts a tester would draw beyond int64 (numpy's limit), and a
# multiplier no budget can be computed from
M6 = ["--poset", "m6.poset", "--dist", "m6mono.dist"]
TESTER_BAD_INPUTS = [
    (["test", "--alg", "matching", *M6, "--eps", "1e-9"], "learn budget of 2.352e+22 samples exceeds 9223372036854775807"),
    (["test", "--alg", "matching", *M6, "--eps", "1e-200"], "learn budget of inf samples"),
    (["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "1e-12"], "learn budget of 7.2e+27 samples"),
    (["test", "--alg", "all-matchings", *M6, "--eps", "1e-12"], "group size of 3.2e+25 samples"),
    (["test", "--alg", "uniform-subset", *M6, "--eps", "1e-300"], "stage 1 size of 4.19"),
    (["test", "--alg", "matching", *M6, "--eps", "0.2", "--multiplier", "1e30"], "learn budget of 1.64085e+34 samples"),
    (["test", "--alg", "matching", *M6, "--eps", "0.2", "--multiplier", "inf"],
     "budget_multiplier must be positive and finite"),
]


@pytest.mark.parametrize("argv,message", TESTER_BAD_INPUTS)
def test_tester_bad_inputs_exit_2(workdir, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(workdir)
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", TESTER_BAD_INPUTS)
def test_tester_bad_inputs_are_status_2_in_a_suite(workdir, capsys, argv, message):
    manifest = workdir / "test.suite"
    manifest.write_text("verb=test " + " ".join(f"{f[2:]}={v}" for f, v in zip(argv[1::2], argv[2::2])) + "\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_VALIDATION},0.0,fail"
    assert message in capsys.readouterr().err


# one element never meets the far side's events: refused before any draw
STARVED_PROBE = ["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "1", "--s-values", "0",
                 "--trials", "3"]


def test_lb_probe_failed_conditioning_exits_3(capsys):
    assert main(STARVED_PROBE) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible parameters: ") and "the far side's events cannot hold at n=1" in err
    assert "Traceback" not in err


def test_lb_probe_failed_conditioning_is_status_3_in_a_suite(workdir, capsys):
    manifest = workdir / "probe.suite"
    manifest.write_text("verb=lb-probe nu=0.5 lambda=6 L=4 n=1 s_values=0 trials=3\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_INFEASIBLE},0.0,fail"
    assert "infeasible parameters: the far side's events cannot hold at n=1" in capsys.readouterr().err
