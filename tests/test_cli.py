import argparse
import math
import os
import platform
import re
import shlex

import numpy as np
import pytest

import posetdist
from posetdist import (
    Distribution,
    hypercube_scale,
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
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    _build_parser,
    main,
    run_suite,
)
from posetdist.lowerbound import MAX_L, MOMENT_REL_TOL, moment_gap_value
from posetdist.poset import MAX_DOMAIN
from posetdist.simplex import LpError


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
    write_poset(make_bipartite(4, [(0, 2), (1, 3)], bottom=[0, 1]), tmp_path / "b.poset")
    write_distribution(Distribution.uniform(4), tmp_path / "b.dist")
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


def test_oracle_solves_one_lp_and_reads_lp_value_off_the_matching(workdir, capsys, monkeypatch):
    """oracle solves d_tv by LP and the function distance once, as the
    violation matching: lp_value is the matching's weight, byte for byte."""
    import posetdist.oracles as oracles

    calls = []
    solve_lp = oracles.solve_lp
    monkeypatch.setattr(oracles, "solve_lp", lambda *args, **kw: calls.append(1) or solve_lp(*args, **kw))
    assert main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist")]) == 0
    assert len(calls) == 1
    _, w, lp = capsys.readouterr().out.splitlines()[1].split(",")
    assert lp == w


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed,message", [
    ("-1", "must lie in [0, 2^64), got -1"),
    (str(2**64), f"must lie in [0, 2^64), got {2**64}"),
    ("abc", "invalid int value: 'abc'"),
], ids=["-1", str(2**64), "abc"])
def test_seed_outside_64_bits_is_a_usage_error(workdir, capsys, seed, message):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--alg", "bigness", "--dist", str(workdir / "u40.dist"), "--eps", "0.2", "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: {message}" in capsys.readouterr().err


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


def test_bigness_draws_a_distribution_numpy_would_refuse(workdir, capsys):
    """A total within 1e-9 of 1 is accepted, though numpy's multinomial
    refuses its first two entries' sum above 1 + 1e-12."""
    (workdir / "bad3.dist").write_text("0.3\n0.7000000005\n0\n")
    rc = main(["test", "--alg", "bigness", "--dist", str(workdir / "bad3.dist"), "--eps", "0.5", "--T", "0.1"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "trial,decision,stat,threshold\n0,accept,0.1,0.16666666666666666\n"


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


@pytest.mark.parametrize("suffix", [".big.dist", ".far.dist", ".big.hist.csv", ".far.hist.csv", ".events.csv"])
def test_a_failed_lb_gen_write_leaves_no_file(workdir, capsys, suffix):
    """lb gen writes its five files as one step: with a directory in the way
    of any one of them, it exits 2 and leaves none of the others."""
    (workdir / ("inst" + suffix)).mkdir()
    rc = main(["lb", "gen", "--n", "500", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "61", "--seed", "9",
               "--out-prefix", str(workdir / "inst")])
    assert rc == EXIT_VALIDATION
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(f.name for f in workdir.glob("inst*")) == ["inst" + suffix]


def test_lb_probe_verb(workdir, capsys):
    rc = main([
        "lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "200",
        "--s-values", "0,20", "--trials", "20", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "s,best_stat,advantage,ci_half"
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


@pytest.mark.parametrize("kind,source", [("g2b", "line3.poset"), ("b2m", "b.poset")])
@pytest.mark.parametrize("dist,message", [("u40.dist", "distribution does not match the poset"),
                                          ("missing.dist", "missing.dist")], ids=["mismatched", "missing"])
def test_a_refused_reduce_writes_no_file(workdir, capsys, kind, source, dist, message):
    """reduce reads and maps every input before it writes: a --dist that
    does not match the source poset, or does not exist, exits 2 and leaves
    neither output file."""
    out_p, out_d = workdir / "o.poset", workdir / "o.dist"
    rc = main(["reduce", "--from", str(workdir / source), "--kind", kind, "--dist", str(workdir / dist),
               "--out-poset", str(out_p), "--out-dist", str(out_d)])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out_p.exists() and not out_d.exists()


def test_a_failed_distribution_write_leaves_no_poset(workdir, capsys):
    """reduce writes its two files as one step: when the --out-dist write
    fails, the --out-poset file already written is removed."""
    out_p = workdir / "o.poset"
    rc = main(["reduce", "--from", str(workdir / "line3.poset"), "--kind", "g2b", "--dist",
               str(workdir / "line3.dist"), "--out-poset", str(out_p), "--out-dist", str(workdir / "nodir" / "o.dist")])
    assert rc == EXIT_VALIDATION
    assert "No such file or directory" in capsys.readouterr().err
    assert not out_p.exists()


def test_a_failed_config_write_leaves_no_csv(workdir, capsys):
    """--out writes the CSV and its FILE.config as one step: with a directory
    in the way of the .config, the run exits 2 and leaves no CSV."""
    out = workdir / "out.csv"
    (workdir / "out.csv.config").mkdir()
    rc = main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist"),
               "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert "Is a directory" in capsys.readouterr().err
    assert not out.exists()


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


# A passing row, and one row for each way a suite row can fail, by the exit
# code it gives the suite (the g2b reduction is patched to raise a bug).
SUITE_PASS_ROW = "verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value expect_min=0.2999"
SUITE_FAIL_ROWS = {
    EXIT_CHECK_FAILED: "verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value expect_min=0.5",
    EXIT_INFEASIBLE: "verb=lb-probe nu=0.5 lambda=6 L=4 n=1 s_values=0 trials=3",
    EXIT_VALIDATION: "verb=oracle poset=line3.poset dist=missing.dist",
    EXIT_INTERNAL: "verb=reduce from=line3.poset kind=g2b dist=line3.dist out_poset=a out_dist=b",
}


@pytest.mark.parametrize("code", [EXIT_OK, EXIT_CHECK_FAILED, EXIT_INFEASIBLE, EXIT_VALIDATION, EXIT_INTERNAL])
def test_suite_exits_with_its_gravest_failure(workdir, monkeypatch, capsys, code):
    """The manifest for each code holds the failing rows of that code and of
    every milder one, mildest first, so the exit code is the gravest row's:
    1 before 2 before 3, and 4 only for missed checks. The verbs read the
    library's names off the package, so the bug is patched there."""

    def broken(*args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(posetdist, "general_to_bipartite", broken)
    rows = [SUITE_PASS_ROW] + [row for c, row in SUITE_FAIL_ROWS.items() if code and c >= code]
    manifest = workdir / f"exit{code}.suite"
    manifest.write_text("".join(row + "\n" for row in rows))
    assert main(["suite", "--manifest", str(manifest)]) == code
    out, err = capsys.readouterr()
    assert out.count(",pass\n") == 1 and out.count(",fail\n") == len(rows) - 1
    lines = [ln for ln in err.splitlines() if ln.startswith(f"{manifest}:")]
    assert len(lines) == len(rows) - 1
    if code:
        assert lines[0] == f"{manifest}:2: row 1: lp_value=0.3 not in [0.5, inf]"


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
    """Line 4 is malformed and the file is also an edge line short: line 4,
    the first fault in file order, is named from main and from a suite row."""
    bad = workdir / "bad.poset"
    bad.write_text("# a comment\n3 3 line\n0 1\n1\n")
    rc = main(["oracle", "--poset", str(bad), "--dist", str(workdir / "line3.dist")])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {bad}:4: expected 2 integers, got 1\n"
    manifest = workdir / "bad.suite"
    manifest.write_text(f"verb=oracle poset={bad} dist={workdir / 'line3.dist'}\n")
    assert run_suite(str(manifest), None, 0).splitlines()[1] == "0,0,2,0.0,fail"
    assert f"{manifest}:1: row 0: {bad}:4: expected 2 integers, got 1" in capsys.readouterr().err


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
    for line in (f"posetdist_version={posetdist.__version__}", f"numpy_version={np.__version__}",
                 f"python_version={platform.python_version()}"):
        assert line in sidecar.splitlines()


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
        (["lb", "gen", "--n", "100", "--L", "4", "--eps", "0", "--out-prefix", "x"], EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--eps", "0.001", "--s", "3", "--out-prefix", "x"],
         EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--nu", "0.5", "--lambda", "6", "--out-prefix", "x"],
         EXIT_VALIDATION),
        (["lb", "gen", "--n", "100", "--L", "4", "--out-prefix", "x"], EXIT_VALIDATION),
        (["test", "--alg", "uniform-subset", "--poset", "b.poset", "--dist", "b.dist", "--eps", "0.2",
          "--support-size", "100"], EXIT_VALIDATION),
    ],
)
def test_explicit_values_are_never_replaced_by_defaults(workdir, monkeypatch, capsys, argv, code):
    """An explicit zero (or an incomplete parameter set) fails loudly instead
    of falling back to the default."""
    monkeypatch.chdir(workdir)
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
        ("verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value expect_min=abc",
         "expect_min must be a number, got 'abc'"),
        ("verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value expect_max=nan",
         "expect_max must not be nan"),
        ("verb=test alg=matching poset=m6.poset dist=m6mono.dist eps=0.3 T=5", "--alg matching does not read --T"),
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


def test_infinite_check_bounds_are_allowed(workdir):
    manifest = workdir / "inf.suite"
    manifest.write_text("verb=oracle poset=line3.poset dist=line3.dist expect_field=lp_value "
                        "expect_min=-inf expect_max=inf\n")
    assert run_suite(str(manifest), None, 0).split("\n")[1] == "0,0,0,0.3,pass"


# The optional flags each --alg and --kind reads, stated here apart from the
# CLI's own table; the flags of its verb that it does not read are refused.
ALG_READS = {"bigness": {"T", "multiplier"}, "matching": {"poset", "multiplier"},
             "bipartite": {"poset", "delta", "multiplier"}, "uniform-subset": {"poset", "support_size"},
             "all-matchings": {"poset"}}
KIND_READS = {"g2b": {"dist"}, "b2m": {"dist", "delta"}, "big2m": {"T"}, "m2hyp": {"d", "ell", "pmax"}}
FLAG_VALUES = {"poset": "b.poset", "dist": "b.dist", "T": "0.1", "multiplier": "2", "delta": "2",
               "support_size": "2", "d": "4", "ell": "2", "pmax": "0.5"}
NEEDED = {"matching": ["poset"], "bipartite": ["poset"], "uniform-subset": ["poset"], "all-matchings": ["poset"],
          "g2b": ["dist"], "b2m": ["dist"], "m2hyp": ["d", "ell", "pmax"]}


def _choice_argv(choice: str, flags) -> list[str]:
    """A test or reduce command line for one --alg or --kind choice, given
    the flags it needs and then `flags`, each with a valid value."""
    values = dict(FLAG_VALUES, poset="m6.poset", dist="m6mono.dist") if choice == "matching" else FLAG_VALUES
    if choice in ALG_READS:
        argv = ["test", "--alg", choice, "--dist", values["dist"], "--eps", "0.2"]
    else:
        source = "b.poset" if choice in ("g2b", "b2m") else "u6.dist"
        argv = ["reduce", "--from", source, "--kind", choice, "--out-poset", "out.poset", "--out-dist", "out.dist"]
    for flag in NEEDED.get(choice, []) + list(flags):
        argv += ["--" + flag.replace("_", "-"), values[flag]]
    return argv


UNREAD = [(choice, flag) for table in (ALG_READS, KIND_READS) for choice, reads in table.items()
          for flag in sorted(set().union(*table.values()) - reads)]


def test_the_read_tables_cover_every_optional_flag():
    """Every flag of test and reduce that has no default is in some choice's
    reads, so none of them can be silently dropped."""
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for verb, table in (("test", ALG_READS), ("reduce", KIND_READS)):
        optional = {a.dest for a in subparsers.choices[verb]._actions
                    if a.option_strings and not a.required and a.default is None and a.dest not in ("help", "out")}
        assert optional == set().union(*table.values()), verb


@pytest.mark.parametrize("choice,flag", UNREAD, ids=[f"{c}-{f}" for c, f in UNREAD])
def test_a_flag_the_choice_does_not_read_exits_2(workdir, monkeypatch, capsys, choice, flag):
    monkeypatch.chdir(workdir)
    write_distribution(Distribution.uniform(6), workdir / "u6.dist")
    assert main(_choice_argv(choice, [])) == EXIT_OK  # the same run without the flag is valid
    capsys.readouterr()
    for path in workdir.glob("out*"):
        path.unlink()
    assert main(_choice_argv(choice, [flag])) == EXIT_VALIDATION
    selector = "alg" if choice in ALG_READS else "kind"
    err = capsys.readouterr().err
    assert err == f"error: --{selector} {choice} does not read --{flag.replace('_', '-')}\n"
    assert not list(workdir.glob("out*"))


@pytest.mark.parametrize("choice,flag", [(c, f) for c, flags in NEEDED.items() for f in flags])
def test_a_flag_the_choice_needs_is_required(workdir, monkeypatch, capsys, choice, flag):
    monkeypatch.chdir(workdir)
    argv = _choice_argv(choice, [])
    k = argv.index("--" + flag)
    assert main(argv[:k] + argv[k + 2:]) == EXIT_VALIDATION
    selector = "alg" if choice in ALG_READS else "kind"
    assert capsys.readouterr().err == f"error: --{selector} {choice} needs --{flag}\n"
    assert not list(workdir.glob("out*"))


@pytest.mark.parametrize("bug", [KeyError, RuntimeError])
def test_internal_error_is_not_a_validation_error(workdir, monkeypatch, capsys, bug):
    def broken(path):
        raise bug("a bug")

    monkeypatch.setattr(posetdist, "read_poset", broken)
    manifest = workdir / "one.suite"
    manifest.write_text("verb=oracle poset=line3.poset dist=line3.dist\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_INTERNAL},0.0,fail"
    err = capsys.readouterr().err
    assert err.startswith(f"{manifest}:1: row 0: internal error: {bug.__name__}('a bug')") and "Traceback" in err
    with pytest.raises(bug):  # the command line shows the traceback and exits 1
        main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist")])


def test_a_singular_basis_is_an_internal_error(workdir, monkeypatch, capsys):
    """numpy's LinAlgError is a ValueError; the simplex re-raises it as an
    LpError, so a solver fault exits 1 with its traceback, never 2."""

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    manifest = workdir / "one.suite"
    manifest.write_text("verb=oracle poset=line3.poset dist=line3.dist\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_INTERNAL},0.0,fail"
    err = capsys.readouterr().err
    assert err.startswith(f"{manifest}:1: row 0: internal error: LpError('singular basis: Singular matrix')")
    assert "Traceback" in err
    with pytest.raises(LpError, match="singular basis: Singular matrix"):
        main(["oracle", "--poset", str(workdir / "line3.poset"), "--dist", str(workdir / "line3.dist")])


def test_m2hyp_reports_the_hypercube_scale_as_its_divisor(workdir):
    write_distribution(Distribution.uniform(4), workdir / "m2.dist")
    manifest = workdir / "m2hyp.suite"
    manifest.write_text("verb=reduce from=m2.dist kind=m2hyp d=3 ell=2 pmax=0.5 out_poset=h.poset out_dist=h.dist "
                        "expect_field=far_divisor expect_min=2 expect_max=2\n")
    assert hypercube_scale(3, 2, 0.5) == 2.0
    assert run_suite(str(manifest), None, 0).split("\n")[1] == "0,0,0,2.0,pass"


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


# Each row's id is fixed, so rewording a message renames no test. The ids are
# the ones pytest derived from argv's position and the message before they
# were fixed; they name the rows and need not follow the message.
LB_BAD_INPUTS = [
    pytest.param(["lb", "gen", "--n", "0", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "10"],
                 "n must be at least 1",
                 id="argv0-n must be at least 1"),
    pytest.param(["lb", "gen", "--n", "50", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "-1"],
                 "s must be nonnegative",
                 id="argv1-s must be nonnegative"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "0", "--s-values", "0,20"],
                 "n must be at least 1",
                 id="argv2-n must be at least 1"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "-5"],
                 "sample rates must be nonnegative",
                 id="argv3-sample rates must be nonnegative"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "0",
                  "--trials", "0"], "trials must be at least 1",
                 id="argv4-trials must be at least 1"),
    pytest.param(["lb", "gen", "--n", "1", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "100000000000000000000"],
                 "s=100000000000000000000 at n=1 is too large",
                 id="argv5-s=100000000000000000000 at n=1 is too large"),
    pytest.param(["lb", "gen", "--n", "0", "--L", "4", "--eps", "0.01"], "n must be at least 1",
                 id="argv6-n must be at least 1"),
    # --s-values takes a non-empty list of integer tokens and names the first bad one
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", ","],
                 "--s-values must be a comma-separated list of integers, got '' in ','",
                 id="argv7---s-values must be a comma-separated list of integers, got '' in ','"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "0,,300"],
                 "--s-values must be a comma-separated list of integers, got '' in '0,,300'",
                 id="argv8---s-values must be a comma-separated list of integers, got '' in '0,,300'"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "1e3"],
                 "--s-values must be a comma-separated list of integers, got '1e3' in '1e3'",
                 id="argv9---s-values must be a comma-separated list of integers, got '1e3' in '1e3'"),
    # one past the vertex cap, at s = 0: refused before a single draw
    pytest.param(["lb", "gen", "--n", str(MAX_DOMAIN + 1), "--L", "4", "--nu", "0.5", "--lambda", "10", "--s", "0"],
                 f"{MAX_DOMAIN + 1} instance elements exceed the limit of {MAX_DOMAIN}",
                 id="argv10-4194305 instance elements exceed the limit of 4194304"),
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "10", "--L", "4", "--n", str(MAX_DOMAIN + 1),
                  "--s-values", "0"],
                 f"{MAX_DOMAIN + 1} instance elements exceed the limit of {MAX_DOMAIN}",
                 id="argv11-4194305 instance elements exceed the limit of 4194304"),
    # counts that size an allocation: the probe's statistics take 64 bytes a trial, and
    # build_priors' time grows as L^2
    pytest.param(["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "0",
                  "--trials", "1000000000000"], f"1000000000000 trials exceed the limit of {MAX_DOMAIN}",
                 id="argv12-1000000000000 trials exceed the limit of 4194304"),
    pytest.param(["lb", "solve", "--nu", "0.5", "--lambda", "1e16", "--L", str(MAX_L + 1)],
                 f"L={MAX_L + 1} exceeds the limit of {MAX_L}",
                 id=f"argv13-L={MAX_L + 1} exceeds the limit of {MAX_L}"),
]


def test_edgeless_bipartite_defaults_delta_to_one(workdir, capsys):
    """--delta defaults to the max degree, but at least 1: an edgeless
    bipartite poset runs without the flag, and an explicit 0 is still refused."""
    (workdir / "e.poset").write_text("4 0 bipartite\nbottom: 0 1\n")
    write_distribution(Distribution.uniform(4), workdir / "e.dist")
    src = ["--dist", str(workdir / "e.dist")]
    verbs = [
        ["test", "--alg", "bipartite", "--poset", str(workdir / "e.poset"), *src, "--eps", "0.2"],
        ["reduce", "--from", str(workdir / "e.poset"), "--kind", "b2m", *src,
         "--out-poset", str(workdir / "x.poset"), "--out-dist", str(workdir / "x.dist")],
    ]
    for argv in verbs:
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--delta", "0"]) == EXIT_VALIDATION
        assert "delta must be at least 1" in capsys.readouterr().err


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


def test_a_b2m_target_over_the_vertex_cap_exits_2(workdir, monkeypatch, capsys):
    """reduce --kind b2m refuses a target of 2*n*delta - 2*m vertices over
    MAX_DOMAIN before building it, from main and from a suite row, and
    writes no file."""
    monkeypatch.chdir(workdir)
    message = f"7999999999996 target vertices exceed the limit of {MAX_DOMAIN}"
    args = "from=b.poset kind=b2m dist=b.dist delta=1000000000000 out-poset=x.poset out-dist=x.dist"
    assert main(["reduce", *(f"--{arg}" for arg in args.split())]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    (workdir / "b2m.suite").write_text(f"verb=reduce {args}\n")
    assert run_suite("b2m.suite", None, 0).split("\n")[1] == f"0,0,{EXIT_VALIDATION},0.0,fail"
    assert message in capsys.readouterr().err
    assert not list(workdir.glob("x.*"))


# One value just outside the domain of every numeric flag of every verb:
# (valid argv without the flag, flag, value, the flag's or its library
# parameter's name, which the error must give).
OUT_OF_DOMAIN = [
    ("test --alg bigness --dist u40.dist", "--eps", "0", "eps"),
    ("test --alg bigness --dist u40.dist --eps 0.2", "--seed", "-1", "--seed"),
    ("test --alg bigness --dist u40.dist --eps 0.2", "--trials", "0", "--trials"),
    ("test --alg bigness --dist u40.dist --eps 0.2", "--T", "0", "T"),
    ("test --alg bipartite --poset b.poset --dist b.dist --eps 0.2", "--delta", "0", "delta"),
    ("test --alg uniform-subset --poset b.poset --dist b.dist --eps 0.2", "--support-size", "0", "support_size"),
    ("test --alg matching --poset m6.poset --dist m6mono.dist --eps 0.2", "--multiplier", "0",
     "budget_multiplier"),
    ("reduce --from u6.dist --kind big2m --out-poset out.poset --out-dist out.dist", "--T", "0", "T"),
    ("reduce --from b.poset --dist b.dist --kind b2m --out-poset out.poset --out-dist out.dist", "--delta", "0",
     "delta"),
    ("reduce --from u6.dist --kind m2hyp --ell 2 --pmax 0.5 --out-poset out.poset --out-dist out.dist", "--d", "0",
     "d"),
    ("reduce --from u6.dist --kind m2hyp --d 4 --pmax 0.5 --out-poset out.poset --out-dist out.dist", "--ell", "0",
     "ell"),
    # the largest mass of u6.dist is 1/6
    ("reduce --from u6.dist --kind m2hyp --d 4 --ell 2 --out-poset out.poset --out-dist out.dist", "--pmax", "0.16",
     "p_max"),
    ("suite --manifest one.suite", "--seed", "-1", "--seed"),
    ("lb solve --lambda 6 --L 4", "--nu", "0", "nu"),
    ("lb solve --nu 0.5 --L 4", "--lambda", "1.5", "lambda"),
    ("lb solve --nu 0.5 --lambda 6", "--L", "1", "L"),
    ("lb gen --L 4 --nu 0.5 --lambda 6 --s 0 --out-prefix out", "--n", "0", "n"),
    ("lb gen --n 10 --nu 0.5 --lambda 6 --s 0 --out-prefix out", "--L", "1", "L"),
    ("lb gen --n 10 --L 4 --out-prefix out", "--eps", "0", "eps"),
    ("lb gen --n 10 --L 4 --lambda 6 --s 0 --out-prefix out", "--nu", "0", "nu"),
    ("lb gen --n 10 --L 4 --nu 0.5 --s 0 --out-prefix out", "--lambda", "1.5", "lambda"),
    ("lb gen --n 10 --L 4 --nu 0.5 --lambda 6 --out-prefix out", "--s", "-1", "s"),
    ("lb gen --n 10 --L 4 --nu 0.5 --lambda 6 --s 0 --out-prefix out", "--seed", "-1", "--seed"),
    ("lb probe --lambda 6 --L 4 --n 50 --s-values 0", "--nu", "0", "nu"),
    ("lb probe --nu 0.5 --L 4 --n 50 --s-values 0", "--lambda", "1.5", "lambda"),
    ("lb probe --nu 0.5 --lambda 6 --n 50 --s-values 0", "--L", "1", "L"),
    ("lb probe --nu 0.5 --lambda 6 --L 4 --s-values 0", "--n", "0", "n"),
    ("lb probe --nu 0.5 --lambda 6 --L 4 --n 50 --s-values 0", "--trials", "0", "trials"),
    ("lb probe --nu 0.5 --lambda 6 --L 4 --n 50 --s-values 0", "--seed", "-1", "--seed"),
]


def _verb(argv: str) -> str:
    words = argv.split()
    return " ".join(words[:2] if words[0] == "lb" else words[:1])


def _numeric_flags(parser, verb=()):
    """(verb, flag) for every option of every verb that converts its value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _numeric_flags(sub, verb + (name,))
        elif action.option_strings and action.type is not None:
            yield " ".join(verb), action.option_strings[0]


def test_every_numeric_flag_has_an_out_of_domain_row():
    rows = [(_verb(argv), flag) for argv, flag, _, _ in OUT_OF_DOMAIN]
    assert len(rows) == len(set(rows))
    assert sorted(_numeric_flags(_build_parser())) == sorted(rows)


@pytest.mark.parametrize("argv,flag,value,name", OUT_OF_DOMAIN,
                         ids=[f"{_verb(argv)} {flag}" for argv, flag, _, _ in OUT_OF_DOMAIN])
def test_out_of_domain_value_exits_2_naming_the_flag(workdir, monkeypatch, capsys, argv, flag, value, name):
    monkeypatch.chdir(workdir)
    write_distribution(Distribution.uniform(6), workdir / "u6.dist")
    (workdir / "one.suite").write_text("verb=oracle poset=line3.poset dist=line3.dist\n")
    try:
        code = main(shlex.split(argv) + [flag, value])
    except SystemExit as exc:  # argparse's own exit on a value its type refuses
        code = exc.code
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.search(rf"(?<![\w-]){re.escape(name)}\b", err), err
    assert "Traceback" not in err
    assert not list(workdir.glob("out*"))


# sample counts a tester would draw beyond int64 (numpy's limit), a
# multiplier no budget can be computed from, and an eps outside (0, 1] that
# the bipartite tester's eps/(2*delta) would bring inside
# (fixed ids, as in LB_BAD_INPUTS)
M6 = ["--poset", "m6.poset", "--dist", "m6mono.dist"]
TESTER_BAD_INPUTS = [
    pytest.param(["test", "--alg", "matching", *M6, "--eps", "1e-9"],
                 "learn budget of 2.352e+22 samples exceeds 9223372036854775807",
                 id="argv0-learn budget of 2.352e+22 samples exceeds 9223372036854775807"),
    pytest.param(["test", "--alg", "matching", *M6, "--eps", "1e-200"], "learn budget of inf samples",
                 id="argv1-learn budget of inf samples"),
    pytest.param(["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "1e-12"],
                 "learn budget of 7.2e+27 samples",
                 id="argv2-learn budget of 7.2e+27 samples"),
    pytest.param(["test", "--alg", "all-matchings", *M6, "--eps", "1e-12"], "sample pool of 1.90421e+26 samples",
                 id="argv3-group size of 3.2e+25 samples"),
    pytest.param(["test", "--alg", "uniform-subset", *M6, "--eps", "1e-300"], "stage 1 size of 4.19",
                 id="argv4-stage 1 size of 4.19"),
    pytest.param(["test", "--alg", "matching", *M6, "--eps", "0.2", "--multiplier", "1e30"],
                 "learn budget of 1.64085e+34 samples",
                 id="argv5-learn budget of 1.64085e+34 samples"),
    pytest.param(["test", "--alg", "matching", *M6, "--eps", "0.2", "--multiplier", "inf"],
                 "budget_multiplier must be positive and finite",
                 id="argv6-budget_multiplier must be positive and finite"),
    pytest.param(["test", "--alg", "bipartite", "--poset", "b.poset", "--dist", "b.dist", "--delta", "2",
                  "--eps", "1.5"],
                 "eps must lie in (0, 1]",
                 id="argv7-eps must lie in (0, 1]"),
    # a reduction target of 2*n*delta - 2*m vertices over MAX_DOMAIN, refused before it is built
    pytest.param(["test", "--alg", "bipartite", "--poset", "b.poset", "--dist", "b.dist", "--delta", "1000000000000",
                  "--eps", "0.2"], f"7999999999996 target vertices exceed the limit of {MAX_DOMAIN}",
                 id="argv8-7999999999996 target vertices exceed the limit of 4194304"),
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


# a NaN or infinite parameter fails its range check where it enters, naming
# the parameter, instead of running on (a nan statistic in every trial) or
# surfacing as an internal error
NON_FINITE_INPUTS = [
    (["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "0.2", "--T", "nan"], "got T=nan"),
    (["test", "--alg", "bigness", "--dist", "u40.dist", "--eps", "0.2", "--T", "inf"], "got T=inf"),
    (["reduce", "--from", "u40.dist", "--kind", "big2m", "--T", "nan", "--out-poset", "o.poset",
      "--out-dist", "o.dist"], "got T=nan"),
    (["reduce", "--from", "u6.dist", "--kind", "m2hyp", "--d", "4", "--ell", "2", "--pmax", "nan",
      "--out-poset", "o.poset", "--out-dist", "o.dist"], "got p_max=nan"),
    (["reduce", "--from", "u6.dist", "--kind", "m2hyp", "--d", "4", "--ell", "2", "--pmax", "inf",
      "--out-poset", "o.poset", "--out-dist", "o.dist"], "got p_max=inf"),
    (["lb", "solve", "--nu", "nan", "--lambda", "6", "--L", "4"], "got nu=nan"),
    (["lb", "solve", "--nu", "0.5", "--lambda", "inf", "--L", "4"], "lambda=inf"),
    (["lb", "probe", "--nu", "0.5", "--lambda", "nan", "--L", "4", "--n", "50", "--s-values", "0"], "lambda=nan"),
]


@pytest.mark.parametrize("argv,message", NON_FINITE_INPUTS)
def test_non_finite_parameters_exit_2(workdir, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(workdir)
    write_distribution(Distribution.uniform(6), workdir / "u6.dist")
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(workdir.glob("o.*"))


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


@pytest.mark.parametrize("L,message", [(1, "lam ratio t=-1.37 <= 1"), (3, "rho=0.3704 < 1.5")])
def test_infeasible_eps_regime_names_the_prefix_once(capsys, L, message):
    assert main(["lb", "gen", "--n", "100", "--L", str(L), "--eps", "0.002", "--out-prefix", "inst"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible parameters: " + message) and err.count("infeasible parameters") == 1


def test_lb_solve_beyond_double_precision_exits_3(workdir, capsys):
    assert main(["lb", "solve", "--nu", "0.5", "--lambda", "6", "--L", "100"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible parameters: L=100 is beyond double precision") and "Traceback" not in err
    manifest = workdir / "solve.suite"
    manifest.write_text("verb=lb-solve nu=0.5 lambda=6 L=100\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_INFEASIBLE},0.0,fail"
    assert "infeasible parameters: L=100 is beyond double precision" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["1e17", "1e308"])
@pytest.mark.parametrize("verb,extra", [("solve", []), ("gen", ["--n", "100", "--s", "10"]),
                                        ("probe", ["--n", "50", "--s-values", "0"])])
def test_lb_lambda_beyond_double_precision_exits_3(workdir, capsys, lam, verb, extra):
    """A lambda at which (lambda+1+nu)/(lambda-1-nu) rounds to 1 is refused
    as infeasible, by main and in a suite row, with no traceback."""
    argv = ["lb", verb, "--nu", "0.5", "--lambda", lam, "--L", "4", *extra]
    if verb == "gen":
        argv += ["--out-prefix", str(workdir / "inst")]
    want = f"infeasible parameters: lambda={float(lam):g} is beyond double precision"
    assert main(argv) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith(want) and "Traceback" not in err
    row = f"verb=lb-{verb} " + " ".join(f"{f[2:].replace('-', '_')}={v}" for f, v in zip(argv[2::2], argv[3::2]))
    manifest = workdir / "lam.suite"
    manifest.write_text(row + "\n")
    assert run_suite(str(manifest), None, 0).split("\n")[1] == f"0,0,{EXIT_INFEASIBLE},0.0,fail"
    assert want in capsys.readouterr().err


def test_lb_solve_between_two_to_the_52_and_53(workdir, capsys):
    """At lambda = 6257783137866831 and L = 2 the map from t once placed the
    interior atom (about 6.6e7) only to about one spacing of lambda, moment 2
    missed MOMENT_REL_TOL, and the run was refused as infeasible. It now
    exits 0 with the closed-form objective, by main and in a suite row."""
    closed = moment_gap_value(0.5, 6257783137866831, 2)
    assert main(["lb", "solve", "--nu", "0.5", "--lambda", "6257783137866831", "--L", "2"]) == EXIT_OK
    objective = float(capsys.readouterr().out.splitlines()[1].split(",")[4])
    assert abs(objective - closed) <= MOMENT_REL_TOL * closed
    manifest = workdir / "lam.suite"
    bounds = f"expect_min={closed * (1 - MOMENT_REL_TOL)!r} expect_max={closed * (1 + MOMENT_REL_TOL)!r}"
    manifest.write_text(f"verb=lb-solve nu=0.5 lambda=6257783137866831 L=2 expect_field=objective {bounds}\n")
    _, _, status, value, check = run_suite(str(manifest), None, 0).split("\n")[1].split(",")
    assert (status, check) == (str(EXIT_OK), "pass")
    assert abs(float(value) - closed) <= MOMENT_REL_TOL * closed


def test_lb_solve_at_an_inexact_one_plus_nu(capsys):
    """At nu = 0.1, lambda = 2e4 the lowest atom once rounded below 1+nu and
    the run ended in a PriorsError traceback."""
    assert main(["lb", "solve", "--nu", "0.1", "--lambda", "20000", "--L", "4"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("side,atom,mass,beta,objective\n")


# `--grid` (the size of the old moment-gap LP's grid) is gone from every lb verb
GRID_RUNS = [
    (["lb", "solve", "--nu", "0.5", "--lambda", "6", "--L", "4"], "verb=lb-solve nu=0.5 lambda=6 L=4"),
    (["lb", "gen", "--n", "100", "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", "10", "--out-prefix", "inst"],
     "verb=lb-gen n=100 L=4 nu=0.5 lambda=6 s=10 out_prefix=inst"),
    (["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "50", "--s-values", "0", "--trials", "3"],
     "verb=lb-probe nu=0.5 lambda=6 L=4 n=50 s_values=0 trials=3"),
]


@pytest.mark.parametrize("argv,row", GRID_RUNS, ids=["solve", "gen", "probe"])
def test_removed_grid_option_is_a_usage_error(workdir, monkeypatch, capsys, argv, row):
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "400"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 400" in capsys.readouterr().err
    manifest = workdir / "grid.suite"
    manifest.write_text(row + " grid=400\n")
    out = run_suite(str(manifest), None, 0)
    assert out.split("\n")[1] == f"0,0,{EXIT_VALIDATION},0.0,fail"
    assert "unrecognized arguments: --grid=400" in capsys.readouterr().err
    assert not list(workdir.glob("inst*"))
