"""Pins of the public surface: a name that disappears shows up in a diff."""

import dataclasses
import inspect
import types

import numpy as np
import pytest

import posetdist
from posetdist import ExactDistAccess, Poset, ReducedInstance, Reduction, make_matching
from posetdist.lowerbound import _side_law

PUBLIC_NAMES = [
    "Distribution", "ExactDistAccess", "HypercubeEmbedding", "LBInstance",
    "LearnerSpec", "LiftedAccess", "LpSolution", "MixedWithUniform", "MomentPriors",
    "PairHistogram", "ParameterAssignment", "ParameterError", "Poset", "PosetError",
    "PriorsError", "ProbeRow", "ReducedInstance", "Reduction", "Rng", "SampleAccess",
    "SizeCapError", "TransitiveClosure", "Verdict", "WeightedMatching", "all_matchings_test",
    "assign_parameters", "bigness_test", "bigness_to_matching", "bipartite_bounded_degree_test",
    "bipartite_to_matching", "build_priors", "closest_monotone_on_matching", "dist_to_bigness",
    "exact_dtv_to_monotone", "func_dist_to_monotone", "general_to_bipartite", "generate_instance",
    "hypercube_embedding", "hypercube_scale", "indistinguishability_probe", "is_monotone",
    "make_bipartite", "make_hypercube", "make_line", "make_matching",
    "matching_monotonicity_test", "matching_to_hypercube", "max_violation_matching",
    "min_perm_l1", "min_w_to_monotone_pairhist", "moment_gap_value",
    "pair_histogram", "priors_from_gap_solution", "read_distribution",
    "read_poset", "solve_moment_gap", "transitive_closure", "tv_distance",
    "uniform_subset_test", "w_distance", "write_distribution", "write_poset",
]


def test_public_names():
    names = sorted(
        name for name in dir(posetdist)
        if not name.startswith("_") and not isinstance(getattr(posetdist, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_public_surface():
    """__all__ is the pinned list and `import *` binds exactly it; each name is
    the object its home submodule defines, so the package's name table cannot
    send a name to a module that merely imports it; an unknown name is an
    AttributeError, so hasattr answers False."""
    import importlib

    assert posetdist.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from posetdist import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(posetdist, name)
        assert obj.__module__ == f"posetdist.{posetdist._HOME[name]}", name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        posetdist.no_such_name
    assert not hasattr(posetdist, "no_such_name")


_ORACLE_MODULES = {"oracles", "poset", "prob", "simplex"}
_LOWERBOUND_MODULES = {"lowerbound", "poset", "prob", "simplex"}


def _main(*argv, status=0):
    """Code that runs one CLI call in the working directory and checks its exit status."""
    return f"import posetdist.cli\nassert posetdist.cli.main({list(argv)!r}) == {status}"


@pytest.mark.parametrize("code,loaded", [
    pytest.param("import posetdist", set(), id="bare"),
    pytest.param("import posetdist\nposetdist.max_violation_matching", _ORACLE_MODULES, id="oracle-name"),
    pytest.param("import posetdist\nposetdist.build_priors", _LOWERBOUND_MODULES, id="lowerbound-name"),
    pytest.param("import posetdist\nposetdist.lowerbound.MAX_L", _LOWERBOUND_MODULES, id="submodule"),
    pytest.param("import posetdist.cli", {"cli"}, id="cli"),
    pytest.param("import posetdist.cli\nassert posetdist.cli.read_poset is posetdist.read_poset\n"
                 "from posetdist.cli import write_poset\n"
                 "assert not hasattr(posetdist.cli, '__path__') and not hasattr(posetdist.cli, 'no_such_name')\n"
                 "assert not hasattr(posetdist.cli, 'lowerbound')",
                 {"cli", "poset", "prob"}, id="cli-name"),
    pytest.param(_main("oracle", "--poset", "line3.poset", "--dist", "line3.dist"), _ORACLE_MODULES | {"cli"},
                 id="cli-oracle"),
    pytest.param(_main("oracle", "--poset", "line3.poset", "--dist", "m1.dist", status=2), _ORACLE_MODULES | {"cli"},
                 id="cli-oracle-refused"),
    pytest.param(_main("test", "--alg", "matching", "--poset", "m1.poset", "--dist", "m1.dist", "--eps", "0.5"),
                 _ORACLE_MODULES | {"cli", "reductions", "testers"}, id="cli-test-matching"),
    pytest.param(_main("lb", "solve", "--nu", "0.5", "--lambda", "6", "--L", "4"), _LOWERBOUND_MODULES | {"cli"},
                 id="cli-lb-solve"),
    pytest.param(_main("suite", "--manifest", "lb.suite", "--seed", "3"), _LOWERBOUND_MODULES | {"cli"},
                 id="cli-suite"),
])
def test_a_fresh_interpreter_loads_only_what_it_reads(tmp_path, code, loaded):
    """`import posetdist` imports no submodule; reading a name imports its
    home submodule and what that imports, and nothing else. `posetdist.cli`
    imports no other submodule, reads a public function or class off the
    package (until a binding of its own shadows the name: see
    test_tracer_wrap_sites_resolve), and a verb, or a suite of its rows,
    imports only the modules it runs, refused or not."""
    import os
    import subprocess
    import sys

    for name, text in (("line3.poset", "3 2 line\n0 1\n1 2\n"), ("line3.dist", "0.5\n0.3\n0.2\n"),
                       ("m1.poset", "2 1 matching\n0 1\n"), ("m1.dist", "0.5\n0.5\n"),
                       ("lb.suite", "verb=lb-solve nu=0.5 lambda=6 L=4\n")):
        (tmp_path / name).write_text(text)
    code += "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('posetdist.'))))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetdist.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == {f"posetdist.{name}" for name in loaded}


def test_version_matches_pyproject():
    """__version__ is kept by hand here and in pyproject.toml, and FILE.config
    records it, so the two must agree. Read with a regex: Python 3.10 has no
    tomllib."""
    import pathlib
    import re

    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert version, "pyproject.toml states no version"
    assert posetdist.__version__ == version[1]


def _readme_section(title: str) -> str:
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_documents_every_public_name():
    """Each exported name appears, in backquotes, in README's library API
    section, so the exports and the documented API cannot drift apart."""
    import re

    documented = set(re.findall(r"`(\w+)", _readme_section("Library API")))
    assert [name for name in PUBLIC_NAMES if name not in documented] == []


def test_readme_quick_tour_runs(capsys):
    """README's library quick tour runs as printed, so a signature change
    breaks this test rather than a reader; a print line's trailing comment
    gives its number, or the first word it prints."""
    block = _readme_section("Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick tour", "exec"), {})
    claims = [line.partition("#")[2].split() for line in block.splitlines() if line.startswith("print(")]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(claims)
    for claim, out in zip(claims, printed):
        if claim and claim[0][0].isdigit():
            assert float(out) == pytest.approx(float(claim[0])), out
        elif claim:
            assert out.split()[0] == claim[0], out


def test_removed_parameters_stay_gone():
    """Parameters that no caller set are constants now, so no caller can
    lift the LP cap or the pair cap, or change a tolerance or retry count;
    values derived from other arguments are not parameters either."""
    gone = {
        posetdist.func_dist_to_monotone: "lp_cap",
        posetdist.exact_dtv_to_monotone: "lp_cap",
        posetdist.all_matchings_test: "pair_cap",
        posetdist.indistinguishability_probe: "max_retries",
        posetdist.is_monotone: "tol",
        posetdist.LearnerSpec: "kind",
        posetdist.Verdict: "decision",  # derived from stat <= threshold
        posetdist.bigness_test: "n",  # read from the sample access
    }
    for fn, name in gone.items():
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)


def test_removed_learner_hooks_stay_gone():
    """The testers learn by the empirical plug-in alone and score its counts
    directly: no learner callable, no learned or rescaled PairHistogram."""
    for name in ("learn_distribution", "learn_pair_histogram", "distribution", "pair_hist"):
        assert not hasattr(posetdist.LearnerSpec, name), name
        assert name not in inspect.signature(posetdist.LearnerSpec).parameters, name
    assert not hasattr(posetdist.PairHistogram, "scaled")


def test_removed_sampling_methods_stay_gone():
    """Sample access is the law of the counts: histogram is the one sampling
    method, and no per-draw route runs beside it."""
    gone = {
        posetdist.SampleAccess: "draw",
        posetdist.ExactDistAccess: "draw",
        posetdist.MixedWithUniform: "draw",
        posetdist.LiftedAccess: "draw",
        posetdist.Reduction: "lift",
    }
    for cls, name in gone.items():
        assert not hasattr(cls, name), (cls.__name__, name)


def test_src_imports_are_used():
    """Every name a module of the package imports is referenced in it, save
    __init__.py's re-exports and lines marked noqa: F401."""
    import ast
    import pathlib

    unused = []
    for path in sorted(pathlib.Path(posetdist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_modules_parse_at_the_python_floor():
    """Every module of src/, tests/ and perfbench/ parses at pyproject's
    requires-python floor, so a newer syntax cannot slip in while the suite
    runs on a later Python."""
    import ast
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor, "pyproject.toml states no requires-python floor"
    paths = [path for part in ("src", "tests", "perfbench") for path in sorted((root / part).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(int(floor[1]), int(floor[2])))


def _raise_templates(path):
    """(line, template) of every raise in a module whose message is a string
    literal or an f-string, each f-string field read as {}."""
    import ast

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        arg = node.exc.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield node.lineno, arg.value
        elif isinstance(arg, ast.JoinedStr):
            yield node.lineno, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)


def test_each_refusal_message_is_built_once():
    """No two raise sites in the package build the same message template:
    a rule stated twice can be changed in one place and not the other. A
    template with no literal word, such as a reader's f"{path}: {exc}"
    rewrap, states no rule and is exempt."""
    import collections
    import pathlib
    import re

    sites = collections.defaultdict(list)
    for path in sorted(pathlib.Path(posetdist.__file__).parent.glob("*.py")):
        for lineno, template in _raise_templates(path):
            if re.search(r"[A-Za-z]{2,}", template.replace("{}", "")):
                sites[template].append(f"{path.name}:{lineno}")
    assert {t: where for t, where in sites.items() if len(where) > 1} == {}


def test_poset_constructor_fields():
    # edges is an init-only argument (stored as edge_array), so the signature,
    # not dataclasses.fields, is the constructor contract
    assert list(inspect.signature(Poset).parameters) == ["n", "edges", "kind", "bottom"]


def test_reduction_constructor_fields():
    assert [f.name for f in dataclasses.fields(Reduction) if f.init] == ["source", "target", "far_divisor", "copies"]


def test_reduced_instance_fields():
    assert [f.name for f in dataclasses.fields(ReducedInstance) if f.init] == ["target", "dist", "far_divisor"]


def _equal_pairs() -> dict:
    """Two distinct instances with equal content of each dataclass that holds
    numpy arrays and so compares by identity."""
    priors = [posetdist.build_priors(0.5, 6.0, 4) for _ in range(2)]
    return {
        "Distribution": [posetdist.Distribution.uniform(3) for _ in range(2)],
        "LpSolution": [posetdist.LpSolution(1.0, np.zeros(3)) for _ in range(2)],
        "MomentPriors": priors,
        "LBInstance": [posetdist.generate_instance(priors[0], 50, 10, posetdist.Rng(1)) for _ in range(2)],
        "_SideLaw": [_side_law(priors[0].atoms_big, priors[0].mass_big, 50, 10) for _ in range(2)],
    }


@pytest.mark.parametrize("name", list(_equal_pairs()))
def test_array_holders_compare_by_identity(name):
    """Equality and hash are object identity's: a comparison of array fields
    would raise numpy's ambiguous truth value, and their hash TypeError."""
    a, b = _equal_pairs()[name]
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_poset_compares_by_content_with_one_key():
    G, H = make_matching(3), make_matching(3)
    assert G == H and hash(G) == hash(H) and len({G, H}) == 1
    assert G != make_matching(4) and G != posetdist.make_line(6)
    assert G._key is G._key


# Each tester's parameters in order: (G, access, its own parameter, eps),
# then keyword-only ones; rng is required.
TESTER_PARAMETERS = {
    posetdist.bigness_test: ["access", "threshold", "eps", "*learner", "*rng"],
    posetdist.matching_monotonicity_test: ["G", "access", "eps", "*learner", "*rng"],
    posetdist.bipartite_bounded_degree_test: ["G", "access", "delta", "eps", "*learner", "*rng"],
    posetdist.uniform_subset_test: ["G", "access", "support_size", "eps", "*rng"],
    posetdist.all_matchings_test: ["G", "access", "eps", "*rng"],
}


def test_tester_signatures():
    """One argument order for every tester, with rng a keyword that has no
    default: a trial loop that forgets it fails instead of reusing one seed."""
    for fn, expected in TESTER_PARAMETERS.items():
        params = inspect.signature(fn).parameters.values()
        got = [("*" if p.kind is p.KEYWORD_ONLY else "") + p.name for p in params]
        assert got == expected, fn.__name__
        assert inspect.signature(fn).parameters["rng"].default is inspect.Parameter.empty, fn.__name__


def test_testers_refuse_a_call_without_rng():
    G = make_matching(2)
    access = ExactDistAccess(posetdist.Distribution.uniform(4))
    calls = {
        posetdist.bigness_test: (access, 0.25, 0.5),
        posetdist.matching_monotonicity_test: (G, access, 0.5),
        posetdist.bipartite_bounded_degree_test: (G, access, 1, 0.5),
        posetdist.uniform_subset_test: (G, access, 4, 0.5),
        posetdist.all_matchings_test: (G, access, 0.5),
    }
    assert set(calls) == set(TESTER_PARAMETERS)
    for fn, args in calls.items():
        with pytest.raises(TypeError, match="rng"):
            fn(*args)


def test_tracer_wrap_sites_resolve():
    """perfbench/spans.py wraps functions at the names their calling modules
    import, each fetched by a bare getattr: a name dropped from one of those
    modules makes the traced benchmark fail with AttributeError."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = posetdist.lowerbound.solve_moment_gap
    tracer = spans.Tracer(posetdist)
    tracer.install()
    try:
        assert len(tracer._saved) == 46
        assert posetdist.lowerbound.solve_moment_gap is not before
    finally:
        tracer.uninstall()
    assert posetdist.lowerbound.solve_moment_gap is before
    # For a "cli" site, install saved what cli forwarded, the package's wrapper, so uninstall binds
    # that wrapper on cli, where it shadows the forward until deleted (ROADMAP items 2 and 3).
    left = {name for name in vars(posetdist.cli) if name in posetdist._HOME}
    assert left == {fname for _, fname, modules in spans.FUNCTION_SITES if "cli" in modules} - {"run_config"}
    assert posetdist.cli.read_poset is not posetdist.read_poset
    for name in left:
        delattr(posetdist.cli, name)
    assert posetdist.cli.read_poset is posetdist.read_poset
