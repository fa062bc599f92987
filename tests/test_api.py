"""Pins of the public surface: a name that disappears shows up in a diff."""

import dataclasses
import inspect
import types

import posetdist
from posetdist import Poset, Reduction

PUBLIC_NAMES = [
    "Distribution", "ExactDistAccess", "HypercubeEmbedding", "LBInstance",
    "LearnerSpec", "LiftedAccess", "LpSolution", "MixedWithUniform", "MomentPriors",
    "PairHistogram", "ParameterAssignment", "ParameterError", "Poset", "PosetError",
    "PriorsError", "ProbeRow", "Reduction", "Rng", "SampleAccess",
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


def test_readme_documents_every_public_name():
    """Each exported name appears, in backquotes, in README's library API
    section, so the exports and the documented API cannot drift apart."""
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(\w+)", section))
    assert [name for name in PUBLIC_NAMES if name not in documented] == []


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
    """Every module of src/ and tests/ parses at pyproject's requires-python
    floor, so a newer syntax cannot slip in while the suite runs on a later
    Python."""
    import ast
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor, "pyproject.toml states no requires-python floor"
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
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
