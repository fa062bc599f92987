"""Pins of the public surface: a name that disappears shows up in a diff."""

import dataclasses
import types

import posetdist
from posetdist import Poset, Reduction

PUBLIC_NAMES = [
    "CapacityError", "Distribution", "ExactDistAccess", "HypercubeEmbedding", "LBInstance",
    "LearnerSpec", "LiftedAccess", "LpSolution", "MixedWithUniform", "MomentPriors",
    "PairHistogram", "ParameterAssignment", "ParameterError", "Poset", "PosetError",
    "PriorsError", "ProbeRow", "Reduction", "Rng", "SampleAccess", "SampleHistogram",
    "SizeCapError", "TransitiveClosure", "Verdict", "WeightedMatching", "all_matchings_test",
    "assign_parameters", "bigness_test", "bigness_to_matching", "bipartite_bounded_degree_test",
    "bipartite_to_matching", "build_priors", "closest_monotone_on_matching", "dist_to_bigness",
    "exact_dtv_to_monotone", "func_dist_to_monotone", "general_to_bipartite", "generate_instance",
    "hypercube_embedding", "hypercube_scale", "indistinguishability_probe", "is_monotone",
    "make_bipartite", "make_hypercube", "make_line", "make_matching", "mass_of_set",
    "matching_monotonicity_test", "matching_to_hypercube", "max_violation_matching",
    "min_perm_l1", "min_w_to_monotone_pairhist", "moment_gap_value", "multinomial_histogram",
    "pair_histogram", "poissonized_histogram", "priors_from_gap_solution", "read_distribution",
    "read_poset", "sample", "solve_moment_gap", "transitive_closure", "tv_distance",
    "uniform_subset_test", "w_distance", "write_distribution", "write_poset",
]


def test_public_names():
    names = sorted(
        name for name in dir(posetdist)
        if not name.startswith("_") and not isinstance(getattr(posetdist, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_poset_constructor_fields():
    assert [f.name for f in dataclasses.fields(Poset) if f.init] == ["n", "edges", "kind", "bottom"]


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
