"""posetdist: monotonicity and bigness testing for distributions over posets.

Each public name lives in one submodule, and `import posetdist` imports none
of them: the first read of a name (or of a submodule, `posetdist.oracles`)
imports its home submodule and binds the value here, so a process compiles
only the library code it reads. `posetdist.cli` and the console script
import no submodule either: each verb imports those it runs, when it runs.
"""

from importlib import import_module as _import_module

# home submodule -> the public names it defines
_EXPORTS = {
    "poset": ("Poset", "PosetError", "SizeCapError", "TransitiveClosure", "is_monotone", "make_bipartite",
              "make_hypercube", "make_line", "make_matching", "read_poset", "transitive_closure", "write_poset"),
    "prob": ("Distribution", "ExactDistAccess", "PairHistogram", "Rng", "SampleAccess", "pair_histogram",
             "read_distribution", "tv_distance", "write_distribution"),
    "simplex": (),
    "oracles": ("LpSolution", "WeightedMatching", "closest_monotone_on_matching", "dist_to_bigness",
                "exact_dtv_to_monotone", "func_dist_to_monotone", "max_violation_matching", "min_perm_l1",
                "min_w_to_monotone_pairhist", "w_distance"),
    "reductions": ("HypercubeEmbedding", "LiftedAccess", "ReducedInstance", "Reduction", "bigness_to_matching",
                   "bipartite_to_matching", "general_to_bipartite", "hypercube_embedding", "hypercube_scale",
                   "matching_to_hypercube"),
    "testers": ("LearnerSpec", "MixedWithUniform", "Verdict", "all_matchings_test", "bigness_test",
                "bipartite_bounded_degree_test", "matching_monotonicity_test", "uniform_subset_test"),
    "lowerbound": ("LBInstance", "MomentPriors", "ParameterAssignment", "ParameterError", "PriorsError", "ProbeRow",
                   "assign_parameters", "build_priors", "generate_instance", "indistinguishability_probe",
                   "moment_gap_value", "priors_from_gap_solution", "solve_moment_gap"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
