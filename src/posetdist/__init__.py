"""posetdist: monotonicity and bigness testing for distributions over posets."""

from .poset import (
    Poset,
    PosetError,
    SizeCapError,
    TransitiveClosure,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    read_poset,
    transitive_closure,
    write_poset,
)
from .prob import (
    Distribution,
    ExactDistAccess,
    PairHistogram,
    Rng,
    SampleAccess,
    pair_histogram,
    read_distribution,
    tv_distance,
    write_distribution,
)
from .oracles import (
    LpSolution,
    WeightedMatching,
    closest_monotone_on_matching,
    dist_to_bigness,
    exact_dtv_to_monotone,
    func_dist_to_monotone,
    max_violation_matching,
    min_perm_l1,
    min_w_to_monotone_pairhist,
    w_distance,
)
from .reductions import (
    HypercubeEmbedding,
    LiftedAccess,
    ReducedInstance,
    Reduction,
    bigness_to_matching,
    bipartite_to_matching,
    general_to_bipartite,
    hypercube_embedding,
    hypercube_scale,
    matching_to_hypercube,
)
from .testers import (
    LearnerSpec,
    MixedWithUniform,
    Verdict,
    all_matchings_test,
    bigness_test,
    bipartite_bounded_degree_test,
    matching_monotonicity_test,
    uniform_subset_test,
)
from .lowerbound import (
    LBInstance,
    MomentPriors,
    ParameterAssignment,
    ParameterError,
    PriorsError,
    ProbeRow,
    assign_parameters,
    build_priors,
    generate_instance,
    indistinguishability_probe,
    moment_gap_value,
    priors_from_gap_solution,
    solve_moment_gap,
)

__version__ = "0.1.0"
