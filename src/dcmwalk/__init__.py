"""Directed configuration model random walks: analytic exponent pipeline and
desk-scale simulation of stationary distributions, hitting and cover times."""

from .branching import (
    BpParameters,
    MarkedOffspringLaw,
    bivariate_gf,
    compute_bp_parameters,
    conjugate_offspring,
    in_size_biased,
    out_entropy,
    out_size_biased,
    single_survivor_law,
    subcritical_entropy,
    subcritical_expansion_rate,
    survival_probability,
)
from .degrees import (
    BiDegreeDistribution,
    BiDegreeSequence,
    ValidationReport,
    empirical_distribution,
    realize_sequence,
    validate_sequence,
)
from .errors import (
    BalanceError,
    CapacityError,
    CensoredError,
    ConfigError,
    DcmWalkError,
    DegenerateError,
    NonUniqueError,
    NumericalError,
    RealizationError,
    TruncationError,
    UnreachableError,
    ValidationError,
)
from .graph import (
    IncompleteTree,
    Multigraph,
    StopRule,
    attractive_scc,
    explore_in_tree,
    sample_dcm,
    sample_rout,
    sccs,
    t_omega,
    t_omega_set,
)
from .gwsim import (
    GammaTrace,
    MarkedTree,
    TailEstimate,
    duality_check,
    fit_decay_rate,
    gamma,
    simulate_marked_gw,
    subcritical_tail_experiment,
    truncated_gamma,
)
from .harness import (
    ExperimentConfig,
    analyze_distribution,
    derive_seed,
    run_exponent_sweep,
    run_params,
)
from .ratefn import (
    ExponentReport,
    FiniteLogLaw,
    bernoulli_rate,
    cumulant_gf,
    minimize_phi,
    phi,
    rate_function,
    rout_exponent,
)
from .walks import (
    HittingEstimate,
    StationaryResult,
    WalkTimes,
    cover_time_mc,
    empirical_tail,
    extremal_values,
    head_stationary,
    hitting_time_mc,
    hitting_times_exact,
    matthews_bound,
    return_time_exact,
    stationary_distribution,
    walk_times_exact,
)

__version__ = "0.1.0"
