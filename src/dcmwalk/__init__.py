"""Directed configuration model random walks: analytic exponent pipeline and
desk-scale simulation of stationary distributions, hitting and cover times."""

from .branching import (
    BpParameters,
    MarkedOffspringLaw,
    compute_bp_parameters,
    conjugate_offspring,
    out_size_biased,
    single_survivor_law,
    survival_probability,
)
from .degrees import (
    BiDegreeDistribution,
    BiDegreeSequence,
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
    Multigraph,
    attractive_scc,
    sample_dcm,
    sample_rout,
    sccs,
    thin_depth,
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
    head_stationary,
    hitting_time_mc,
    hitting_times_exact,
    matthews_bound,
    return_time_exact,
    stationary_distribution,
    walk_times_exact,
)

__version__ = "0.1.0"
