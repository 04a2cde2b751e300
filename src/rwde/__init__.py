"""Random walks in i.i.d. Dirichlet environments on the integers with bounded
jumps: governing parameters, regime classification, exact finite-window linear
algebra, and seeded Monte Carlo verification of the model's structural
identities.
"""

from .environment import Environment, RngStream, sample_environment
from .graphs import (
    WeightedDigraph,
    build_drift_closure,
    build_halfline,
    build_window,
    strongly_connected,
)
from .kappa import (
    Kappa0Result,
    Regime,
    TrapSet,
    classify_regime,
    diameter_bound,
    exit_weights,
    kappa0_search,
    min_exit_weight,
)
from .model import (
    DerivedParams,
    DirichletParams,
    compute_m0,
    derive_params,
    parse_alphas,
    reflect,
    validate_params,
)
from .solver import (
    EscapeEstimate,
    escape_probability,
    expected_visits,
    hitting_probability,
    invariant_measure,
    redirect_to,
    time_reverse,
)
from .stats import (
    KsReport,
    beta_cdf,
    default_hill_k,
    hill_estimator,
    ks_test,
    mean_and_se,
    regularized_incomplete_beta,
)
from .walk import (
    MeanHittingEstimate,
    VelocityEstimate,
    annealed_path_probability,
    estimate_mean_hitting,
    estimate_velocity,
    regeneration_times,
    simulate_derrw_batch,
    simulate_line,
)

__version__ = "0.1.0"
