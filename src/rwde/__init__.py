"""Random walks in i.i.d. Dirichlet environments on the integers with bounded
jumps: governing parameters, regime classification, exact finite-window linear
algebra, and seeded Monte Carlo verification of the model's structural
identities.

The pure-Python layers (graphs, kappa, model) load with the package; the numpy
layers (environment, stats, walk) load when one of their names is first read.
"""

import importlib

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

# The names of the numpy layers, by module.
_LAZY = {
    "environment": ("Environment", "RngStream"),
    "stats": ("KsReport", "beta_cdf", "default_hill_k", "hill_estimator", "ks_test",
              "mean_and_se", "regularized_incomplete_beta"),
    "walk": ("MeanHittingEstimate", "VelocityEstimate", "annealed_path_probability",
             "estimate_mean_hitting", "estimate_velocity", "regeneration_times",
             "simulate_derrw_batch", "simulate_line"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: read from the defining module on every access and never bound
    # here, so that a wrapper patched into that module is what callers get
    if name in _LAZY:  # the module itself, which the package used to import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
