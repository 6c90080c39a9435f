"""MIMO FIR system identification with stable-Hankel Gaussian priors.

The package estimates matrix impulse responses from input/output data by
combining a smoothness/stability (stable-spline) prior with a prior that
penalizes the energy of the block Hankel matrix outside an estimated
low-dimensional signal subspace.  Hyper-parameters are tuned by marginal
likelihood maximization with a scaled gradient projection optimizer, and a
benchmarking harness compares the method against spline-only and
nuclear-norm baselines on Monte-Carlo scenarios.
"""

from .baselines import CvGrid, cross_validate, nn_admm, nn_estimate, ss_estimate
from .bayes import (
    MarglikProblem,
    NoiseModel,
    estimate_noise_variance,
    marglik_value_and_gradient,
    neg_log_marglik,
    posterior_mean,
)
from .benchmark import (
    ScenarioSpec,
    StateSpace,
    cod,
    fit_metric,
    gen_random_system,
    gen_scenario_run,
    lowpass_input,
    make_estimators,
    run_monte_carlo,
    s1_system,
    scenario_spec,
    sv_errors,
)
from .identify import (
    IdentConfig,
    IdentResult,
    fit_spline_hyperparams,
    identify,
    svd_split,
)
from .kernels import SplineHyper, SubspaceBasis
from .linalg import NotPositiveDefiniteError
from .model import (
    Dataset,
    FirData,
    ImpulseResponse,
    WeightPair,
    build_hankel,
    build_weights,
    hankel_dims,
    read_dataset_csv,
    weighted_hankel,
    write_dataset_csv,
)
from .sgp import SgpParams, SgpResult, sgp_minimize

__version__ = "0.1.0"

__all__ = [
    "CvGrid",
    "Dataset",
    "FirData",
    "IdentConfig",
    "IdentResult",
    "ImpulseResponse",
    "MarglikProblem",
    "NoiseModel",
    "NotPositiveDefiniteError",
    "ScenarioSpec",
    "SgpParams",
    "SgpResult",
    "SplineHyper",
    "StateSpace",
    "SubspaceBasis",
    "WeightPair",
    "build_hankel",
    "build_weights",
    "cod",
    "cross_validate",
    "estimate_noise_variance",
    "fit_metric",
    "fit_spline_hyperparams",
    "gen_random_system",
    "gen_scenario_run",
    "hankel_dims",
    "identify",
    "lowpass_input",
    "make_estimators",
    "marglik_value_and_gradient",
    "neg_log_marglik",
    "nn_admm",
    "nn_estimate",
    "posterior_mean",
    "read_dataset_csv",
    "run_monte_carlo",
    "s1_system",
    "scenario_spec",
    "sgp_minimize",
    "ss_estimate",
    "sv_errors",
    "svd_split",
    "weighted_hankel",
    "write_dataset_csv",
]
