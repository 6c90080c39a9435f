"""MIMO FIR system identification with stable-Hankel Gaussian priors.

The package estimates matrix impulse responses from input/output data by
combining a smoothness/stability (stable-spline) prior with a prior that
penalizes the energy of the block Hankel matrix outside an estimated
low-dimensional signal subspace.  Hyper-parameters are tuned by marginal
likelihood maximization with a scaled gradient projection optimizer.

The top level exports the estimator and its baselines.  The Monte-Carlo
harness that compares them (scenarios, metrics, the driver) is
``hankelid.benchmark``; Hankel shapes and dataset CSV files are in
``hankelid.model``.
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
# not exported: perfbench reads these two as hankelid.<name>
from .benchmark import gen_scenario_run, scenario_spec
from .identify import IdentConfig, IdentResult, fit_spline_hyperparams, identify
from .kernels import SplineHyper, SubspaceBasis
from .linalg import NotPositiveDefiniteError
from .model import Dataset, FirData, ImpulseResponse, WeightPair, build_weights
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
    "SgpParams",
    "SgpResult",
    "SplineHyper",
    "SubspaceBasis",
    "WeightPair",
    "build_weights",
    "cross_validate",
    "estimate_noise_variance",
    "fit_spline_hyperparams",
    "identify",
    "marglik_value_and_gradient",
    "neg_log_marglik",
    "nn_admm",
    "nn_estimate",
    "posterior_mean",
    "sgp_minimize",
    "ss_estimate",
]
