"""Iterative identification: spline fit, subspace refinement, ascent tests.

The procedure fixes the noise variances and the spline hyper-parameters
once, then alternates between the posterior mean, an SVD split of its
weighted Hankel matrix, and re-optimization of the component weights
lambda.  A step is accepted only when it raises the marginal likelihood by
a factor of at least (1 + epsilon); otherwise the signal-subspace
dimension n is incremented and the test repeated, and the procedure stops
when neither helps (or when n exhausts the basis).  All likelihood-ratio
tests run in the log domain: accept iff f_ref - f_new > 2*log(1+epsilon),
the 2 because the objective omits the Gaussian 1/2 on both sides.  The
reference f_ref is min(f_base, f_hat): f_base is f of the new split at the
warm start lambda_hat, f_hat the f of the model accepted last.  So every
accepted step lowers f below the last accepted one, and the estimate is
the best model the procedure accepted.  n = p*r needs no special case: it
is the n = 0 model with lambda1 and lambda2 swapped, so it is accepted only
if it beats the n = 0 start by the accumulated thresholds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as la

from .bayes import (
    MarglikProblem,
    NoiseModel,
    _noise_terms,
    estimate_noise_variance,
    marglik_value_and_gradient,
    neg_log_marglik,
    posterior_mean,
)
from .kernels import SplineHyper, SubspaceBasis, tc_precision_block
from .linalg import NotPositiveDefiniteError, chol_factor, symmetrize
from .model import (
    WEIGHTING_MODES,
    Dataset,
    FirData,
    ImpulseResponse,
    WeightPair,
    build_weights,
    regressor_block,
    weighted_hankel,
)
from .sgp import sgp_minimize


@dataclass(frozen=True)
class IdentConfig:
    """Knobs of the identification procedure."""

    T: int
    epsilon: float = 1e-3  # acceptance resolution of the likelihood-ratio test
    weighting: str = "identity"

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not (0 < self.epsilon < np.inf):  # an infinite epsilon could accept nothing
            raise ValueError("epsilon must be finite and > 0")
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(f"unknown weighting mode {self.weighting!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One acceptance test: objective at the warm start vs after SGP.

    ``f_base`` is f of this test's split at the warm start lambda_hat.  The
    test compares ``f`` with min(``f_base``, f of the previous accepted
    record), so an accepted ``f`` lies below both by more than the threshold.
    """

    k: int
    n: int
    stage: str  # "initial" | "same_n" | "increment_n"
    lam: np.ndarray
    f: float
    f_base: float
    accepted: bool


@dataclass(frozen=True)
class IdentResult:
    h: ImpulseResponse
    nu: SplineHyper
    lam: np.ndarray
    n: int
    basis: SubspaceBasis
    noise: NoiseModel
    trace: tuple
    f_final: float
    stop_reason: str  # "no_gain": neither candidate accepted | "basis_exhausted": n = p*r


# ---------- spline hyper-parameter fit ----------


def _golden_section(g, lo: float, hi: float, tol: float):
    """Classic golden-section minimization on [lo, hi]; returns best (x, g(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    g1, g2 = g(x1), g(x2)
    best = (x1, g1) if g1 <= g2 else (x2, g2)
    while b - a > tol:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - invphi * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + invphi * (b - a)
            g2 = g(x2)
        cand = (x1, g1) if g1 <= g2 else (x2, g2)
        if cand[1] < best[1]:
            best = cand
    return best


def fit_spline_hyperparams(data: FirData, noise: NoiseModel) -> SplineHyper:
    """Maximize the spline-only marginal likelihood over (c, beta).

    beta runs over 20 values from 0.5 to 0.99, log-spaced in 1 - beta; for
    each beta the scale c is profiled out by golden-section search on
    log(c) over [1e-4, 1e4].  The spline-only model is block diagonal per
    output channel, so a single generalized eigendecomposition per beta
    makes every c evaluation O(T*m).
    """
    p, sigma = noise.p, noise.sigma
    Tm = data.phi.shape[1]
    quad_total, logdet_noise = _noise_terms(data, noise)
    lo, hi = np.log(1e-4), np.log(1e4)

    best = None
    for beta in 1.0 - np.logspace(np.log10(0.5), np.log10(0.01), 20):
        D_inv = tc_precision_block(SplineHyper(1.0, beta), data.T)
        L = np.kron(np.eye(data.m), chol_factor(D_inv))
        W = la.solve_triangular(L, la.solve_triangular(L, data.gram, lower=True).T, lower=True)
        evals, evecs = la.eigh(symmetrize(W))
        evals = np.clip(evals, 0.0, None)
        # v_i = V^T L^{-1} b_i including the 1/sigma_i of b_i
        v = evecs.T @ la.solve_triangular(L, data.phity, lower=True) / sigma[None, :]
        eg = evals[:, None] / sigma[None, :]  # (Tm, p)

        def f_of_logc(t):
            inv_c = np.exp(-t)
            denom = eg + inv_c
            fit = float(np.sum(v**2 / denom))
            logdet = float(np.sum(np.log(denom)))
            return quad_total - fit + logdet + p * Tm * t + logdet_noise

        t_best, f_beta = _golden_section(f_of_logc, lo, hi, tol=1e-3)
        if np.isfinite(f_beta) and (best is None or f_beta < best[0]):
            best = (f_beta, float(np.exp(t_best)), float(beta))
    if best is None:
        raise NotPositiveDefiniteError("spline hyper-parameter fit found no finite objective")
    return SplineHyper(c=best[1], beta=best[2])


def _spline_stage(d: Dataset, T: int):
    """Data record, noise variances and spline fit.

    The first stage of the full procedure, which the spline-only baseline
    stops after.  The record is built once and shared by every step.
    Returns (data, noise, nu).
    """
    data = FirData(regressor_block(d.u, T), d.y, T)
    noise = estimate_noise_variance(data)
    return data, noise, fit_spline_hyperparams(data, noise)


# ---------- subspace split ----------


def svd_split(h: ImpulseResponse, weights: WeightPair) -> np.ndarray:
    """Eigenbasis U of the squared weighted Hankel matrix of h (p*r x p*r).

    Computed through the SVD of the weighted Hankel itself (its left
    singular vectors are the eigenvectors of H~ H~^T, but come out far more
    accurately than by squaring first), sorted by descending singular
    value; a zero h yields the identity.  Column signs are left as LAPACK
    returns them: G1 and G2 read only span(U_n), and from the C-ordered U
    that ``kernels.SubspaceBasis`` keeps, ``kernels.hankel_precisions``
    gives them bit for bit under any column sign flip.
    """
    return la.svd(weighted_hankel(h, weights), full_matrices=True)[0]


# ---------- main loop ----------


def identify(d: Dataset, cfg: IdentConfig) -> IdentResult:
    """Run the full iterative identification procedure on a dataset.

    Numerical failures outside the guarded acceptance tests carry the
    partial trace on the raised exception (``exc.trace``).
    """
    T = cfg.T
    data, noise, nu = _spline_stage(d, T)
    weights = build_weights(d, T, cfg.weighting)
    threshold = 2.0 * np.log1p(cfg.epsilon)
    pb = MarglikProblem(data, noise, nu, weights, SubspaceBasis.trivial(weights.W2.shape[0]))

    trace: list[IterationRecord] = []
    try:
        res0 = sgp_minimize(partial(marglik_value_and_gradient, pb), np.ones(3),
                            fun=partial(neg_log_marglik, pb))
        lam_hat = res0.lam
        f_hat = res0.fun
        k = 0
        trace.append(
            IterationRecord(k=0, n=0, stage="initial", lam=lam_hat.copy(),
                            f=f_hat, f_base=np.inf, accepted=True)
        )

        stop_reason = "basis_exhausted"
        while pb.basis.n < pb.basis.dim:
            U = svd_split(posterior_mean(pb, lam_hat), weights)
            for stage, n_try in (("same_n", pb.basis.n), ("increment_n", pb.basis.n + 1)):
                pb_try = dataclasses.replace(pb, basis=SubspaceBasis(U, n_try))
                try:
                    res = sgp_minimize(partial(marglik_value_and_gradient, pb_try), lam_hat,
                                       fun=partial(neg_log_marglik, pb_try))
                except NotPositiveDefiniteError:
                    continue
                f_base = float(res.history[0])  # f at the warm start lam_hat
                accepted = bool(min(f_base, f_hat) - res.fun > threshold)
                trace.append(
                    IterationRecord(k=k + 1, n=n_try, stage=stage,
                                    lam=res.lam.copy(), f=res.fun,
                                    f_base=f_base, accepted=accepted)
                )
                if accepted:
                    k += 1
                    pb, lam_hat, f_hat = pb_try, res.lam, res.fun
                    break
            else:  # neither candidate was accepted
                stop_reason = "no_gain"
                break
        h_hat = posterior_mean(pb, lam_hat)
    except np.linalg.LinAlgError as exc:
        exc.trace = tuple(trace)
        raise

    return IdentResult(
        h=h_hat,
        nu=nu,
        lam=lam_hat.copy(),
        n=pb.basis.n,
        basis=pb.basis,
        noise=noise,
        trace=tuple(trace),
        f_final=f_hat,
        stop_reason=stop_reason,
    )
