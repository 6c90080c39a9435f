"""Posterior mean, marginal-likelihood objective, and its split gradient.

The negative log marginal likelihood (constants dropped, the Gaussian 1/2
omitted) is

    f(lam) = Y^T Lam^{-1} Y + log|Lam|,   Lam = SigmaTilde + Phi K Phi^T

with K the prior covariance.  Every evaluation here works at the
coefficient size T*m*p instead of N*p: with M = K^{-1} + Phi^T
SigmaTilde^{-1} Phi,

    Y^T Lam^{-1} Y = Y^T St^{-1} Y - b^T M^{-1} b,
    log|Lam|       = log|M| - log|K^{-1}| + log|SigmaTilde|,

where b = Phi^T SigmaTilde^{-1} Y.  The gradient splits as
grad f = B - V with componentwise B >= 0 and V >= 0:

    B_i = hhat^T G_i hhat,          hhat = M^{-1} b  (the posterior mean),
    V_i = Tr[ G_i (K - M^{-1}) ].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .linalg import chol_factor, chol_inverse, chol_logdet, chol_solve
from .model import Dataset, ImpulseResponse, regressor_block


@dataclass(frozen=True)
class NoiseModel:
    """Per-output noise variances; the full covariance is diag(sigma) kron I_N."""

    sigma: np.ndarray  # (p,)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float).ravel()
        if sigma.size < 1 or np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("noise variances must be positive and finite")
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class MarglikProblem:
    """Data, regressor block, noise model and the three prior precisions.

    ``phi`` is the single-output regressor block (N x T*m); the full
    regressor is block-diagonal with p copies of it.  The prior precision
    at lambda is lam0*G0 + lam1*G1 + lam2*G2.  Quantities that do not
    depend on lambda are precomputed once.
    """

    Y: np.ndarray  # (N*p,) channel-major output stack
    phi: np.ndarray  # (N, T*m)
    noise: NoiseModel
    G0: np.ndarray  # spline precision, PD
    G1: np.ndarray  # signal-subspace Hankel precision, PSD
    G2: np.ndarray  # noise-subspace Hankel precision, PSD
    m: int
    gram: np.ndarray | None = None  # optional cached phi^T phi

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float).ravel()
        phi = np.asarray(self.phi, dtype=float)
        p = self.noise.p
        N = phi.shape[0]
        if Y.size != N * p:
            raise ValueError(f"Y has length {Y.size}, expected N*p = {N * p}")
        if phi.shape[1] % self.m != 0:
            raise ValueError("phi column count must be a multiple of m")
        n_coeff = phi.shape[1] * p
        for name, G in (("G0", self.G0), ("G1", self.G1), ("G2", self.G2)):
            if G.shape != (n_coeff, n_coeff):
                raise ValueError(f"{name} must be T*m*p x T*m*p = {n_coeff} x {n_coeff}")
        gram = self.gram if self.gram is not None else phi.T @ phi
        sigma = self.noise.sigma
        Ymat = Y.reshape(p, N)
        # data-side precomputations (independent of lambda)
        A = np.kron(np.diag(1.0 / sigma), gram)  # Phi^T St^{-1} Phi
        b = ((phi.T @ Ymat.T) / sigma).T.ravel()  # Phi^T St^{-1} Y
        quad = float(np.sum(Ymat**2 / sigma[:, None]))  # Y^T St^{-1} Y
        logdet_noise = float(N * np.sum(np.log(sigma)))
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_A", A)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_quad", quad)
        object.__setattr__(self, "_logdet_noise", logdet_noise)

    @property
    def N(self) -> int:
        return self.phi.shape[0]

    @property
    def p(self) -> int:
        return self.noise.p

    @property
    def T(self) -> int:
        return self.phi.shape[1] // self.m


# ---------- noise variance ----------


def estimate_noise_variance(
    d: Dataset, T: int, phi: np.ndarray | None = None, gram: np.ndarray | None = None
) -> NoiseModel:
    """Per-channel residual variance of a ridge least-squares FIR fit.

    sigma_i = RSS_i / (N - T*m) with ridge 1e-6 * trace(G)/dim on the
    normal equations.  Estimates are floored at a tiny multiple of the
    output power so that noise-free data still yields a usable (PD) noise
    covariance downstream.  ``phi`` (the regressor block of d.u) and
    ``gram`` (phi^T phi) are built here unless the caller has them.
    """
    if d.N <= T * d.m:
        raise ValueError(
            f"need N > T*m to estimate noise variance (N={d.N}, T*m={T * d.m})"
        )
    if phi is None:
        phi = regressor_block(d.u, T)
    G = phi.T @ phi if gram is None else gram
    dim = G.shape[0]
    ridge = 1e-6 * np.trace(G) / dim
    if ridge <= 0.0:
        ridge = 1e-12
    coef = la.solve(G + ridge * np.eye(dim), phi.T @ d.y, assume_a="pos")
    rss = np.sum((d.y - phi @ coef) ** 2, axis=0)
    sigma = rss / (d.N - T * d.m)
    floor = 1e-12 * (1.0 + float(np.mean(d.y**2)))
    return NoiseModel(np.maximum(sigma, floor))


# ---------- marginal likelihood ----------


def _precision(pb: MarglikProblem, lam) -> np.ndarray:
    """Prior precision K^{-1} = lam0*G0 + lam1*G1 + lam2*G2."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != (3,):
        raise ValueError("lambda must have exactly 3 components")
    if np.min(lam) < 0:
        raise ValueError("lambda components must be >= 0")
    return lam[0] * pb.G0 + lam[1] * pb.G1 + lam[2] * pb.G2


def _factor_pair(pb: MarglikProblem, lam):
    """Cholesky factors of K^{-1} and M = K^{-1} + Phi^T St^{-1} Phi."""
    K_inv = _precision(pb, lam)
    L_K = chol_factor(K_inv)
    L_M = chol_factor(K_inv + pb._A)
    return L_K, L_M


def _value(pb: MarglikProblem, L_K, L_M, hhat) -> float:
    """The objective from the factor pair and the posterior mean hhat = M^{-1} b."""
    return (
        pb._quad
        - float(pb._b @ hhat)
        + chol_logdet(L_M)
        - chol_logdet(L_K)
        + pb._logdet_noise
    )


def neg_log_marglik(pb: MarglikProblem, lam) -> float:
    """Y^T Lam^{-1} Y + log|Lam| via the coefficient-sized identity."""
    L_K, L_M = _factor_pair(pb, lam)
    return _value(pb, L_K, L_M, chol_solve(L_M, pb._b))


def posterior_mean(pb: MarglikProblem, lam) -> ImpulseResponse:
    """E[h | Y] = (Phi^T St^{-1} Phi + K^{-1})^{-1} Phi^T St^{-1} Y."""
    L_M = chol_factor(_precision(pb, lam) + pb._A)
    h = chol_solve(L_M, pb._b)
    return ImpulseResponse(h, T=pb.T, m=pb.m, p=pb.p)


def marglik_value_and_gradient(pb: MarglikProblem, lam):
    """Objective value plus the split gradient (f, B, V), grad f = B - V.

    This is the ``fun_grad`` form that ``sgp.sgp_minimize`` consumes.
    """
    L_K, L_M = _factor_pair(pb, lam)
    hhat = chol_solve(L_M, pb._b)
    f = _value(pb, L_K, L_M, hhat)
    # K - M^{-1} is PSD, so V = Tr[G_i (K - M^{-1})] >= 0 for PSD G_i
    gap = chol_inverse(L_K) - chol_inverse(L_M)
    B = np.empty(3)
    V = np.empty(3)
    for i, G_i in enumerate((pb.G0, pb.G1, pb.G2)):
        B[i] = float(hhat @ (G_i @ hhat))
        V[i] = float(np.sum(G_i * gap))
    return f, B, V
