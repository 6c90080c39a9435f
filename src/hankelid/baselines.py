"""Comparison estimators: spline-only posterior and nuclear-norm FIR.

The nuclear-norm estimator solves

    min_h ||Y - Phi h||_2^2 + lam * ||H(h)||_*

by ADMM on the splitting Z = E(h), the weighted Hankel map of
``model.hankel_operator`` (identity weights unless others are supplied): a
cached symmetric solve for h, singular-value soft-thresholding for Z, and a
scaled dual ascent.  Its regularization level is picked by
prefix-split cross-validation on one-step simulation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .identify import _spline_stage
from .kernels import hankel_gram, spline_precision
from .linalg import chol_factor, chol_solve
from .model import (
    Dataset,
    FirData,
    ImpulseResponse,
    WeightPair,
    build_weights,
    hankel_dims,
    hankel_operator,
    regressor_block,
)


@dataclass(frozen=True)
class CvGrid:
    """Candidate regularization levels plus the train/validation fractions."""

    candidates: np.ndarray
    train_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=float).ravel()
        if cand.size == 0:
            raise ValueError("candidate grid must be nonempty")
        if not np.all(np.isfinite(cand) & (cand > 0)):
            raise ValueError("all candidates must be finite and > 0")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train fraction must lie in (0, 1)")
        object.__setattr__(self, "candidates", np.sort(cand))


def cv_train_fraction(scenario: str) -> float:
    """The published training share of the prefix split: 1/2 on S1, 2/3 otherwise."""
    return 0.5 if scenario == "S1" else 2.0 / 3.0


def default_cv_grid(n_train: int, scenario: str = "S1") -> CvGrid:
    """The published grid: 25 log-spaced values of v / N_train."""
    lo = 1e2 if scenario == "S1" else 1e3
    v = np.logspace(np.log10(lo), 7, 25)
    return CvGrid(v / n_train, train_fraction=cv_train_fraction(scenario))


# ---------- spline-only baseline ----------


def ss_estimate(d: Dataset, T: int, return_details: bool = False):
    """Posterior mean under the stable-spline prior alone (lam = [1, 0, 0]).

    The full procedure's first stage (noise variances and spline fit),
    followed by the posterior mean.  Under this prior the outputs are
    independent, so output i solves its own T*m system
    (phi^T phi / sigma_i + D^{-1}) h_i = phi^T y_i / sigma_i, with D^{-1}
    the spline precision of one output's m channels.
    """
    data, noise, nu = _spline_stage(d, T)
    D_inv = spline_precision(nu, T, 1, d.m)
    h = ImpulseResponse(
        np.concatenate([
            chol_solve(chol_factor(data.gram / s + D_inv), data.phity[:, i] / s)
            for i, s in enumerate(noise.sigma)
        ]),
        T=T, m=d.m, p=d.p,
    )
    if return_details:
        return h, nu, noise
    return h


# ---------- nuclear-norm baseline ----------


def singular_value_soften(M: np.ndarray, level: float):
    """Soft-threshold the singular values of M at the given level.

    sigma_1 <= ||M||_F, so when ||M||_F <= level every value thresholds to
    zero and no SVD is made; the slack 1e-12 exceeds the rounding of the norm
    and of LAPACK's sigma_1.  M must be finite: it goes to LAPACK without
    scipy's finite check, which would rescan it on every ADMM iteration.
    """
    if np.linalg.norm(M) * (1.0 + 1e-12) <= level:
        return np.zeros(M.shape), np.zeros(min(M.shape))
    U, s, Vt = la.svd(M, full_matrices=False, check_finite=False)
    s_soft = np.maximum(s - level, 0.0)
    return (U * s_soft) @ Vt, s_soft


@dataclass(frozen=True)
class AdmmResult:
    h: ImpulseResponse
    converged: bool
    n_iter: int
    dual: np.ndarray  # final scaled dual variable (Hankel-shaped)
    rho: float


def nn_admm(
    data: FirData,
    lam_star: float,
    weights: WeightPair | None = None,
    tol: float = 1e-6,
    max_iter: int = 2000,
) -> AdmmResult:
    """Nuclear-norm penalized FIR fit by ADMM.

    The full regressor Phi is block diagonal with p copies of the
    record's block phi, so Phi^T Phi and Phi^T Y come per output from
    ``data.gram`` and ``data.phity``, and the Hankel shape from the
    record's T, p and m.  ``weights=None`` means identity weights.  Iterates,
    with E(h) the weighted Hankel map of ``hankel_operator``, E* its adjoint
    and the penalty rho fixed at 1:

        h <- solve (2 Phi^T Phi + rho E*E) h = 2 Phi^T Y + rho E*(Z - U)
        Z <- svt_{lam/rho}(E(h) + U)
        U <- U + E(h) - Z

    The fixed point satisfies 2 Phi^T (Phi h - Y) + lam * E*(G) = 0 with G
    in the subdifferential of the nuclear norm at E(h).  Each iteration
    makes at most one SVD, in the soft-thresholding, and none when the
    Frobenius norm of E(h) + U certifies Z = 0.  Always returns the last
    iterate together with a convergence flag.  The record has checked
    that its data are finite, and ``WeightPair`` its weights, so the
    loop's LAPACK calls skip scipy's per-call finite checks.
    """
    if not (np.isfinite(lam_star) and lam_star >= 0):
        raise ValueError("lam_star must be finite and >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    T, m, p = data.T, data.m, data.p
    r, c = hankel_dims(T, p, m)
    if weights is None:
        weights = WeightPair(np.eye(m * c), np.eye(p * r))
    rho = 1.0
    E, E_adj = hankel_operator(weights, T, p, m)
    L = chol_factor(np.kron(np.eye(p), 2.0 * data.gram) + rho * hankel_gram(weights, T, p, m))
    PtY2 = 2.0 * data.phity.T.ravel()

    h = np.zeros(T * m * p)
    Z = np.zeros((p * r, m * c))
    U = np.zeros_like(Z)
    converged = False
    n_iter = max_iter
    for it in range(max_iter):
        h = chol_solve(L, PtY2 + rho * E_adj(Z - U))
        H = E(h)
        Z_prev = Z
        Z, _ = singular_value_soften(H + U, lam_star / rho)
        U = U + H - Z
        r_primal = la.norm(H - Z, check_finite=False)
        r_dual = rho * la.norm(E_adj(Z - Z_prev), check_finite=False)
        eps_primal = tol * max(1.0, la.norm(H, check_finite=False),
                               la.norm(Z, check_finite=False))
        eps_dual = tol * max(1.0, rho * la.norm(E_adj(U), check_finite=False))
        if r_primal < eps_primal and r_dual < eps_dual:
            converged = True
            n_iter = it + 1
            break

    return AdmmResult(
        h=ImpulseResponse(h, T=T, m=m, p=p),
        converged=converged,
        n_iter=n_iter,
        dual=U,
        rho=rho,
    )


def nn_estimate(d: Dataset, T: int, lam_star: float, use_weighted: bool = False) -> ImpulseResponse:
    """Convenience wrapper building the data record (and weights) from data."""
    data = FirData(regressor_block(d.u, T), d.y, T)
    weights = build_weights(d, T, "empirical") if use_weighted else None
    return nn_admm(data, lam_star, weights=weights).h


# ---------- cross-validation ----------


def cross_validate(d: Dataset, grid: CvGrid, estimator):
    """Pick the candidate minimizing one-step simulation error on a prefix split.

    ``estimator(train: Dataset, lam) -> ImpulseResponse``.  The data is
    split train-first/validate-last (time series, no shuffling); the
    winner (ties to the smaller candidate) is refit on all data.
    """
    n_train = int(round(d.N * grid.train_fraction))
    if n_train < 1 or n_train >= d.N:
        raise ValueError("train fraction leaves an empty split")
    train = Dataset(d.u[:n_train], d.y[:n_train])

    fits = [estimator(train, lam) for lam in grid.candidates]
    T = fits[0].T
    # validation rows of the full regressor: true inputs across the boundary
    phi_val = regressor_block(d.u, T)[n_train:]
    y_val = d.y[n_train:]
    scores = [float(np.sum((y_val - h.predict(phi_val)) ** 2)) for h in fits]
    best = int(np.argmin(scores))  # first minimum = smallest candidate on ties
    lam_best = float(grid.candidates[best])
    return lam_best, estimator(d, lam_best)
