"""Comparison estimators: spline-only posterior and nuclear-norm FIR.

The nuclear-norm estimator solves

    min_h ||Y - Phi h||_2^2 + lam * ||H(h)||_*

by ADMM on the splitting Z = E(h), the weighted Hankel map of
``model.hankel_operator`` (identity weights unless others are supplied): one
matrix-vector product with a cached inverse for h, singular-value
soft-thresholding for Z, and a scaled dual ascent; a run's opening stretch
of certified-zero Z is jumped in closed form.  Its regularization level is
picked by prefix-split cross-validation on one-step simulation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .identify import _spline_stage
from .kernels import hankel_gram, spline_precision
from .linalg import chol_factor, chol_inverse, chol_solve
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
    D_inv = spline_precision(nu, T, d.m)
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


def singular_value_soften(M: np.ndarray, level: float) -> np.ndarray:
    """Soft-threshold the singular values of M at the given level.

    Z = 0 with no decomposition when ||M||_F (1 + 1e-12) <= level, as sigma_1
    <= ||M||_F.  Otherwise the eigenpairs (LAPACK dsyevd) of the Gram A A^T of
    M's shorter side A (M or M^T) with w > level^2 (1 + 1e-12) give Z = V_k
    diag(1 - level / sqrt(w_k)) V_k^T A (Cai & Osher 2013).  The slacks exceed
    rounding, so sigma_1 <= level gives exact zeros.  Z is within a few 1e-16
    sigma_1^2 / s of an SVD's, s the larger of the level and the least nonzero
    singular value.  M must be finite: LAPACK gets it unchecked.
    """
    if np.linalg.norm(M) * (1.0 + 1e-12) <= level:
        return np.zeros(M.shape)
    A = M if M.shape[0] <= M.shape[1] else M.T
    w, V, info = la.lapack.dsyevd(A @ A.T, compute_v=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info = {info}")
    keep = w > level * level * (1.0 + 1e-12)
    V = V[:, keep]
    Z = (V * (1.0 - level / np.sqrt(w[keep]))) @ (V.T @ A)
    return Z if A is M else Z.T


@dataclass(frozen=True)
class AdmmResult:
    h: ImpulseResponse
    converged: bool
    n_iter: int
    dual: np.ndarray  # final scaled dual variable (Hankel-shaped), at rho = 1


def _zero_stretch(b, PtP2, G, rho, level, tol, max_iter):
    """Jump the certified-zero opening of an ``nn_admm`` run in closed form.

    While Z = 0, U_k = E(s_k) with s_k = h_1 + ... + h_k, and the h-update
    is affine: s_k = s_{k-1} + A^{-1}(b - rho G s_{k-1}), G = E*E and
    A = PtP2 + rho G.  The generalized eigendecomposition PtP2 V = G V
    diag(sigma), V^T G V = I (LAPACK dsygvd, reduced through G's Cholesky
    factor, not A's, so that t near 1 stays accurate) gives every iterate:

        h_k = V [g t^(k-1) / (sigma + rho)],  s_k = V [g (1 - t^k) / rho],

    g = V^T b, t = sigma / (sigma + rho) in [0, 1).  As V^T G V = I,
    ||E(s_k)||_F is the norm of the bracket, which never falls with k, and
    ||E(h_k)||_F never rises: the certified-zero, unconverged iterations
    (r_dual = 0 there) form a prefix, whose end bisection over k finds in
    O(n) memory.  Both tests must hold with a relative margin of 1e-9, so
    the loop keeps every decision near either edge.  Returns (k, h_k, s_k)
    for the prefix's last iteration, or None when it is empty or G is
    singular.
    """
    margin = 1e-9
    try:
        sigma, V = la.eigh(PtP2, G, driver="gvd", check_finite=False)
    except np.linalg.LinAlgError:
        return None
    sigma = np.maximum(sigma, 0.0)
    g = V.T @ b
    with np.errstate(divide="ignore"):
        log_t = -np.log1p(rho / sigma)  # -inf where sigma = 0, that is t = 0
    h_first, s_limit = g / (sigma + rho), g / rho

    def coords(k):
        decay = np.exp((k - 1) * log_t) if k > 1 else 1.0
        return h_first * decay, -s_limit * np.expm1(k * log_t)

    def clearly_zero_and_unconverged(k):
        hk, sk = coords(k)
        r_primal = np.linalg.norm(hk)
        return (np.linalg.norm(sk) * (1.0 + 1e-12) <= level * (1.0 - margin)
                and r_primal >= (1.0 + margin) * tol * max(1.0, r_primal))

    lo, hi = 0, max_iter + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clearly_zero_and_unconverged(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0:
        return None
    hk, sk = coords(lo)
    return lo, V @ hk, V @ sk


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

        h <- A^{-1} (2 Phi^T Y + rho (E*(Z) - E*(U))),  A = 2 Phi^T Phi + rho E*E
        Z <- svt_{lam/rho}(E(h) + U)
        U <- U + E(h) - Z

    The fixed point satisfies 2 Phi^T (Phi h - Y) + lam * E*(G) = 0 with G
    in the subdifferential of the nuclear norm at E(h).  A^{-1} is formed
    once per fit (``chol_inverse``), so each h-update is one matrix-vector
    product.  E*(Z) and E*(U) are carried to the next h-update, dual
    residual and dual tolerance: two adjoints per iteration.  At most one
    eigendecomposition per iteration, none when ||E(h) + U||_F certifies
    Z = 0.  When the first iterate is so certified, ``_zero_stretch`` jumps
    the run's certified-zero, unconverged opening in closed form and the
    loop resumes after it; a run that stays there to ``max_iter`` makes no
    loop iteration.  Always returns the last iterate together with a
    convergence flag.  The record has checked that its data are finite,
    and ``WeightPair`` its weights, so the LAPACK calls skip scipy's
    per-call finite checks.
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
    level = lam_star / rho
    E, E_adj = hankel_operator(weights, T, p, m)
    G = hankel_gram(weights, T, p, m)
    PtP2 = np.kron(np.eye(p), 2.0 * data.gram)
    A_inv = chol_inverse(chol_factor(PtP2 + rho * G))
    PtY2 = 2.0 * data.phity.T.ravel()

    U = np.zeros((p * r, m * c))
    EZ = EU = np.zeros_like(PtY2)
    start = 0
    if la.norm(E(A_inv @ PtY2), check_finite=False) * (1.0 + 1e-12) <= level:
        stretch = _zero_stretch(PtY2, PtP2, G, rho, level, tol, max_iter)
        if stretch is not None:
            start, h, s = stretch
            U = E(s)
            EU = E_adj(U)
    converged = False
    n_iter = max_iter
    for it in range(start, max_iter):
        h = A_inv @ (PtY2 + rho * (EZ - EU))
        H = E(h)
        EZ_prev = EZ
        Z = singular_value_soften(H + U, level)
        U = U + H - Z
        EZ, EU = E_adj(Z), E_adj(U)
        r_primal = la.norm(H - Z, check_finite=False)
        r_dual = rho * la.norm(EZ - EZ_prev, check_finite=False)
        eps_primal = tol * max(1.0, la.norm(H, check_finite=False),
                               la.norm(Z, check_finite=False))
        eps_dual = tol * max(1.0, rho * la.norm(EU, check_finite=False))
        if r_primal < eps_primal and r_dual < eps_dual:
            converged = True
            n_iter = it + 1
            break

    return AdmmResult(
        h=ImpulseResponse(h, T=T, m=m, p=p),
        converged=converged,
        n_iter=n_iter,
        dual=U,
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
