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

When W1 is the identity, no G_i couples two inputs and each couples the
lags and outputs of every input alike, so after a permutation the prior
precision is I_m kron Khat^{-1} (``kernels.input_blocks``).  G_i is then
kept as one input channel's block, ``blocks`` = m, and log|K^{-1}| =
m log|Khat^{-1}|; otherwise ``blocks`` = 1 and the block is the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .kernels import (SplineHyper, SubspaceBasis, hankel_precisions, input_blocks,
                      spline_precision)
from .linalg import chol_factor, chol_logdet, chol_solve, inverse_upper, mirror_upper
from .model import FirData, ImpulseResponse, WeightPair


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
    """Data record, noise model and the prior's definition.

    The prior is given by its parts: the spline hyper-parameters ``nu``, the
    Hankel ``weights`` and the signal/noise split of ``basis``.  Its precision
    at lambda is I_blocks kron (lam0*G0 + lam1*G1 + lam2*G2), each G_i one
    input channel's block when ``blocks`` = m; the three precisions and every
    other quantity that does not depend on lambda are formed once, here.
    """

    data: FirData
    noise: NoiseModel
    nu: SplineHyper
    weights: WeightPair
    basis: SubspaceBasis
    blocks: int = field(init=False)  # identical diagonal blocks of the precision: m or 1
    G0: np.ndarray = field(init=False, repr=False)  # spline precision block, PD
    G1: np.ndarray = field(init=False, repr=False)  # signal-subspace Hankel block, PSD
    G2: np.ndarray = field(init=False, repr=False)  # noise-subspace Hankel block, PSD

    def __post_init__(self):
        data, sigma = self.data, self.noise.sigma
        quad, logdet_noise = _noise_terms(data, self.noise)
        G1, G2 = hankel_precisions(self.weights, self.basis, data.T, data.p, data.m)
        blocks = input_blocks(self.weights, data.m)
        # the prior's blocks, then the data-side terms: Phi^T St^{-1} Phi =
        # diag(1/sigma) kron gram is nonzero only at its p output blocks, so
        # _A_blocks[a] = gram/sigma_a (times the reciprocal, as np.kron
        # forms it), and _b = Phi^T St^{-1} Y
        for name, value in (("blocks", blocks),
                            ("G0", spline_precision(self.nu, data.T, data.p * data.m // blocks)),
                            ("G1", G1), ("G2", G2),
                            ("_A_blocks", data.gram * (1.0 / sigma)[:, None, None]),
                            ("_b", (data.phity / sigma).T.ravel()),
                            ("_quad", quad), ("_logdet_noise", logdet_noise),
                            # (lam bytes, (L_K, L_M, hhat, f)) of the last lambda
                            # evaluated, so a repeat of it factors nothing
                            ("_last", None)):
            object.__setattr__(self, name, value)


def _noise_terms(data: FirData, noise: NoiseModel) -> tuple[float, float]:
    """Y^T St^{-1} Y and log|St|, the terms of f that the prior leaves alone."""
    if noise.p != data.p:
        raise ValueError(f"noise model has {noise.p} outputs, data has p = {data.p}")
    quad = float(np.sum(data.Y.reshape(data.p, data.N) ** 2 / noise.sigma[:, None]))
    return quad, float(data.N * np.sum(np.log(noise.sigma)))


# ---------- noise variance ----------


def estimate_noise_variance(data: FirData) -> NoiseModel:
    """Per-channel residual variance of a ridge least-squares FIR fit.

    sigma_i = RSS_i / (N - T*m) with ridge 1e-6 * trace(G)/dim on the
    normal equations.  Estimates are floored at a tiny multiple of the
    output power so that noise-free data still yields a usable (PD) noise
    covariance downstream.
    """
    N, Tm = data.phi.shape
    if N <= Tm:
        raise ValueError(f"need N > T*m to estimate noise variance (N={N}, T*m={Tm})")
    ridge = 1e-6 * np.trace(data.gram) / Tm
    if ridge <= 0.0:
        ridge = 1e-12
    coef = la.solve(data.gram + ridge * np.eye(Tm), data.phity, assume_a="pos")
    rss = np.sum((data.y - data.phi @ coef) ** 2, axis=0)
    sigma = rss / (N - Tm)
    floor = 1e-12 * (1.0 + float(np.mean(data.y**2)))
    return NoiseModel(np.maximum(sigma, floor))


# ---------- marginal likelihood ----------


def _evaluate(pb: MarglikProblem, lam):
    """(L_K, L_M, hhat, f) at lambda: the factor pair, posterior mean and value.

    L_K and L_M are the Cholesky factors of the block Khat^{-1} = lam0*G0 +
    lam1*G1 + lam2*G2 and of M = I_blocks kron Khat^{-1} + Phi^T St^{-1} Phi,
    formed in a fresh zero buffer: Phi^T St^{-1} Phi's block at each output,
    then Khat^{-1} added at each input's block, so nothing is permuted;
    hhat = M^{-1} b.  The last lambda evaluated on ``pb`` is kept on it,
    keyed on its exact bytes, so the value, gradient and posterior mean at
    one lambda share one factor pair.  A lambda that fails its check or its
    Cholesky is never kept.  The slot is read once and replaced whole, so
    threads that share a problem each get the entry of the lambda they asked
    for; for the same reason the matrices are formed and factored in buffers
    of this call, never in buffers kept on ``pb``.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != (3,):
        raise ValueError("lambda must have exactly 3 components")
    if np.min(lam) < 0:
        raise ValueError("lambda components must be >= 0")
    if not np.isfinite(lam).all():
        raise ValueError("lambda components must be finite")
    key = lam.tobytes()
    last = pb._last
    if last is not None and last[0] == key:
        return last[1]
    # Khat^{-1} = (lam0*G0 + lam1*G1) + lam2*G2 in a fresh buffer, summed in
    # this order so every entry rounds as the plain expression does
    K_inv = np.multiply(pb.G0, lam[0])
    K_inv += np.multiply(pb.G1, lam[1])
    K_inv += np.multiply(pb.G2, lam[2])
    p, Tm, blocks = pb.data.p, pb.data.gram.shape[0], pb.blocks
    c = Tm // blocks
    M = np.zeros((p * Tm, p * Tm))
    # einsum's "aiaj->aij" is a writable view of M's p output blocks, and
    # "abkcbl->bakcl" of its input blocks, with h's (a, b, k) at (a*m + b)*T + k
    np.copyto(np.einsum("aiaj->aij", M.reshape(p, Tm, p, Tm)), pb._A_blocks)
    M_in = np.einsum("abkcbl->bakcl", M.reshape(p, blocks, c, p, blocks, c))
    M_in += K_inv.reshape(p, c, p, c)  # to every block; a view: K_inv is C-ordered
    # both are exactly symmetric, so each transpose is the same matrix in
    # Fortran order, which dpotrf factors in place
    L_K = chol_factor(K_inv.T, overwrite_a=True)
    L_M = chol_factor(M.T, overwrite_a=True)
    hhat = chol_solve(L_M, pb._b)
    f = (
        pb._quad
        - float(pb._b @ hhat)
        + chol_logdet(L_M)
        - blocks * chol_logdet(L_K)
        + pb._logdet_noise
    )
    entry = (L_K, L_M, hhat, f)
    object.__setattr__(pb, "_last", (key, entry))
    return entry


def neg_log_marglik(pb: MarglikProblem, lam) -> float:
    """Y^T Lam^{-1} Y + log|Lam| via the coefficient-sized identity."""
    return _evaluate(pb, lam)[3]


def posterior_mean(pb: MarglikProblem, lam) -> ImpulseResponse:
    """E[h | Y] = (Phi^T St^{-1} Phi + K^{-1})^{-1} Phi^T St^{-1} Y."""
    h = _evaluate(pb, lam)[2].copy()  # a copy, so no caller can change the kept hhat
    return ImpulseResponse(h, T=pb.data.T, m=pb.data.m, p=pb.data.p)


def marglik_value_and_gradient(pb: MarglikProblem, lam):
    """Objective value plus the split gradient (f, B, V), grad f = B - V.

    This is the ``fun_grad`` form that ``sgp.sgp_minimize`` consumes.  Over the
    blocks b, V_i = <G_i, blocks*Khat - sum_b (M^{-1})_bb>, B_i = sum_b hhat_b^T G_i hhat_b.
    """
    L_K, L_M, hhat, f = _evaluate(pb, lam)
    # K - M^{-1} is PSD, so V >= 0 for PSD G_i.  Block b of M^{-1}'s upper
    # triangle is the block's own upper triangle, so X is mirrored once
    p, blocks = pb.data.p, pb.blocks
    X = inverse_upper(L_K)
    if blocks > 1:
        X *= blocks
    c = X.shape[0] // p
    X4 = X.reshape(p, c, p, c)
    for M_bb in np.einsum("abkcbl->bakcl", inverse_upper(L_M).reshape(p, blocks, c, p, blocks, c)):
        X4 -= M_bb
    del M_bb  # frees M^{-1} now, so the mirror reuses its memory instead of faulting in more
    gap = mirror_upper(X)
    h_b = [hhat.reshape(p, blocks, -1)[:, b, :].ravel() for b in range(blocks)]
    B = np.empty(3)
    V = np.empty(3)
    for i, G_i in enumerate((pb.G0, pb.G1, pb.G2)):
        B[i] = sum(float(h @ (G_i @ h)) for h in h_b)
        # einsum, not vdot: a multithreaded OpenBLAS ddot over all n^2 entries
        # leaves its threads contending with the Cholesky calls that follow
        V[i] = float(np.einsum("ij,ij->", G_i, gap))
    return f, B, V
