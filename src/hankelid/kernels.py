"""Prior precision components: stable-spline and Hankel-subspace.

The prior over the stacked impulse response h is Gaussian with precision

    lam0 * G0 + lam1 * G1 + lam2 * G2

(formed and mixed by ``bayes.MarglikProblem``), where G0 is the blockwise
inverse of a first-order stable-spline (TC) kernel, and G1/G2 weight the
energy of the Hankel matrix of h along an estimated signal subspace and its
orthogonal complement.  Precisions (not
covariances) are stored: G1 and G2 are low rank and have no inverse.
When W1 is the identity, W1^T W1 = I couples no two inputs, so all three
are I_m kron (one input channel's block) after a permutation, and
``hankel_precisions`` builds that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize
from .model import WeightPair, check_weights, hankel_dims, hankel_index_map


# ---------- domain types ----------


@dataclass(frozen=True)
class SplineHyper:
    """Scale and decay of the first-order stable-spline kernel.

    One (c, beta) pair is shared by all p*m channels; the cross-channel
    coupling is delivered by the Hankel term instead.
    """

    c: float
    beta: float

    def __post_init__(self):
        if not (self.c >= 0.0):
            raise ValueError("spline scale c must be >= 0")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("spline decay beta must be in [0, 1]")


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthogonal basis of R^{pr} split into signal (first n) and noise parts.

    U is kept in C order, whatever order it comes in: the last bits of G1
    and G2 depend on the memory order of U, and LAPACK's is Fortran.
    """

    U: np.ndarray  # (pr, pr) orthogonal
    n: int

    def __post_init__(self):
        U = np.ascontiguousarray(self.U, dtype=float)
        k = U.shape[0]
        if U.shape != (k, k):
            raise ValueError("U must be square")
        if not (0 <= self.n <= k):
            raise ValueError(f"signal dimension n={self.n} outside [0, {k}]")
        if np.max(np.abs(U.T @ U - np.eye(k))) > 1e-10:
            raise ValueError("U is not orthogonal to 1e-10")
        object.__setattr__(self, "U", U)

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @property
    def U_n(self) -> np.ndarray:
        return self.U[:, : self.n]

    @property
    def U_n_perp(self) -> np.ndarray:
        return self.U[:, self.n :]

    @classmethod
    def trivial(cls, pr: int) -> "SubspaceBasis":
        """n = 0 start: empty signal part, identity noise part."""
        return cls(np.eye(pr), 0)


# ---------- stable-spline kernel ----------


def tc_precision_block(hp: SplineHyper, T: int) -> np.ndarray:
    """Analytic inverse of the single-channel TC kernel (tridiagonal).

    min(beta^k, beta^l) = beta^max(k,l) is the covariance of a reversed
    Gauss-Markov chain, so the inverse is tridiagonal with entries that can
    be written down directly; this stays well conditioned for beta near 1
    where dense inversion of the kernel degrades.
    """
    if not (0.0 < hp.beta < 1.0):
        raise ValueError("beta must lie strictly inside (0, 1) for inversion")
    if hp.c <= 0.0:
        raise ValueError("c must be > 0 for inversion")
    if T == 1:
        return np.array([[1.0 / (hp.c * hp.beta)]])
    beta = hp.beta
    one_minus = 1.0 - beta
    k = np.arange(1, T + 1)
    diag = (np.power(beta, -(k - 1.0)) + np.power(beta, -k.astype(float))) / one_minus
    diag[0] = 1.0 / (beta * one_minus)
    diag[-1] = np.power(beta, -float(T)) / one_minus
    off = -np.power(beta, -k[:-1].astype(float)) / one_minus
    D = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return D / hp.c


def spline_precision(hp: SplineHyper, T: int, channels: int) -> np.ndarray:
    """Block-diagonal spline precision over ``channels`` channels (T*channels square)."""
    return np.kron(np.eye(channels), tc_precision_block(hp, T))


# ---------- Hankel-subspace precision ----------


def _next_fast_len(T: int) -> int:
    """Smallest 11-smooth n >= T, as ``scipy.fft.next_fast_len``, without importing scipy.fft."""
    n = T
    while True:
        k = n
        for f in (2, 3, 5, 7, 11):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


def input_blocks(weights: WeightPair, m: int) -> int:
    """m when W1 is exactly the identity, else 1: the prior's equal blocks over the inputs."""
    return m if np.array_equal(weights.W1, np.eye(weights.W1.shape[0])) else 1


def _hankel_weighted_gram(
    Qw: np.ndarray, Gw: np.ndarray, T: int, p: int, m: int
) -> np.ndarray:
    """Assemble P^T (Qw kron Gw) P without densifying the Kronecker product.

    P is the 0/1 selection with vec(H(h)^T) = P h, i.e. H.ravel() =
    h[model.hankel_index_map(T, p, m).ravel()].  Grouping Hankel entries by
    channel pair, each (T x T) lag block of the result is the full 2-D
    convolution of an (r x r) slice of Qw with a (c x c) slice of Gw, so the
    whole matrix comes out of one batched FFT.  A c x c Gw stands for
    I_m kron Gw, and then the result is one input channel's block.
    """
    r, c = hankel_dims(T, p, m)
    mg = Gw.shape[0] // c  # m, or 1 for one input channel
    Q4 = Qw.reshape(r, p, r, p).transpose(1, 3, 0, 2)  # [a, a', i, i']
    G4 = Gw.reshape(c, mg, c, mg).transpose(1, 3, 0, 2)  # [b, b', j, j']
    nfft = _next_fast_len(T)
    FQ = np.fft.rfft2(Q4, s=(nfft, nfft))
    FG = np.fft.rfft2(G4, s=(nfft, nfft))
    FC = FQ[:, :, None, None, :, :] * FG[None, None, :, :, :, :]
    C = np.fft.irfft2(FC, s=(nfft, nfft))[..., :T, :T]  # [a, a', b, b', d, d']
    G = C.transpose(0, 2, 4, 1, 3, 5).reshape(T * mg * p, T * mg * p)
    return symmetrize(G)


def hankel_gram(weights: WeightPair, T: int, p: int, m: int) -> np.ndarray:
    """E*E = P^T (W2 W2^T kron W1^T W1) P, E the weighted Hankel map of ``model.hankel_operator``.

    Under identity weights it is the exact diagonal of Hankel multiplicities,
    which the FFT would round.  Weights of the wrong size raise ValueError.
    """
    check_weights(weights, T, p, m)
    if weights.is_identity:
        idx = hankel_index_map(T, p, m).ravel()
        return np.diag(np.bincount(idx, minlength=T * m * p).astype(float))
    return _hankel_weighted_gram(weights.W2 @ weights.W2.T, weights.W1.T @ weights.W1, T, p, m)


def hankel_precisions(
    weights: WeightPair, basis: SubspaceBasis, T: int, p: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Signal/noise Hankel precisions G1, G2: E*(U U^T)E at U = U_n and at U = U_n_perp.

    h^T (lam1 G1 + lam2 G2) h equals the weighted trace penalty on the
    squared Hankel matrix of h.  When ``input_blocks`` is m, each is one
    input channel's T*p square block, by an FFT over the output pairs only.
    A side with no columns gives exact zeros.  Weights of the wrong size, or
    a basis without p*r rows, raise ValueError.
    """
    r, c = check_weights(weights, T, p, m)
    if basis.dim != p * r:
        raise ValueError(f"basis dimension {basis.dim} does not match p*r = {p * r}")
    Gw = weights.W1.T @ weights.W1 if input_blocks(weights, m) == 1 else np.eye(c)
    grams = []
    for U in (basis.U_n, basis.U_n_perp):
        if U.shape[1] == 0:
            grams.append(np.zeros((T * p * Gw.shape[0] // c,) * 2))
        else:
            W2U = weights.W2 @ U
            grams.append(_hankel_weighted_gram(W2U @ W2U.T, Gw, T, p, m))
    return tuple(grams)
