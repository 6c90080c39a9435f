"""Small Cholesky-centric linear algebra helpers shared across the package.

Symmetric positive-definite solves in this package go through these
wrappers so that a failed factorization surfaces as a single, catchable
exception type instead of being silently jittered away.  They call LAPACK
directly: ``scipy.linalg.cholesky`` and ``cho_solve`` make the same calls
behind a batching layer and array checks, which cost as much as a small
factorization.  Two keep their own LAPACK call, because the lower factor
would change their bits, and the lambda where SGP stops moves with them:
``model.build_weights`` needs the upper factor of each window covariance,
and ``bayes.estimate_noise_variance`` solves its ridge normal equations
with ``la.solve(..., assume_a="pos")``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix that must be symmetric PD fails its Cholesky."""


def chol_factor(A: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PD matrix, by LAPACK dpotrf.

    Raises NotPositiveDefiniteError; no jitter is added.  The entries above
    the diagonal of the factor are zero.  With ``overwrite_a`` and A in
    Fortran order, the factor is formed in A's own storage; any other A is
    copied first and left as it is.
    """
    L, info = lapack.dpotrf(A, lower=1, clean=1, overwrite_a=overwrite_a)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite")
    return L


def chol_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A x = B given the lower Cholesky factor L of A (LAPACK dpotrs)."""
    x, info = lapack.dpotrs(L, B, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


def chol_logdet(L: np.ndarray) -> float:
    """log det A from its lower Cholesky factor."""
    return 2.0 * float(np.log(L.diagonal()).sum())


def _inverse_upper(L: np.ndarray) -> np.ndarray:
    """A^{-1} in C order, its upper triangle filled and zeros below.

    LAPACK dpotri forms the lower triangle of A^{-1} = L^{-T} L^{-1} (about
    2n^3/3 flops, a third of solving against the identity) in a copy of L,
    in Fortran order; its transpose is that triangle as an upper one in C
    order.  Below it stand L's entries above the diagonal, which must be
    zero, as chol_factor leaves them.
    """
    X, info = lapack.dpotri(L, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"dpotri failed with info = {info}")
    return X.T


def chol_inverse(L: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
    """Full inverse of A from its lower Cholesky factor L, exactly symmetric.

    Given ``minus``, the lower factor of a second matrix B, it returns
    A^{-1} - B^{-1}: the two triangles are subtracted first and the
    difference is mirrored once.  The result is in C order; L and ``minus``
    are left as they are.
    """
    X = _inverse_upper(L)
    if minus is not None:
        X = X - _inverse_upper(minus)
    diag = X.diagonal().copy()
    X += X.T  # the mirror; it doubles the diagonal, which is put back exactly
    np.fill_diagonal(X, diag)
    return X


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)
