"""Small Cholesky-centric linear algebra helpers shared across the package.

Symmetric positive-definite solves in this package go through these
wrappers so that a failed factorization surfaces as a single, catchable
exception type instead of being silently jittered away.  Two keep their
own LAPACK call, because the lower factor would change their bits:
``model.build_weights`` needs the upper factor of each window covariance,
and ``baselines.nn_admm`` factors its system once with ``cho_factor``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix that must be symmetric PD fails its Cholesky."""


def chol_factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PD matrix.

    Raises NotPositiveDefiniteError instead of scipy's LinAlgError; no
    jitter is added.
    """
    try:
        return la.cholesky(A, lower=True, check_finite=False)
    except la.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def chol_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A x = B given the lower Cholesky factor L of A."""
    return la.cho_solve((L, True), B, check_finite=False)


def chol_logdet(L: np.ndarray) -> float:
    """log det A from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Full inverse of A from its lower Cholesky factor, exactly symmetric.

    LAPACK dpotri forms the lower triangle of A^{-1} = L^{-T} L^{-1} (about
    2n^3/3 flops, a third of solving against the identity); the upper
    triangle is mirrored from it.  L must be lower triangular, with zeros
    above the diagonal, as chol_factor returns it: dpotri leaves the upper
    triangle as it finds it, and the mirror adds into it.
    """
    Ainv, info = lapack.dpotri(L, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"dpotri failed with info = {info}")
    Ainv += np.tril(Ainv, -1).T
    return Ainv.T  # C order; the same matrix, since it is exactly symmetric


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)
