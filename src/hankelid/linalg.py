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
with ``la.solve(..., assume_a="pos")``.  ``chol_inverse`` inverts the
factor by a blocked recursion instead of LAPACK dpotri, which is slow in
OpenBLAS; ``inverse_upper`` gives the timings.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack


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


_LEAF = 32  # rows of the largest diagonal block that dtrtri inverts whole
_ABOVE = np.triu(np.ones((_LEAF, _LEAF), dtype=bool), 1)  # a leaf's entries above its diagonal


def _invert_lower(W: np.ndarray, lo: int, hi: int) -> None:
    """W[lo:hi, lo:hi] := the inverse of its lower triangle, with zeros above.

    The block is split in two until a half has at most _LEAF rows; dtrtri
    inverts those whole.  With X11 and X22 the inverses of the diagonal
    halves, the off-diagonal block L21 becomes -X22 L21 X11, two dtrmm
    calls.  Entries above the diagonal are never read.
    """
    if hi - lo <= _LEAF:
        X, info = lapack.dtrtri(W[lo:hi, lo:hi], lower=1)
        if info != 0:
            raise NotPositiveDefiniteError(f"zero pivot {lo + info} in the Cholesky factor")
        np.copyto(X, 0.0, where=_ABOVE[: hi - lo, : hi - lo])
        W[lo:hi, lo:hi] = X
        return
    mid = lo + (hi - lo) // 2
    _invert_lower(W, lo, mid)
    _invert_lower(W, mid, hi)
    W[lo:mid, mid:hi] = 0.0
    X21 = blas.dtrmm(1.0, W[lo:mid, lo:mid], W[mid:hi, lo:mid], side=1, lower=1)
    W[mid:hi, lo:mid] = blas.dtrmm(-1.0, W[mid:hi, mid:hi], X21, lower=1, overwrite_b=1)


def inverse_upper(L: np.ndarray) -> np.ndarray:
    """A^{-1} in C order, its upper triangle filled and zeros below.

    W = L^{-1} is formed by _invert_lower in one Fortran-order copy of L,
    whose entries above the diagonal it replaces with zeros, whatever L
    holds there; LAPACK dlauum then overwrites W's lower triangle with
    W^T W = L^{-T} L^{-1}, and W's transpose is that triangle as an upper
    one in C order.  dpotri makes the same two steps, but OpenBLAS's dtrtri
    runs at about half of dpotrf's flop rate, while the recursion does
    most of its flops in dtrmm.  With one thread this took 83 us against
    dpotri's 105 us at n = 125, 310 against 590 us at n = 240 and 1.8
    against 3.3 ms at n = 500; leaves of 16 or 64 rows were slower.
    """
    W = np.array(L, order="F")
    _invert_lower(W, 0, W.shape[0])
    X, info = lapack.dlauum(W, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"dlauum: illegal value in argument {-info}")
    return X.T


def mirror_upper(X: np.ndarray) -> np.ndarray:
    """The exactly symmetric matrix whose upper triangle X holds, zeros below it.

    Into a new C-order array: in place, numpy would first copy X.T.  The sum
    doubles the diagonal, which is put back exactly.
    """
    S = X + X.T
    np.fill_diagonal(S, X.diagonal())
    return S


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Full inverse of A from its lower Cholesky factor L, exactly symmetric, in C order."""
    return mirror_upper(inverse_upper(L))


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)
