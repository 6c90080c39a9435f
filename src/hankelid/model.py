"""Domain types and deterministic constructions for MIMO FIR identification.

Conventions used throughout the package:

* A dataset holds time-major input/output matrices ``u`` (N x m) and
  ``y`` (N x p).
* Impulse-response coefficients are stacked channel by channel,
  ``h = [h_11, h_12, ..., h_1m, ..., h_p1, ..., h_pm]`` with each
  ``h_ij = [h_ij(1), ..., h_ij(T)]``, giving a vector of length T*m*p.
* Output observations are stacked channel-major,
  ``Y = [y_1(1..N), ..., y_p(1..N)]``.
* Inputs at non-positive times are taken to be zero, so the regressor is
  well defined from the first sample on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as la

from .linalg import NotPositiveDefiniteError


# ---------- domain types ----------


@dataclass(frozen=True)
class Dataset:
    """Paired input/output time series; rows are samples."""

    u: np.ndarray  # (N, m)
    y: np.ndarray  # (N, p)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("u and y must be 2-D (time-major) arrays")
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} rows, y has {y.shape[0]}")
        if u.shape[0] < 1 or u.shape[1] < 1 or y.shape[1] < 1:
            raise ValueError("need N >= 1, m >= 1, p >= 1")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class FirData:
    """The data side of a FIR fit: checked once, its products formed once.

    ``phi`` is the single-output regressor block (the full regressor is block
    diagonal with p copies of it), ``y`` the time-major outputs, ``gram`` =
    phi^T phi, ``phity`` = phi^T y and ``Y`` the channel-major output stack.
    """

    phi: np.ndarray  # (N, T*m)
    y: np.ndarray  # (N, p)
    T: int
    gram: np.ndarray = field(init=False, repr=False)  # (T*m, T*m)
    phity: np.ndarray = field(init=False, repr=False)  # (T*m, p)
    Y: np.ndarray = field(init=False, repr=False)  # (N*p,)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if phi.ndim != 2 or y.ndim != 2 or y.shape[1] < 1:
            raise ValueError("phi and y must be 2-D: phi N x T*m, y N x p")
        if phi.shape[0] != y.shape[0]:
            raise ValueError(f"phi has {phi.shape[0]} rows, y has {y.shape[0]}")
        if self.T < 1 or phi.shape[1] < self.T or phi.shape[1] % self.T:
            raise ValueError(
                f"phi has {phi.shape[1]} columns, not a positive multiple of T={self.T}"
            )
        if not (np.isfinite(phi).all() and np.isfinite(y).all()):
            raise ValueError("phi and y must be finite")
        Y = y.T.ravel()
        phity = phi.T @ Y.reshape(y.shape[1], y.shape[0]).T
        for name, value in (("phi", phi), ("y", y), ("gram", phi.T @ phi),
                            ("phity", phity), ("Y", Y)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.phi.shape[0]

    @property
    def m(self) -> int:
        return self.phi.shape[1] // self.T

    @property
    def p(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class ImpulseResponse:
    """Stacked coefficient vector of a p x m FIR system of length T."""

    h: np.ndarray  # (T*m*p,)
    T: int
    m: int
    p: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).ravel()
        if min(self.T, self.m, self.p) < 1:
            raise ValueError(f"need T, m, p >= 1, got T={self.T}, m={self.m}, p={self.p}")
        if h.size != self.T * self.m * self.p:
            raise ValueError(
                f"h has length {h.size}, expected T*m*p = {self.T * self.m * self.p}"
            )
        if not np.all(np.isfinite(h)):
            raise ValueError("impulse response contains non-finite entries")
        object.__setattr__(self, "h", h)

    def predict(self, phi: np.ndarray) -> np.ndarray:
        """FIR prediction (rows x p) from rows of the regressor block ``regressor_block(u, T)``."""
        return phi @ self.h.reshape(self.p, self.m * self.T).T

    def as_matrix_sequence(self) -> np.ndarray:
        """Return the (T, p, m) array M with M[k-1] = h(k)."""
        return self.h.reshape(self.p, self.m, self.T).transpose(2, 0, 1)

    @classmethod
    def from_matrix_sequence(cls, M: np.ndarray) -> "ImpulseResponse":
        """Inverse of :meth:`as_matrix_sequence`; M has shape (T, p, m)."""
        M = np.asarray(M, dtype=float)
        T, p, m = M.shape
        return cls(M.transpose(1, 2, 0).ravel(), T=T, m=m, p=p)


class HankelDims(NamedTuple):
    """Block-Hankel shape: r block rows, c block columns, r + c - 1 = T."""

    r: int
    c: int


@dataclass(frozen=True)
class WeightPair:
    """Column/row weighting matrices applied to the block Hankel matrix."""

    W1: np.ndarray  # (m*c, m*c)
    W2: np.ndarray  # (p*r, p*r)

    def __post_init__(self):
        W1 = np.asarray(self.W1, dtype=float)
        W2 = np.asarray(self.W2, dtype=float)
        for name, W in (("W1", W1), ("W2", W2)):
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ValueError(f"{name} must be square")
            if not np.all(np.isfinite(W)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "W2", W2)

    @property
    def is_identity(self) -> bool:
        """True when both matrices are exactly the identity."""
        return (np.array_equal(self.W1, np.eye(self.W1.shape[0]))
                and np.array_equal(self.W2, np.eye(self.W2.shape[0])))


# ---------- constructions ----------


def regressor_block(u: np.ndarray, T: int) -> np.ndarray:
    """Single-output regressor block phi (N x T*m).

    Row t concatenates, input by input, the lagged samples
    [u_i(t-1), ..., u_i(t-T)] with zeros before the first sample.
    """
    if T < 1:
        raise ValueError("FIR length T must be >= 1")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    N, m = u.shape
    phi = np.zeros((N, T * m))
    for i in range(m):
        col = np.concatenate(([0.0], u[:-1, i]))
        # Toeplitz: first column = delayed input, first row = zeros (pre-window)
        phi[:, i * T : (i + 1) * T] = la.toeplitz(col, np.zeros(T))
    return phi


def hankel_dims(T: int, p: int, m: int) -> HankelDims:
    """Pick r (and c = T + 1 - r) making the p*r x m*c Hankel nearly square.

    Minimizes |p*r - m*c| over r = 1..T; ties go to the smaller r.
    """
    if T < 1:
        raise ValueError("FIR length T must be >= 1")
    r_candidates = np.arange(1, T + 1)
    gap = np.abs(p * r_candidates - m * (T + 1 - r_candidates))
    r = int(r_candidates[np.argmin(gap)])  # argmin returns the first (smallest r)
    return HankelDims(r=r, c=T + 1 - r)


def build_hankel(h: ImpulseResponse) -> np.ndarray:
    """Block Hankel matrix (p*r x m*c) with block (i, j) = h(i + j - 1)."""
    return h.h[hankel_index_map(h.T, h.p, h.m)]


def hankel_index_map(T: int, p: int, m: int) -> np.ndarray:
    """Index array idx (p*r, m*c): H.ravel() = h[idx.ravel()].

    Entry (i*p + a, j*m + b) of the Hankel matrix holds coefficient
    h_{(a+1)(b+1)}(i + j + 1), which lives at position (a*m + b)*T + i + j
    of the stacked vector; r and c come from hankel_dims(T, p, m).
    """
    r, c = hankel_dims(T, p, m)
    i = np.arange(r)[:, None, None, None]
    a = np.arange(p)[None, :, None, None]
    j = np.arange(c)[None, None, :, None]
    b = np.arange(m)[None, None, None, :]
    idx = (a * m + b) * T + (i + j)  # (r, p, c, m)
    return idx.reshape(r * p, c * m)


def _window_second_moment(X: np.ndarray, width: int) -> np.ndarray:
    """Uncentered sample covariance of sliding windows [x(t); ...; x(t+width-1)]."""
    N, d = X.shape
    n_win = N - width + 1
    if n_win < 1:
        raise ValueError("series too short for the requested window")
    windows = np.empty((n_win, width * d))
    for k in range(width):
        windows[:, k * d : (k + 1) * d] = X[k : k + n_win]
    return windows.T @ windows / n_win


WEIGHTING_MODES = ("identity", "empirical")


def build_weights(d: Dataset, T: int, mode: str = "identity") -> WeightPair:
    """Hankel weighting matrices for the shape hankel_dims(T, d.p, d.m).

    identity
        Exact identity matrices (the default throughout the package).
    empirical
        W1 is the inverse upper Cholesky factor of the sample covariance of
        stacked past-input windows (m*c x m*c); W2 the same for stacked
        future-output windows (p*r x p*r).  Both covariances get a relative
        ridge of 1e-8 * trace/size before factorization.  An all-zero
        input or output series has no covariance to normalize by and
        raises ValueError naming the series.  This is an approximation:
        the weighting that turns the Hankel singular values into
        conditional canonical correlations needs conditional covariances
        that are not constructed here.
    """
    if mode not in WEIGHTING_MODES:
        raise ValueError(f"unknown weighting mode {mode!r}")
    r, c = hankel_dims(T, d.p, d.m)
    if mode == "identity":
        return WeightPair(np.eye(d.m * c), np.eye(d.p * r))

    def inv_upper_chol(S: np.ndarray, series: str) -> np.ndarray:
        n = S.shape[0]
        trace = np.trace(S)
        if trace == 0.0:
            raise ValueError(
                f"empirical weighting: every {series} window is zero, "
                f"so the {series} window covariance cannot be normalized"
            )
        S = S + (1e-8 * trace / n) * np.eye(n)
        try:
            R = la.cholesky(S, lower=False)
        except la.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "window covariance not PD after ridge"
            ) from exc
        return la.solve_triangular(R, np.eye(n), lower=False)

    # past-input windows [u(t-1); ...; u(t-c)] share second moments with
    # the forward windows of the same width
    W1 = inv_upper_chol(_window_second_moment(d.u, c), "input")
    W2 = inv_upper_chol(_window_second_moment(d.y, r), "output")
    return WeightPair(W1, W2)


def check_weights(weights: WeightPair, T: int, p: int, m: int) -> HankelDims:
    """hankel_dims(T, p, m), after checking that W1 is m*c and W2 p*r square."""
    r, c = dims = hankel_dims(T, p, m)
    if weights.W1.shape[0] != m * c or weights.W2.shape[0] != p * r:  # both are square
        raise ValueError(f"weight matrices do not match the Hankel dimensions: (T, p, m) = "
                         f"({T}, {p}, {m}) needs W1 {m * c} and W2 {p * r} square, got "
                         f"{weights.W1.shape[0]} and {weights.W2.shape[0]}")
    return dims


def hankel_operator(weights: WeightPair, T: int, p: int, m: int):
    """The weighted Hankel map E(h) = W2^T H(h) W1^T on stacked vectors, and its adjoint.

    Returns (E, E_adj) with E_adj(M) = H*(W2 M W1), where H* sums each
    Hankel-position entry back into its coefficient slot.  Under identity
    weights both index h directly, without the weight products.  Weights
    of the wrong size raise ValueError (``check_weights``).
    """
    check_weights(weights, T, p, m)
    idx = hankel_index_map(T, p, m)
    flat, n_coeff = idx.ravel(), T * m * p
    if weights.is_identity:
        return (lambda h: h[idx],
                lambda M: np.bincount(flat, weights=M.ravel(), minlength=n_coeff))
    W1, W2 = weights.W1, weights.W2
    return (lambda h: W2.T @ h[idx] @ W1.T,
            lambda M: np.bincount(flat, weights=(W2 @ M @ W1).ravel(), minlength=n_coeff))


def weighted_hankel(h: ImpulseResponse, weights: WeightPair) -> np.ndarray:
    """W2^T H(h) W1^T, the normalized Hankel matrix."""
    return hankel_operator(weights, h.T, h.p, h.m)[0](h.h)


# ---------- dataset CSV format ----------


def read_dataset_csv(path) -> Dataset:
    """Read a dataset CSV with header ``t,u1..um,y1..yp``.

    The header must name exactly these columns in this order: t numbers the
    rows (parsed, not used), u1..um are the inputs and y1..yp the outputs,
    as ``hankelid simulate`` writes them.  Every row must have all columns,
    each a finite number; an error names the file, line and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        m = sum(1 for c in header if c.startswith("u"))
        p = len(header) - 1 - m
        expected = ["t"] + [f"u{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(p)]
        if m < 1 or p < 1 or header != expected:
            raise ValueError(
                f"{path}: header must be t,u1..um,y1..yp, got {','.join(header)!r}"
            )
        u_rows, y_rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + m + p:
                raise ValueError(
                    f"{path}:{lineno}: expected {1 + m + p} columns, got {len(row)}"
                )
            vals = []
            for name, v in zip(header, row):
                try:
                    vals.append(float(v))
                except ValueError:
                    vals.append(np.nan)
                if not np.isfinite(vals[-1]):
                    raise ValueError(f"{path}:{lineno}: column {name} is {v!r}, not a finite number")
            u_rows.append(vals[1 : 1 + m])
            y_rows.append(vals[1 + m :])
    if not u_rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(u_rows), np.array(y_rows))


def _write_dataset(fh, d: Dataset) -> None:
    writer = csv.writer(fh)
    writer.writerow(
        ["t"] + [f"u{i + 1}" for i in range(d.m)] + [f"y{i + 1}" for i in range(d.p)]
    )
    for t in range(d.N):
        writer.writerow(
            [t + 1]
            + [repr(float(v)) for v in d.u[t]]
            + [repr(float(v)) for v in d.y[t]]
        )
