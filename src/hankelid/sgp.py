"""Scaled gradient projection over the nonnegative cone.

First-order minimizer for smooth objectives on lam >= 0 whose gradient
admits a split grad f = B - V with componentwise nonnegative B and V.  The
negative gradient is scaled by a diagonal matrix D built from the split
(the fixed-point form of the KKT conditions) and by a Barzilai-Borwein
step length, then projected and backtracked with a monotone Armijo rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import NotPositiveDefiniteError


@dataclass(frozen=True)
class SgpParams:
    """Optimizer constants; the defaults are the published working set.

    Only the step-length and scaling bounds are fields.  alpha_min =
    alpha_max = 1 and L_min = L_max = 1 pin the step length and the scaling
    to one: plain projected gradient, still Armijo-backtracked.
    """

    upsilon: ClassVar[float] = 1e-4  # Armijo slope factor
    gamma: ClassVar[float] = 0.4  # backtracking shrink
    max_iter: ClassVar[int] = 5000
    rel_tol: ClassVar[float] = 1e-9
    max_backtracks: ClassVar[int] = 60  # caps a search at 61 values; gamma^60 ~ 1.3e-24
    alpha_min: float = 1e-7
    alpha_max: float = 1e2
    L_min: float = 1e-5
    L_max: float = 1e10

    def __post_init__(self):
        if not (0.0 < self.alpha_min <= self.alpha_max):
            raise ValueError("need 0 < alpha_min <= alpha_max")
        if not (0.0 < self.L_min <= self.L_max):
            raise ValueError("need 0 < L_min <= L_max")


@dataclass(frozen=True)
class SgpResult:
    lam: np.ndarray
    fun: float
    n_iter: int
    status: str  # "stationary" | "armijo_stall" | "rel_tol" | "max_iter"
    history: np.ndarray  # accepted objective values, f(lam^0) included
    diagnostics: list  # per-iteration dicts (alpha, delta, backtracks, g_dot_step)

    @property
    def converged(self) -> bool:
        """True when a stopping test ended the run, False when max_iter did."""
        return self.status != "max_iter"


def project_positive(lam: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative cone: componentwise max with zero.

    For the cone this truncation solves argmin_{x>=0} (x - lam)^T D^{-1}
    (x - lam) for every diagonal D > 0, so it is independent of the scaling.
    """
    return np.maximum(np.asarray(lam, dtype=float), 0.0)


def scaling_matrix(lam: np.ndarray, V: np.ndarray, params: SgpParams) -> np.ndarray:
    """Diagonal of the split-gradient scaling D: clip(lam_i / V_i, L_min, L_max)."""
    lam = np.asarray(lam, dtype=float)
    V = np.asarray(V, dtype=float)
    ratio = np.divide(lam, V, out=np.full_like(lam, np.inf), where=V > 0.0)
    np.maximum(ratio, params.L_min, out=ratio)
    return np.minimum(ratio, params.L_max, out=ratio)


def _clip_step(alpha: float, params: SgpParams) -> float:
    return min(max(float(alpha), params.alpha_min), params.alpha_max)


def bb_steplength(
    s: np.ndarray, z: np.ndarray, d: np.ndarray, tau: float, bb2_window: deque, params: SgpParams
) -> tuple[float, float]:
    """Barzilai-Borwein step with the adaptive BB1/BB2 alternation.

    s and z are the last step and its gradient change, d the diagonal of
    the current scaling D, tau the alternation threshold.  Uses the scaled
    secant pairs; any nonpositive or non-finite candidate falls back to
    alpha_max.  A valid BB2 value is appended to bb2_window (a deque of
    length 3).  Returns (alpha, tau), alpha clipped into
    [alpha_min, alpha_max].
    """
    s_over_d = s / d
    denom1 = float(s_over_d @ z)  # s^T D^{-1} z
    num1 = float(s_over_d @ s_over_d)  # s^T D^{-2} s
    dz = d * z
    num2 = float(s @ dz)  # s^T D z
    denom2 = float(dz @ dz)  # z^T D^2 z
    if not (denom1 > 0.0 and denom2 > 0.0):
        return _clip_step(params.alpha_max, params), tau
    bb1 = num1 / denom1
    bb2 = num2 / denom2
    if not (math.isfinite(bb1) and math.isfinite(bb2) and bb1 > 0.0 and bb2 > 0.0):
        return _clip_step(params.alpha_max, params), tau
    bb2_window.append(bb2)
    if bb2 / bb1 <= tau:
        return _clip_step(min(bb2_window), params), tau * 0.9
    return _clip_step(bb1, params), tau * 1.1


def sgp_minimize(
    fun_grad,
    lam0,
    params: SgpParams | None = None,
    fun=None,
) -> SgpResult:
    """Minimize f over lam >= 0.

    Parameters
    ----------
    fun_grad : callable
        lam -> (f, B, V) with grad f = B - V, B >= 0, V >= 0 componentwise.
    lam0 : array_like
        Feasible starting point (projected onto the cone if needed); f must
        be finite there.
    params : SgpParams, optional
    fun : callable, optional
        lam -> f only, used inside the Armijo loop; defaults to fun_grad.
        A NotPositiveDefiniteError during a trial evaluation counts as +inf
        and backtracking continues.  It must return fun_grad's f: an
        accepted trial's value is taken as f at the new point.

    fun_grad runs once per iteration, at the point that iteration steps
    from, so the point where the run stops gets no gradient.
    """
    params = params or SgpParams()
    if fun is None:
        fun = lambda lam: fun_grad(lam)[0]

    def try_value(lam):
        try:
            v = fun(lam)
        except NotPositiveDefiniteError:
            return np.inf
        return v if math.isfinite(v) else np.inf

    def evaluate(lam):
        f, B, V = fun_grad(lam)
        V = np.asarray(V, dtype=float)
        return f, V, np.asarray(B, dtype=float) - V

    lam = project_positive(np.asarray(lam0, dtype=float))
    f, V, grad = evaluate(lam)
    if not np.isfinite(f):
        raise ValueError("objective not finite at the starting point")
    f = float(f)
    history = [f]
    diagnostics: list[dict] = []
    alpha = _clip_step(1.0, params)  # no step yet for a BB pair
    tau, bb2_window = 0.5, deque(maxlen=3)
    status = "max_iter"

    for n_iter in range(1, params.max_iter + 1):
        d = scaling_matrix(lam, V, params)
        if n_iter > 1:
            alpha, tau = bb_steplength(s, z, d, tau, bb2_window, params)
        step = project_positive(lam - alpha * d * grad) - lam
        g_dot_step = float(grad @ step)
        if not np.any(step):
            status = "stationary"
            break

        delta = 1.0
        backtracks = 0
        while backtracks <= params.max_backtracks:
            f_trial = try_value(lam + delta * step)
            if f_trial <= f + params.upsilon * delta * g_dot_step:
                break
            delta *= params.gamma
            backtracks += 1
        diagnostics.append(
            dict(alpha=alpha, delta=delta, backtracks=backtracks, g_dot_step=g_dot_step)
        )
        if backtracks > params.max_backtracks:
            # no admissible decrease within the backtrack budget
            status = "armijo_stall"
            break

        lam_old, lam = lam, lam + delta * step
        f_old, f = f, float(f_trial)
        history.append(f)
        if f_old - f < params.rel_tol * abs(f):
            status = "rel_tol"
            break
        if n_iter == params.max_iter:
            break  # no step is taken from here, so no gradient is formed
        _, V, grad_new = evaluate(lam)
        s, z = lam - lam_old, grad_new - grad
        grad = grad_new

    return SgpResult(
        lam=lam.copy(),
        fun=f,
        n_iter=n_iter,
        status=status,
        history=np.array(history),
        diagnostics=diagnostics,
    )
