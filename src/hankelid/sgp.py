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
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError


@dataclass(frozen=True)
class SgpParams:
    """Optimizer constants; the defaults are the published working set."""

    upsilon: float = 1e-4  # Armijo slope factor
    gamma: float = 0.4  # backtracking shrink
    alpha_min: float = 1e-7
    alpha_max: float = 1e2
    L_min: float = 1e-5
    L_max: float = 1e10
    max_iter: int = 5000
    rel_tol: float = 1e-9
    max_backtracks: int = 60  # gamma^60 underflows double precision anyway

    def __post_init__(self):
        if not (0.0 < self.upsilon < 1.0 and 0.0 < self.gamma < 1.0):
            raise ValueError("need upsilon, gamma in (0, 1)")
        if not (0.0 < self.alpha_min < self.alpha_max):
            raise ValueError("need 0 < alpha_min < alpha_max")
        if not (0.0 < self.L_min < self.L_max):
            raise ValueError("need 0 < L_min < L_max")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be > 0")


@dataclass
class SgpState:
    """Mutable per-iteration state (current iterate plus BB memory)."""

    lam: np.ndarray
    f: float
    B: np.ndarray
    V: np.ndarray
    grad: np.ndarray
    d: np.ndarray | None = None  # diagonal of the scaling matrix
    alpha: float | None = None
    prev_lam: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    tau: float = 0.5  # adaptive BB alternation threshold
    bb2_window: deque = field(default_factory=lambda: deque(maxlen=3))
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class SgpResult:
    lam: np.ndarray
    fun: float
    n_iter: int
    converged: bool
    status: str
    history: np.ndarray  # accepted objective values, f(lam^0) included
    diagnostics: list  # per-iteration dicts (alpha, delta, backtracks, g_dot_step)


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


def bb_steplength(state: SgpState, params: SgpParams) -> float:
    """Barzilai-Borwein step with the adaptive BB1/BB2 alternation.

    Uses the scaled secant pairs with the current D; any nonpositive or
    non-finite candidate falls back to alpha_max.  The returned value is
    always clipped into [alpha_min, alpha_max].
    """
    clip = lambda a: min(max(float(a), params.alpha_min), params.alpha_max)
    if state.prev_lam is None:
        return clip(1.0)
    d = state.d
    s = state.lam - state.prev_lam
    z = state.grad - state.prev_grad
    s_over_d = s / d
    denom1 = float(s_over_d @ z)  # s^T D^{-1} z
    num1 = float(s_over_d @ s_over_d)  # s^T D^{-2} s
    dz = d * z
    num2 = float(s @ dz)  # s^T D z
    denom2 = float(dz @ dz)  # z^T D^2 z
    valid = (
        denom1 > 0.0
        and denom2 > 0.0
        and num2 > 0.0
        and all(map(math.isfinite, (num1, denom1, num2, denom2)))
    )
    if not valid:
        return clip(params.alpha_max)
    bb1 = num1 / denom1
    bb2 = num2 / denom2
    if not (math.isfinite(bb1) and math.isfinite(bb2) and bb1 > 0.0 and bb2 > 0.0):
        return clip(params.alpha_max)
    state.bb2_window.append(bb2)
    if bb2 / bb1 <= state.tau:
        alpha = min(state.bb2_window)
        state.tau *= 0.9
    else:
        alpha = bb1
        state.tau *= 1.1
    return clip(alpha)


def sgp_minimize(
    fun_grad,
    lam0,
    params: SgpParams | None = None,
    fun=None,
    use_scaling: bool = True,
    use_bb: bool = True,
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
        and backtracking continues.
    use_scaling, use_bb : bool
        Disabling both gives plain projected gradient with fixed unit step
        (still Armijo-backtracked), used as a comparison baseline.
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

    lam = project_positive(np.asarray(lam0, dtype=float))
    f0, B0, V0 = fun_grad(lam)
    if not np.isfinite(f0):
        raise ValueError("objective not finite at the starting point")
    state = SgpState(lam=lam, f=float(f0), B=np.asarray(B0, float),
                     V=np.asarray(V0, float), grad=np.asarray(B0, float) - V0)
    state.history.append(state.f)
    diagnostics: list[dict] = []
    n_iter = 0
    converged = False
    status = "max_iter"

    for k in range(params.max_iter):
        n_iter = k + 1
        if use_scaling:
            state.d = scaling_matrix(state.lam, state.V, params)
        else:
            state.d = np.ones_like(state.lam)
        state.alpha = bb_steplength(state, params) if use_bb else 1.0
        trial = project_positive(state.lam - state.alpha * state.d * state.grad)
        step = trial - state.lam
        g_dot_step = float(state.grad @ step)
        if not np.any(step):
            converged, status = True, "stationary"
            break

        delta = 1.0
        backtracks = 0
        accepted = False
        while backtracks <= params.max_backtracks:
            f_trial = try_value(state.lam + delta * step)
            if f_trial <= state.f + params.upsilon * delta * g_dot_step:
                accepted = True
                break
            delta *= params.gamma
            backtracks += 1
        diagnostics.append(
            dict(alpha=state.alpha, delta=delta, backtracks=backtracks,
                 g_dot_step=g_dot_step)
        )
        if not accepted:
            # no admissible decrease within the backtrack budget
            converged, status = True, "armijo_stall"
            break

        lam_new = state.lam + delta * step
        f_new, B_new, V_new = fun_grad(lam_new)
        state.prev_lam, state.prev_grad = state.lam, state.grad
        f_old = state.f
        state.lam = lam_new
        state.f = float(f_new)
        state.B = np.asarray(B_new, dtype=float)
        state.V = np.asarray(V_new, dtype=float)
        state.grad = state.B - state.V
        state.history.append(state.f)
        if f_old - state.f < params.rel_tol * abs(state.f):
            converged, status = True, "rel_tol"
            break

    return SgpResult(
        lam=state.lam.copy(),
        fun=state.f,
        n_iter=n_iter,
        converged=converged,
        status=status,
        history=np.array(state.history),
        diagnostics=diagnostics,
    )
