"""Output checks that do not reuse the package's own algebra.

Every quantity here is rebuilt from its definition with plain NumPy: the
regressor and the predictor by direct convolution, the TC kernel from
c * min(beta^k, beta^l), the Hankel penalties from the quadratic form
h -> ||U_sub^T W2^T H(h) W1^T||_F^2, and the posterior mean and the
marginal likelihood in data space (size N*p), not at coefficient size.
The package's stacking convention is taken from its documentation:
h = [h_11, ..., h_1m, ..., h_pm] with h_ab = [h_ab(1), ..., h_ab(T)], and
Y = [y_1(1..N), ..., y_p(1..N)].

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

# Agreement required between the package's coefficient-space results and
# the data-space recomputation.  Measured gaps are below 1e-10 (relative,
# h) and 1e-7 (absolute, f ~ 5e3) with lambda spread over 1e-8..1e7; the
# f tolerance stays 20x below the acceptance step 2*log(1.001) ~ 2e-3.
H_RTOL = 1e-6
F_ATOL = 1e-4


def predict(hseq: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One-step FIR prediction y(t) = sum_k h(k) u(t-k), inputs zero before t=0.

    ``hseq`` is (T, p, m) with hseq[k-1] = h(k); ``u`` is (N, m).
    """
    T, p, m = hseq.shape
    N = u.shape[0]
    y = np.zeros((N, p))
    for a in range(p):
        for b in range(m):
            taps = np.concatenate(([0.0], hseq[:, a, b]))
            y[:, a] += np.convolve(u[:, b], taps)[:N]
    return y


def as_sequence(h: np.ndarray, T: int, p: int, m: int) -> np.ndarray:
    """Stacked coefficient vector -> (T, p, m) matrix sequence."""
    return np.asarray(h, float).reshape(p, m, T).transpose(2, 0, 1)


def cod(ref: np.ndarray, est: np.ndarray) -> float:
    """100 * (1 - sqrt(RSS/TSS)) of ``est`` against ``ref``."""
    tss = float(np.sum((ref - ref.mean()) ** 2))
    return 100.0 * (1.0 - np.sqrt(float(np.sum((ref - est) ** 2)) / tss))


def prediction_cods(hseq: np.ndarray, u_val: np.ndarray, y_val_clean: np.ndarray) -> list:
    """Per-output prediction COD against the noise-free validation output."""
    pred = predict(hseq, u_val)
    return [cod(y_val_clean[:, a], pred[:, a]) for a in range(pred.shape[1])]


def impulse_fit(A, B, C, hseq: np.ndarray, n_samples: int = 1000) -> float:
    """Mean per-channel COD between C A^(k-1) B and the zero-padded estimate."""
    T, p, m = hseq.shape
    truth = np.empty((n_samples, p, m))
    X = np.asarray(B, float)
    for k in range(n_samples):
        truth[k] = C @ X
        X = A @ X
    est = np.zeros_like(truth)
    est[: min(T, n_samples)] = hseq[:n_samples]
    return float(np.mean([cod(truth[:, a, b], est[:, a, b]) for a in range(p) for b in range(m)]))


# ---------- definitions rebuilt ----------


def regressor(u: np.ndarray, T: int) -> np.ndarray:
    """phi[t, b*T + k-1] = u_b(t-k), zero before the first sample."""
    N, m = u.shape
    phi = np.zeros((N, T * m))
    for b in range(m):
        for k in range(1, T + 1):
            phi[k:, b * T + k - 1] = u[: N - k, b]
    return phi


def tc_kernel(c: float, beta: float, T: int) -> np.ndarray:
    k = np.arange(1, T + 1)
    return c * np.minimum(beta ** k[:, None], beta ** k[None, :])


def hankel_rows(T: int, p: int, m: int) -> int:
    """Block rows r minimizing |p*r - m*(T+1-r)|, ties to the smaller r."""
    return min(range(1, T + 1), key=lambda r: (abs(p * r - m * (T + 1 - r)), r))


def hankel_of_units(T: int, p: int, m: int) -> np.ndarray:
    """H(e_j) for every unit coefficient vector: (T*m*p, p*r, m*c).

    Block (i, j) of the block Hankel matrix is h(i + j + 1), so entry
    (i*p + a, j*m + b) holds h_ab(i + j + 1).
    """
    r = hankel_rows(T, p, m)
    c = T + 1 - r
    E = np.zeros((T * m * p, p * r, m * c))
    for i in range(r):
        for j in range(c):
            for a in range(p):
                for b in range(m):
                    E[(a * m + b) * T + i + j, i * p + a, j * m + b] = 1.0
    return E


def window_weight(X: np.ndarray, width: int) -> np.ndarray:
    """Inverse upper Cholesky factor of the ridged second moment of windows.

    Windows are [x(t); ...; x(t+width-1)]; the ridge is 1e-8 * trace/size.
    """
    N, d = X.shape
    n_win = N - width + 1
    Wn = np.hstack([X[k : k + n_win] for k in range(width)])
    S = Wn.T @ Wn / n_win
    S = S + (1e-8 * np.trace(S) / S.shape[0]) * np.eye(S.shape[0])
    R = np.linalg.cholesky(S).T
    return np.linalg.inv(R)


def hankel_penalties(u, y, T, weighting, U, n):
    """G1, G2 from the quadratic form h -> ||U_sub^T W2^T H(h) W1^T||_F^2."""
    p, m = y.shape[1], u.shape[1]
    E = hankel_of_units(T, p, m)
    pr, mc = E.shape[1], E.shape[2]
    if weighting == "empirical":
        W1 = window_weight(u, mc // m)
        W2 = window_weight(y, pr // p)
        E = np.einsum("ij,kjl,ml->kim", W2.T, E, W1, optimize=True)
    G = []
    for Usub in (U[:, :n], U[:, n:]):
        J = np.einsum("ji,kjl->kil", Usub, E, optimize=True).reshape(E.shape[0], -1)
        G.append(J @ J.T)
    return G


def data_space(u, y, T, sigma, precision):
    """Posterior mean and -log marginal likelihood at size N*p.

    Lam = diag(sigma) kron I_N + Phi K Phi^T with K = precision^{-1};
    returns (K Phi^T Lam^{-1} Y, Y^T Lam^{-1} Y + log|Lam|).
    """
    N, p = y.shape
    Phi = np.kron(np.eye(p), regressor(u, T))
    K = np.linalg.inv(precision)
    K = 0.5 * (K + K.T)
    Lam = Phi @ K @ Phi.T + np.kron(np.diag(sigma), np.eye(N))
    L = np.linalg.cholesky(Lam)
    Y = y.T.ravel()
    w = np.linalg.solve(L.T, np.linalg.solve(L, Y))
    f = float(Y @ w) + 2.0 * float(np.sum(np.log(np.diag(L))))
    return K @ (Phi.T @ w), f


# ---------- per-estimator checks ----------


def check_sh(res, u, y, T, weighting, epsilon) -> list:
    """Data-space oracle plus the properties every identify result must have."""
    fails = []
    p, m = y.shape[1], u.shape[1]
    pr = p * hankel_rows(T, p, m)
    lam = np.asarray(res.lam, float)
    if not (lam.shape == (3,) and np.all(lam >= 0)):
        fails.append(f"lambda {lam} not in the nonnegative cone")
    if not (0 <= res.n <= pr and res.basis.n == res.n):
        fails.append(f"n={res.n} (basis n={res.basis.n}) outside 0..p*r={pr}")
    threshold = 2.0 * np.log1p(epsilon)
    for rec in res.trace:
        if rec.accepted and rec.stage != "initial" and not rec.f_base - rec.f > threshold:
            fails.append(f"accepted step k={rec.k} gains {rec.f_base - rec.f:.3g} <= {threshold:.3g}")
    if fails:
        return fails
    G0 = np.kron(np.eye(p * m), np.linalg.inv(tc_kernel(res.nu.c, res.nu.beta, T)))
    G1, G2 = hankel_penalties(u, y, T, weighting, res.basis.U, res.n)
    precision = lam[0] * G0 + lam[1] * G1 + lam[2] * G2
    h_ref, f_ref = data_space(u, y, T, res.noise.sigma, precision)
    err = np.linalg.norm(res.h.h - h_ref) / max(np.linalg.norm(h_ref), 1e-300)
    if not err <= H_RTOL:
        fails.append(f"h differs from the data-space posterior mean by {err:.2e} (rel)")
    if not abs(res.f_final - f_ref) <= F_ATOL:
        fails.append(f"f_final {res.f_final:.10g} != data-space {f_ref:.10g}")
    return fails


def check_ss(h, nu, noise, u, y, T) -> list:
    """Spline-only estimate = ridge solution under c * min(beta^k, beta^l)."""
    N, p = y.shape
    m = u.shape[1]
    phi = regressor(u, T)
    K = np.kron(np.eye(m), tc_kernel(nu.c, nu.beta, T))
    PK = phi @ K
    ref = np.concatenate([
        PK.T @ np.linalg.solve(PK @ phi.T + noise.sigma[a] * np.eye(N), y[:, a])
        for a in range(p)
    ])
    err = np.linalg.norm(h.h - ref) / max(np.linalg.norm(ref), 1e-300)
    return [] if err <= H_RTOL else [f"SS differs from the TC ridge solution by {err:.2e} (rel)"]


def check_cv(calls, lam_best, h_best, u, y, train_fraction) -> list:
    """The chosen level minimizes a validation error recomputed by convolution.

    ``calls`` lists (n_samples, lam, h) for every estimator call made by the
    cross-validation, the final refit on all data last.
    """
    N = y.shape[0]
    n_train = int(round(N * train_fraction))
    fits = [(lam, h) for n, lam, h in calls[:-1] if n == n_train]
    n_last, lam_last, h_last = calls[-1]
    fails = []
    if n_last != N or lam_last != lam_best or h_last is not h_best:
        fails.append("returned estimate is not the refit on all data at the chosen level")
    errs = []
    for lam, h in fits:
        pred = predict(as_sequence(h.h, h.T, h.p, h.m), u)[n_train:]
        errs.append(float(np.sum((y[n_train:] - pred) ** 2)))
    if not fits:
        return fails + ["no training-split fits recorded"]
    best = min(errs)
    chosen = [e for (lam, _), e in zip(fits, errs) if lam == lam_best]
    if not chosen or chosen[0] > best * (1.0 + 1e-9):
        fails.append(f"chosen level {lam_best:.4g} does not minimize the validation error")
    return fails
