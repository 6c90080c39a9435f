"""Scenario generation, evaluation metrics, and the Monte-Carlo driver.

Three benchmark scenarios are provided: a fixed mildly-resonant
fourth-order 3-output system driven by band-limited noise (S1), random
5x5 systems with white input (S2), and random 5-output/10-input systems
with band-limited input (S3).  Per-channel noise levels are drawn so that
the signal-to-noise variance ratio hits a target sampled uniformly from
the scenario's SNR range.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .baselines import (cross_validate, cv_train_fraction, default_cv_grid, nn_estimate,
                        ss_estimate)
from .identify import IdentConfig, identify
from .model import Dataset, ImpulseResponse, build_hankel, hankel_dims, regressor_block


# ---------- systems ----------


@dataclass(frozen=True)
class StateSpace:
    """Strictly-proper discrete-time realization y(t) = C x(t), x+ = A x + B u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, float))
        B = np.atleast_2d(np.asarray(self.B, float))
        C = np.atleast_2d(np.asarray(self.C, float))
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n:
            raise ValueError("inconsistent state-space dimensions")
        rho = np.max(np.abs(la.eigvals(A))) if n else 0.0
        if rho >= 1.0:
            raise ValueError(f"unstable system: spectral radius {rho:.6f} >= 1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def impulse_response(self, T: int) -> ImpulseResponse:
        """Markov parameters h(k) = C A^(k-1) B, k = 1..T."""
        M = np.empty((T, self.p, self.m))
        X = self.B.copy()
        for k in range(T):
            M[k] = self.C @ X
            X = self.A @ X
        return ImpulseResponse.from_matrix_sequence(M)

    def simulate(self, u: np.ndarray) -> np.ndarray:
        """Noise-free output for a time-major input (zero initial state)."""
        u = np.atleast_2d(np.asarray(u, float))
        N = u.shape[0]
        y = np.empty((N, self.p))
        x = np.zeros(self.order)
        for t in range(N):
            y[t] = self.C @ x
            x = self.A @ x + self.B @ u[t]
        return y


def s1_system() -> StateSpace:
    """The fixed fourth-order benchmark system (two resonant modes)."""
    A = la.block_diag(
        np.array([[0.8, 0.5], [-0.5, 0.8]]),
        np.array([[0.2, 0.9], [-0.9, 0.2]]),
    )
    B = np.array([[1.0], [0.0], [2.0], [0.0]])
    C = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.1, 0.0, 0.1], [20.0, 0.0, 2.5, 0.0]])
    return StateSpace(A, B, C)


def gen_random_system(
    p: int, m: int, max_order: int, radius: float, seed
) -> StateSpace:
    """Random stable system: block-diagonal poles under an orthogonal similarity.

    The order is uniform on 1..max_order; pole moduli are uniform on
    [0, radius] (complex-conjugate pairs, plus one signed real pole when
    the order is odd); B and C have standard Gaussian entries.
    """
    if not (0.0 < radius < 1.0):
        raise ValueError("pole radius must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(1, max_order + 1))
        blocks = []
        n_pairs, n_real = divmod(n, 2)
        for _ in range(n_pairs):
            rad = rng.uniform(0.0, radius)
            ang = rng.uniform(0.0, np.pi)
            co, si = rad * np.cos(ang), rad * np.sin(ang)
            blocks.append(np.array([[co, si], [-si, co]]))
        if n_real:
            pole = rng.uniform(0.0, radius) * rng.choice([-1.0, 1.0])
            blocks.append(np.array([[pole]]))
        A0 = la.block_diag(*blocks)
        Q = la.qr(rng.standard_normal((n, n)))[0]
        A = Q.T @ A0 @ Q
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        if np.max(np.abs(la.eigvals(A))) <= radius + 1e-12:
            return StateSpace(A, B, C)


# ---------- inputs and noise ----------


def lowpass_input(band_hi: float, N: int, seed) -> np.ndarray:
    """Unit-variance low-pass filtered white Gaussian noise.

    Hamming-windowed linear-phase FIR of order 64 with cutoff band_hi
    (normalized to Nyquist), then rescaled to unit sample variance.
    """
    import scipy.signal  # here, not at module level: it dominates import time

    if not (0.0 < band_hi <= 1.0):
        raise ValueError("band_hi must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(N)
    taps = scipy.signal.firwin(65, min(band_hi, 1.0 - 1e-9))
    x = scipy.signal.lfilter(taps, 1.0, white)
    std = np.std(x)
    return x / std if std > 0 else x


@dataclass(frozen=True)
class ScenarioSpec:
    """Monte-Carlo scenario description."""

    tag: str  # "S1" | "S2" | "S3"
    N: int
    p: int
    m: int
    snr_range: tuple = (1.0, 4.0)
    band_range: tuple | None = (0.8, 1.0)  # None means raw white input
    T: int = 80
    seed: int = 0
    N_val: int = 500
    max_order: int = 10
    pole_radius: float = 0.85

    def __post_init__(self):
        if self.N < 1 or self.N_val < 1:
            raise ValueError("N and N_val must be >= 1")
        if not (0.0 < self.snr_range[0] <= self.snr_range[1]):
            raise ValueError("SNR range must be positive")
        if self.tag == "S1" and (self.p, self.m) != (3, 1):
            raise ValueError(f"S1 is the fixed 3-output, 1-input system, not p={self.p}, m={self.m}")


def scenario_spec(tag: str, N: int | None = None, seed: int = 0, **overrides) -> ScenarioSpec:
    """Standard scenario parameters; N defaults to the middle data length."""
    presets = {
        "S1": dict(N=500, p=3, m=1, T=80, band_range=(0.8, 1.0)),
        "S2": dict(N=500, p=5, m=5, T=50, band_range=None),
        "S3": dict(N=800, p=5, m=10, T=50, band_range=(0.8, 1.0)),
    }
    if tag not in presets:
        raise ValueError(f"unknown scenario {tag!r}; expected one of {sorted(presets)}")
    kw = presets[tag]
    if N is not None:
        kw["N"] = N
    kw.update(overrides)
    return ScenarioSpec(tag=tag, seed=seed, **kw)


def _gen_inputs(spec: ScenarioSpec, N: int, rng: np.random.Generator) -> np.ndarray:
    u = np.empty((N, spec.m))
    for j in range(spec.m):
        if spec.band_range is None:
            u[:, j] = rng.standard_normal(N)
        else:
            band = rng.uniform(*spec.band_range)
            u[:, j] = lowpass_input(band, N, rng)
    return u


def _add_noise(y_clean: np.ndarray, snr: np.ndarray, rng: np.random.Generator):
    """Per-channel white noise with variance var(y_i)/snr_i."""
    noise_var = np.var(y_clean, axis=0) / snr
    noise_var = np.maximum(noise_var, 1e-12)
    e = rng.standard_normal(y_clean.shape) * np.sqrt(noise_var)
    return y_clean + e, noise_var


@dataclass(frozen=True)
class ScenarioRun:
    """One Monte-Carlo draw: estimation data, validation data, and the truth."""

    data: Dataset
    validation: Dataset
    validation_clean: np.ndarray
    system: StateSpace
    snr: np.ndarray
    noise_var: np.ndarray


def gen_scenario_run(spec: ScenarioSpec, seed) -> ScenarioRun:
    """Generate one complete run; bit-reproducible for a given seed."""
    rng = np.random.default_rng(seed)
    if spec.tag == "S1":
        sys = s1_system()
    elif spec.tag in ("S2", "S3"):
        sys = gen_random_system(spec.p, spec.m, spec.max_order, spec.pole_radius, rng)
    else:
        raise ValueError(f"unknown scenario {spec.tag!r}")
    snr = rng.uniform(spec.snr_range[0], spec.snr_range[1], size=spec.p)
    u = _gen_inputs(spec, spec.N, rng)
    y_clean = sys.simulate(u)
    y, noise_var = _add_noise(y_clean, snr, rng)
    u_val = _gen_inputs(spec, spec.N_val, rng)
    y_val_clean = sys.simulate(u_val)
    y_val, _ = _add_noise(y_val_clean, snr, rng)
    return ScenarioRun(
        data=Dataset(u, y),
        validation=Dataset(u_val, y_val),
        validation_clean=y_val_clean,
        system=sys,
        snr=snr,
        noise_var=noise_var,
    )


# ---------- metrics ----------


def cod(a: np.ndarray, b: np.ndarray) -> float:
    """Coefficient of determination 100 * (1 - sqrt(RSS/TSS)) between series."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("series must have equal length >= 2")
    tss = float(np.sum((a - a.mean()) ** 2))
    if tss == 0.0:
        raise ValueError("reference series is constant; COD undefined")
    rss = float(np.sum((a - b) ** 2))
    return 100.0 * (1.0 - np.sqrt(rss / tss))


def _truth_sequence(h_true, N_c: int) -> np.ndarray:
    """True Markov parameters as an (N_c, p, m) array."""
    if isinstance(h_true, StateSpace):
        return h_true.impulse_response(N_c).as_matrix_sequence()
    M = h_true.as_matrix_sequence()
    if M.shape[0] >= N_c:
        return M[:N_c]
    pad = np.zeros((N_c - M.shape[0],) + M.shape[1:])
    return np.concatenate([M, pad], axis=0)


def fit_metric(h_true, h_est: ImpulseResponse, N_c: int = 1000) -> float:
    """Average per-channel COD over N_c impulse-response samples.

    The estimate is zero-padded beyond its FIR length; the truth is
    extended through its state-space realization when one is given.
    """
    M_true = _truth_sequence(h_true, N_c)
    M_est = _truth_sequence(h_est, N_c)
    p, m = M_true.shape[1], M_true.shape[2]
    if M_est.shape[1:] != (p, m):
        raise ValueError("channel counts of truth and estimate differ")
    return float(
        np.mean([cod(M_true[:, i, j], M_est[:, i, j]) for i in range(p) for j in range(m)])
    )


def normalized_hankel_sv(h: ImpulseResponse) -> np.ndarray:
    """Hankel singular values scaled so the largest equals one."""
    s = la.svdvals(build_hankel(h))
    top = s[0] if s.size and s[0] > 0 else 1.0
    return s / top


def sv_errors(h_true, h_est: ImpulseResponse, n_bar: int | None = None):
    """Signal/noise singular-value errors on the normalized Hankel spectra.

    Returns (sum_{i<=n_bar} |s_i(true) - s_i(est)|, sum_{i>n_bar} s_i(est)).
    A StateSpace truth is compared through its impulse response of length
    h_est.T, and its order is the default n_bar.  n_bar must lie in
    0..p*r, the length of the spectrum.
    A zero estimate has no normalizable spectrum; its values are taken as
    zero and the degenerate case is flagged with a warning.
    """
    import warnings

    if isinstance(h_true, StateSpace):
        n_bar = h_true.order if n_bar is None else n_bar
        h_true = h_true.impulse_response(h_est.T)
    elif n_bar is None:
        raise ValueError("n_bar is required when the truth is not a StateSpace")
    if h_true.T != h_est.T:
        raise ValueError(f"truth has T={h_true.T}, estimate has T={h_est.T}")
    if n_bar < 0:
        raise ValueError(f"n_bar={n_bar} must be >= 0")
    s_true = normalized_hankel_sv(h_true)
    if n_bar > s_true.size:
        raise ValueError(f"n_bar={n_bar} exceeds the spectrum length {s_true.size}")
    if not np.any(h_est.h):
        warnings.warn("zero estimate: normalized spectrum undefined, treated as zero")
        return float(np.sum(s_true[:n_bar])), 0.0
    s_est = normalized_hankel_sv(h_est)
    d_signal = float(np.sum(np.abs(s_true[:n_bar] - s_est[:n_bar])))
    d_noise = float(np.sum(s_est[n_bar:]))
    return d_signal, d_noise


# ---------- estimators registry ----------


def make_estimators(spec: ScenarioSpec, tags):
    """Map estimator tags to callables Dataset -> ImpulseResponse.

    Raises ValueError when no tag is given and KeyError on an unknown tag.
    """
    cfg = IdentConfig(T=spec.T)

    def est_sh(d: Dataset) -> ImpulseResponse:
        return identify(d, cfg).h

    def est_ss(d: Dataset) -> ImpulseResponse:
        return ss_estimate(d, spec.T)

    def make_nn(use_weighted: bool):
        def est_nn(d: Dataset) -> ImpulseResponse:
            grid = default_cv_grid(int(round(d.N * cv_train_fraction(spec.tag))), spec.tag)
            _, h = cross_validate(
                d, grid, lambda dd, lam: nn_estimate(dd, spec.T, lam, use_weighted)
            )
            return h

        return est_nn

    registry = {
        "SH": est_sh,
        "SS": est_ss,
        "NN": make_nn(False),
        "NNW": make_nn(True),
    }
    if not tags:
        raise ValueError(f"no estimator tags given; valid tags: {sorted(registry)}")
    unknown = [t for t in tags if t not in registry]
    if unknown:
        raise KeyError(
            f"unknown estimator tags {unknown}; valid tags: {sorted(registry)}"
        )
    return {t: registry[t] for t in tags}


# ---------- Monte-Carlo driver ----------


@dataclass(frozen=True)
class RunMetrics:
    """Per-run, per-estimator evaluation record."""

    run: int
    seed: int
    estimator: str
    fit: float | None
    cod_outputs: tuple | None  # one-step prediction COD per output channel
    d_signal: float | None
    d_noise: float | None
    wall_time_s: float
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class MetricsReport:
    """All per-run records plus aggregate percentiles."""

    spec: ScenarioSpec
    records: tuple
    n_runs: int
    failures: dict

    def aggregates(self) -> list[dict]:
        """Median / 5th / 95th percentile rows per (estimator, metric)."""
        rows = []
        by_est: dict[str, list[RunMetrics]] = {}
        for rec in self.records:
            by_est.setdefault(rec.estimator, []).append(rec)
        for est, recs in by_est.items():
            ok = [r for r in recs if not r.failed]
            metrics = {
                "fit": [r.fit for r in ok],
                "cod": [c for r in ok if r.cod_outputs for c in r.cod_outputs],
                "d_signal": [r.d_signal for r in ok],
                "d_noise": [r.d_noise for r in ok],
                "time_s": [r.wall_time_s for r in ok],
            }
            for name, vals in metrics.items():
                vals = [v for v in vals if v is not None]
                if not vals:
                    continue
                p5, med, p95 = np.percentile(vals, [5, 50, 95])
                rows.append(
                    dict(estimator=est, metric=name, median=float(med),
                         p5=float(p5), p95=float(p95), n=len(vals))
                )
        return rows


def evaluate_run(run: ScenarioRun, spec: ScenarioSpec, h: ImpulseResponse):
    """Compute (fit, per-output COD, d_signal, d_noise) for one estimate.

    Prediction COD is measured against the noise-free validation output:
    with an output-error model the one-step predictor is the simulated
    response to the validation input.  The singular-value errors are None
    when the true order exceeds the min(p*r, m*c) singular values of the
    Hankel matrix.
    """
    r, c = hankel_dims(spec.T, spec.p, spec.m)
    fit = fit_metric(run.system, h)
    pred = h.predict(regressor_block(run.validation.u, h.T))
    cods = tuple(
        cod(run.validation_clean[:, i], pred[:, i]) for i in range(spec.p)
    )
    if run.system.order > min(spec.p * r, spec.m * c):
        return fit, cods, None, None
    d_signal, d_noise = sv_errors(run.system, h)
    return fit, cods, d_signal, d_noise


def run_monte_carlo(spec: ScenarioSpec, estimators: dict, runs: int) -> MetricsReport:
    """Evaluate every estimator on `runs` independently seeded datasets.

    Per-run seeds are spawned deterministically from the spec's master
    seed.  The runs go one after another: scipy's LAPACK wrappers hold the
    GIL, so threads would only serialize the fits and inflate each
    ``wall_time_s``.  Estimator failures are recorded and excluded from
    the aggregates.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(spec.seed).spawn(runs)]
    records = []
    for index, seed in enumerate(seeds):
        run = gen_scenario_run(spec, seed)
        for tag, est in estimators.items():
            t0 = time.perf_counter()
            try:
                h = est(run.data)
                wall = time.perf_counter() - t0
                fit, cods, ds, dn = evaluate_run(run, spec, h)
                error = None
            except Exception as exc:  # recorded, not propagated
                wall = time.perf_counter() - t0
                fit = cods = ds = dn = None
                error = f"{type(exc).__name__}: {exc}"
            records.append(
                RunMetrics(run=index, seed=seed, estimator=tag, fit=fit, cod_outputs=cods,
                           d_signal=ds, d_noise=dn, wall_time_s=wall,
                           failed=error is not None, error=error)
            )
    failures = dict(Counter(rec.estimator for rec in records if rec.failed))
    return MetricsReport(spec=spec, records=tuple(records), n_runs=runs, failures=failures)
