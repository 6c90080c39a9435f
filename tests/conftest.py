import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hankelid import (
    Dataset,
    FirData,
    MarglikProblem,
    NoiseModel,
    SplineHyper,
    SubspaceBasis,
    build_weights,
)
from hankelid.baselines import CvGrid, cross_validate, cv_train_fraction, default_cv_grid, nn_admm
from hankelid.benchmark import gen_scenario_run, scenario_spec
from hankelid.kernels import _hankel_weighted_gram
from hankelid.linalg import symmetrize
from hankelid.model import _write_dataset, hankel_index_map, regressor_block


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def random_marglik_problem(rng, p=None, m=None, T=None, N=None, identity_weights=True):
    """Small random instance of the marginal-likelihood problem.

    Dimensions default to draws with p, m <= 2, T <= 8, N <= 30.
    Returns (problem, lam) with lam strictly positive.
    """
    p = p if p is not None else int(rng.integers(1, 3))
    m = m if m is not None else int(rng.integers(1, 3))
    T = T if T is not None else int(rng.integers(2, 9))
    N = N if N is not None else int(rng.integers(T * m + 5, 31))
    u = rng.standard_normal((N, m))
    y = rng.standard_normal((N, p))
    weights = build_weights(Dataset(u, y), T, "identity" if identity_weights else "empirical")
    pr = weights.W2.shape[0]
    basis = SubspaceBasis(random_orthogonal(rng, pr), int(rng.integers(0, pr + 1)))
    hp = SplineHyper(c=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(0.5, 0.95)))
    noise = NoiseModel(rng.uniform(0.2, 2.0, size=p))
    pb = MarglikProblem(FirData(regressor_block(u, T), y, T), noise, hp, weights, basis)
    lam = rng.uniform(0.1, 2.0, size=3)
    return pb, lam


def expand_blocks(G: np.ndarray, p: int, blocks: int) -> np.ndarray:
    """The full precision I_blocks kron G in h's own stacking, exactly.

    G is one input channel's block over coefficients (a, k), a the output;
    coefficient (a, b, k) of h sits at (a*m + b)*T + k, so block b fills
    the rows and columns of input b, and the entries between inputs are 0.
    """
    w = G.shape[0] // p
    full = np.zeros((p, blocks, w, p, blocks, w))
    for b in range(blocks):
        full[:, b, :, :, b, :] = G.reshape(p, w, p, w)
    return full.reshape(p * blocks * w, p * blocks * w)


def full_precisions(pb: MarglikProblem) -> tuple:
    """G0, G1, G2 of a problem as full T*m*p square matrices."""
    return tuple(expand_blocks(G, pb.data.p, pb.blocks) for G in (pb.G0, pb.G1, pb.G2))


def basis_gram(weights, U, T: int, p: int, m: int) -> np.ndarray:
    """E*(U U^T)E at full size (T*m*p square), by the package's FFT assembler."""
    W2U = weights.W2 @ U
    return _hankel_weighted_gram(W2U @ W2U.T, weights.W1.T @ weights.W1, T, p, m)


def tc_kernel(hp: SplineHyper, T: int) -> np.ndarray:
    """First-order stable-spline kernel, entry (k, l) = c * min(beta^k, beta^l)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    k = np.arange(1, T + 1)
    return hp.c * np.power(hp.beta, np.maximum(k[:, None], k[None, :]))


def build_regressor(d: Dataset, T: int) -> np.ndarray:
    """Full regressor Phi (N*p x T*m*p): p diagonal copies of the block phi."""
    phi = regressor_block(d.u, T)
    return np.kron(np.eye(d.p), phi)


def write_dataset_csv(path, d: Dataset) -> None:
    """Write d in the ``t,u1..um,y1..yp`` format, as ``hankelid simulate`` does."""
    with open(path, "w", newline="") as fh:
        _write_dataset(fh, d)


def hankel_permutation(T: int, p: int, m: int) -> sp.csr_matrix:
    """Sparse 0/1 selection matrix P with vec(H(h)^T) = P h.

    vec stacks columns, so vec(H^T) enumerates H row by row; P has shape
    (r*p*c*m, T*m*p) with exactly one unit entry per row.
    """
    idx = hankel_index_map(T, p, m).ravel()
    n_rows = idx.size
    return sp.csr_matrix(
        (np.ones(n_rows), (np.arange(n_rows), idx)),
        shape=(n_rows, T * m * p),
    )


def q_matrix(basis: SubspaceBasis, lam1: float, lam2: float) -> np.ndarray:
    """Subspace weighting lam1 * P_signal + lam2 * P_noise (sum of projections)."""
    Un = basis.U_n
    Up = basis.U_n_perp
    return symmetrize(lam1 * (Un @ Un.T) + lam2 * (Up @ Up.T))


# ---------- reference estimates ----------

REFERENCE_ESTIMATES = Path(__file__).parent / "data" / "reference_estimates.json"


def criterion5_seeds(count: int) -> list:
    """The first ``count`` dataset seeds of acceptance criterion 5."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(20250808).spawn(count)]


# the fits the reference file records, each group as (scenario_spec
# arguments, IdentConfig arguments, seed count): criterion 5's protocol,
# white unit-variance input at SNR 2, on S1 and on the 5x5 S2, whose
# identity weighting factors the prior one input channel at a time
REFERENCE_FITS = {
    "criterion5": (dict(tag="S1", N=500, band_range=None, snr_range=(2.0, 2.0)),
                   dict(T=80, weighting="empirical"), 20),
    "s2_identity": (dict(tag="S2", N=500, band_range=None, snr_range=(2.0, 2.0)),
                    dict(T=5, weighting="identity"), 6),
}


# SS on criterion 5's datasets, and NN and NNW with cross-validation on the
# first dataset of the s1-baselines benchmark workload (S1 at T = 40, the
# published grid thinned to every 12th value)
NN_CV_SPEC = dict(tag="S1", N=500, T=40, band_range=None, snr_range=(2.0, 2.0))
NN_CV_STRIDE = 12


def estimate_summary(res) -> dict:
    """What the reference file keeps of one identify result."""
    return dict(n=res.n, stop_reason=res.stop_reason,
                accepted=sum(rec.accepted for rec in res.trace), f_final=res.f_final,
                lam=[float(x) for x in res.lam], h_norm=float(np.linalg.norm(res.h.h)))


def ss_summary(h, nu, noise) -> dict:
    """What the reference file keeps of one ss_estimate(..., return_details=True)."""
    return dict(c=nu.c, beta=nu.beta, sigma=[float(s) for s in noise.sigma],
                h_norm=float(np.linalg.norm(h.h)))


def nn_cv_summaries() -> dict:
    """NN and NNW cross-validated on NN_CV_SPEC's first dataset, as the benchmark runs them.

    Per estimator: the chosen lambda, [lambda, n_iter, converged] of every
    nn_admm call (the grid in order, then the refit) and the refit's ||hhat||.
    """
    spec = scenario_spec(**NN_CV_SPEC)
    d = gen_scenario_run(spec, criterion5_seeds(1)[0]).data
    frac = cv_train_fraction(spec.tag)
    published = default_cv_grid(int(round(d.N * frac)), spec.tag)
    grid = CvGrid(published.candidates[::NN_CV_STRIDE], train_fraction=frac)
    out = {}
    for tag in ("NN", "NNW"):
        fits = []

        def estimator(dd, lam):
            # nn_estimate's call, keeping the ADMM result
            weights = build_weights(dd, spec.T, "empirical") if tag == "NNW" else None
            res = nn_admm(FirData(regressor_block(dd.u, spec.T), dd.y, spec.T), lam,
                          weights=weights)
            fits.append([float(lam), res.n_iter, res.converged])
            return res.h

        lam_best, h = cross_validate(d, grid, estimator)
        out[tag] = dict(lam_best=lam_best, fits=fits, h_norm=float(np.linalg.norm(h.h)))
    return out


# Every field must equal the reference except these, which must agree within
# (rtol, atol).  Between one OpenBLAS thread and two, on the 20 criterion-5
# fits and the first 5 S2 fits, the largest gaps were 6.4e-9 in f_final,
# 9.8e-7 relative in a lambda component above 1e-10, 3.7e-17 absolute in one
# below, and 3.1e-9 relative in ||hhat||; each bound is about ten times its
# gap.  (The sixth S2 fit accepts 20 tests with one thread and 19 with two,
# so its group runs with one thread.)  The baselines' records came out bit
# for bit equal under both thread counts, except the NN CV fits' ||hhat||,
# 1.5e-16 relative apart; BASELINE_RTOL is a floor of a few thousand ulps
# instead of ten times a zero gap.  It still fails by four orders of
# magnitude when the spline precision is scaled by 1 + 1e-6, which moves
# SS's ||hhat|| by 2.8e-8 to 5.9e-8 relative.
F_ATOL = 1e-7
LAM_RTOL, LAM_ATOL = 1e-5, 1e-15
H_NORM_RTOL = 1e-7
BASELINE_RTOL = 1e-12
SH_TOLERANCES = dict(f_final=(0.0, F_ATOL), lam=(LAM_RTOL, LAM_ATOL), h_norm=(H_NORM_RTOL, 0.0))
BASELINE_TOLERANCES = {key: (BASELINE_RTOL, 0.0) for key in ("c", "beta", "sigma", "h_norm")}
REFERENCE_TOLERANCES = dict(criterion5=SH_TOLERANCES, s2_identity=SH_TOLERANCES,
                            ss=BASELINE_TOLERANCES, nn_cv=BASELINE_TOLERANCES)


@cache
def reference_estimates() -> dict:
    return json.loads(REFERENCE_ESTIMATES.read_text())["fits"]


def reference_mismatches(group: str, key, got: dict) -> list:
    """How the summary ``got`` of one fit departs from its reference record."""
    ref = reference_estimates()[group][str(key)]
    tolerances = REFERENCE_TOLERANCES[group]
    out = []
    for name, want in ref.items():
        if name in tolerances:
            rtol, atol = tolerances[name]
            ok = np.all(np.abs(np.subtract(got[name], want)) <= rtol * np.abs(want) + atol)
        else:
            ok = got[name] == want
        if not ok:
            out.append(f"{group} {key}: {name} {got[name]!r}, reference {want!r}")
    return out
