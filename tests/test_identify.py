import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from hankelid import (
    Dataset,
    FirData,
    IdentConfig,
    ImpulseResponse,
    MarglikProblem,
    NoiseModel,
    SplineHyper,
    SubspaceBasis,
    build_weights,
    estimate_noise_variance,
    fit_spline_hyperparams,
    identify,
    marglik_value_and_gradient,
    neg_log_marglik,
    posterior_mean,
)
from hankelid.benchmark import gen_scenario_run, scenario_spec
from hankelid.identify import svd_split
from hankelid.kernels import hankel_precisions, tc_precision_block
from hankelid.model import hankel_dims, regressor_block, weighted_hankel
from hankelid.sgp import sgp_minimize

from conftest import random_marglik_problem, reference_estimates, reference_mismatches

# the module, not the function of the same name that the package exports
identify_module = importlib.import_module("hankelid.identify")


def spline_only_neglik(
    Y: np.ndarray, phi: np.ndarray, noise: NoiseModel, hp: SplineHyper, m: int, T: int
) -> float:
    """Negative log marginal likelihood of the spline-only model (lam = [1,0,0])."""
    p = noise.p
    sigma = noise.sigma
    N = phi.shape[0]
    Ymat = np.asarray(Y, float).reshape(p, N)
    D_inv = tc_precision_block(hp, T)
    K_inv_block = np.kron(np.eye(m), D_inv)
    G = phi.T @ phi
    f = float(N * np.sum(np.log(sigma)))
    _, logdet_prior_block = np.linalg.slogdet(K_inv_block)
    for i in range(p):
        M_i = G / sigma[i] + K_inv_block
        L_i = la.cholesky(M_i, lower=True)
        b_i = phi.T @ Ymat[i] / sigma[i]
        w = la.cho_solve((L_i, True), b_i)
        f += float(Ymat[i] @ Ymat[i]) / sigma[i] - float(b_i @ w)
        f += 2.0 * float(np.sum(np.log(np.diag(L_i)))) - logdet_prior_block
    return f


def simulate_fir(rng, h: ImpulseResponse, N, noise_std):
    u = rng.standard_normal((N, h.m))
    phi = regressor_block(u, h.T)
    clean = phi @ h.h.reshape(h.p, h.m * h.T).T
    y = clean + noise_std * rng.standard_normal((N, h.p))
    return Dataset(u, y)


class TestFitSplineHyperparams:
    def test_recovers_decay_rate(self):
        """Geometric truth h(k) = beta0^k at high SNR.

        The kernel variance profile is c * beta^k while the squared truth
        decays like (beta0^2)^k, so the likelihood-matching decay is
        beta0^2, not beta0.
        """
        beta0, T, N = 0.8, 30, 1000
        betas = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            h = ImpulseResponse(beta0 ** np.arange(1, T + 1), T=T, m=1, p=1)
            d = simulate_fir(rng, h, N, noise_std=0.02)
            data = FirData(regressor_block(d.u, T), d.y, T)
            nu = fit_spline_hyperparams(data, estimate_noise_variance(data))
            betas.append(nu.beta)
        assert abs(np.median(betas) - beta0**2) < 0.1

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(11)
        T, N = 12, 300
        h = ImpulseResponse(0.7 ** np.arange(1, T + 1), T=T, m=1, p=1)
        d = simulate_fir(rng, h, N, noise_std=0.05)
        data = FirData(regressor_block(d.u, T), d.y, T)
        noise = estimate_noise_variance(data)
        nu = fit_spline_hyperparams(data, noise)
        scale = 0.1
        data2 = FirData(data.phi, d.y * scale, T)
        noise2 = NoiseModel(noise.sigma * scale**2)
        nu2 = fit_spline_hyperparams(data2, noise2)
        assert nu2.beta == nu.beta  # same grid point
        assert nu2.c / nu.c == pytest.approx(scale**2, rel=0.05)

    def test_degenerate_T1(self):
        rng = np.random.default_rng(2)
        d = Dataset(rng.standard_normal((50, 1)), rng.standard_normal((50, 1)))
        data = FirData(regressor_block(d.u, 1), d.y, 1)
        nu = fit_spline_hyperparams(data, estimate_noise_variance(data))
        assert 0.5 <= nu.beta <= 0.99
        assert 1e-4 <= nu.c <= 1e4

    def test_fast_path_matches_general_evaluator(self, rng):
        pb, *_ = random_marglik_problem(rng, p=2, m=1, T=5, N=25)
        hp = SplineHyper(1.4, 0.75)
        fast = spline_only_neglik(pb.data.Y, pb.data.phi, pb.noise, hp, pb.data.m, pb.data.T)
        # lam = [1, 0, 0] turns the Hankel terms off exactly
        general = neg_log_marglik(dataclasses.replace(pb, nu=hp), [1.0, 0.0, 0.0])
        assert fast == pytest.approx(general, rel=1e-8)


class TestSvdSplit:
    def test_zero_estimate_gives_identity_basis(self):
        # a 4 x 4 and a 3 x 5 Hankel matrix
        for T, p, m in ((5, 2, 1), (5, 3, 1)):
            w = build_weights(Dataset(np.ones((9, m)), np.ones((9, p))), T)
            h = ImpulseResponse(np.zeros(T * m * p), T=T, m=m, p=p)
            assert np.array_equal(svd_split(h, w), np.eye(p * hankel_dims(T, p, m).r))

    def test_low_rank_truth(self, rng):
        # h(k) = C A^(k-1) B with 2 states: the trailing directions see no energy
        A = np.array([[0.6, 0.3], [-0.3, 0.6]])
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        T = 8
        M = np.empty((T, 2, 2))
        X = B.copy()
        for k in range(T):
            M[k] = C @ X
            X = A @ X
        h = ImpulseResponse.from_matrix_sequence(M)
        w = build_weights(Dataset(np.ones((T + 9, 2)), np.ones((T + 9, 2))), T)
        U = svd_split(h, w)
        Ht = weighted_hankel(h, w)
        assert np.linalg.norm(U[:, 2:].T @ Ht) <= 1e-10 * np.linalg.norm(Ht)

    def test_eigen_path_matches_direct_svd(self, rng):
        # the signal projector U_n U_n^T does not depend on column signs
        T, p, m, n = 7, 2, 1, 3
        d = Dataset(rng.standard_normal((60, m)), rng.standard_normal((60, p)))
        w = build_weights(d, T, "empirical")
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        U = svd_split(h, w)
        U_direct = np.linalg.svd(weighted_hankel(h, w))[0][:, :n]
        assert np.allclose(U[:, :n] @ U[:, :n].T, U_direct @ U_direct.T, rtol=0, atol=1e-10)
        assert np.max(np.abs(U.T @ U - np.eye(U.shape[0]))) < 1e-10

    @staticmethod
    def random_split(rng, weighting):
        p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = int(rng.integers(2, 12))
        d = Dataset(rng.standard_normal((T * m + 40, m)), rng.standard_normal((T * m + 40, p)))
        w = build_weights(d, T, weighting)
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        return svd_split(h, w), w, T, p, m

    def test_basis_is_c_ordered_and_orthogonal(self):
        # svd_split returns LAPACK's Fortran-order U; the basis keeps it in C order
        rng = np.random.default_rng(2707)
        for k in range(60):
            U, *_ = self.random_split(rng, ("identity", "empirical")[k % 2])
            assert np.max(np.abs(U.T @ U - np.eye(U.shape[0]))) < 1e-10
            basis = SubspaceBasis(U, U.shape[0] // 2)
            assert basis.U.flags.c_contiguous and np.array_equal(basis.U, U)

    def test_memory_order_of_U_leaves_the_grams_alone(self):
        # the same U in Fortran and in C order gives G1 and G2 bit for bit;
        # without the basis's C copy, about 1 in 20 empirical-weight draws
        # gave other last bits
        rng = np.random.default_rng(2709)
        for _ in range(400):
            U, w, T, p, m = self.random_split(rng, "empirical")
            n = int(rng.integers(0, U.shape[0] + 1))
            G_f = hankel_precisions(w, SubspaceBasis(np.asfortranarray(U), n), T, p, m)
            G_c = hankel_precisions(w, SubspaceBasis(np.ascontiguousarray(U), n), T, p, m)
            assert all(np.array_equal(a, b) for a, b in zip(G_f, G_c))

    def test_precisions_ignore_column_signs(self):
        # G1 and G2 read span(U_n) only, and they come out bit for bit the
        # same when columns of U are negated, so the split needs no sign
        # convention; both bases hold a C-order copy of their U
        rng = np.random.default_rng(2708)
        for k in range(120):
            U, w, T, p, m = self.random_split(rng, ("identity", "empirical")[k % 2])
            pr = U.shape[0]
            n = int(rng.integers(0, pr + 1))
            flipped = np.ascontiguousarray(U * rng.choice([-1.0, 1.0], size=pr))
            G = hankel_precisions(w, SubspaceBasis(U, n), T, p, m)
            G_flipped = hankel_precisions(w, SubspaceBasis(flipped, n), T, p, m)
            assert all(np.array_equal(a, b) for a, b in zip(G, G_flipped))


def problem_at(
    d: Dataset, T: int, nu: SplineHyper, basis: SubspaceBasis, weighting: str = "identity"
) -> MarglikProblem:
    """The problem identify solves for basis, built from the public pieces."""
    data = FirData(regressor_block(d.u, T), d.y, T)
    weights = build_weights(d, T, weighting)
    return MarglikProblem(data, estimate_noise_variance(data), nu, weights, basis)


def n0_problem(d: Dataset, T: int, nu: SplineHyper) -> MarglikProblem:
    return problem_at(d, T, nu, SubspaceBasis.trivial(d.p * hankel_dims(T, d.p, d.m).r))


def small_pr_dataset() -> Dataset:
    """The white-noise record of test_small_pr_terminates: p*r = 2 at T = 3."""
    rng = np.random.default_rng(9)
    return Dataset(rng.standard_normal((40, 1)), rng.standard_normal((40, 1)))


@pytest.fixture(scope="module")
def small_run():
    spec = scenario_spec("S1", N=200, T=16, band_range=None, snr_range=(3, 3))
    run = gen_scenario_run(spec, 5)
    cfg = IdentConfig(T=16)
    return run, cfg, identify(run.data, cfg)


class TestIdentify:
    def test_terminates_with_bounded_n(self, small_run):
        run, cfg, res = small_run
        assert 0 <= res.n <= run.data.p * hankel_dims(16, run.data.p, run.data.m).r

    def test_accepted_steps_beat_threshold(self, small_run):
        _, cfg, res = small_run
        threshold = 2.0 * np.log1p(cfg.epsilon)
        for rec in res.trace:
            if rec.accepted and rec.stage != "initial":
                assert rec.f_base - rec.f > threshold

    def test_f_base_is_the_warm_start_value(self, small_run):
        # the first test splits the n = 0 posterior at the initial lambda and
        # starts its SGP solve there; f_base is f at that start, not where it ends
        run, cfg, res = small_run
        lam0 = res.trace[0].lam
        rec = res.trace[1]
        pb = n0_problem(run.data, cfg.T, res.nu)
        U = svd_split(posterior_mean(pb, lam0), pb.weights)
        pb_try = dataclasses.replace(pb, basis=SubspaceBasis(U, rec.n))
        assert type(rec.f_base) is float
        assert rec.f_base == neg_log_marglik(pb_try, lam0)
        assert rec.f < rec.f_base

    def test_nu_fixed_across_iterations(self, small_run):
        # single SplineHyper in the result; re-running is bit-identical
        run, cfg, res = small_run
        res2 = identify(run.data, cfg)
        assert res2.nu == res.nu
        assert np.array_equal(res2.h.h, res.h.h)

    def test_lam1_gradient_zero_at_n0(self, small_run):
        run, cfg, res = small_run
        # rebuild the n = 0 problem exactly as identify sees it
        pb = n0_problem(run.data, cfg.T, res.nu)
        lam0 = next(rec.lam for rec in res.trace if rec.stage == "initial")
        _, B, V = marglik_value_and_gradient(pb, lam0)
        assert B[1] == 0.0 and V[1] == 0.0 and (B - V)[1] == 0.0

    def test_reported_basis_reproduces_estimate(self):
        # G1, G2 rebuilt from res.basis give back h and f_final bit for bit;
        # with 0 < n < p*r the basis vectors matter, not only n
        spec = scenario_spec("S1", N=200, T=12, band_range=None, snr_range=(3, 3))
        d = gen_scenario_run(spec, 1).data
        res = identify(d, IdentConfig(T=12, weighting="empirical"))
        assert 0 < res.n < d.p * hankel_dims(12, d.p, d.m).r and res.basis.n == res.n
        pb = problem_at(d, 12, res.nu, res.basis, "empirical")
        assert np.array_equal(posterior_mean(pb, res.lam).h, res.h.h)
        assert neg_log_marglik(pb, res.lam) == res.f_final

    def test_largest_epsilon_returns_spline_hankel_n0_estimate(self, small_run):
        # the threshold 2 log1p(eps) is about 1420, beyond any gain on this run
        run, cfg, _ = small_run
        cfg_big = IdentConfig(T=cfg.T, epsilon=np.finfo(float).max)
        res = identify(run.data, cfg_big)
        assert res.n == 0
        # only the initial record is accepted
        accepted = [rec for rec in res.trace if rec.accepted]
        assert len(accepted) == 1 and accepted[0].stage == "initial"
        # and the returned h is the n = 0 posterior at the initial lambda
        h0 = posterior_mean(n0_problem(run.data, cfg.T, res.nu), res.lam)
        assert np.max(np.abs(res.h.h - h0.h)) < 1e-10 * max(1.0, np.max(np.abs(h0.h)))

    def test_small_pr_terminates(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.standard_normal((40, 1)), rng.standard_normal((40, 1)))
        res = identify(d, IdentConfig(T=3))  # pr = 2
        assert res.n <= 2

    def test_small_pr_stop_reason(self):
        # the fit of test_small_pr_terminates rejects both candidates of its
        # first split and stops there, at n = 0
        res = identify(small_pr_dataset(), IdentConfig(T=3))
        assert res.stop_reason == "no_gain" and res.n == 0
        assert [rec.accepted for rec in res.trace] == [True, False, False]

    def test_basis_exhausted_stop_reason(self, monkeypatch):
        # a solver that reports f lowered by 1e3 per signal dimension makes
        # every increment_n test accept, so n runs to p*r = 2 and the loop
        # ends there
        def rewarding_n(fun_grad, lam0, **kwargs):
            res = sgp_minimize(fun_grad, lam0, **kwargs)
            n = fun_grad.args[0].basis.n  # the problem this solve ran on
            return dataclasses.replace(res, fun=res.fun - 1e3 * n)

        monkeypatch.setattr(identify_module, "sgp_minimize", rewarding_n)
        res = identify(small_pr_dataset(), IdentConfig(T=3))
        assert res.stop_reason == "basis_exhausted" and res.n == res.basis.dim == 2
        assert res.trace[-1].accepted and res.trace[-1].stage == "increment_n"

    def test_all_zero_output(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.standard_normal((60, 1)), np.zeros((60, 1)))
        res = identify(d, IdentConfig(T=5))
        assert res.n == 0 and not np.any(res.h.h)
        with pytest.raises(ValueError, match="every output window is zero"):
            identify(d, IdentConfig(T=5, weighting="empirical"))

    def test_insufficient_data_rejected(self):
        d = Dataset(np.ones((10, 2)), np.ones((10, 1)))
        with pytest.raises(ValueError):
            identify(d, IdentConfig(T=6))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            IdentConfig(T=0)
        with pytest.raises(ValueError):
            IdentConfig(T=5, epsilon=0.0)
        with pytest.raises(ValueError, match="weighting"):
            IdentConfig(T=5, weighting="emprical")
        # an infinite threshold 2 log1p(eps) could accept no step at all
        with pytest.raises(ValueError, match="epsilon must be finite"):
            IdentConfig(T=5, epsilon=np.inf)


@pytest.fixture(scope="module", params=[(2, "identity"), (1, "empirical")],
                ids=["seed2-identity", "seed1-empirical"])
def s1_small_fit(request):
    """S1 at N=200, T=8, SNR 3 with white input: two fits that creep.

    Their new splits raise f at the warm start, so a test against f_base
    alone accepts steps that raise f: seed 2 then runs n to p*r = 6 over 73
    tests and ends at f = 2307.82 against a best accepted 2206.65, and
    seed 1 ends at its n = 0 value, 33 above its best accepted f.
    """
    seed, weighting = request.param
    spec = scenario_spec("S1", N=200, T=8, band_range=None, snr_range=(3, 3))
    cfg = IdentConfig(T=8, weighting=weighting)
    return cfg, identify(gen_scenario_run(spec, seed).data, cfg)


class TestMonotoneAcceptance:
    """An accepted step lowers f below the last accepted model's by the threshold."""

    def test_accepted_f_falls_at_every_step(self, s1_small_fit):
        cfg, res = s1_small_fit
        threshold = 2.0 * np.log1p(cfg.epsilon)
        accepted = [rec.f for rec in res.trace if rec.accepted]
        assert len(accepted) > 1
        for f_prev, f in zip(accepted, accepted[1:]):
            assert f_prev - f > threshold

    def test_ends_at_best_accepted_f(self, s1_small_fit):
        _, res = s1_small_fit
        assert res.f_final == min(rec.f for rec in res.trace if rec.accepted)

    def test_stops_for_want_of_gain(self, s1_small_fit):
        _, res = s1_small_fit
        assert res.stop_reason == "no_gain" and res.n < res.basis.dim
        assert not any(rec.accepted for rec in res.trace[-2:])


class TestReferenceEstimates:
    def test_s2_identity_fits_match_the_reference(self, tmp_path):
        # the blocks = m path; criterion 5 checks the S1 group.  The fits run
        # in a child with one BLAS thread, the thread count the file was
        # written with: the sixth seed accepts one test fewer with two threads
        tests = Path(__file__).parent
        src = str(Path(importlib.import_module("hankelid").__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "s2_identity.json"
        subprocess.run([sys.executable, str(tests / "make_reference_estimates.py"),
                        "--group", "s2_identity", "--out", str(out)], env=env, check=True)
        fits = json.loads(out.read_text())["fits"]["s2_identity"]
        assert fits.keys() == reference_estimates()["s2_identity"].keys()
        assert [bad for seed, got in fits.items()
                for bad in reference_mismatches("s2_identity", seed, got)] == []
