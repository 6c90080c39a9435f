"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The Monte-Carlo reproduction (criterion 5) is the slow
one (30-40 s on 2 cores); it also compares its 20 fits with
tests/data/reference_estimates.json.
"""

import dataclasses
import time
from functools import partial
from unittest import mock

import numpy as np

from hankelid import (
    IdentConfig,
    ImpulseResponse,
    identify,
    marglik_value_and_gradient,
    neg_log_marglik,
    nn_admm,
    posterior_mean,
    sgp_minimize,
    ss_estimate,
)
from hankelid.benchmark import (cod, fit_metric, gen_random_system, gen_scenario_run,
                                normalized_hankel_sv, scenario_spec)
from hankelid.model import (Dataset, FirData, build_hankel, hankel_dims, regressor_block,
                            weighted_hankel)
from hankelid.sgp import SgpParams

from conftest import (build_regressor, estimate_summary, full_precisions, hankel_permutation,
                      q_matrix, random_marglik_problem, reference_mismatches, ss_summary)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


def criterion1_problems(n_instances=50, seed=101):
    rng = np.random.default_rng(seed)
    return [random_marglik_problem(rng) for _ in range(n_instances)]


class TestCriterion1Gradient:
    def test_gradient_matches_finite_differences(self):
        t0 = time.perf_counter()
        worst = 0.0
        split_ok = True
        for pb, lam, *_ in criterion1_problems():
            _, B, V = marglik_value_and_gradient(pb, lam)
            grad = B - V
            split_ok &= bool(np.all(B >= 0) and np.all(V >= 0))
            fd = np.empty(3)
            for i in range(3):
                step = 1e-5 * (1.0 + abs(lam[i]))
                hi, lo = lam.copy(), lam.copy()
                hi[i] += step
                lo[i] -= step
                fd[i] = (neg_log_marglik(pb, hi) - neg_log_marglik(pb, lo)) / (2 * step)
            worst = max(worst, np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10))
        elapsed = time.perf_counter() - t0
        report(
            "criterion 1 (gradient correctness)",
            worst < 1e-5 and split_ok and elapsed < 30.0,
            f"max rel err {worst:.2e}, split ok {split_ok}, {elapsed:.1f}s",
        )


class TestCriterion2Identities:
    def test_trace_identity(self, rng):
        worst = 0.0
        for _ in range(100):
            p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            T = int(rng.integers(2, 8))
            pb, _ = random_marglik_problem(rng, p=p, m=m, T=T, identity_weights=False)
            basis, weights = pb.basis, pb.weights
            lam1, lam2 = rng.uniform(0.1, 3.0, size=2)
            h = rng.standard_normal(pb.G0.shape[0])
            hi = ImpulseResponse(h, T=T, m=m, p=p)
            Ht = weighted_hankel(hi, weights)
            Q = q_matrix(basis, lam1, lam2)
            lhs = float(np.trace(Ht @ Ht.T @ Q))
            # independent path: dense Kronecker product with the sparse P
            P = hankel_permutation(T, p, m).toarray()
            W1, W2 = weights.W1, weights.W2
            dense = P.T @ np.kron(W2 @ Q @ W2.T, W1.T @ W1) @ P
            rhs_kron = float(h @ dense @ h)
            rhs_built = float(h @ (lam1 * pb.G1 + lam2 * pb.G2) @ h)
            scale = max(1.0, abs(lhs))
            worst = max(worst, abs(lhs - rhs_kron) / scale, abs(lhs - rhs_built) / scale)
        report("criterion 2a (trace identity)", worst < 1e-10, f"max err {worst:.2e}")

    def test_nuclear_norm_special_case(self, rng):
        worst = 0.0
        for _ in range(100):
            p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            T = int(rng.integers(2, 8))
            pb, *_ = random_marglik_problem(rng, p=p, m=m, T=T, identity_weights=True)
            lam_star = float(rng.uniform(0.1, 5.0))
            h = rng.standard_normal(T * m * p)
            hi = ImpulseResponse(h, T=T, m=m, p=p)
            _, G1, G2 = full_precisions(pb)
            penalty = float(h @ (lam_star * (G1 + G2)) @ h)
            s = np.linalg.svd(build_hankel(hi), compute_uv=False)
            target = lam_star * float(np.sum(s**2))
            worst = max(worst, abs(penalty - target) / max(1.0, abs(target)))
        report("criterion 2b (nuclear-norm case)", worst < 1e-10, f"max err {worst:.2e}")

    def test_posterior_equals_tikhonov(self, rng):
        worst = 0.0
        for _ in range(20):
            pb, lam, *_ = random_marglik_problem(rng)
            h = posterior_mean(pb, lam).h
            Phi = np.kron(np.eye(pb.data.p), pb.data.phi)
            G0, G1, G2 = full_precisions(pb)
            K_inv = lam[0] * G0 + lam[1] * G1 + lam[2] * G2
            L = np.linalg.cholesky(K_inv)
            st_half = np.repeat(1.0 / np.sqrt(pb.noise.sigma), pb.data.N)
            A = np.vstack([Phi * st_half[:, None], L.T])
            b = np.concatenate([pb.data.Y * st_half, np.zeros(K_inv.shape[0])])
            h_oracle = np.linalg.lstsq(A, b, rcond=None)[0]
            worst = max(
                worst,
                np.max(np.abs(h - h_oracle)) / max(1.0, np.max(np.abs(h_oracle))),
            )
        report("criterion 2c (posterior = Tikhonov)", worst < 1e-8, f"max err {worst:.2e}")


class TestCriterion3Sgp:
    @staticmethod
    def quadratic_split(target):
        t = np.asarray(target, dtype=float)

        def fun_grad(lam):
            r = lam - t
            return float(r @ r), 2.0 * lam + 2.0 * np.maximum(-t, 0.0), 2.0 * np.maximum(t, 0.0)

        return fun_grad

    def test_quadratic_test_problems(self):
        ok = True
        detail = []
        for target, optimum in [
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            ([-1.0, 2.0, 3.0], [0.0, 2.0, 3.0]),
            ([5.0, -2.0, 0.5], [5.0, 0.0, 0.5]),
        ]:
            res = sgp_minimize(self.quadratic_split(target), np.zeros(3))
            err = float(np.max(np.abs(res.lam - optimum)))
            monotone = bool(np.all(np.diff(res.history) <= 0))
            ok &= err < 1e-6 and monotone
            detail.append(f"err {err:.1e} monotone {monotone}")
        report("criterion 3 (quadratic problems)", ok, "; ".join(detail))

    def test_terminates_on_marglik_problems_and_beats_plain_pg(self):
        # plain projected gradient (unit step and scaling bounds) gets ten
        # times SGP's iterations on each problem and must still not reach a
        # lower f than SGP
        params = SgpParams()  # the published working set
        all_terminated = True
        sgp_no_worse = 0
        problems = criterion1_problems()
        for pb, *_ in problems:
            fun, fun_grad = partial(neg_log_marglik, pb), partial(marglik_value_and_gradient, pb)
            lam0 = np.ones(3)
            res = sgp_minimize(fun_grad, lam0, params, fun=fun)
            all_terminated &= res.converged
            pg_params = dataclasses.replace(params, alpha_min=1.0, alpha_max=1.0, L_min=1.0,
                                            L_max=1.0)
            with mock.patch.object(SgpParams, "max_iter", 10 * res.n_iter):
                res_pg = sgp_minimize(fun_grad, lam0, pg_params, fun=fun)
            sgp_no_worse += bool(np.min(res_pg.history) > res.fun - 1e-9 * abs(res.fun))
        report(
            "criterion 3 (SGP on marginal likelihoods)",
            all_terminated and sgp_no_worse >= 0.9 * len(problems),
            f"all converged {all_terminated}; PG capped at 10x SGP's iterations ends above "
            f"SGP's f on {sgp_no_worse}/{len(problems)}",
        )


class TestCriterion4Algorithm1:
    def test_termination_and_acceptance_structure(self):
        ok = True
        details = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sys = gen_random_system(2, 1, 4, 0.8, rng)
            N, T = 120, 8
            u = rng.standard_normal((N, 1))
            y_clean = sys.simulate(u)
            noise = 0.3 * np.std(y_clean, axis=0) * rng.standard_normal((N, 2))
            d = Dataset(u, y_clean + noise)
            cfg = IdentConfig(T=T)
            res = identify(d, cfg)
            pr = d.p * hankel_dims(T, d.p, d.m).r
            threshold = 2.0 * np.log1p(cfg.epsilon)
            accepted_ok = all(
                rec.f_base - rec.f > threshold
                for rec in res.trace
                if rec.accepted and rec.stage != "initial"
            )
            ok &= res.n <= pr and accepted_ok
            details.append(res.n)
        report(
            "criterion 4 (Algorithm-1 termination)",
            ok,
            f"final n per system: {details}",
        )

    def test_largest_epsilon_returns_n0_estimate(self):
        # the limit epsilon -> infinity at the largest finite epsilon, whose
        # threshold 2 log1p(eps) is about 1420 (an infinite one is rejected)
        rng = np.random.default_rng(4242)
        sys = gen_random_system(2, 1, 3, 0.8, rng)
        N, T = 100, 8
        u = rng.standard_normal((N, 1))
        y = sys.simulate(u) + 0.2 * rng.standard_normal((N, 2))
        d = Dataset(u, y)
        res = identify(d, IdentConfig(T=T, epsilon=np.finfo(float).max))
        accepted = [rec for rec in res.trace if rec.accepted]
        ok = res.n == 0 and len(accepted) == 1 and accepted[0].stage == "initial"
        report("criterion 4 (epsilon -> infinity)", ok, f"n={res.n}")


class TestCriterion5DeskScaleS1:
    def test_s1_prediction_cod(self):
        # Table-1 protocol at desk scale: white unit-variance input, SNR 2,
        # N = 500, 20 Monte-Carlo runs, one-step prediction COD per output.
        # The weighted (normalized) Hankel variant is the published method.
        spec = scenario_spec("S1", N=500, band_range=None, snr_range=(2.0, 2.0))
        seeds = [
            int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(20250808).spawn(20)
        ]
        cfg = IdentConfig(T=80, weighting="empirical")
        t0 = time.perf_counter()
        sh_cods, ss_cods, mismatches = [], [], []
        for sd in seeds:
            run = gen_scenario_run(spec, sd)
            res = identify(run.data, cfg)
            mismatches += reference_mismatches("criterion5", sd, estimate_summary(res))
            h_ss, nu, noise = ss_estimate(run.data, 80, return_details=True)
            mismatches += reference_mismatches("ss", sd, ss_summary(h_ss, nu, noise))
            from hankelid.benchmark import evaluate_run

            _, cods_sh, _, _ = evaluate_run(run, spec, res.h)
            _, cods_ss, _, _ = evaluate_run(run, spec, h_ss)
            sh_cods += list(cods_sh)
            ss_cods += list(cods_ss)
        elapsed = time.perf_counter() - t0
        med_sh = float(np.median(sh_cods))
        med_ss = float(np.median(ss_cods))
        report(
            "criterion 5 (desk-scale S1 reproduction)",
            med_sh >= 84.0 and med_sh >= med_ss and elapsed < 7200.0,
            f"SH median COD {med_sh:.2f} (paper 91.5), SS {med_ss:.2f}, {elapsed:.0f}s",
        )
        # the same estimates as tests/data/reference_estimates.json
        assert mismatches == []


class TestCriterion6HankelRank:
    def test_rank_reveals_mcmillan_degree(self):
        worst = 0.0
        rng = np.random.default_rng(606)
        for _ in range(50):
            p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            sys = gen_random_system(p, m, 6, 0.85, rng)
            s = normalized_hankel_sv(sys.impulse_response(50))
            worst = max(worst, float(s[sys.order]))
        report("criterion 6 (Hankel rank property)", worst < 1e-6, f"max ratio {worst:.2e}")


class TestCriterion7NuclearNorm:
    def test_kkt_residuals_and_limits(self):
        rng = np.random.default_rng(707)
        worst_kkt = 0.0
        limits_ok = True
        for _ in range(20):
            T = int(rng.integers(4, 8))
            N = int(rng.integers(4 * T, 60))
            h_true = ImpulseResponse(
                rng.uniform(0.3, 0.7) ** np.arange(1, T + 1), T, 1, 1
            )
            u = rng.standard_normal((N, 1))
            phi = regressor_block(u, T)
            y = phi @ h_true.h[:, None] + 0.05 * rng.standard_normal((N, 1))
            d = Dataset(u, y)
            Phi = build_regressor(d, T)
            Y = d.y.T.ravel()
            data = FirData(phi, d.y, T)
            lam = float(rng.uniform(0.1, 1.0))
            res = nn_admm(data, lam, tol=1e-9, max_iter=20000)
            G = res.dual / lam
            H = build_hankel(res.h)
            P = hankel_permutation(T, 1, 1).toarray()
            residual = 2.0 * Phi.T @ (Phi @ res.h.h - Y) + lam * P.T @ G.ravel()
            scale = np.linalg.norm(2.0 * Phi.T @ Y)
            kkt = np.linalg.norm(residual) / scale
            # subdifferential membership
            nuc = float(np.sum(np.linalg.svd(H, compute_uv=False)))
            member = (
                np.linalg.norm(G, 2) <= 1.0 + 1e-6
                and abs(float(np.sum(G * H)) - nuc) <= 1e-4 * max(1.0, nuc)
            )
            worst_kkt = max(worst_kkt, kkt if member else np.inf)
            # limits on the same data
            res0 = nn_admm(data, 0.0)
            h_ls = np.linalg.lstsq(Phi, Y, rcond=None)[0]
            limits_ok &= bool(np.max(np.abs(res0.h.h - h_ls)) < 1e-6)
            big = 2.0 * np.linalg.norm(Phi.T @ Y)
            res_big = nn_admm(data, big)
            limits_ok &= bool(np.max(np.abs(res_big.h.h)) < 1e-6)
        report(
            "criterion 7 (nuclear-norm KKT)",
            worst_kkt < 1e-4 and limits_ok,
            f"max KKT residual {worst_kkt:.2e}, limits ok {limits_ok}",
        )


class TestCriterion8Metrics:
    def test_metric_examples(self):
        checks = []
        a = np.array([1.0, 2.0, 3.0])
        checks.append(cod(a, a) == 100.0)
        checks.append(abs(cod(a, np.full(3, 2.0))) < 1e-12)
        checks.append(
            abs(cod(a, np.array([1.0, 2.0, 4.0])) - 100.0 * (1 - np.sqrt(0.5))) < 1e-10
        )
        rng = np.random.default_rng(8)
        h = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        checks.append(abs(fit_metric(h, h) - 100.0) < 1e-12)
        zero = ImpulseResponse(np.zeros(6), T=6, m=1, p=1)
        seq = np.concatenate([h.h, np.zeros(994)])
        expected = 100.0 * (1 - np.sqrt(np.sum(seq**2) / np.sum((seq - seq.mean()) ** 2)))
        checks.append(abs(fit_metric(h, zero) - expected) < 1e-10)
        # N_c = 1000 zero padding is the default
        h2 = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        a_pad = np.concatenate([h.h, np.zeros(994)])
        b_pad = np.concatenate([h2.h, np.zeros(994)])
        checks.append(abs(fit_metric(h, h2) - cod(a_pad, b_pad)) < 1e-10)
        report("criterion 8 (metrics)", all(checks), f"{sum(checks)}/6 examples exact")
