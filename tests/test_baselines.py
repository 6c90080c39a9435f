import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelid import (
    CvGrid,
    Dataset,
    FirData,
    ImpulseResponse,
    MarglikProblem,
    SubspaceBasis,
    WeightPair,
    build_weights,
    cross_validate,
    estimate_noise_variance,
    fit_spline_hyperparams,
    nn_admm,
    nn_estimate,
    posterior_mean,
    ss_estimate,
)
from hankelid.baselines import AdmmResult, _zero_stretch, singular_value_soften
from hankelid.benchmark import fit_metric
from hankelid.kernels import hankel_gram
from hankelid.model import build_hankel, hankel_dims, regressor_block

from conftest import (build_regressor, hankel_permutation, nn_cv_summaries, reference_estimates,
                      reference_mismatches, tc_kernel)


def fir_dataset(rng, h: ImpulseResponse, N, noise_std):
    u = rng.standard_normal((N, h.m))
    phi = regressor_block(u, h.T)
    y = phi @ h.h.reshape(h.p, h.m * h.T).T + noise_std * rng.standard_normal((N, h.p))
    return Dataset(u, y)


def svd_soften(M, level):
    """Singular-value soft-thresholding through a full SVD, with no shortcut."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - level, 0.0)) @ Vt


def decomposition_calls(monkeypatch):
    """Log the package's SVD and symmetric eigendecomposition calls by name.

    svd and svdvals are both logged: scipy's svdvals calls its own module's
    svd, which patching scipy.linalg.svd does not reach.  Returns the list
    the names are appended to.
    """
    import hankelid.baselines as bl

    calls = []
    for module, name in ((bl.la, "svd"), (bl.la, "svdvals"), (bl.la.lapack, "dsyevd")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def dense_nn_admm(Y, Phi, lam_star, E, shape, rho=1.0, max_iter=200, tol=0.0):
    """ADMM iterates of the nuclear-norm fit on dense operators, with nn_admm's stopping rule.

    Phi is the full (N*p x T*m*p) regressor and E the dense matrix of the
    (weighted) Hankel map, E h = vec of W2^T H(h) W1^T taken row by row.
    The soft-thresholding is the plain SVD formula, independent of the
    package, and every iteration is run: no closed form, no shortcut.
    ``tol = 0`` runs all ``max_iter`` iterations.  Returns (h, U, n_iter,
    converged).
    """
    lhs = 2.0 * Phi.T @ Phi + rho * E.T @ E
    Z = np.zeros(shape)
    U = np.zeros(shape)
    for it in range(max_iter):
        h = np.linalg.solve(lhs, 2.0 * Phi.T @ Y + rho * E.T @ (Z - U).ravel())
        H = (E @ h).reshape(shape)
        Z_prev = Z
        Z = svd_soften(H + U, lam_star / rho)
        U = U + H - Z
        r_primal = np.linalg.norm(H - Z)
        r_dual = rho * np.linalg.norm(E.T @ (Z - Z_prev).ravel())
        eps_primal = tol * max(1.0, np.linalg.norm(H), np.linalg.norm(Z))
        eps_dual = tol * max(1.0, rho * np.linalg.norm(E.T @ U.ravel()))
        if r_primal < eps_primal and r_dual < eps_dual:
            return h, U, it + 1, True
    return h, U, max_iter, False


def zero_z_norms(Y, Phi, E, k, rho=1.0):
    """||E(s_j)||_F and ||E(h_j)||_F for j = 1..k of ADMM iterated with Z held at 0.

    s_j is the sum of the first j iterates h_1..h_j, so U_j = E(s_j).
    """
    lhs = 2.0 * Phi.T @ Phi + rho * E.T @ E
    b = 2.0 * Phi.T @ Y
    s, s_norms, h_norms = np.zeros_like(b), [], []
    for _ in range(k):
        h = np.linalg.solve(lhs, b - rho * E.T @ (E @ s))
        s = s + h
        s_norms.append(np.linalg.norm(E @ s))
        h_norms.append(np.linalg.norm(E @ h))
    return np.array(s_norms), np.array(h_norms)


def dense_hankel_map(weights, T, p, m):
    """The dense matrix E of the weighted Hankel map, and the shape of E(h)."""
    r, c = hankel_dims(T, p, m)
    E = np.kron(weights.W2.T, weights.W1) @ hankel_permutation(T, p, m).toarray()
    return E, (p * r, m * c)


def assert_matches_dense_oracle(res, Y, Phi, lam, E, shape, max_iter, tol, h_scale=0.0):
    """nn_admm's result against dense_nn_admm's: the same n_iter and converged,
    the dual within 1e-12 of its norm and h within 1e-12 of the larger of its
    norm and h_scale.  Returns the oracle's (n_iter, converged)."""
    h, U, n_iter, converged = dense_nn_admm(Y, Phi, lam, E, shape, max_iter=max_iter, tol=tol)
    assert res.n_iter == n_iter and res.converged == converged
    assert np.linalg.norm(res.h.h - h) <= 1e-12 * max(np.linalg.norm(h), h_scale)
    assert np.linalg.norm(res.dual - U) <= 1e-12 * np.linalg.norm(U)
    return n_iter, converged


class TestSsEstimate:
    def test_matches_posterior_mean_at_spline_only_lambda(self, rng):
        d = fir_dataset(rng, ImpulseResponse(0.6 ** np.arange(1, 9), 8, 1, 1), 120, 0.1)
        h1, nu1, noise1 = ss_estimate(d, 8, return_details=True)
        # the full procedure's building blocks, with the Hankel terms off
        data = FirData(regressor_block(d.u, 8), d.y, 8)
        noise = estimate_noise_variance(data)
        nu = fit_spline_hyperparams(data, noise)
        assert nu1 == nu and np.array_equal(noise1.sigma, noise.sigma)
        weights = build_weights(d, 8)
        pb = MarglikProblem(data, noise, nu, weights, SubspaceBasis.trivial(weights.W2.shape[0]))
        h2 = posterior_mean(pb, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(h1.h - h2.h)) <= 1e-12 * np.max(np.abs(h2.h))

    def test_three_outputs_match_data_space_ridge(self, rng):
        # h_i = K phi^T (phi K phi^T + sigma_i I)^{-1} y_i, K the TC kernel
        # of one output's m channels
        T, m, p, N = 6, 2, 3, 150
        decay = np.tile(0.7 ** np.arange(1, T + 1), m * p)
        h_true = ImpulseResponse(rng.standard_normal(T * m * p) * decay, T, m, p)
        d = fir_dataset(rng, h_true, N, 0.1)
        h, nu, noise = ss_estimate(d, T, return_details=True)
        phi = regressor_block(d.u, T)
        K = np.kron(np.eye(m), tc_kernel(nu, T))
        for i in range(p):
            gram = phi @ K @ phi.T + noise.sigma[i] * np.eye(N)
            h_i = K @ phi.T @ np.linalg.solve(gram, d.y[:, i])
            err = np.max(np.abs(h.h[i * T * m : (i + 1) * T * m] - h_i))
            assert err <= 1e-10 * np.max(np.abs(h_i))

    def test_high_snr_fir_truth(self):
        fits = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h_true = ImpulseResponse(np.array([1.0, -0.5, 0.25]), 3, 1, 1)
            d = fir_dataset(rng, h_true, 500, noise_std=1e-4)
            h = ss_estimate(d, 6)
            fits.append(fit_metric(ImpulseResponse(np.r_[h_true.h, 0, 0, 0], 6, 1, 1), h))
        assert np.median(fits) > 95.0

    def test_zero_output_gives_zero_estimate(self, rng):
        d = Dataset(rng.standard_normal((60, 1)), np.zeros((60, 1)))
        h = ss_estimate(d, 5)
        assert np.max(np.abs(h.h)) < 1e-12


class TestSvt:
    def test_exact_soft_thresholding(self, rng):
        M = rng.standard_normal((5, 7))
        s = np.linalg.svd(M, compute_uv=False)
        level = float(s[2])
        Z = singular_value_soften(M, level)
        assert np.allclose(
            np.linalg.svd(Z, compute_uv=False), np.maximum(s - level, 0.0), atol=1e-12
        )

    def test_level_above_frobenius_norm_gives_zeros_without_svd(self, rng, monkeypatch):
        M = rng.standard_normal((5, 7))
        level = 1.01 * np.linalg.norm(M)
        calls = decomposition_calls(monkeypatch)
        Z = singular_value_soften(M, level)
        assert calls == []
        assert Z.shape == M.shape and not np.any(Z)
        assert np.array_equal(Z, svd_soften(M, level))

    def test_rank_one_at_its_frobenius_norm_takes_the_eigendecomposition(self, rng,
                                                                         monkeypatch):
        # sigma_1 = ||M||_F exactly in exact arithmetic: the slack keeps the
        # shortcut off, and the eigendecomposition decides
        M = np.outer(rng.standard_normal(5), rng.standard_normal(7))
        level = float(np.linalg.norm(M))
        calls = decomposition_calls(monkeypatch)
        Z = singular_value_soften(M, level)
        assert calls == ["dsyevd"]
        assert np.max(np.linalg.svd(Z, compute_uv=False)) <= 1e-13 * level
        assert np.max(np.abs(Z)) <= 1e-13 * level

    def test_level_between_sigma1_and_frobenius_norm_zeros_through_eigendecomposition(
            self, rng, monkeypatch):
        M = rng.standard_normal((5, 7))
        s = np.linalg.svd(M, compute_uv=False)
        level = 0.5 * (s[0] + np.linalg.norm(M))
        assert s[0] < level < np.linalg.norm(M)
        calls = decomposition_calls(monkeypatch)
        Z = singular_value_soften(M, level)
        assert calls == ["dsyevd"]
        assert Z.shape == M.shape and not np.any(Z)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 39),
        cols=st.integers(1, 39),
        rank=st.integers(1, 39),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        where=st.sampled_from(["zero", "singular_value", "between", "above"]),
        pick=st.integers(0, 38),
    )
    def test_matches_svd_oracle(self, rows, cols, rank, log_scale, seed, where, pick):
        # tall, wide and square M, rank-deficient when rank < min(rows, cols).
        # The Gram squares the spread of the singular values, and its error
        # grows like 1e-16 sigma_1^2 / sigma_min: the nonzero values here
        # span two decades
        rng = np.random.default_rng(seed)
        k = min(rows, cols)
        sv = np.zeros(k)
        sv[:min(rank, k)] = 10.0 ** rng.uniform(-2.0, 0.0, min(rank, k))
        U = np.linalg.qr(rng.standard_normal((rows, k)))[0]
        V = np.linalg.qr(rng.standard_normal((cols, k)))[0]
        M = 10.0 ** log_scale * (U * sv) @ V.T
        s = np.linalg.svd(M, compute_uv=False)
        fro = np.linalg.norm(M)
        level = {"zero": 0.0, "singular_value": s[pick % k],
                 "between": 0.5 * (s[0] + fro), "above": 1.5 * fro}[where]
        Z = singular_value_soften(M, level)
        assert Z.shape == M.shape
        assert np.linalg.norm(Z - svd_soften(M, level)) <= 1e-12 * s[0]
        if s[0] <= level:
            assert not np.any(Z)


class TestNnAdmm:
    def small_problem(self, rng, T=6, N=40, noise=0.05):
        # single output: the block phi is the whole regressor
        h_true = ImpulseResponse(0.5 ** np.arange(1, T + 1), T, 1, 1)
        d = fir_dataset(rng, h_true, N, noise)
        data = FirData(regressor_block(d.u, T), d.y, T)
        return d, data

    @pytest.mark.parametrize("weighted", [False, True])
    def test_block_regressor_matches_dense_kron(self, rng, weighted):
        T, m, p = 5, 2, 2
        decay = np.tile(0.6 ** np.arange(1, T + 1), m * p)
        h_true = ImpulseResponse(rng.standard_normal(T * m * p) * decay, T, m, p)
        d = fir_dataset(rng, h_true, 60, 0.1)
        weights = build_weights(d, T, "empirical" if weighted else "identity")
        Y = d.y.T.ravel()
        lam = 0.5
        res = nn_admm(FirData(regressor_block(d.u, T), d.y, T), lam, weights=weights,
                      tol=0.0, max_iter=200)
        E, shape = dense_hankel_map(weights, T, p, m)
        h_dense = dense_nn_admm(Y, build_regressor(d, T), lam, E, shape, max_iter=200)[0]
        assert res.n_iter == 200
        assert np.max(np.abs(res.h.h - h_dense)) <= 1e-10 * np.max(np.abs(h_dense))

    def test_zero_penalty_matches_least_squares(self, rng):
        d, data = self.small_problem(rng)
        res = nn_admm(data, 0.0)
        h_ls = np.linalg.lstsq(data.phi, data.Y, rcond=None)[0]
        assert np.max(np.abs(res.h.h - h_ls)) < 1e-6

    def test_huge_penalty_zeroes_estimate(self, rng):
        d, data = self.small_problem(rng)
        lam = 2.0 * np.linalg.norm(data.phi.T @ data.Y)
        res = nn_admm(data, lam)
        assert np.max(np.abs(res.h.h)) < 1e-6

    def test_kkt_subgradient_certificate(self, rng):
        # 2 Phi^T (Phi h - Y) + lam * P^T vec(G^T) = 0 for a G in the
        # nuclear-norm subdifferential: the scaled dual U/lam (rho = 1) is that G
        d, data = self.small_problem(rng)
        Phi, Y = data.phi, data.Y
        lam = 0.5
        res = nn_admm(data, lam, tol=1e-10, max_iter=20000)
        assert res.converged
        G = res.dual / lam
        # subdifferential membership: spectral norm <= 1 and <G, H> = ||H||_*
        H = build_hankel(res.h)
        spec_norm = np.linalg.norm(G, 2)
        assert spec_norm <= 1.0 + 1e-6
        nuc = np.sum(np.linalg.svd(H, compute_uv=False))
        assert float(np.sum(G * H)) == pytest.approx(nuc, rel=1e-4, abs=1e-8)
        # stationarity through the adjoint; G.ravel() is vec(G^T)
        P = hankel_permutation(6, 1, 1).toarray()
        residual = 2.0 * Phi.T @ (Phi @ res.h.h - Y) + lam * P.T @ G.ravel()
        scale = np.linalg.norm(2.0 * Phi.T @ Y)
        assert np.linalg.norm(residual) < 1e-4 * scale

    def test_objective_trailing_monotone(self, rng):
        # the penalized objective ||Y - Phi h_k||^2 + lam ||H(h_k)||_* of the
        # k-th iterate (a run stopped after k iterations) does not rise over
        # the second half of the default run
        d, data = self.small_problem(rng, T=5, N=50)
        Phi, Y = data.phi, data.Y
        lam = 0.3

        def objective(k):
            h = nn_admm(data, lam, tol=0.0, max_iter=k).h
            nuc = np.sum(np.linalg.svd(build_hankel(h), compute_uv=False))
            return float(np.sum((Y - Phi @ h.h) ** 2)) + lam * nuc

        n = nn_admm(data, lam).n_iter
        ks = np.unique(np.linspace(max(10, n // 2), n, 8).round().astype(int))
        tail = np.array([objective(k) for k in ks])
        assert np.all(np.diff(tail) <= 1e-8 * abs(objective(1)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_eigendecomposition_per_iteration(self, rng, monkeypatch, weighted):
        # at lambda = 0.5 no iteration's soft-threshold is certified zero:
        # each makes one eigendecomposition and no SVD
        d, data = self.small_problem(rng)
        weights = build_weights(d, data.T, "empirical" if weighted else "identity")
        calls = decomposition_calls(monkeypatch)
        res = nn_admm(data, 0.5, weights=weights, max_iter=300)
        assert res.n_iter > 1
        assert calls == ["dsyevd"] * res.n_iter

    @pytest.mark.parametrize("weighted", [False, True])
    def test_certified_zero_iterations_match_the_svd_path(self, rng, monkeypatch, weighted):
        # at this lambda Z = 0 on every iteration, and ||E(h) + U||_F certifies
        # it each time: the run is one closed-form stretch, no decomposition
        # is made, and the result is that of iterating ADMM with an SVD
        # soft-threshold on dense operators
        d, data = self.small_problem(rng)
        weights = build_weights(d, data.T, "empirical" if weighted else "identity")
        lam = 2.0 * np.linalg.norm(data.phi.T @ data.Y)
        calls = decomposition_calls(monkeypatch)
        fast = nn_admm(data, lam, weights=weights, max_iter=300)
        assert calls == [] and fast.n_iter > 1
        E, shape = dense_hankel_map(weights, data.T, 1, 1)
        assert_matches_dense_oracle(fast, data.Y, data.phi, lam, E, shape, 300, 1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 2),
        m=st.integers(1, 2),
        T=st.integers(2, 7),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.sampled_from([0.5, 1.0 - 1e-12, 1.0 + 1e-12, 3.0, 1e4, "mid-run"]),
        tol=st.sampled_from([0.0, 1e-6]),
        max_iter=st.sampled_from([1, 2, 50, 300]),
    )
    def test_zero_stretch_matches_iterated_oracle(self, p, m, T, weighted, seed, kappa, tol,
                                                   max_iter):
        # lambda is a multiple kappa of ||E(h_1)||_F, the first iterate's
        # certificate: below it, at it to 1e-12 on either side, and above it.
        # "mid-run" puts lambda between ||E(s_10)||_F and ||E(s_11)||_F, s_k
        # the sum of the first k iterates while Z = 0, so the stretch ends
        # after 10 iterations and the loop takes over
        rng = np.random.default_rng(seed)
        N = int(rng.integers(T * m + 5, 41))
        d = Dataset(rng.standard_normal((N, m)), rng.standard_normal((N, p)))
        weights = build_weights(d, T, "empirical" if weighted else "identity")
        Phi, Y = build_regressor(d, T), d.y.T.ravel()
        E, shape = dense_hankel_map(weights, T, p, m)
        s_norms = zero_z_norms(Y, Phi, E, 11)[0]
        lam = (0.5 * (s_norms[9] + s_norms[10]) if kappa == "mid-run"
               else kappa * s_norms[0])
        res = nn_admm(FirData(regressor_block(d.u, T), d.y, T), lam, weights=weights,
                      tol=tol, max_iter=max_iter)
        # h_k = A^{-1}(b - E*(U)) carries rounding at the scale of the first
        # iterate A^{-1} b on both sides, also once h_k has decayed (t^k -> 0)
        h_first = dense_nn_admm(Y, Phi, lam, E, shape, max_iter=1)[0]
        assert_matches_dense_oracle(res, Y, Phi, lam, E, shape, max_iter, tol,
                                    h_scale=np.linalg.norm(h_first))

    @pytest.mark.parametrize("ends_by", ["certificate", "stopping_test"])
    def test_zero_stretch_ends_at_the_first_test_that_fails(self, rng, monkeypatch, ends_by):
        # iteration 11 is the first whose certificate fails (lambda 1e-7 below
        # ||E(s_11)||_F), or the first that converges (tol between ||E(h_10)||_F
        # and ||E(h_11)||_F, both below 1): the loop makes that decision, so a
        # stretch that ran past it would show in the decompositions or in n_iter
        d, data = self.small_problem(rng)
        d = Dataset(d.u, 1e-3 * d.y)
        data = FirData(data.phi, d.y, data.T)
        E, shape = dense_hankel_map(build_weights(d, data.T, "identity"), data.T, 1, 1)
        s_norms, h_norms = zero_z_norms(data.Y, data.phi, E, 11)
        if ends_by == "certificate":
            lam, tol = (1.0 - 1e-7) * s_norms[10], 0.0
        else:
            lam, tol = 2.0 * s_norms[10], 0.5 * (h_norms[9] + h_norms[10])
            assert h_norms[9] < 1.0
        calls = decomposition_calls(monkeypatch)
        res = nn_admm(data, lam, tol=tol, max_iter=40)
        n_iter, converged = assert_matches_dense_oracle(res, data.Y, data.phi, lam, E, shape,
                                                        40, tol)
        if ends_by == "certificate":
            assert calls == ["dsyevd"] * 30 and n_iter == 40
        else:
            assert calls == [] and n_iter == 11 and converged

    def test_singular_weights_leave_the_stretch_to_the_loop(self, rng):
        # every row of the Hankel matrix of h_k = 0.5^k is parallel to v, and
        # W1 = I - v v^T removes it: E(h) = 0, E*E is singular, there is no
        # generalized eigendecomposition, and the loop iterates the stretch
        d, data = self.small_problem(rng)
        r, c = hankel_dims(data.T, 1, 1)
        v = 0.5 ** np.arange(c)
        v /= np.linalg.norm(v)
        weights = WeightPair(np.eye(c) - np.outer(v, v), np.eye(r))
        assert np.linalg.eigvalsh(hankel_gram(weights, data.T, 1, 1))[0] < 1e-12
        lam = 2.0 * np.linalg.norm(data.phi.T @ data.Y)
        res = nn_admm(data, lam, weights=weights, max_iter=50)
        E, shape = dense_hankel_map(weights, data.T, 1, 1)
        assert_matches_dense_oracle(res, data.Y, data.phi, lam, E, shape, 50, 1e-6)

    def test_zero_stretch_cost_does_not_grow_with_max_iter(self, rng, monkeypatch):
        # tol = 0 keeps the run from stopping early: all 10^6 iterations lie in
        # the certified-zero stretch, which is jumped in closed form, so the
        # time and the allocation peak stay those of a few small arrays
        import time
        import tracemalloc

        d, data = self.small_problem(rng)
        lam = 2.0 * np.linalg.norm(data.phi.T @ data.Y)
        calls = decomposition_calls(monkeypatch)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            res = nn_admm(data, lam, tol=0.0, max_iter=10**6)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_iter == 10**6 and not res.converged and calls == []
        assert np.all(np.isfinite(res.h.h)) and np.all(np.isfinite(res.dual))
        assert elapsed < 0.5
        assert peak < 2**20

    @pytest.mark.parametrize("kwargs, match", [
        ({"lam_star": np.nan}, "lam_star must be finite"),
        ({"lam_star": np.inf}, "lam_star must be finite"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"tol": -1e-6}, "tol must be >= 0"),
        ({"tol": np.nan}, "tol must be >= 0"),
    ], ids=["lam-nan", "lam-inf", "max-iter-0", "max-iter-neg", "tol-neg", "tol-nan"])
    def test_bad_settings_rejected(self, rng, kwargs, match):
        d, data = self.small_problem(rng)
        settings = {"lam_star": 0.5, **kwargs}
        with pytest.raises(ValueError, match=match):
            nn_admm(data, **settings)

    @pytest.mark.parametrize("where", ["Y", "phi"])
    def test_non_finite_input_rejected(self, rng, where):
        # the record checks its data once; nn_admm's LAPACK calls then skip
        # scipy's per-call finite checks
        d, data = self.small_problem(rng)
        phi, y = data.phi.copy(), d.y.copy()
        if where == "Y":
            y[3, 0] = np.nan
        else:
            phi[3, 2] = np.inf
        with pytest.raises(ValueError, match="phi and y must be finite"):
            FirData(phi, y, 6)

    def test_weighted_variant_runs(self, rng):
        T = 5
        h_true = ImpulseResponse(0.5 ** np.arange(1, T + 1), T, 1, 1)
        d = fir_dataset(rng, h_true, 80, 0.05)
        h = nn_estimate(d, T, 0.1, use_weighted=True)
        assert h.h.shape == (T,)
        assert np.all(np.isfinite(h.h))

    @pytest.mark.parametrize("case", ["phi_columns", "Y_length"])
    def test_shapes_that_do_not_fit_rejected(self, rng, case):
        # the record checks phi against T and y
        d, data = self.small_problem(rng)
        if case == "phi_columns":
            with pytest.raises(ValueError, match="not a positive multiple of T=6"):
                FirData(data.phi[:, :-1], d.y, 6)
        else:
            with pytest.raises(ValueError, match="phi has 40 rows, y has 39"):
                FirData(data.phi, d.y[:-1], 6)

    def test_mimo_shapes_derived(self, rng):
        T, m, p = 4, 2, 3
        d = fir_dataset(rng, ImpulseResponse(rng.standard_normal(T * m * p), T, m, p), 40, 0.1)
        res = nn_admm(FirData(regressor_block(d.u, T), d.y, T), 0.5, max_iter=5)
        assert (res.h.T, res.h.m, res.h.p) == (T, m, p)

    def test_result_has_no_penalty_field(self):
        # rho is fixed at 1, so the result does not report it
        assert [f.name for f in dataclasses.fields(AdmmResult)] == ["h", "converged", "n_iter",
                                                                     "dual"]

    def test_penalty_is_written_into_the_formulas(self):
        # rho = 1 is no parameter of the closed-form stretch and no local of the loop
        assert "rho" not in inspect.signature(_zero_stretch).parameters
        assert "rho" not in nn_admm.__code__.co_varnames

    def test_negative_penalty_rejected(self, rng):
        d, data = self.small_problem(rng)
        with pytest.raises(ValueError):
            nn_admm(data, -1.0)


class TestCrossValidate:
    def test_single_candidate(self, rng):
        T = 4
        h_true = ImpulseResponse(0.6 ** np.arange(1, T + 1), T, 1, 1)
        d = fir_dataset(rng, h_true, 90, 0.05)
        grid = CvGrid(np.array([0.7]), train_fraction=0.5)
        lam, h = cross_validate(d, grid, lambda dd, lam: nn_estimate(dd, T, lam))
        assert lam == 0.7
        assert h.T == T

    def test_duplicate_candidates_tie_break(self, rng):
        T = 4
        h_true = ImpulseResponse(0.6 ** np.arange(1, T + 1), T, 1, 1)
        d = fir_dataset(rng, h_true, 90, 0.05)
        grid = CvGrid(np.array([0.5, 0.5, 0.5]), train_fraction=0.5)
        lam, _ = cross_validate(d, grid, lambda dd, lam: nn_estimate(dd, T, lam))
        assert lam == 0.5

    def test_call_order(self, rng):
        # each candidate once on the training prefix, in grid order, then the refit on all data
        T = 4
        h_true = ImpulseResponse(0.6 ** np.arange(1, T + 1), T, 1, 1)
        d = fir_dataset(rng, h_true, 90, 0.05)
        grid = CvGrid(np.array([2.0, 0.1, 0.7]), train_fraction=0.5)
        calls = []

        def estimator(dd, lam):
            calls.append((dd, lam))
            return nn_estimate(dd, T, lam)

        lam_best, _ = cross_validate(d, grid, estimator)
        assert [lam for _, lam in calls] == [0.1, 0.7, 2.0, lam_best]
        for dd, _ in calls[:-1]:
            assert np.array_equal(dd.u, d.u[:45]) and np.array_equal(dd.y, d.y[:45])
        assert calls[-1][0] is d

    def test_selects_interior_candidate_on_s1_style_data(self):
        # grid endpoints should rarely win when the grid spans the published
        # range (scaled down to a desk-size problem)
        from hankelid.benchmark import gen_scenario_run, scenario_spec

        T = 16
        interior = 0
        n_seeds = 5
        for seed in range(n_seeds):
            spec = scenario_spec("S1", N=240, T=T, band_range=None, snr_range=(2, 2))
            run = gen_scenario_run(spec, seed)
            n_train = 120
            grid = CvGrid(np.logspace(2, 7, 25) / n_train, train_fraction=0.5)
            lam, _ = cross_validate(
                run.data, grid,
                lambda dd, lam: nn_admm(FirData(regressor_block(dd.u, T), dd.y, T), lam,
                                        max_iter=600).h,
            )
            if grid.candidates[0] < lam < grid.candidates[-1]:
                interior += 1
        assert interior >= 0.8 * n_seeds

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CvGrid(np.array([]))

    def test_nonpositive_candidates_rejected(self):
        with pytest.raises(ValueError):
            CvGrid(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_candidates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CvGrid(np.array([1.0, bad]))


class TestReferenceEstimates:
    def test_nn_cross_validation_matches_the_reference(self):
        # the benchmark's NN and NNW on its first s1-baselines dataset: the
        # chosen lambda and every fit's n_iter and flag exactly, ||hhat|| of
        # the refit to BASELINE_RTOL; one BLAS thread and two agree here
        got = nn_cv_summaries()
        assert got.keys() == reference_estimates()["nn_cv"].keys()
        assert [bad for tag, fit in got.items()
                for bad in reference_mismatches("nn_cv", tag, fit)] == []
