import dataclasses

import numpy as np
import pytest

from hankelid import (
    Dataset,
    FirData,
    MarglikProblem,
    NoiseModel,
    NotPositiveDefiniteError,
    SubspaceBasis,
    estimate_noise_variance,
    hankel_dims,
    hankel_precisions,
    marglik_value_and_gradient,
    neg_log_marglik,
    posterior_mean,
)
from hankelid.model import ImpulseResponse, regressor_block

from conftest import random_marglik_problem


def identity_problem(n, Y):
    """phi = I, sigma = 1, prior precision = I at lam = [1, 0, 0]."""
    return MarglikProblem(
        FirData(np.eye(n), np.asarray(Y, float)[:, None], n), NoiseModel(np.ones(1)),
        np.eye(n), np.zeros((n, n)), np.zeros((n, n)),
    )


def prior_precision(pb, lam):
    """lam0*G0 + lam1*G1 + lam2*G2, formed here as the oracles' own input."""
    return lam[0] * pb.G0 + lam[1] * pb.G1 + lam[2] * pb.G2


class TestMarglikProblem:
    def test_precision_shapes_checked(self, rng):
        pb, *_ = random_marglik_problem(rng, p=2, m=1, T=3, N=12)
        small = np.eye(pb.G0.shape[0] - 1)
        for name in ("G0", "G1", "G2"):
            with pytest.raises(ValueError, match=f"{name} must be"):
                dataclasses.replace(pb, **{name: small})


class TestEstimateNoiseVariance:
    def test_noise_free_fir_data(self, rng):
        T, N = 3, 400
        u = rng.standard_normal((N, 1))
        h = ImpulseResponse(np.array([0.9, -0.4, 0.2]), T=T, m=1, p=1)
        y = (regressor_block(u, T) @ h.h)[:, None]
        noise = estimate_noise_variance(FirData(regressor_block(u, T), y, T))
        assert noise.sigma[0] < 1e-10 * float(np.mean(y**2))

    def test_pure_noise_output(self):
        rng = np.random.default_rng(3)
        N = 2000
        d = Dataset(np.zeros((N, 1)), rng.standard_normal((N, 1)) * 1.3)
        noise = estimate_noise_variance(FirData(regressor_block(d.u, 4), d.y, 4))
        assert noise.sigma[0] == pytest.approx(np.var(d.y), rel=0.10)

    def test_two_channels(self):
        rng = np.random.default_rng(5)
        N, T = 5000, 3
        u = rng.standard_normal((N, 1))
        h = ImpulseResponse(rng.standard_normal(2 * 3), T=T, m=1, p=2)
        phi = regressor_block(u, T)
        clean = phi @ h.h.reshape(2, 3).T
        y = clean + rng.standard_normal((N, 2)) * np.sqrt([1.0, 4.0])
        noise = estimate_noise_variance(FirData(phi, y, T))
        assert noise.sigma[0] == pytest.approx(1.0, rel=0.15)
        assert noise.sigma[1] == pytest.approx(4.0, rel=0.15)

    def test_insufficient_data(self):
        d = Dataset(np.ones((5, 2)), np.ones((5, 1)))
        with pytest.raises(ValueError, match="need N > T\\*m"):
            estimate_noise_variance(FirData(regressor_block(d.u, 3), d.y, 3))


class TestPosteriorMean:
    def test_identity_case_halves_data(self):
        Y = np.array([2.0, -4.0, 6.0])
        pb = identity_problem(3, Y)
        h = posterior_mean(pb, [1.0, 0.0, 0.0])
        assert np.allclose(h.h, Y / 2.0)

    def test_shrinkage_with_growing_lam0(self, rng):
        pb, *_ = random_marglik_problem(rng, p=1, m=1, T=4, N=20)
        norms = [
            np.linalg.norm(posterior_mean(pb, [lam0, 0.0, 0.0]).h)
            for lam0 in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_matches_tikhonov_lstsq_oracle(self, rng):
        pb, lam, *_ = random_marglik_problem(rng, p=1, m=1, T=5, N=20)
        h = posterior_mean(pb, lam).h
        # independent quadratic solve: stacked least squares via QR
        Phi = np.kron(np.eye(pb.data.p), pb.data.phi)
        K_inv = prior_precision(pb, lam)
        L = np.linalg.cholesky(K_inv)
        st_half = np.repeat(1.0 / np.sqrt(pb.noise.sigma), pb.data.N)
        A = np.vstack([Phi * st_half[:, None], L.T])
        b = np.concatenate([pb.data.Y * st_half, np.zeros(K_inv.shape[0])])
        h_oracle = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.max(np.abs(h - h_oracle)) < 1e-8 * max(1.0, np.max(np.abs(h_oracle)))


class TestNegLogMarglik:
    def test_zero_regressor(self, rng):
        pb, lam, *_ = random_marglik_problem(rng, p=2, m=1, T=3, N=12)
        no_regressor = dataclasses.replace(pb.data, phi=np.zeros_like(pb.data.phi))
        pb0 = dataclasses.replace(pb, data=no_regressor)
        Ymat = pb.data.Y.reshape(pb.data.p, pb.data.N)
        expected = float(np.sum(Ymat**2 / pb.noise.sigma[:, None]))
        expected += pb.data.N * float(np.sum(np.log(pb.noise.sigma)))
        assert neg_log_marglik(pb0, lam) == pytest.approx(expected, rel=1e-12)

    def test_scalar_hand_case(self):
        pb = identity_problem(1, np.array([1.5]))
        f = neg_log_marglik(pb, [1.0, 0.0, 0.0])
        assert f == pytest.approx(1.5**2 / 2 + np.log(2.0), rel=1e-12)

    def test_matches_dense_lambda_oracle(self, rng):
        for _ in range(5):
            pb, lam, *_ = random_marglik_problem(rng)
            Phi = np.kron(np.eye(pb.data.p), pb.data.phi)
            K = np.linalg.inv(prior_precision(pb, lam))
            St = np.kron(np.diag(pb.noise.sigma), np.eye(pb.data.N))
            Lam = St + Phi @ K @ Phi.T
            direct = float(
                pb.data.Y @ np.linalg.solve(Lam, pb.data.Y) + np.linalg.slogdet(Lam)[1]
            )
            assert neg_log_marglik(pb, lam) == pytest.approx(direct, rel=1e-8)

    def test_non_pd_raises(self, rng):
        pb, *_ = random_marglik_problem(rng, p=1, m=1, T=4, N=20)
        with pytest.raises(NotPositiveDefiniteError):
            neg_log_marglik(pb, [0.0, 0.0, 0.0])


class TestMarglikGradient:
    def test_zero_component_edge(self, rng):
        # n = 0 makes G1 = 0, so the lam1 entries vanish identically
        pb, lam, basis, weights = random_marglik_problem(rng, p=1, m=1, T=4, N=18)
        dims = hankel_dims(pb.data.T, pb.data.p, pb.data.m)
        basis0 = SubspaceBasis.trivial(basis.dim)
        G1, G2 = hankel_precisions(dims, weights, basis0, pb.data.p, pb.data.m)
        pb0 = dataclasses.replace(pb, G1=G1, G2=G2)
        _, B, V = marglik_value_and_gradient(pb0, lam)
        assert B[1] == 0.0 and V[1] == 0.0 and (B - V)[1] == 0.0

    def test_split_nonnegative(self, rng):
        for _ in range(10):
            pb, lam, *_ = random_marglik_problem(rng)
            _, B, V = marglik_value_and_gradient(pb, lam)
            assert np.all(B >= 0)
            assert np.all(V >= 0)

    @pytest.mark.parametrize("identity_weights", [True, False], ids=["identity", "empirical"])
    def test_matches_central_differences(self, rng, identity_weights):
        for _ in range(8):
            pb, lam, *_ = random_marglik_problem(rng, identity_weights=identity_weights)
            f, B, V = marglik_value_and_gradient(pb, lam)
            grad = B - V
            assert f == pytest.approx(neg_log_marglik(pb, lam), rel=1e-12)
            fd = np.empty(3)
            for i in range(3):
                step = 1e-5 * (1.0 + abs(lam[i]))
                hi, lo = lam.copy(), lam.copy()
                hi[i] += step
                lo[i] -= step
                fd[i] = (neg_log_marglik(pb, hi) - neg_log_marglik(pb, lo)) / (2 * step)
            denom = max(np.max(np.abs(fd)), 1e-10)
            assert np.max(np.abs(grad - fd)) / denom < 1e-5

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_one_sided_difference_at_zero_component(self, rng, i):
        # lam_i = 0 sits on the boundary of the cone, where only the forward
        # side exists: second-order one-sided (-3 f(0) + 4 f(s) - f(2 s)) / (2 s)
        pb, lam, *_ = random_marglik_problem(rng, identity_weights=False)
        lam[i] = 0.0
        _, B, V = marglik_value_and_gradient(pb, lam)
        step = 1e-5
        f0, f1, f2 = (neg_log_marglik(pb, lam + k * step * np.eye(3)[i]) for k in range(3))
        fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2 * step)
        assert abs((B - V)[i] - fd) / max(abs(fd), 1e-10) < 1e-5


class TestNoiseModel:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseModel([1.0, 0.0])
        with pytest.raises(ValueError):
            NoiseModel([-1.0])
