import dataclasses
import importlib
import sys
import threading
from functools import partial

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from hankelid import (
    Dataset,
    FirData,
    IdentConfig,
    MarglikProblem,
    NoiseModel,
    NotPositiveDefiniteError,
    SplineHyper,
    SubspaceBasis,
    WeightPair,
    estimate_noise_variance,
    identify,
    marglik_value_and_gradient,
    neg_log_marglik,
    posterior_mean,
    sgp_minimize,
)
from hankelid import bayes, linalg
from hankelid.benchmark import gen_scenario_run, scenario_spec
from hankelid.kernels import spline_precision
from hankelid.linalg import chol_factor, chol_inverse, inverse_upper, mirror_upper
from hankelid.model import ImpulseResponse, regressor_block

from conftest import basis_gram, full_precisions, random_marglik_problem, random_orthogonal

# the module, not the function of the same name that the package exports
identify_module = importlib.import_module("hankelid.identify")


def identity_problem(n, Y):
    """phi = I, sigma = 1, prior precision = I at lam = [1, 0, 0].

    T = 1 with m = n channels, and c * beta = 1 makes G0 exactly the identity:
    under identity weights the problem keeps it as n blocks of [[1.0]].
    """
    pb = MarglikProblem(
        FirData(np.eye(n), np.asarray(Y, float)[:, None], 1), NoiseModel(np.ones(1)),
        SplineHyper(2.0, 0.5), WeightPair(np.eye(n), np.eye(1)), SubspaceBasis.trivial(1),
    )
    assert np.array_equal(full_precisions(pb)[0], np.eye(n))
    return pb


def central_differences(pb, lam):
    """Central-difference gradient of neg_log_marglik, step 1e-5 * (1 + |lam_i|)."""
    fd = np.empty(3)
    for i in range(3):
        step = 1e-5 * (1.0 + abs(lam[i]))
        hi, lo = lam.copy(), lam.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (neg_log_marglik(pb, hi) - neg_log_marglik(pb, lo)) / (2 * step)
    return fd


def prior_precision(pb, lam):
    """lam0*G0 + lam1*G1 + lam2*G2 at full size, formed here as the oracles' own input."""
    G0, G1, G2 = full_precisions(pb)
    return lam[0] * G0 + lam[1] * G1 + lam[2] * G2


class TestMarglikProblem:
    def test_wrong_basis_or_weights_rejected(self, rng):
        pb, *_ = random_marglik_problem(rng, p=2, m=1, T=3, N=12)
        small = pb.basis.dim - 1
        with pytest.raises(ValueError, match="basis dimension"):
            dataclasses.replace(pb, basis=SubspaceBasis.trivial(small))
        with pytest.raises(ValueError, match="weight matrices do not match"):
            dataclasses.replace(pb, weights=WeightPair(pb.weights.W1, np.eye(small)))


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
    @pytest.mark.parametrize("identity_weights", [True, False], ids=["identity", "empirical"])
    @pytest.mark.parametrize("n_signal", ["0", "pr"])
    def test_zero_component_edge(self, rng, n_signal, identity_weights):
        # n = 0 makes G1 = 0 and n = p*r makes G2 = 0, so that component's
        # entries vanish identically; the other two stay exact gradients
        pb, lam = random_marglik_problem(rng, p=2, m=1, T=5, N=20,
                                         identity_weights=identity_weights)
        n = 0 if n_signal == "0" else pb.basis.dim
        pb = dataclasses.replace(pb, basis=dataclasses.replace(pb.basis, n=n))
        zero = 1 if n == 0 else 2
        _, B, V = marglik_value_and_gradient(pb, lam)
        assert B[zero] == 0.0 and V[zero] == 0.0
        fd = central_differences(pb, lam)
        for i in {0, 1, 2} - {zero}:
            assert abs(B[i] - V[i] - fd[i]) < 1e-5 * max(abs(fd[i]), 1e-10)

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
            fd = central_differences(pb, lam)
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


class TestFullBasisSymmetry:
    """n = p*r at (lam0, a, b) is the n = 0 problem at (lam0, b, a).

    At n = p*r the signal precision G1 is the whole Hankel gram and G2 = 0;
    at n = 0 the two trade places.  So the two problems are one model, which
    is why Algorithm 1 can accept n = p*r only by beating its n = 0 start.
    """

    lam_component = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(5e8, 2e9))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 2),
        m=st.integers(1, 2),
        T=st.integers(2, 7),
        empirical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        lam0=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
        a=lam_component,
        b=lam_component,
    )
    def test_full_basis_is_the_empty_basis_swapped(self, p, m, T, empirical, seed, lam0, a, b):
        pb, _ = random_marglik_problem(np.random.default_rng(seed), p=p, m=m, T=T,
                                       identity_weights=not empirical)
        full, empty = (dataclasses.replace(pb, basis=dataclasses.replace(pb.basis, n=n))
                       for n in (pb.basis.dim, 0))
        lam_full, lam_empty = np.array([lam0, a, b]), np.array([lam0, b, a])
        if lam0 == 0.0 and a == 0.0:  # K^{-1} = 0 on both sides
            for problem, lam in ((full, lam_full), (empty, lam_empty)):
                with pytest.raises(NotPositiveDefiniteError):
                    neg_log_marglik(problem, lam)
            return
        f, B, V = marglik_value_and_gradient(full, lam_full)
        f_swap, B_swap, V_swap = marglik_value_and_gradient(empty, lam_empty)
        assert f == f_swap
        assert np.array_equal(posterior_mean(full, lam_full).h,
                              posterior_mean(empty, lam_empty).h)
        swap = [0, 2, 1]
        assert np.array_equal(B, B_swap[swap]) and np.array_equal(V, V_swap[swap])
        assert B[2] == V[2] == 0.0


class TestGradientOracle:
    """V against Tr[G_i (inv(K^{-1}) - inv(M))] with M formed from Phi itself."""

    @pytest.mark.parametrize("zero", [None, 1, 2], ids=["interior", "lam1=0", "lam2=0"])
    @pytest.mark.parametrize("identity_weights", [True, False], ids=["identity", "empirical"])
    def test_traces_match_dense_inverses(self, rng, identity_weights, zero):
        for _ in range(6):
            pb, lam, *_ = random_marglik_problem(rng, identity_weights=identity_weights)
            if zero is not None:
                lam[zero] = 0.0
            _, _, V = marglik_value_and_gradient(pb, lam)
            Phi = np.kron(np.eye(pb.data.p), pb.data.phi)
            st_inv = np.repeat(1.0 / pb.noise.sigma, pb.data.N)
            K_inv = prior_precision(pb, lam)
            gap = np.linalg.inv(K_inv) - np.linalg.inv(K_inv + Phi.T @ (Phi * st_inv[:, None]))
            oracle = np.array([np.trace(G @ gap) for G in full_precisions(pb)])
            np.testing.assert_allclose(V, oracle, rtol=1e-9, atol=0)

    def test_no_solve_against_the_identity(self, rng, monkeypatch):
        # the only solve of a value+gradient call is hhat = M^{-1} b
        solve = linalg.lapack.dpotrs
        rhs_shapes = []

        def recorded(c, b, **kwargs):
            rhs_shapes.append(np.shape(b))
            return solve(c, b, **kwargs)

        monkeypatch.setattr(linalg.lapack, "dpotrs", recorded)
        pb, lam, *_ = random_marglik_problem(rng)
        marglik_value_and_gradient(pb, lam)
        assert rhs_shapes == [(pb.data.T * pb.data.m * pb.data.p,)]

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_chol_inverse_is_symmetric_and_exact(self, rng, n):
        Q = random_orthogonal(rng, n)
        A = (Q * rng.uniform(0.1, 10.0, size=n)) @ Q.T
        A = 0.5 * (A + A.T)
        X = chol_inverse(chol_factor(A))
        assert np.array_equal(X, X.T)
        ref = np.linalg.inv(A)
        assert np.max(np.abs(X - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_chol_inverse_difference_is_symmetric_and_exact(self, rng, n):
        # A^{-1} - B^{-1} from the two factors, mirrored once after the
        # subtraction, as the gradient forms K - M^{-1}
        A, B = ((Q * rng.uniform(0.1, 10.0, size=n)) @ Q.T
                for Q in (random_orthogonal(rng, n), random_orthogonal(rng, n)))
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        L_A, L_B = chol_factor(A), chol_factor(B)
        kept = L_A.copy(), L_B.copy()
        X = inverse_difference(L_A, L_B)
        assert np.array_equal(X, X.T) and X.flags["C_CONTIGUOUS"]
        assert np.array_equal(L_A, kept[0]) and np.array_equal(L_B, kept[1])
        ref = np.linalg.inv(A) - np.linalg.inv(B)
        scale = max(np.max(np.abs(np.linalg.inv(A))), np.max(np.abs(np.linalg.inv(B))))
        assert np.max(np.abs(X - ref)) <= 1e-10 * scale


def inverse_difference(*factors):
    """chol_inverse of one factor; of two, the triangles' difference mirrored once."""
    if len(factors) == 1:
        return chol_inverse(factors[0])
    return mirror_upper(inverse_upper(factors[0]) - inverse_upper(factors[1]))


class TestCholInverse:
    """The blocked inverse at the sizes where its recursion splits, up to cond 1e10."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2, 31, 32, 33, 63, 64, 65, 120, 125, 240]),
        log_cond=st.floats(0.0, 10.0),
        minus=st.booleans(),
        junk_above=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_against_numpy_inverse(self, n, log_cond, minus, junk_above, seed):
        rng = np.random.default_rng(seed)

        def spd():
            A = (Q := random_orthogonal(rng, n)) * np.logspace(0.0, log_cond, n) @ Q.T
            return 0.5 * (A + A.T)

        mats = [spd(), spd()] if minus else [spd()]
        factors = [chol_factor(A) for A in mats]
        if junk_above:  # entries above the diagonal must not be read
            for L in factors:
                L[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
        kept = [L.copy() for L in factors]
        X = inverse_difference(*factors)
        assert np.array_equal(X, X.T) and X.flags["C_CONTIGUOUS"]
        assert all(np.array_equal(L, L0) for L, L0 in zip(factors, kept))
        inverses = [np.linalg.inv(A) for A in mats]
        ref = inverses[0] - inverses[1] if minus else inverses[0]
        # each side, chol_inverse and numpy's, carries rounding of order n cond eps
        scale = max(np.max(np.abs(inv)) for inv in inverses)
        bound = 2.0 * n * 10.0**log_cond * np.finfo(float).eps * scale
        assert np.max(np.abs(X - ref)) <= bound

    @pytest.mark.parametrize("pivot", [0, 40, 99])
    @pytest.mark.parametrize("minus", [False, True])
    def test_zero_pivot_raises(self, pivot, minus):
        L = chol_factor(np.eye(100))
        bad = L.copy()
        bad[pivot, pivot] = 0.0
        with pytest.raises(NotPositiveDefiniteError):
            inverse_difference(*((L, bad) if minus else (bad,)))


def blocked_lower_inverse(L):
    """L^{-1} of a lower-triangular L, by the recursion chol_inverse makes.

    Halves of at most 32 rows are inverted by dtrtri; two halves X11, X22
    are joined by the off-diagonal block -X22 L21 X11, two dtrmm calls.
    """
    n = L.shape[0]
    if n <= 32:
        return np.tril(lapack.dtrtri(np.tril(L), lower=1)[0])
    k = n // 2
    X11, X22 = blocked_lower_inverse(L[:k, :k]), blocked_lower_inverse(L[k:, k:])
    X21 = blas.dtrmm(-1.0, X22, blas.dtrmm(1.0, X11, L[k:, :k], side=1, lower=1), lower=1)
    return np.block([[X11, np.zeros((k, n - k))], [X21, X22]])


def blocked_inverse(L):
    """A^{-1} from the blocked L^{-1} and LAPACK dlauum, mirrored."""
    X = lapack.dlauum(blocked_lower_inverse(L), lower=1)[0]
    X += np.tril(X, -1).T
    return X.T


def dpotri_inverse(L):
    """A^{-1} from LAPACK dpotri, mirrored: an accuracy oracle for blocked_inverse."""
    X = lapack.dpotri(L, lower=1)[0]
    X += np.tril(X, -1).T
    return X.T


def block_indices(pb):
    """Positions in h of each diagonal block's coefficients, in the block's own order.

    One block is all of h; m blocks are the inputs, coefficient (a, b, k)
    of input b at (a*m + b)*T + k, ordered by (a, k).
    """
    T, p, m = pb.data.T, pb.data.p, pb.data.m
    if pb.blocks == 1:
        return [np.arange(T * m * p)]
    return [np.array([(a * m + b) * T + k for a in range(p) for k in range(T)])
            for b in range(m)]


def reference_evaluation(pb, lam, inverse=blocked_inverse):
    """(f, B, V, hhat, K - M^{-1}) by the formulas the evaluator must reproduce bit for bit.

    scipy's cholesky and cho_solve, and ``inverse`` for each inverse, with
    every data-side term formed from the problem's record.  The prior
    enters as its diagonal blocks: Khat^{-1} = lam0*G0 + lam1*G1 + lam2*G2
    is added to Phi^T St^{-1} Phi at each block, log|K^{-1}| is the number
    of blocks times log|Khat^{-1}|, and the gap's block is that many Khat
    less each block of M^{-1}.
    """
    data, sigma = pb.data, pb.noise.sigma
    A = np.kron(np.diag(1.0 / sigma), data.gram)
    b = (data.phity / sigma).T.ravel()
    quad = float(np.sum(data.Y.reshape(data.p, data.N) ** 2 / sigma[:, None]))
    logdet_noise = float(data.N * np.sum(np.log(sigma)))
    blocks = block_indices(pb)
    K_inv = lam[0] * pb.G0 + lam[1] * pb.G1 + lam[2] * pb.G2
    M = A.copy()
    for idx in blocks:
        M[np.ix_(idx, idx)] += K_inv
    L_K = la.cholesky(K_inv, lower=True, check_finite=False)
    L_M = la.cholesky(M, lower=True, check_finite=False)
    hhat = la.cho_solve((L_M, True), b, check_finite=False)

    def logdet(L):
        return 2.0 * float(np.sum(np.log(np.diag(L))))

    f = quad - float(b @ hhat) + logdet(L_M) - len(blocks) * logdet(L_K) + logdet_noise
    gap = len(blocks) * inverse(L_K)
    M_inv = inverse(L_M)
    for idx in blocks:
        gap = gap - M_inv[np.ix_(idx, idx)]
    Gs = (pb.G0, pb.G1, pb.G2)
    B = np.array([sum(float(hhat[idx] @ (G @ hhat[idx])) for idx in blocks) for G in Gs])
    V = np.array([float(np.einsum("ij,ij->", G, gap)) for G in Gs])
    return f, B, V, hhat, gap


class TestBitwiseOracle:
    """The value, the split gradient and the posterior mean equal the reference bit for bit."""

    @pytest.mark.parametrize("size", ["small", "s1"])
    @pytest.mark.parametrize("zero", [None, 1, 2], ids=["interior", "lam1=0", "lam2=0"])
    @pytest.mark.parametrize("n_signal", ["0", "mid", "pr"])
    @pytest.mark.parametrize("identity_weights", [True, False], ids=["identity", "empirical"])
    def test_equal_to_reference(self, rng, identity_weights, n_signal, zero, size):
        # "s1" is the coefficient size of the S1 benchmark (T*m*p = 120), where
        # LAPACK runs its blocked code paths
        dims = dict(p=3, m=1, T=40, N=150) if size == "s1" else {}
        for _ in range(2 if size == "s1" else 4):
            pb, lam = random_marglik_problem(rng, identity_weights=identity_weights, **dims)
            n = {"0": 0, "mid": pb.basis.dim // 2, "pr": pb.basis.dim}[n_signal]
            pb = dataclasses.replace(pb, basis=dataclasses.replace(pb.basis, n=n))
            if zero is not None:
                lam[zero] = 0.0
            # the evaluator factors transposes, which are the same matrices
            # only when these are exactly symmetric
            for G in (pb.G0, pb.G1, pb.G2, pb.data.gram):
                assert np.array_equal(G, G.T)
            f_ref, B_ref, V_ref, hhat_ref, _ = reference_evaluation(pb, lam)
            f, B, V = marglik_value_and_gradient(pb, lam)
            assert f == f_ref
            assert np.array_equal(B, B_ref) and np.array_equal(V, V_ref)
            # and V agrees with the dpotri route to rounding of its trace bound
            *_, V_potri, _, gap = reference_evaluation(pb, lam, inverse=dpotri_inverse)
            bound = sum(la.norm(G) for G in (pb.G0, pb.G1, pb.G2)) * la.norm(gap)
            assert np.max(np.abs(V - V_potri)) <= 1e-12 * bound
            assert np.array_equal(posterior_mean(pb, lam).h, hhat_ref)
            fresh = dataclasses.replace(pb)  # the value alone, on a problem with nothing kept
            assert neg_log_marglik(fresh, lam) == f_ref


class TestDenseOracle:
    """f, B, V and hhat against the plain formulas on full-size precisions.

    The oracle builds spline_precision(nu, T, p*m) and E*(U U^T)E at U_n
    and U_n_perp at full size, whatever the weights, and inverts by dpotri.
    With n = T*m*p and eps the unit roundoff, each quantity must agree to
    n*eps times its rounding scale: for f, the sum of its terms' magnitudes
    plus sum |K| o |K^{-1}| (the log-determinant's sensitivity); for hhat,
    cond(M) max|hhat|; for B_i, |hhat|^T |G_i| |hhat|; and for V_i,
    sum |G_i| o (cond(K^{-1}) |K| + cond(M) |M^{-1}|).
    """

    lam_component = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(5e8, 2e9))

    @staticmethod
    def dense_evaluation(pb, lam):
        d, sigma = pb.data, pb.noise.sigma
        A = np.kron(np.diag(1.0 / sigma), d.gram)
        b = (d.phity / sigma).T.ravel()
        quad = float(np.sum(d.Y.reshape(d.p, d.N) ** 2 / sigma[:, None]))
        logdet_noise = float(d.N * np.sum(np.log(sigma)))
        Gs = (spline_precision(pb.nu, d.T, d.p * d.m),
              basis_gram(pb.weights, pb.basis.U_n, d.T, d.p, d.m),
              basis_gram(pb.weights, pb.basis.U_n_perp, d.T, d.p, d.m))
        K_inv = lam[0] * Gs[0] + lam[1] * Gs[1] + lam[2] * Gs[2]
        L_K = la.cholesky(K_inv, lower=True)
        L_M = la.cholesky(K_inv + A, lower=True)
        hhat = la.cho_solve((L_M, True), b)
        logdets = [2.0 * float(np.sum(np.log(np.diag(L)))) for L in (L_M, L_K)]
        terms = [quad, -float(b @ hhat), logdets[0], -logdets[1], logdet_noise]
        K, M_inv = dpotri_inverse(L_K), dpotri_inverse(L_M)
        B = np.array([hhat @ G @ hhat for G in Gs])
        V = np.array([np.sum(G * (K - M_inv)) for G in Gs])
        eps = K_inv.shape[0] * np.finfo(float).eps
        k_K, k_M = np.linalg.cond(K_inv), np.linalg.cond(K_inv + A)
        bounds = dict(
            f=eps * (np.sum(np.abs(terms)) + np.sum(np.abs(K_inv) * np.abs(K))),
            hhat=eps * k_M * np.max(np.abs(hhat)),
            B=eps * np.array([np.abs(hhat) @ np.abs(G) @ np.abs(hhat) for G in Gs]),
            V=eps * np.array([np.sum(np.abs(G) * (k_K * np.abs(K) + k_M * np.abs(M_inv)))
                              for G in Gs]),
        )
        return sum(terms), B, V, hhat, bounds

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 3),
        m=st.integers(1, 3),
        T=st.integers(2, 8),
        empirical=st.booleans(),
        n_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        lam0=lam_component,
        lam1=lam_component,
        lam2=lam_component,
    )
    def test_matches_dense_oracle(self, p, m, T, empirical, n_frac, seed, lam0, lam1, lam2):
        assume(lam0 > 0 or (lam1 > 0 and lam2 > 0))  # otherwise K^{-1} may be singular
        pb, _ = random_marglik_problem(np.random.default_rng(seed), p=p, m=m, T=T,
                                       identity_weights=not empirical)
        n = round(n_frac * pb.basis.dim)
        pb = dataclasses.replace(pb, basis=dataclasses.replace(pb.basis, n=n))
        assert pb.blocks == (1 if empirical else m)
        lam = np.array([lam0, lam1, lam2])
        f, B, V = marglik_value_and_gradient(pb, lam)
        hhat = posterior_mean(pb, lam).h
        f_d, B_d, V_d, hhat_d, bound = self.dense_evaluation(pb, lam)
        assert abs(f - f_d) <= bound["f"]
        assert np.max(np.abs(hhat - hhat_d)) <= bound["hhat"]
        assert np.all(np.abs(B - B_d) <= bound["B"])
        assert np.all(np.abs(V - V_d) <= bound["V"])


class TestFactorReuse:
    """Each lambda is factored once per problem: a repeat evaluation factors nothing."""

    @staticmethod
    def count_factors(monkeypatch):
        count = [0]
        factor = bayes.chol_factor

        def counted(A, **kwargs):
            count[0] += 1
            return factor(A, **kwargs)

        monkeypatch.setattr(bayes, "chol_factor", counted)
        return count

    @staticmethod
    def logged(fn, count, log):
        """fn(pb, lam) that appends (name, pb, lam bytes, factorizations, raised)."""

        def call(pb, lam):
            before = count[0]
            raised = True
            try:
                out = fn(pb, lam)
                raised = False
                return out
            finally:
                key = np.asarray(lam, dtype=float).tobytes()
                log.append((fn.__name__, pb, key, count[0] - before, raised))

        return call

    @staticmethod
    def repeats(log):
        """Names of the evaluations that repeat their problem's kept lambda.

        Each problem keeps the last lambda it evaluated successfully, so a
        repeat of it must factor nothing, even after calls on other problems;
        any other evaluation factors K^{-1} (and M, unless K^{-1} fails).
        """
        names = []
        kept = {}  # id(problem) -> lambda bytes of its last successful evaluation
        for name, pb, key, factored, raised in log:
            if kept.get(id(pb)) == key:
                assert factored == 0, name
                names.append(name)
            else:
                assert factored > 0, name
            if not raised:
                kept[id(pb)] = key
        return names

    def test_sgp_solve(self, rng, monkeypatch):
        count = self.count_factors(monkeypatch)
        pb, lam, *_ = random_marglik_problem(rng, identity_weights=False)
        log = []
        res = sgp_minimize(partial(self.logged(marglik_value_and_gradient, count, log), pb),
                           lam, fun=partial(self.logged(neg_log_marglik, count, log), pb))
        repeats = self.repeats(log)
        # fun_grad runs at the start and at each accepted Armijo trial that
        # SGP steps from, which is every one but the point where it stops
        grads = [entry for entry in log if entry[0] == "marglik_value_and_gradient"]
        assert res.status == "rel_tol" and len(grads) == res.n_iter == len(res.history) - 1
        assert repeats.count("marglik_value_and_gradient") == res.n_iter - 1 > 0

    def test_identify(self, monkeypatch):
        count = self.count_factors(monkeypatch)
        log = []
        for fn in (neg_log_marglik, marglik_value_and_gradient, posterior_mean):
            monkeypatch.setattr(identify_module, fn.__name__, self.logged(fn, count, log))
        spec = scenario_spec("S1", N=200, T=8, band_range=None, snr_range=(3, 3))
        identify(gen_scenario_run(spec, 1).data, IdentConfig(T=8, weighting="empirical"))
        repeats = self.repeats(log)
        # the warm-start value before each solve and the accepted Armijo
        # trials are followed by fun_grad, the loop-top posterior mean by
        # the solve that ended there
        assert "posterior_mean" in repeats and "marglik_value_and_gradient" in repeats

    def test_invalid_lambda_still_raises_after_a_valid_one(self, rng):
        pb, lam, *_ = random_marglik_problem(rng)
        f = neg_log_marglik(pb, lam)
        for fn in (neg_log_marglik, marglik_value_and_gradient, posterior_mean):
            with pytest.raises(ValueError, match=">= 0"):
                fn(pb, [-0.5, lam[1], lam[2]])
            with pytest.raises(ValueError, match="exactly 3"):
                fn(pb, lam[:2])
        assert neg_log_marglik(pb, lam) == f

    def test_non_finite_lambda_raises_and_keeps_the_last(self, rng):
        pb, lam, *_ = random_marglik_problem(rng)
        f = neg_log_marglik(pb, lam)
        kept = pb._last
        for fn in (neg_log_marglik, marglik_value_and_gradient, posterior_mean):
            for bad in ([np.nan, lam[1], lam[2]], [lam[0], np.inf, lam[2]],
                        [lam[0], lam[1], np.nan]):
                with pytest.raises(ValueError, match="finite"):
                    fn(pb, bad)
                assert pb._last is kept
        assert kept[0] == np.asarray(lam, dtype=float).tobytes()
        assert neg_log_marglik(pb, lam) == f

    def test_failed_cholesky_is_not_kept(self, rng, monkeypatch):
        pb, lam, *_ = random_marglik_problem(rng)
        f = neg_log_marglik(pb, lam)
        count = self.count_factors(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotPositiveDefiniteError):
                neg_log_marglik(pb, np.zeros(3))
        assert count[0] == 2  # the second try factored again
        # and the failure left the kept lambda in place
        assert neg_log_marglik(pb, lam) == f and count[0] == 2

    def test_replaced_problem_starts_afresh(self, rng):
        pb, lam = random_marglik_problem(rng, p=2, m=1, T=4, N=20)
        f = neg_log_marglik(pb, lam)
        other = dataclasses.replace(pb.basis, n=(pb.basis.n + 1) % (pb.basis.dim + 1))
        replaced = dataclasses.replace(pb, basis=other)
        fresh = MarglikProblem(pb.data, pb.noise, pb.nu, pb.weights, other)
        assert neg_log_marglik(replaced, lam) == neg_log_marglik(fresh, lam) != f
        assert np.array_equal(posterior_mean(replaced, lam).h, posterior_mean(fresh, lam).h)

    def test_threads_sharing_a_problem(self, rng):
        pb, lam, *_ = random_marglik_problem(rng, p=2, m=1, T=4, N=20)
        lams = [lam, 2.0 * lam, 0.5 * lam]
        expected = [marglik_value_and_gradient(dataclasses.replace(pb), x) for x in lams]
        mismatches = []

        def work(offset):
            for k in range(150):
                i = (k + offset) % len(lams)
                f, B, V = marglik_value_and_gradient(pb, lams[i])
                if not (f == expected[i][0] and np.array_equal(B, expected[i][1])
                        and np.array_equal(V, expected[i][2])):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestNoiseModel:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseModel([1.0, 0.0])
        with pytest.raises(ValueError):
            NoiseModel([-1.0])
