import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelid import (
    Dataset,
    FirData,
    ImpulseResponse,
    MarglikProblem,
    NoiseModel,
    NotPositiveDefiniteError,
    SplineHyper,
    SubspaceBasis,
    WeightPair,
    build_hankel,
    build_weights,
    neg_log_marglik,
    nn_admm,
    posterior_mean,
    weighted_hankel,
)
from hankelid.kernels import (_next_fast_len, hankel_gram, hankel_precisions,
                              spline_precision, tc_precision_block)
from hankelid.model import hankel_operator, regressor_block
from conftest import (hankel_permutation, q_matrix, random_marglik_problem, random_orthogonal,
                      tc_kernel)


def random_hankel_setup(rng, p, m, T, empirical=False):
    if empirical:
        d = Dataset(rng.standard_normal((200, m)), rng.standard_normal((200, p)))
        weights = build_weights(d, T, "empirical")
    else:
        weights = build_weights(
            Dataset(np.ones((T + 5, m)), np.ones((T + 5, p))), T, "identity"
        )
    pr = weights.W2.shape[0]
    n = int(rng.integers(0, pr + 1))
    basis = SubspaceBasis(random_orthogonal(rng, pr), n, np.zeros(pr))
    h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
    return weights, basis, h


class TestTcKernel:
    def test_entry_values(self):
        K = tc_kernel(SplineHyper(1.0, 0.5), 3)
        assert K[0, 0] == 0.5
        K2 = tc_kernel(SplineHyper(2.0, 0.5), 3)
        assert K2[1, 2] == pytest.approx(0.25)

    def test_positive_definite(self):
        K = tc_kernel(SplineHyper(1.0, 0.9), 30)
        evals = np.linalg.eigvalsh(K)
        assert np.all(evals > 0)
        np.linalg.cholesky(K)  # must not raise


class TestSplinePrecision:
    def test_T1_scalar(self):
        G0 = spline_precision(SplineHyper(2.0, 0.5), 1, 1, 1)
        assert G0 == pytest.approx(np.array([[1.0]]))

    def test_inverse_of_kernel(self):
        hp = SplineHyper(1.0, 0.8)
        T = 40
        K = tc_kernel(hp, T)
        G0 = tc_precision_block(hp, T)
        assert np.max(np.abs(G0 @ K - np.eye(T))) < 1e-8

    def test_matches_dense_inversion_up_to_T60(self):
        for T in (2, 7, 25, 60):
            hp = SplineHyper(0.7, 0.9)
            dense = np.linalg.inv(tc_kernel(hp, T))
            analytic = tc_precision_block(hp, T)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(dense - analytic)) < 1e-8 * scale

    def test_blockdiag_channels(self):
        hp = SplineHyper(1.3, 0.6)
        T = 4
        G0 = spline_precision(hp, T, 2, 1)
        block = tc_precision_block(hp, T)
        assert np.array_equal(G0[:T, :T], block)
        assert np.array_equal(G0[T:, T:], block)
        assert not np.any(G0[:T, T:])

    def test_degenerate_hyper_rejected(self):
        with pytest.raises(ValueError):
            tc_precision_block(SplineHyper(0.0, 0.5), 3)
        with pytest.raises(ValueError):
            tc_precision_block(SplineHyper(1.0, 1.0), 3)
        with pytest.raises(ValueError):
            tc_precision_block(SplineHyper(1.0, 0.0), 3)


class TestQMatrix:
    def test_empty_signal_subspace(self, rng):
        basis = SubspaceBasis(random_orthogonal(rng, 4), 0, np.zeros(4))
        assert np.allclose(q_matrix(basis, 3.0, 2.0), 2.0 * np.eye(4))

    def test_equal_weights_give_identity(self, rng):
        basis = SubspaceBasis(random_orthogonal(rng, 5), 2, np.zeros(5))
        assert np.max(np.abs(q_matrix(basis, 1.5, 1.5) - 1.5 * np.eye(5))) < 1e-12

    def test_eigenvalues(self, rng):
        basis = SubspaceBasis(random_orthogonal(rng, 6), 2, np.zeros(6))
        Q = q_matrix(basis, 5.0, 0.5)
        evals = np.sort(np.linalg.eigvalsh(Q))
        assert np.allclose(evals, [0.5, 0.5, 0.5, 0.5, 5.0, 5.0])

    def test_rotation_invariance_within_signal_block(self, rng):
        pr, n = 6, 3
        U = random_orthogonal(rng, pr)
        R = random_orthogonal(rng, n)
        U_rot = U.copy()
        U_rot[:, :n] = U[:, :n] @ R
        b1 = SubspaceBasis(U, n, np.zeros(pr))
        b2 = SubspaceBasis(U_rot, n, np.zeros(pr))
        assert np.max(np.abs(q_matrix(b1, 2.0, 0.1) - q_matrix(b2, 2.0, 0.1))) < 1e-10


class TestHankelPrecisions:
    def test_zero_signal_dimension(self, rng):
        weights, basis, _ = random_hankel_setup(rng, 2, 1, 5)
        basis = SubspaceBasis(basis.U, 0, basis.s)
        G1, G2 = hankel_precisions(weights, basis, 5, 2, 1)
        assert not np.any(G1)

    def test_full_signal_dimension_frobenius(self, rng):
        p, m, T = 2, 1, 5
        weights = build_weights(Dataset(np.ones((9, m)), np.ones((9, p))), T)
        pr = weights.W2.shape[0]
        basis = SubspaceBasis(random_orthogonal(rng, pr), pr, np.zeros(pr))
        G1, G2 = hankel_precisions(weights, basis, T, p, m)
        assert not np.any(G2)
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        H = build_hankel(h)
        assert h.h @ G1 @ h.h == pytest.approx(np.sum(H**2), rel=1e-12)

    @pytest.mark.parametrize("empirical", [False, True])
    def test_trace_form_oracle(self, rng, empirical):
        for _ in range(10):
            p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            T = int(rng.integers(2, 8))
            weights, basis, h = random_hankel_setup(rng, p, m, T, empirical)
            lam1, lam2 = rng.uniform(0.1, 3.0, size=2)
            G1, G2 = hankel_precisions(weights, basis, T, p, m)
            Ht = weighted_hankel(h, weights)
            Q = q_matrix(basis, lam1, lam2)
            lhs = h.h @ (lam1 * G1 + lam2 * G2) @ h.h
            rhs = np.trace(Ht @ Ht.T @ Q)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 3),
        m=st.integers(1, 3),
        T=st.integers(1, 9),
        empirical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_kron_oracle(self, p, m, T, empirical, seed):
        # the FFT grams equal P^T (W2 U U^T W2^T kron W1^T W1) P at every n
        weights, basis, _ = random_hankel_setup(np.random.default_rng(seed), p, m, T, empirical)
        P = hankel_permutation(T, p, m).toarray()
        Gw = weights.W1.T @ weights.W1
        pr = weights.W2.shape[0]
        for n in range(pr + 1):
            split = SubspaceBasis(basis.U, n, basis.s)
            G1, G2 = hankel_precisions(weights, split, T, p, m)
            for G, Ub in ((G1, split.U_n), (G2, split.U_n_perp)):
                W2U = weights.W2 @ Ub
                dense = P.T @ np.kron(W2U @ W2U.T, Gw) @ P
                assert np.max(np.abs(G - dense)) < 1e-10 * max(1.0, np.max(np.abs(dense)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 3),
        m=st.integers(1, 3),
        T=st.integers(1, 9),
        empirical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_is_the_operator_composition(self, p, m, T, empirical, seed):
        # <E(h), M> = <h, E*(M)>, and the FFT gram is E*(U U^T E(h)) (E*E(h) without U)
        rng = np.random.default_rng(seed)
        weights, basis, h = random_hankel_setup(rng, p, m, T, empirical)
        E, E_adj = hankel_operator(weights, T, p, m)
        H = E(h.h)
        M = rng.standard_normal(H.shape)
        scale = max(1.0, np.max(np.abs(H)), np.max(np.abs(E_adj(M))))
        assert abs(np.sum(H * M) - h.h @ E_adj(M)) < 1e-10 * scale * H.size
        for U in (basis.U_n, None):
            projected = H if U is None else U @ (U.T @ H)
            expected = E_adj(projected)
            gram = hankel_gram(weights, T, p, m, U)
            scale = max(1.0, np.max(np.abs(expected)), np.max(np.abs(gram)))
            assert np.max(np.abs(gram @ h.h - expected)) < 1e-10 * scale

    def test_sum_is_basis_free_gram(self, rng):
        p, m, T = 2, 1, 6
        P = hankel_permutation(T, p, m).toarray()
        for empirical in (True, False):
            weights, basis, _ = random_hankel_setup(rng, p, m, T, empirical=empirical)
            G1, G2 = hankel_precisions(weights, basis, T, p, m)
            gram = P.T @ np.kron(weights.W2 @ weights.W2.T, weights.W1.T @ weights.W1) @ P
            scale = max(1.0, np.max(np.abs(gram)))
            assert np.max(np.abs(G1 + G2 - gram)) < 1e-10 * scale
            assert np.max(np.abs(hankel_gram(weights, T, p, m) - gram)) < 1e-10 * scale
        # identity weights: E*E is exactly the diagonal of Hankel multiplicities
        assert weights.is_identity
        assert np.array_equal(hankel_gram(weights, T, p, m), P.T @ P)
        assert np.count_nonzero(P.T @ P) == T * m * p


class TestFftLength:
    def test_matches_scipy_next_fast_len(self):
        # the FFT grams stay bit-identical only if the transform length does
        lengths = [_next_fast_len(T) for T in range(1, 1001)]
        assert lengths == [scipy.fft.next_fast_len(T) for T in range(1, 1001)]

    def test_package_import_leaves_scipy_fft_unloaded(self):
        # scipy.fft pulls in scipy.special, which the package does not need
        code = "import sys, hankelid; print('scipy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestCombinedPrecision:
    """The prior precision lam0*G0 + lam1*G1 + lam2*G2 and its lambda checks."""

    def no_data_problem(self, rng, p=1, m=1, T=4, N=9):
        """phi = 0, so M = K^{-1} and both factorizations see the prior alone."""
        weights = build_weights(Dataset(np.ones((N, m)), np.ones((N, p))), T)
        pr = weights.W2.shape[0]
        basis = SubspaceBasis(random_orthogonal(rng, pr), pr // 2, np.zeros(pr))
        data = FirData(np.zeros((N, T * m)), np.zeros((N, p)), T)
        return MarglikProblem(data, NoiseModel(np.ones(p)), SplineHyper(1.0, 0.7), weights,
                              basis)

    def test_spline_only(self, rng):
        pb, _ = random_marglik_problem(rng, p=2, m=1, T=5, N=20)
        K_inv = 1.0 * pb.G0 + 0.0 * pb.G1 + 0.0 * pb.G2
        assert np.array_equal(K_inv, pb.G0)
        # the package's own mix agrees: at lam = [lam0, 0, 0] the Hankel terms
        # drop out exactly, whatever the basis
        other = dataclasses.replace(pb, basis=SubspaceBasis.trivial(pb.basis.dim))
        assert not np.array_equal(other.G2, pb.G2)
        for lam in ([1.0, 0.0, 0.0], [3.5, 0.0, 0.0]):
            assert neg_log_marglik(pb, lam) == neg_log_marglik(other, lam)
            assert np.array_equal(posterior_mean(pb, lam).h, posterior_mean(other, lam).h)

    def test_nuclear_norm_special_case(self, rng):
        # identity weights, lam1 = lam2: penalty = lam * sum of squared
        # singular values, and the precision is lam * P^T P
        p, m, T = 1, 2, 5
        weights = build_weights(Dataset(np.ones((T + 9, m)), np.ones((T + 9, p))), T)
        pr = weights.W2.shape[0]
        basis = SubspaceBasis(random_orthogonal(rng, pr), 1, np.zeros(pr))
        G1, G2 = hankel_precisions(weights, basis, T, p, m)
        lam_star = 1.7
        K_inv = lam_star * (G1 + G2)
        P = hankel_permutation(T, p, m).toarray()
        assert np.max(np.abs(K_inv - lam_star * P.T @ P)) < 1e-10
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        s = np.linalg.svd(build_hankel(h), compute_uv=False)
        penalty = h.h @ K_inv @ h.h
        assert penalty == pytest.approx(lam_star * np.sum(s**2), rel=1e-10)

    def test_positive_lambda_is_pd(self, rng):
        pb = self.no_data_problem(rng, p=2, m=1, T=5)
        lam = rng.uniform(0.1, 2.0, size=3)
        K_inv = lam[0] * pb.G0 + lam[1] * pb.G1 + lam[2] * pb.G2
        assert np.min(np.linalg.eigvalsh(K_inv)) > 0

    def test_non_pd_signaled(self, rng):
        pb = self.no_data_problem(rng)
        # zero out everything: clearly not PD
        with pytest.raises(NotPositiveDefiniteError):
            neg_log_marglik(pb, [0.0, 0.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError):
            posterior_mean(pb, [0.0, 0.0, 0.0])

    def test_invalid_lambda_rejected(self, rng):
        pb = self.no_data_problem(rng)
        with pytest.raises(ValueError, match=">= 0"):
            neg_log_marglik(pb, [-0.5, 1.0, 1.0])
        with pytest.raises(ValueError, match=">= 0"):
            posterior_mean(pb, [-0.5, 1.0, 1.0])


class TestSubspaceBasis:
    def test_orthogonality_enforced(self, rng):
        U = random_orthogonal(rng, 4)
        U[:, 0] *= 1.01
        with pytest.raises(ValueError):
            SubspaceBasis(U, 1, np.zeros(4))

    def test_partition(self, rng):
        U = random_orthogonal(rng, 5)
        b = SubspaceBasis(U, 2, np.zeros(5))
        assert b.U_n.shape == (5, 2)
        assert b.U_n_perp.shape == (5, 3)
        assert np.array_equal(np.hstack([b.U_n, b.U_n_perp]), U)


class TestErrorContracts:
    def test_hankel_precisions_dimension_mismatch(self, rng):
        weights = build_weights(Dataset(np.ones((9, 1)), np.ones((9, 2))), 5)
        wrong_basis = SubspaceBasis(random_orthogonal(rng, 3), 1, np.zeros(3))
        with pytest.raises(ValueError, match="basis dimension"):
            hankel_precisions(weights, wrong_basis, 5, 2, 1)

    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("caller", ["operator", "gram", "gram_U", "nn_admm"])
    def test_wrong_size_weights_rejected(self, rng, caller, identity):
        # T=5, p=2, m=1 needs W1 and W2 of size 4; these are 5 and 3
        W1, W2 = np.eye(5), np.eye(3)
        if not identity:
            W1, W2 = W1 + 0.1 * np.eye(5, k=1), 2.0 * W2
        weights = WeightPair(W1, W2)
        d = Dataset(rng.standard_normal((30, 1)), rng.standard_normal((30, 2)))
        call = {
            "operator": lambda: hankel_operator(weights, 5, 2, 1),
            "gram": lambda: hankel_gram(weights, 5, 2, 1),
            "gram_U": lambda: hankel_gram(weights, 5, 2, 1, np.eye(4)[:, :0]),
            "nn_admm": lambda: nn_admm(FirData(regressor_block(d.u, 5), d.y, 5), 1.0,
                                       weights=weights),
        }[caller]
        with pytest.raises(ValueError, match="weight matrices do not match"):
            call()

    def test_gram_basis_rows_checked(self):
        weights = build_weights(Dataset(np.ones((9, 1)), np.ones((9, 2))), 5)
        with pytest.raises(ValueError, match="basis dimension 3 does not match"):
            hankel_gram(weights, 5, 2, 1, np.eye(3)[:, :0])
