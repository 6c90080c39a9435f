import numpy as np
import pytest

from hankelid import (
    Dataset,
    ImpulseResponse,
    WeightPair,
    build_weights,
)
from hankelid.model import (FirData, build_hankel, hankel_dims, hankel_index_map, read_dataset_csv,
                            regressor_block, weighted_hankel)

from conftest import build_regressor, hankel_permutation, random_marglik_problem, write_dataset_csv


class TestStackOutputs:
    """The package stacks outputs channel-major, [y_1(1..N), ..., y_p(1..N)]."""

    @staticmethod
    def stack(d: Dataset, T: int = 1) -> np.ndarray:
        return FirData(regressor_block(d.u, T), d.y, T).Y

    def test_two_channel_example(self, rng):
        y = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        d = Dataset(rng.standard_normal((3, 1)), y)
        assert np.array_equal(self.stack(d), [1.0, 2.0, 3.0, 10.0, 20.0, 30.0])

    def test_single_channel_identity(self, rng):
        y = rng.standard_normal((6, 1))
        assert np.array_equal(self.stack(Dataset(rng.standard_normal((6, 1)), y)), y[:, 0])

    def test_matches_index_loop_oracle(self, rng):
        N, p = 40, 3
        y = rng.standard_normal((N, p))
        Y = self.stack(Dataset(rng.standard_normal((N, 2)), y), T=5)
        expected = np.empty(N * p)
        for i in range(p):
            for t in range(N):
                expected[i * N + t] = y[t, i]
        assert np.array_equal(Y, expected)

    def test_round_trip(self, rng):
        # MarglikProblem reads the stack back channel-major: its Phi^T St^{-1} Y
        # matches the dense block-diagonal regressor applied to the stack.
        pb, *_ = random_marglik_problem(rng, p=3, m=2, T=4, N=25)
        Phi = np.kron(np.eye(3), pb.data.phi)
        St_inv = np.repeat(1.0 / pb.noise.sigma, pb.data.N)
        np.testing.assert_allclose(pb._b, Phi.T @ (St_inv * pb.data.Y), rtol=1e-12, atol=1e-12)


class TestRegressor:
    def test_delay_forces_zero_first_row(self):
        d = Dataset(np.array([[5.0], [7.0]]), np.zeros((2, 1)))
        phi = build_regressor(d, 1)
        assert np.array_equal(phi, [[0.0], [5.0]])

    def test_block_diagonal_structure(self, rng):
        u = rng.standard_normal((4, 1))
        d = Dataset(u, rng.standard_normal((4, 2)))
        Phi = build_regressor(d, 1)
        block = regressor_block(u, 1)
        assert Phi.shape == (8, 2)
        assert np.array_equal(Phi[:4, :1], block)
        assert np.array_equal(Phi[4:, 1:], block)
        assert np.all(Phi[:4, 1:] == 0) and np.all(Phi[4:, :1] == 0)

    def test_matches_convolution_oracle(self, rng):
        m, p, T, N = 2, 2, 3, 5
        u = rng.standard_normal((N, m))
        d = Dataset(u, rng.standard_normal((N, p)))
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        M = h.as_matrix_sequence()
        Phi = build_regressor(d, T)
        direct = np.zeros((N, p))
        for t in range(N):
            for k in range(1, T + 1):
                if t - k >= 0:
                    direct[t] += M[k - 1] @ u[t - k]
        assert np.max(np.abs(Phi @ h.h - direct.T.ravel())) < 1e-12

    def test_rejects_bad_T(self):
        d = Dataset(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            build_regressor(d, 0)


class TestHankelDims:
    def test_siso_square(self):
        dims = hankel_dims(5, 1, 1)
        assert (dims.r, dims.c) == (3, 3)

    def test_tall_outputs(self):
        dims = hankel_dims(3, 2, 1)
        assert (dims.r, dims.c) == (1, 3)

    def test_s1_shape(self):
        dims = hankel_dims(80, 3, 1)
        assert (dims.r, dims.c) == (20, 61)

    @pytest.mark.parametrize("T,p,m", [(7, 2, 3), (12, 1, 4), (9, 5, 1), (1, 2, 2)])
    def test_exhaustive_search_oracle(self, T, p, m):
        dims = hankel_dims(T, p, m)
        best = min(range(1, T + 1), key=lambda r: (abs(p * r - m * (T + 1 - r)), r))
        assert dims.r == best
        assert dims.r + dims.c - 1 == T


class TestBuildHankel:
    def test_siso_explicit(self):
        h = ImpulseResponse(np.array([1.0, 2.0, 3.0]), T=3, m=1, p=1)
        H = build_hankel(h)
        assert np.array_equal(H, [[1.0, 2.0], [2.0, 3.0]])

    def test_zero_response(self):
        h = ImpulseResponse(np.zeros(8), T=4, m=2, p=1)
        H = build_hankel(h)
        assert not np.any(H)

    def test_rank_equals_state_dimension(self, rng):
        # realization-theory oracle: h(k) = C A^(k-1) B has Hankel rank 2
        A = np.array([[0.5, 0.2], [-0.3, 0.4]])
        B = rng.standard_normal((2, 1))
        C = rng.standard_normal((1, 2))
        T = 9
        M = np.empty((T, 1, 1))
        X = B.copy()
        for k in range(T):
            M[k] = C @ X
            X = A @ X
        h = ImpulseResponse.from_matrix_sequence(M)
        H = build_hankel(h)
        s = np.linalg.svd(H, compute_uv=False)
        assert np.all(s[2:] < 1e-8 * s[0])


    def test_mimo_matches_block_row_loop(self, rng):
        # reference: the block-row construction, block row i holding the
        # lags h(i+1), ..., h(i+c)
        T, p, m = 7, 2, 2
        r, c = hankel_dims(T, p, m)
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        M = h.as_matrix_sequence()  # (T, p, m)
        ref = np.empty((p * r, m * c))
        for i in range(r):
            ref[i * p : (i + 1) * p, :] = M[i : i + c].transpose(1, 0, 2).reshape(p, m * c)
        assert np.array_equal(build_hankel(h), ref)

    def test_index_map_reads_T_from_dims(self):
        # T = 4, m = 2: 8 slots, the second input channel starts at slot 4
        idx = hankel_index_map(4, 1, 2)
        assert idx.shape == (3, 4)
        assert idx[0, 1] == 4 and idx.max() == 7


class TestHankelPermutation:
    def test_scalar(self):
        P = hankel_permutation(1, 1, 1)
        assert np.array_equal(P.toarray(), [[1.0]])

    def test_siso_T3(self):
        P = hankel_permutation(3, 1, 1)
        h = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(P @ h, [1.0, 2.0, 2.0, 3.0])

    def test_vec_identity_exact(self, rng):
        p = m = 2
        T = 7
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        H = build_hankel(h)
        P = hankel_permutation(T, p, m)
        # vec(H^T) stacks the rows of H
        assert np.max(np.abs(H.ravel() - P @ h.h)) == 0.0

    def test_selection_structure_and_multiplicities(self, rng):
        T, p, m = 6, 2, 3
        P = hankel_permutation(T, p, m).toarray()
        assert np.all(np.sum(P == 1, axis=1) == 1)
        assert np.all(np.sum(P != 0, axis=1) == 1)
        PtP = P.T @ P
        assert np.array_equal(PtP, np.diag(np.diag(PtP)))
        idx = hankel_index_map(T, p, m)
        counts = np.bincount(idx.ravel(), minlength=T * m * p)
        assert np.array_equal(np.diag(PtP), counts)
        assert np.all(counts >= 1)


class TestBuildWeights:
    def test_identity_mode(self):
        d = Dataset(np.zeros((10, 2)) + 1.0, np.ones((10, 3)))
        r, c = hankel_dims(5, 3, 2)
        w = build_weights(d, 5, "identity")
        assert np.array_equal(w.W1, np.eye(2 * c))
        assert np.array_equal(w.W2, np.eye(3 * r))
        assert w.is_identity

    def test_white_input_converges_to_identity(self):
        rng = np.random.default_rng(7)
        N = 100_000
        d = Dataset(rng.standard_normal((N, 1)), rng.standard_normal((N, 1)))
        r, c = hankel_dims(9, 1, 1)
        w = build_weights(d, 9, "empirical")
        assert np.max(np.abs(w.W1 - np.eye(c))) < 0.05
        assert np.max(np.abs(w.W2 - np.eye(r))) < 0.05
        assert not w.is_identity

    def test_constant_input_survives_via_ridge(self):
        d = Dataset(np.ones((50, 1)), np.ones((50, 1)))
        w = build_weights(d, 5, "empirical")
        assert np.all(np.isfinite(np.linalg.cond(w.W1)))
        assert np.all(np.isfinite(np.linalg.cond(w.W2)))

    def test_unknown_mode(self):
        d = Dataset(np.ones((10, 1)), np.ones((10, 1)))
        with pytest.raises(ValueError):
            build_weights(d, 3, "banana")


class TestWeightPair:
    def test_weighted_hankel_applies_nonidentity_weights(self, rng):
        # T = 6, p = m = 1: a 3 x 4 Hankel matrix
        h = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        W1, W2 = np.diag([1.0, 3.0, 0.2, 5.0]), 2.0 * np.eye(3)
        Ht = weighted_hankel(h, WeightPair(W1, W2))
        assert np.array_equal(Ht, W2.T @ build_hankel(h) @ W1.T)

    def test_is_identity_read_from_the_matrices(self):
        assert WeightPair(np.eye(4), np.eye(3)).is_identity
        assert not WeightPair(np.diag([1.0, 3.0, 0.2, 5.0]), 2.0 * np.eye(3)).is_identity
        assert not WeightPair(np.eye(4), 2.0 * np.eye(3)).is_identity


class TestImpulseResponse:
    def test_stack_unstack_roundtrip_exact(self, rng):
        h = rng.standard_normal(5 * 2 * 3)
        ir = ImpulseResponse(h, T=5, m=2, p=3)
        again = ImpulseResponse.from_matrix_sequence(ir.as_matrix_sequence())
        assert np.array_equal(again.h, h)
        assert (again.T, again.m, again.p) == (5, 2, 3)

    def test_stacking_order(self):
        # h = [h_11 | h_12 | h_21 | h_22] with h_ij = [h_ij(1), h_ij(2)]
        h = np.arange(8.0)
        ir = ImpulseResponse(h, T=2, m=2, p=2)
        M = ir.as_matrix_sequence()
        assert M[0, 0, 0] == 0.0 and M[1, 0, 0] == 1.0
        assert M[0, 0, 1] == 2.0 and M[1, 0, 1] == 3.0
        assert M[0, 1, 0] == 4.0 and M[1, 1, 1] == 7.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ImpulseResponse(np.zeros(5), T=2, m=2, p=2)

    @pytest.mark.parametrize("size, T, m, p", [(1, -1, -1, 1), (0, 0, 1, 1), (0, 3, 0, 2),
                                               (2, -2, 1, -1)])
    def test_shape_must_be_positive(self, size, T, m, p):
        # the length check alone passes these: T*m*p equals the size
        with pytest.raises(ValueError, match="T, m, p >= 1"):
            ImpulseResponse(np.zeros(size), T=T, m=m, p=p)

    def test_predict_is_the_convolution(self, rng):
        m, p, T, N = 2, 3, 4, 9
        u = rng.standard_normal((N, m))
        h = ImpulseResponse(rng.standard_normal(T * m * p), T=T, m=m, p=p)
        M = h.as_matrix_sequence()
        direct = np.zeros((N, p))
        for t in range(N):
            for k in range(1, min(t, T) + 1):
                direct[t] += M[k - 1] @ u[t - k]
        assert np.max(np.abs(h.predict(regressor_block(u, T)) - direct)) < 1e-12


class TestDatasetCsv:
    def test_round_trip(self, rng, tmp_path):
        d = Dataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 3)))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, d)
        back = read_dataset_csv(path)
        assert np.array_equal(back.u, d.u)
        assert np.array_equal(back.y, d.y)

    def test_strict_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u1,y1\n1,0.5,0.2\n2,0.1\n")
        with pytest.raises(ValueError, match="expected 3 columns"):
            read_dataset_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("header", ["t,y1,u1", "t,u1,y1,u2"])
    def test_header_checked_by_name_and_order(self, tmp_path, header):
        # counting u/y prefixes alone would swap input and output (t,y1,u1)
        # or read y1 as a second input (t,u1,y1,u2)
        path = tmp_path / "bad.csv"
        row = ",".join(["1"] + ["0.5"] * header.count(","))
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"got '{header}'"):
            read_dataset_csv(path)


class TestDatasetValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_nonfinite_rejected(self):
        u = np.zeros((3, 1))
        y = np.zeros((3, 1))
        y[1] = np.nan
        with pytest.raises(ValueError):
            Dataset(u, y)


class TestWeightsDegenerate:
    def test_zero_series_names_the_zero_window(self, rng):
        zero, noise = np.zeros((30, 1)), rng.standard_normal((30, 1))
        with pytest.raises(ValueError, match="every input window is zero"):
            build_weights(Dataset(zero, zero), 5, "empirical")
        with pytest.raises(ValueError, match="every output window is zero"):
            build_weights(Dataset(noise, zero), 5, "empirical")


class TestOutputStackValidation:
    def test_length_checked(self, rng):
        # the problem's output count comes from the record; a noise model
        # for another count is rejected
        from hankelid import MarglikProblem, NoiseModel

        pb, *_ = random_marglik_problem(rng, p=2)
        with pytest.raises(ValueError, match="noise model has 1 outputs, data has p = 2"):
            MarglikProblem(pb.data, NoiseModel(pb.noise.sigma[:1]), pb.nu, pb.weights, pb.basis)


class TestFirData:
    def test_products_and_shapes(self, rng):
        N, m, p, T = 30, 2, 3, 4
        u, y = rng.standard_normal((N, m)), rng.standard_normal((N, p))
        data = FirData(regressor_block(u, T), y, T)
        assert (data.N, data.m, data.p, data.T) == (N, m, p, T)
        np.testing.assert_allclose(data.gram, data.phi.T @ data.phi, rtol=1e-13)
        for i in range(p):
            np.testing.assert_allclose(data.phity[:, i], data.phi.T @ y[:, i], rtol=1e-13)
        assert np.array_equal(data.Y, np.concatenate([y[:, i] for i in range(p)]))

    def test_row_mismatch_rejected(self, rng):
        phi = regressor_block(rng.standard_normal((10, 1)), 3)
        with pytest.raises(ValueError, match="phi has 10 rows, y has 9"):
            FirData(phi, np.zeros((9, 1)), 3)

    @pytest.mark.parametrize("columns", [5, 2])
    def test_columns_not_a_multiple_of_T_rejected(self, columns):
        with pytest.raises(ValueError, match=f"phi has {columns} columns"):
            FirData(np.zeros((10, columns)), np.zeros((10, 1)), 3)

    @pytest.mark.parametrize("where", ["phi", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, where, bad):
        phi, y = np.zeros((10, 3)), np.zeros((10, 2))
        (phi if where == "phi" else y)[4, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            FirData(phi, y, 3)

    def test_outputs_must_be_time_major_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            FirData(np.zeros((10, 3)), np.zeros(10), 3)
