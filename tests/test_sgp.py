import dataclasses
from collections import deque
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelid import SgpParams, marglik_value_and_gradient, neg_log_marglik, sgp_minimize
from hankelid.linalg import NotPositiveDefiniteError
from hankelid.sgp import bb_steplength, project_positive, scaling_matrix

from conftest import random_marglik_problem


def quadratic_split(target):
    """f(lam) = ||lam - target||^2 with a valid nonnegative gradient split."""
    t = np.asarray(target, dtype=float)

    def fun_grad(lam):
        r = lam - t
        B = 2.0 * lam + 2.0 * np.maximum(-t, 0.0)
        V = 2.0 * np.maximum(t, 0.0)
        return float(r @ r), B, V

    return fun_grad


class TestProjectPositive:
    def test_examples(self):
        assert np.array_equal(project_positive(np.array([-1.0, 2.0, 3.0])), [0, 2, 3])
        assert np.array_equal(project_positive(np.zeros(3)), np.zeros(3))

    def test_separable_minimization_oracle(self, rng):
        # projection in any diagonal metric solves the per-coordinate problem
        for _ in range(20):
            lam = rng.standard_normal(3) * 5
            d = rng.uniform(0.1, 10.0, size=3)
            proj = project_positive(lam)
            for i in range(3):
                grid = np.linspace(0.0, abs(lam[i]) + 1.0, 2001)
                vals = (grid - lam[i]) ** 2 / d[i]
                assert abs(grid[np.argmin(vals)] - proj[i]) < 1e-2


class TestScalingMatrix:
    def test_direct_formula(self):
        params = SgpParams(L_min=1e-5, L_max=1e10)
        d = scaling_matrix(np.ones(3), np.array([2.0, 0.5, 1.0]), params)
        assert np.allclose(d, [0.5, 2.0, 1.0])

    def test_zero_lambda_clips_to_lmin(self):
        params = SgpParams()
        d = scaling_matrix(np.array([0.0, 1.0, 1.0]), np.ones(3), params)
        assert d[0] == params.L_min

    def test_zero_v_clips_to_lmax(self):
        params = SgpParams()
        d = scaling_matrix(np.ones(3), np.array([0.0, 1.0, 1.0]), params)
        assert d[0] == params.L_max

    def test_unit_bounds_give_the_identity(self):
        params = SgpParams(L_min=1.0, L_max=1.0)
        d = scaling_matrix(np.array([0.0, 1.0, 5.0]), np.array([2.0, 0.0, 1e-3]), params)
        assert np.array_equal(d, np.ones(3))


class TestBBSteplength:
    @staticmethod
    def step(lam, grad, prev_lam, prev_grad, d, tau=0.5, params=None):
        s = np.asarray(lam, float) - np.asarray(prev_lam, float)
        z = np.asarray(grad, float) - np.asarray(prev_grad, float)
        window = deque(maxlen=3)
        alpha, tau = bb_steplength(s, z, np.asarray(d, float), tau, window, params or SgpParams())
        return alpha, tau, window

    def test_first_iteration_unit_step(self):
        res = sgp_minimize(quadratic_split([1.0, 2.0, 3.0]), np.zeros(3))
        assert res.diagnostics[0]["alpha"] == 1.0

    def test_negative_curvature_falls_back_to_alpha_max(self):
        params = SgpParams()
        # s = (1,0,0), z = (-1,0,0): s^T D^{-1} z < 0
        alpha, tau, window = self.step([1, 1, 1], [-1, 0, 0], [0, 1, 1], [0, 0, 0], np.ones(3))
        assert alpha == params.alpha_max
        assert tau == 0.5 and not window

    def test_invalid_quotients_fall_back_to_alpha_max(self):
        # both denominators are positive, so only the quotient test rejects:
        # a negative s^T D z gives BB2 < 0, an infinite step gives BB1 = inf/inf
        params = SgpParams()
        for s, z, d in [
            ([1.0, 1.0], [1.0, -0.5], [1.0, 4.0]),
            ([np.inf, 0.0], [1.0, 0.0], [1.0, 1.0]),
        ]:
            window = deque(maxlen=3)
            alpha, tau = bb_steplength(np.array(s), np.array(z), np.array(d), 0.5, window, params)
            assert alpha == params.alpha_max
            assert tau == 0.5 and not window

    def test_quadratic_bb1_bounds(self, rng):
        # f = 0.5 lam^T A lam, A = diag(1, 2, 4): BB1 in [1/4, 1]
        A = np.diag([1.0, 2.0, 4.0])
        for _ in range(20):
            lam_prev = rng.standard_normal(3)
            lam = lam_prev + rng.standard_normal(3)
            # tau = 0 forces the BB1 branch
            alpha, _, window = self.step(lam, A @ lam, lam_prev, A @ lam_prev, np.ones(3), tau=0.0)
            assert 0.25 - 1e-12 <= alpha <= 1.0 + 1e-12
            assert len(window) == 1

    def test_bb2_branch_takes_the_window_minimum(self):
        # s = z on a unit scaling gives BB1 = BB2 = 1; tau = 1 selects BB2
        window = deque([0.5, 2.0], maxlen=3)
        s = np.array([1.0, 0.0, 0.0])
        alpha, tau = bb_steplength(s, s, np.ones(3), 1.0, window, SgpParams())
        assert alpha == 0.5
        assert tau == 0.9
        assert list(window) == [0.5, 2.0, 1.0]

    def test_always_clipped(self, rng):
        params = SgpParams(alpha_min=1e-3, alpha_max=10.0)
        for _ in range(50):
            alpha, _, _ = self.step(
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.uniform(0.1, 10, size=3),
                params=params,
            )
            assert params.alpha_min <= alpha <= params.alpha_max


class TestSgpMinimize:
    def test_interior_quadratic(self):
        res = sgp_minimize(quadratic_split([1.0, 2.0, 3.0]), np.zeros(3))
        assert res.converged
        assert res.n_iter < 100
        assert np.max(np.abs(res.lam - [1, 2, 3])) < 1e-6

    def test_projected_quadratic(self):
        res = sgp_minimize(quadratic_split([-1.0, 2.0, 3.0]), np.zeros(3))
        assert np.max(np.abs(res.lam - [0, 2, 3])) < 1e-6

    def test_constant_objective_stops_immediately(self):
        fun = lambda lam: (5.0, np.zeros(3), np.zeros(3))
        res = sgp_minimize(fun, np.ones(3))
        assert res.n_iter == 1
        assert res.converged

    def test_monotone_history_and_feasibility(self, rng):
        for _ in range(5):
            target = rng.standard_normal(3) * 3
            res = sgp_minimize(quadratic_split(target), project_positive(rng.standard_normal(3)))
            assert np.all(np.diff(res.history) <= 0)
            assert np.all(res.lam >= 0)

    def test_descent_direction_invariant(self):
        res = sgp_minimize(quadratic_split([2.0, -1.0, 0.5]), np.array([5.0, 5.0, 5.0]))
        assert all(rec["g_dot_step"] <= 0 for rec in res.diagnostics)

    def test_stationarity_at_exit(self):
        fun_grad = quadratic_split([1.0, -2.0, 3.0])
        res = sgp_minimize(fun_grad, np.zeros(3))
        _, B, V = fun_grad(res.lam)
        grad = B - V
        assert np.max(np.abs(res.lam - project_positive(res.lam - grad))) < 1e-4

    def test_objective_failure_treated_as_infinite(self):
        # trial points with any coordinate above 10 blow up; the backtracking
        # must still find an acceptable step
        target = np.array([100.0, 0.0, 0.0])

        def fun(lam):
            if np.any(lam > 10.0):
                raise NotPositiveDefiniteError("out of range")
            r = lam - target
            return float(r @ r)

        def fun_grad(lam):
            r = lam - target
            return fun(lam), 2.0 * lam, 2.0 * target

        res = sgp_minimize(fun_grad, np.zeros(3), fun=fun)
        assert np.all(res.lam <= 10.0)
        assert np.all(np.diff(res.history) <= 0)

    def test_infinite_start_rejected(self):
        fun = lambda lam: (np.inf, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            sgp_minimize(fun, np.zeros(3))

    def test_plain_projected_gradient_variant(self):
        # unit step and scaling bounds make SGP plain projected gradient
        params = dataclasses.replace(
            SgpParams(), alpha_min=1.0, alpha_max=1.0, L_min=1.0, L_max=1.0
        )
        res = sgp_minimize(quadratic_split([1.0, 2.0, 3.0]), np.zeros(3), params)
        assert np.max(np.abs(res.lam - [1, 2, 3])) < 1e-4
        assert all(rec["alpha"] == 1.0 for rec in res.diagnostics)

    def test_max_iter_exit_is_not_converged(self):
        with mock.patch.object(SgpParams, "max_iter", 1):
            res = sgp_minimize(quadratic_split([1.0, 2.0, 3.0]), np.zeros(3))
        assert res.n_iter == 1
        assert res.status == "max_iter"
        assert not res.converged
        assert res.fun < res.history[0]


class TestDefaults:
    def test_published_parameter_values(self):
        # the constants are checked one by one below
        params = SgpParams()
        assert params.alpha_min == 1e-7
        assert params.alpha_max == 1e2
        assert params.L_min == 1e-5
        assert params.L_max == 1e10

    def test_only_the_bounds_are_fields(self):
        names = [f.name for f in dataclasses.fields(SgpParams)]
        assert names == ["alpha_min", "alpha_max", "L_min", "L_max"]

    @pytest.mark.parametrize("name, value", [("upsilon", 1e-4), ("gamma", 0.4), ("max_iter", 5000),
                                             ("rel_tol", 1e-9), ("max_backtracks", 60)])
    def test_constants_read_from_an_instance(self, name, value):
        # perfbench's tracer reads max_backtracks and alpha_max off an instance
        assert getattr(SgpParams(), name) == value
        with pytest.raises(TypeError):
            SgpParams(**{name: value})

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SgpParams(alpha_min=1.0, alpha_max=0.5)
        with pytest.raises(ValueError):
            SgpParams(L_min=2.0, L_max=1.0)


def reference_sgp(fun_grad, lam0, params, fun):
    """sgp_minimize as it was when it formed a gradient at every accepted point.

    The same iteration, kept as the oracle for the loop that skips the
    gradient where the run stops.
    """

    def try_value(lam):
        try:
            v = fun(lam)
        except NotPositiveDefiniteError:
            return np.inf
        return v if np.isfinite(v) else np.inf

    def evaluate(lam):
        f, B, V = fun_grad(lam)
        V = np.asarray(V, dtype=float)
        return f, V, np.asarray(B, dtype=float) - V

    lam = project_positive(np.asarray(lam0, dtype=float))
    f, V, grad = evaluate(lam)
    f = float(f)
    history, diagnostics = [f], []
    alpha = min(max(1.0, params.alpha_min), params.alpha_max)
    tau, bb2_window = 0.5, deque(maxlen=3)
    status = "max_iter"
    for n_iter in range(1, params.max_iter + 1):
        d = scaling_matrix(lam, V, params)
        if n_iter > 1:
            alpha, tau = bb_steplength(s, z, d, tau, bb2_window, params)
        step = project_positive(lam - alpha * d * grad) - lam
        g_dot_step = float(grad @ step)
        if not np.any(step):
            status = "stationary"
            break
        delta = 1.0
        backtracks = 0
        while backtracks <= params.max_backtracks:
            if try_value(lam + delta * step) <= f + params.upsilon * delta * g_dot_step:
                break
            delta *= params.gamma
            backtracks += 1
        diagnostics.append(
            dict(alpha=alpha, delta=delta, backtracks=backtracks, g_dot_step=g_dot_step)
        )
        if backtracks > params.max_backtracks:
            status = "armijo_stall"
            break
        lam_new = lam + delta * step
        f_new, V, grad_new = evaluate(lam_new)
        s, z = lam_new - lam, grad_new - grad
        f_old, f = f, float(f_new)
        lam, grad = lam_new, grad_new
        history.append(f)
        if f_old - f < params.rel_tol * abs(f):
            status = "rel_tol"
            break
    return lam, f, n_iter, status, np.array(history), diagnostics


class TestStoppingPointExactness:
    """No gradient where SGP stops, and every returned field bit for bit as before."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        identity_weights=st.booleans(),
        zeros=st.sampled_from([(), (0,), (1,), (2,), (0, 1), (0, 2)]),
        max_iter=st.sampled_from([3, 5000]),
    )
    def test_matches_reference_loop(self, seed, identity_weights, zeros, max_iter):
        pb, lam0 = random_marglik_problem(np.random.default_rng(seed),
                                          identity_weights=identity_weights)
        lam0[list(zeros)] = 0.0
        params = SgpParams()
        calls = []

        def counted(pb_, lam):
            calls.append(1)
            return marglik_value_and_gradient(pb_, lam)

        # fresh problems, so neither run sees the other's kept factors
        ref_pb, new_pb = dataclasses.replace(pb), dataclasses.replace(pb)
        with mock.patch.object(SgpParams, "max_iter", max_iter):
            try:
                ref = reference_sgp(partial(marglik_value_and_gradient, ref_pb), lam0, params,
                                    partial(neg_log_marglik, ref_pb))
            except NotPositiveDefiniteError:  # K^{-1} singular at the start
                with pytest.raises(NotPositiveDefiniteError):
                    sgp_minimize(partial(counted, new_pb), lam0, params,
                                 fun=partial(neg_log_marglik, new_pb))
                return
            res = sgp_minimize(partial(counted, new_pb), lam0, params,
                               fun=partial(neg_log_marglik, new_pb))
        assert np.array_equal(res.lam, ref[0]) and res.fun == ref[1]
        assert (res.n_iter, res.status) == ref[2:4]
        assert np.array_equal(res.history, ref[4]) and res.diagnostics == ref[5]
        # one gradient per iteration, at the point that iteration steps from
        assert len(calls) == res.n_iter
        if res.status == "rel_tol":
            assert len(calls) == len(res.history) - 1
