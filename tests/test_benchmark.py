import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from hankelid import (
    ImpulseResponse,
    StateSpace,
    cod,
    fit_metric,
    gen_random_system,
    gen_scenario_run,
    hankel_dims,
    lowpass_input,
    make_estimators,
    run_monte_carlo,
    s1_system,
    scenario_spec,
    sv_errors,
)
from hankelid.benchmark import normalized_hankel_sv


class TestS1System:
    def test_first_markov_parameter(self):
        # C B follows from the fixed matrices: [1+2, 0, 20+2.5*2]
        sys = s1_system()
        h1 = (sys.C @ sys.B).ravel()
        assert np.allclose(h1, [3.0, 0.0, 25.0])
        assert sys.order == 4

    def test_pole_moduli(self):
        sys = s1_system()
        moduli = np.sort(np.abs(np.linalg.eigvals(sys.A)))
        assert np.allclose(moduli[:2], np.sqrt(0.2**2 + 0.9**2))
        assert np.allclose(moduli[2:], np.sqrt(0.8**2 + 0.5**2))
        assert np.all(moduli < 1.0)

    def test_same_seed_bit_identical(self):
        d1 = gen_scenario_run(scenario_spec("S1", N=64), 123).data
        d2 = gen_scenario_run(scenario_spec("S1", N=64), 123).data
        assert np.array_equal(d1.u, d2.u)
        assert np.array_equal(d1.y, d2.y)

    def test_different_seed_differs(self):
        d1 = gen_scenario_run(scenario_spec("S1", N=64), 1).data
        d2 = gen_scenario_run(scenario_spec("S1", N=64), 2).data
        assert not np.array_equal(d1.y, d2.y)


class TestGenRandomSystem:
    def test_spectral_radius_bound(self):
        for seed in range(100):
            sys = gen_random_system(2, 2, 10, 0.85, seed)
            rho = np.max(np.abs(np.linalg.eigvals(sys.A)))
            assert rho <= 0.85 + 1e-12

    def test_impulse_response_decays(self):
        for seed in range(100):
            sys = gen_random_system(1, 1, 10, 0.85, seed)
            M = sys.impulse_response(50).as_matrix_sequence()
            assert np.linalg.norm(M[49]) < max(np.linalg.norm(M[0]), 1e-12) + 1e-9

    def test_order_distribution_uniform(self):
        orders = [gen_random_system(1, 1, 10, 0.85, seed).order for seed in range(1000)]
        counts = np.bincount(orders, minlength=11)[1:]
        _, pvalue = scipy.stats.chisquare(counts)
        assert pvalue > 0.01

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            gen_random_system(1, 1, 5, 1.2, 0)


class TestLowpassInput:
    def test_allpass_limit_variance(self):
        x = lowpass_input(1.0, 4096, 0)
        assert np.var(x) == pytest.approx(1.0, rel=0.05)

    def test_stopband_attenuation(self):
        N = 2**14
        x = lowpass_input(0.5, N, 3)
        freqs, psd = scipy.signal.periodogram(x, fs=2.0)  # Nyquist = 1
        passband = psd[(freqs > 0.05) & (freqs < 0.45)].mean()
        stopband = psd[freqs > 0.6].mean()
        assert passband / stopband > 100.0  # >= 20 dB

    def test_deterministic(self):
        assert np.array_equal(lowpass_input(0.8, 256, 9), lowpass_input(0.8, 256, 9))

    def test_package_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal (and scipy.stats with it) is most of the import time
        code = "import sys, hankelid; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_band_validation(self):
        with pytest.raises(ValueError):
            lowpass_input(0.0, 100, 0)
        with pytest.raises(ValueError):
            lowpass_input(1.5, 100, 0)


class TestCod:
    def test_perfect_match(self):
        a = np.array([1.0, 2.0, 5.0])
        assert cod(a, a) == 100.0

    def test_mean_prediction_scores_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert cod(a, np.full(3, a.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        value = cod(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        assert value == pytest.approx(100.0 * (1.0 - np.sqrt(0.5)), abs=1e-10)

    def test_constant_reference_rejected(self):
        with pytest.raises(ValueError):
            cod(np.ones(5), np.zeros(5))


class TestFitMetric:
    def test_exact_fir_truth_scores_100(self, rng):
        h = ImpulseResponse(rng.standard_normal(12), T=6, m=2, p=1)
        assert fit_metric(h, h) == pytest.approx(100.0)

    def test_zero_estimate_formula(self, rng):
        N_c = 1000
        h = ImpulseResponse(rng.standard_normal(8), T=8, m=1, p=1)
        zero = ImpulseResponse(np.zeros(8), T=8, m=1, p=1)
        seq = np.concatenate([h.h, np.zeros(N_c - 8)])
        expected = 100.0 * (
            1.0 - np.sqrt(np.sum(seq**2) / np.sum((seq - seq.mean()) ** 2))
        )
        assert fit_metric(h, zero) == pytest.approx(expected, rel=1e-12)

    def test_single_channel_reduces_to_cod(self, rng):
        N_c = 50
        h_true = ImpulseResponse(rng.standard_normal(5), T=5, m=1, p=1)
        h_est = ImpulseResponse(rng.standard_normal(5), T=5, m=1, p=1)
        a = np.concatenate([h_true.h, np.zeros(N_c - 5)])
        b = np.concatenate([h_est.h, np.zeros(N_c - 5)])
        assert fit_metric(h_true, h_est, N_c=N_c) == pytest.approx(cod(a, b))

    def test_state_space_truth_padding(self):
        sys = s1_system()
        h80 = sys.impulse_response(80)
        # fitting the truth's own truncation: very high but not exactly 100
        assert fit_metric(sys, h80) > 99.0


class TestSvErrors:
    def test_perfect_estimate(self, rng):
        # truth of McMillan degree 2: trailing singular values vanish, so a
        # perfect estimate scores (0, ~0)
        A = np.array([[0.6, 0.2], [-0.2, 0.6]])
        sys = StateSpace(A, rng.standard_normal((2, 1)), rng.standard_normal((1, 2)))
        h = sys.impulse_response(10)
        ds, dn = sv_errors(sys, h)
        assert ds == 0.0
        assert dn < 1e-12

    def test_full_rank_estimate_has_noise_error(self, rng):
        T = 9
        A = np.array([[0.5, 0.3], [-0.3, 0.5]])
        sys = StateSpace(A, rng.standard_normal((2, 1)), rng.standard_normal((1, 2)))
        h_est = ImpulseResponse(rng.standard_normal(T), T=T, m=1, p=1)
        ds, dn = sv_errors(sys, h_est)
        assert dn > 0.0

    def test_hand_built_two_by_two(self):
        # truth Hankel [[2,0],[0,1]] (h = (2,0,1)): normalized s = (1, 0.5)
        # estimate  [[1,0],[0,1]] (h = (1,0,1)): normalized s = (1, 1)
        h_true = ImpulseResponse(np.array([2.0, 0.0, 1.0]), 3, 1, 1)
        h_est = ImpulseResponse(np.array([1.0, 0.0, 1.0]), 3, 1, 1)
        ds, dn = sv_errors(h_true, h_est, n_bar=1)
        assert ds == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(1.0, rel=1e-12)

    def test_zero_estimate_flagged(self, rng):
        h_true = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        zero = ImpulseResponse(np.zeros(6), T=6, m=1, p=1)
        with pytest.warns(UserWarning, match="zero estimate"):
            ds, dn = sv_errors(h_true, zero, n_bar=2)
        s_true = normalized_hankel_sv(h_true)
        assert ds == pytest.approx(np.sum(s_true[:2]))
        assert dn == 0.0


class TestHankelRankProperty:
    def test_true_systems_have_vanishing_trailing_sv(self):
        # McMillan degree shows up as the numerical rank of the Hankel matrix
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            sys = gen_random_system(p, m, 6, 0.85, seed)
            s = normalized_hankel_sv(sys.impulse_response(50))
            assert s[sys.order] < 1e-6


class TestScenarioRuns:
    def test_snr_realized_exactly(self):
        spec = scenario_spec("S1", N=300)
        run = gen_scenario_run(spec, 11)
        # realized SNR: population variance of the clean output over noise var
        y_clean = run.system.simulate(run.data.u)
        realized = np.var(y_clean, axis=0) / run.noise_var
        assert np.allclose(realized, run.snr, rtol=0.01)

    def test_s2_s3_shapes(self):
        run2 = gen_scenario_run(scenario_spec("S2", N=60, T=8, N_val=30), 3)
        assert run2.data.u.shape == (60, 5) and run2.data.y.shape == (60, 5)
        run3 = gen_scenario_run(scenario_spec("S3", N=60, T=8, N_val=30), 3)
        assert run3.data.u.shape == (60, 10) and run3.data.y.shape == (60, 5)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_spec("S9")

    @pytest.mark.parametrize("channels", [dict(p=5), dict(m=2), dict(p=1, m=3)],
                             ids=["p5", "m2", "p1-m3"])
    def test_s1_channel_counts_are_fixed(self, channels):
        # S1 is one fixed system: other channel counts would fail only in generation
        with pytest.raises(ValueError, match="S1 is the fixed 3-output, 1-input system"):
            scenario_spec("S1", **channels)


class TestRunMonteCarlo:
    @staticmethod
    def tiny_spec():
        return scenario_spec("S1", N=120, T=8, N_val=60, seed=77)

    @staticmethod
    def tiny_estimators():
        from hankelid import ss_estimate

        est = lambda d: ss_estimate(d, 8)
        return {"SS": est, "SS2": est}

    def test_single_run_percentiles_collapse(self):
        report = run_monte_carlo(self.tiny_spec(), {"SS": self.tiny_estimators()["SS"]}, runs=1)
        for row in report.aggregates():
            if row["metric"] == "cod":
                continue  # pools one value per output channel
            assert row["median"] == row["p5"] == row["p95"]

    def test_duplicate_estimators_identical_columns(self):
        report = run_monte_carlo(self.tiny_spec(), self.tiny_estimators(), runs=2)
        rows = {(r["estimator"], r["metric"]): r for r in report.aggregates()}
        for metric in ("fit", "cod", "d_signal", "d_noise"):
            assert rows[("SS", metric)]["median"] == rows[("SS2", metric)]["median"]

    def test_reproducible_across_calls(self):
        # every field of every record but the wall time, in the same order
        def fields(report):
            return [dataclasses.replace(rec, wall_time_s=0.0) for rec in report.records]

        r1 = run_monte_carlo(self.tiny_spec(), self.tiny_estimators(), runs=3)
        again = run_monte_carlo(self.tiny_spec(), self.tiny_estimators(), runs=3)
        assert len(r1.records) == 6 and not r1.failures
        assert fields(again) == fields(r1)
        assert again.failures == r1.failures

    def test_order_above_hankel_rank_is_not_a_failure(self):
        # S1 has order 4; at T = 4 its 3 x 4 Hankel matrix has only 3
        # singular values, so the singular-value errors are undefined while
        # both estimates are fine
        spec = scenario_spec("S1", N=60, T=4, N_val=60, seed=3)
        assert spec.p * hankel_dims(4, spec.p, spec.m).r < s1_system().order
        report = run_monte_carlo(spec, make_estimators(spec, ["SH", "SS"]), runs=1)
        assert report.failures == {}
        for rec in report.records:
            assert rec.fit is not None and len(rec.cod_outputs) == 3
            assert rec.d_signal is None and rec.d_noise is None
        metrics = {(row["estimator"], row["metric"]) for row in report.aggregates()}
        assert {("SH", "fit"), ("SS", "cod")} <= metrics
        assert not any(metric in ("d_signal", "d_noise") for _, metric in metrics)

    def test_failures_recorded_and_excluded(self):
        def bad(d):
            raise RuntimeError("estimator exploded")

        report = run_monte_carlo(
            self.tiny_spec(), {"BAD": bad, "SS": self.tiny_estimators()["SS"]}, runs=2
        )
        assert report.failures == {"BAD": 2}
        assert all(rec.failed for rec in report.records if rec.estimator == "BAD")
        assert not any(
            row["estimator"] == "BAD" for row in report.aggregates() if row["metric"] == "fit"
        )


class TestMetricErrorContracts:
    def test_fit_metric_constant_truth_channel(self):
        h_true = ImpulseResponse(np.zeros(4), T=4, m=1, p=1)
        h_est = ImpulseResponse(np.ones(4), T=4, m=1, p=1)
        with pytest.raises(ValueError, match="constant"):
            fit_metric(h_true, h_est)

    def test_sv_errors_nbar_bound(self, rng):
        h = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        with pytest.raises(ValueError, match="exceeds"):
            sv_errors(h, h, n_bar=99)

    @pytest.mark.parametrize("n_bar", [-1, -6])
    def test_sv_errors_negative_nbar_rejected(self, rng, n_bar):
        h = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        with pytest.raises(ValueError, match=f"n_bar={n_bar} must be >= 0"):
            sv_errors(h, h, n_bar=n_bar)

    def test_sv_errors_T_mismatch_rejected(self, rng):
        h_true = ImpulseResponse(rng.standard_normal(6), T=6, m=1, p=1)
        h_est = ImpulseResponse(rng.standard_normal(5), T=5, m=1, p=1)
        with pytest.raises(ValueError, match="truth has T=6, estimate has T=5"):
            sv_errors(h_true, h_est, n_bar=1)
