"""Quickstart: identify a MIMO impulse response from simulated data.

Generates one dataset from the fixed fourth-order benchmark system (three
outputs, one input, two lightly damped resonances), runs the full
stable-Hankel identification procedure, and compares it with the
spline-only baseline on impulse-response fit.
"""

import numpy as np

import hankelid as hk
from hankelid.benchmark import fit_metric, gen_scenario_run, scenario_spec

# a single Monte-Carlo draw of the S1 scenario: band-limited input,
# per-channel SNR drawn from [1, 4]
spec = scenario_spec("S1", N=500, T=40, seed=0)
run = gen_scenario_run(spec, seed=2024)
print(f"dataset: N={run.data.N}, inputs={run.data.m}, outputs={run.data.p}")
print(f"true McMillan degree: {run.system.order}, per-channel SNR: {np.round(run.snr, 2)}")

# full procedure: noise fit, spline fit, then the signal-subspace sweep
cfg = hk.IdentConfig(T=40)
result = hk.identify(run.data, cfg)

print(f"\nspline hyper-parameters: c={result.nu.c:.3g}, beta={result.nu.beta:.3g}")
print(f"estimated noise variances: {np.round(result.noise.sigma, 4)}")
print(f"selected signal dimension n: {result.n}")
print(f"component weights lambda: {np.round(result.lam, 5)}")

# how the acceptance tests walked the likelihood up
print("\nacceptance trace (accepted steps only):")
for rec in result.trace:
    if rec.accepted:
        print(f"  k={rec.k:2d}  n={rec.n:2d}  stage={rec.stage:12s}  objective={rec.f:10.3f}")
print(f"  stopped: {result.stop_reason}, after {len(result.trace) - 1} acceptance tests")

# compare against the spline-only baseline on the impulse-response fit
h_ss = hk.ss_estimate(run.data, T=40)
fit_sh = fit_metric(run.system, result.h)
fit_ss = fit_metric(run.system, h_ss)
print(f"\nimpulse-response fit (average COD over channels, 1000 samples):")
print(f"  stable-Hankel: {fit_sh:.2f}")
print(f"  spline-only:   {fit_ss:.2f}")

# the Hankel singular values show the soft rank selection at work
from hankelid.benchmark import normalized_hankel_sv

s_true = normalized_hankel_sv(run.system.impulse_response(40))
s_est = normalized_hankel_sv(result.h)
print("\nleading normalized Hankel singular values (true vs estimated):")
for i in range(8):
    print(f"  s_{i + 1}: {s_true[i]:8.5f}   {s_est[i]:8.5f}")
