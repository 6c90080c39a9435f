"""A small Monte-Carlo comparison on the fixed benchmark system.

Runs the stable-Hankel estimator against the spline-only and nuclear-norm
baselines on a handful of independently seeded datasets and prints the
aggregate table (median and 5th/95th percentiles per metric).  Desk-scale
settings keep this to a couple of minutes; raise `runs`, `N`, and `T` to
approach the published study.
"""

from hankelid.benchmark import make_estimators, run_monte_carlo, scenario_spec

spec = scenario_spec("S1", N=200, T=16, N_val=200, seed=7)
estimators = make_estimators(spec, ["SH", "SS", "NN"])
runs = 3
report = run_monte_carlo(spec, estimators, runs=runs)

print(f"scenario {spec.tag}: N={spec.N}, T={spec.T}, {runs} runs")
if report.failures:
    print(f"failures: {report.failures}")

print(f"\n{'estimator':>9s} {'metric':>9s} {'median':>9s} {'p5':>9s} {'p95':>9s}")
for row in report.aggregates():
    print(
        f"{row['estimator']:>9s} {row['metric']:>9s} "
        f"{row['median']:9.3f} {row['p5']:9.3f} {row['p95']:9.3f}"
    )

print("\nfit: average COD between true and estimated impulse responses")
print("cod: one-step prediction COD on fresh validation data, per output")
print("d_signal/d_noise: Hankel singular-value errors on/off the true rank")
