"""The nuclear-norm FIR baseline and its cross-validated regularization.

Sweeps the penalty level of the Hankel nuclear-norm estimator on one
dataset, shows the singular-value shrinkage, and then lets prefix-split
cross-validation pick the level.
"""

import numpy as np

import hankelid as hk
from hankelid.baselines import CvGrid, nn_estimate
from hankelid.benchmark import fit_metric, gen_scenario_run, normalized_hankel_sv, scenario_spec
from hankelid.model import hankel_dims

run = gen_scenario_run(scenario_spec("S1", N=240, T=24, band_range=None), 11)
d = run.data
T = 24
r, c = hankel_dims(T, d.p, d.m)
print(f"Hankel shape: {d.p}x{r} by {d.m}x{c} (pr={d.p*r}, mc={d.m*c})")

print("\npenalty sweep (singular values collapse as the penalty grows):")
print(f"{'lam':>10s} {'fit':>8s}  leading normalized singular values")
for lam in [1e-3, 1e-1, 1e1, 1e3]:
    h = nn_estimate(d, T, lam)
    s = normalized_hankel_sv(h)
    fit = fit_metric(run.system, h)
    print(f"{lam:10.0e} {fit:8.2f}  {np.round(s[:6], 4)}")

# cross-validation on the published grid shape: 25 log-spaced candidates
n_train = d.N // 2
grid = CvGrid(np.logspace(2, 7, 25) / n_train, train_fraction=0.5)
lam_best, h_best = hk.cross_validate(d, grid, lambda dd, lam: nn_estimate(dd, T, lam))
print(f"\ncross-validation picked lam = {lam_best:.4g}")
print(f"fit of the refit-on-all-data estimate: {fit_metric(run.system, h_best):.2f}")
print(f"true McMillan degree: {run.system.order}")
print(f"normalized singular values at the chosen lam: {np.round(normalized_hankel_sv(h_best)[:6], 4)}")
