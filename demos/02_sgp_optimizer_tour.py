"""A tour of the scaled gradient projection optimizer.

Shows the three ingredients on toy problems: projection onto the
nonnegative cone, the split-gradient diagonal scaling, and the
Barzilai-Borwein step alternation, then compares iteration counts against
plain projected gradient on a real marginal-likelihood problem.
"""

import dataclasses
from functools import partial

import numpy as np

import hankelid as hk
from hankelid.benchmark import gen_scenario_run, scenario_spec
from hankelid.model import regressor_block
from hankelid.sgp import SgpParams, scaling_matrix

# --- a quadratic with its optimum partly outside the cone ---------------
target = np.array([-1.0, 2.0, 3.0])


def fun_grad(lam):
    r = lam - target
    # any split with B >= 0 and V >= 0 works; here B collects the terms
    # that grow with lam and V the constant pull toward the target
    B = 2.0 * lam + 2.0 * np.maximum(-target, 0.0)
    V = 2.0 * np.maximum(target, 0.0)
    return float(r @ r), B, V


res = hk.sgp_minimize(fun_grad, np.zeros(3))
print("quadratic with target (-1, 2, 3):")
print(f"  minimizer on the cone: {np.round(res.lam, 8)}  (expected [0, 2, 3])")
print(f"  iterations: {res.n_iter}, converged: {res.converged} ({res.status})")
print(f"  objective history: {np.round(res.history, 6)}")

# --- the scaling matrix in isolation ------------------------------------
params = SgpParams()
d_diag = scaling_matrix(np.array([1.0, 1.0, 0.0]), np.array([2.0, 0.0, 1.0]), params)
print("\nscaling for lam=(1,1,0), V=(2,0,1):")
print(f"  diag(D) = {d_diag}   (ratio, clipped-to-L_max, clipped-to-L_min)")

# --- SGP vs plain projected gradient on a marginal likelihood -----------
run = gen_scenario_run(scenario_spec("S1", N=200, T=12, band_range=None), 5)
d = run.data

# the data side, built once: regressor block, outputs, phi^T phi and phi^T y
data = hk.FirData(regressor_block(d.u, 12), d.y, 12)
noise = hk.estimate_noise_variance(data)
nu = hk.fit_spline_hyperparams(data, noise)
# the prior at n = 0: spline hyper-parameters, Hankel weights and an empty
# signal subspace; the problem forms the three precisions from them
weights = hk.build_weights(d, 12)
pb = hk.MarglikProblem(data, noise, nu, weights, hk.SubspaceBasis.trivial(weights.W2.shape[0]))

# the optimizer consumes the likelihood directly: fun_grad -> (f, B, V), fun -> f
obj, obj_grad = partial(hk.neg_log_marglik, pb), partial(hk.marglik_value_and_gradient, pb)

sgp = hk.sgp_minimize(obj_grad, np.ones(3), params, fun=obj)
# unit bounds on the step length and the scaling make SGP plain projected gradient
pg_params = dataclasses.replace(params, alpha_min=1.0, alpha_max=1.0, L_min=1.0, L_max=1.0)
pg = hk.sgp_minimize(obj_grad, np.ones(3), pg_params, fun=obj)
print("\nmarginal-likelihood optimization (3 hyper-parameters):")
print(f"  SGP:  f = {sgp.fun:.4f} in {sgp.n_iter} iterations ({sgp.status})")
print(f"  PG:   f = {pg.fun:.4f} in {pg.n_iter} iterations ({pg.status})")
print("the diagonal scaling plus BB steps is what makes the difference on")
print("badly scaled problems: lambda components differ by orders of magnitude")
