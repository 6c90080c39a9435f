"""The benchmark's workloads: fixed operation lists and their checks.

One operation is one generated dataset passed through every estimator of
the workload, as one Monte-Carlo run of ``run_monte_carlo`` does.  Each
run first times ``core`` datasets spawned from the criterion-5 master
seed, identical in every run, then runs ``fresh`` datasets spawned from
the run's ``--seed``.  Fresh datasets are checked and scored like the
core ones but left out of the timing metrics: about one fit in ten takes
six to ten times the typical time, and one such fit would swing a run's
timing.
The program receives only the generated data.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

import checks

CRITERION5_SEED = 20250808  # master seed of the acceptance suite's criterion 5
NOMINAL_SECONDS = 25  # run length the core/fresh counts are sized for


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "S1" | "S2"
    T: int
    N: int
    estimators: tuple  # subset of SH, SS, NN, NNW
    weighting: str  # Hankel weighting of SH
    core: int
    fresh: int
    cod_floor: float  # pred_cod must stay above this
    cv_stride: int = 12  # every k-th value of the published 25-value CV grid

    def spec(self):
        hk = importlib.import_module("hankelid")
        if self.scenario == "S1":
            # criterion-5 protocol: white unit-variance input, SNR 2
            return hk.scenario_spec("S1", N=self.N, T=self.T, band_range=None,
                                    snr_range=(2.0, 2.0))
        return hk.scenario_spec(self.scenario, N=self.N, T=self.T)

    def seeds(self, seed: int, seconds: float) -> tuple:
        """Dataset seeds of one run: (core list, fresh list)."""
        scale = seconds / NOMINAL_SECONDS
        n_core = max(1, round(self.core * scale))
        n_fresh = max(1, round(self.fresh * scale)) if self.fresh else 0

        def spawn(master, count):
            return [int(s.generate_state(1)[0])
                    for s in np.random.SeedSequence(master).spawn(count)]

        return spawn(CRITERION5_SEED, n_core), spawn(seed, n_core + n_fresh)[n_core:]

    def ident_config(self):
        hk = importlib.import_module("hankelid")
        return hk.IdentConfig(T=self.T, weighting=self.weighting)

    def operate(self, d) -> dict:
        """Run every estimator on dataset d; returns tag -> (h, details)."""
        hk = importlib.import_module("hankelid")
        out = {}
        for tag in self.estimators:
            if tag == "SH":
                res = hk.identify(d, self.ident_config())
                out[tag] = (res.h, res)
            elif tag == "SS":
                h, nu, noise = hk.ss_estimate(d, self.T, return_details=True)
                out[tag] = (h, (nu, noise))
            else:
                out[tag] = self._cross_validate(hk, d, weighted=tag == "NNW")
        return out

    def cv_grid(self, N: int):
        """The published grid for this scenario, thinned to every cv_stride-th value."""
        bl = importlib.import_module("hankelid.baselines")
        frac = 0.5 if self.scenario == "S1" else 2.0 / 3.0
        published = bl.default_cv_grid(int(round(N * frac)), self.scenario)
        return bl.CvGrid(published.candidates[:: self.cv_stride], train_fraction=frac)

    def _cross_validate(self, hk, d, weighted: bool):
        grid = self.cv_grid(d.N)
        calls = []

        def estimator(dd, lam):
            h = hk.nn_estimate(dd, self.T, lam, weighted)
            calls.append((dd.N, lam, h))
            return h

        lam_best, h = hk.cross_validate(d, grid, estimator)
        return h, (calls, lam_best, grid.train_fraction)

    def check(self, d, out: dict) -> list:
        """Failure messages for one operation's estimates; empty when all pass."""
        fails = []
        for tag, (h, details) in out.items():
            if tag == "SH":
                eps = self.ident_config().epsilon
                msgs = checks.check_sh(details, d.u, d.y, self.T, self.weighting, eps)
            elif tag == "SS":
                msgs = checks.check_ss(h, *details, d.u, d.y, self.T)
            else:
                calls, lam_best, frac = details
                msgs = checks.check_cv(calls, lam_best, h, d.u, d.y, frac)
            fails += [f"{tag}: {msg}" for msg in msgs]
        return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s1-sh-empirical", "S1", T=40, N=500, estimators=("SH",),
                 weighting="empirical", core=14, fresh=1, cod_floor=84.0),
        Workload("s2-sh-identity", "S2", T=5, N=500, estimators=("SH",),
                 weighting="identity", core=3, fresh=0, cod_floor=84.0),
        Workload("s1-baselines", "S1", T=40, N=500, estimators=("SS", "NN", "NNW"),
                 weighting="identity", core=2, fresh=1, cod_floor=70.0),
    )
}
