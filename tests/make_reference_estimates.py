"""Write the reference estimates that the test suite compares the estimators with.

Runs the identify fits of ``conftest.REFERENCE_FITS`` and writes, per group
and dataset seed, what ``conftest.estimate_summary`` keeps: n, the stop
reason, the number of accepted acceptance tests, f_final, lambda and
||hhat||.  Group ``ss`` keeps ``conftest.ss_summary`` of the spline-only
estimate on criterion 5's datasets (c, beta, sigma, ||hhat||), and group
``nn_cv`` keeps ``conftest.nn_cv_summaries``: NN and NNW cross-validated on
the first dataset of the s1-baselines benchmark workload.  The numpy and
scipy versions, scipy's BLAS and the thread count are written next to them.
Write the file with one BLAS thread, the setting the benchmark pins:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/make_reference_estimates.py

``--out`` writes elsewhere and ``--group`` runs one group, to compare thread
counts or two trees.
"""

import argparse
import json
import os

import numpy as np
import scipy

from hankelid import IdentConfig, identify, ss_estimate
from hankelid.benchmark import gen_scenario_run, scenario_spec

from conftest import (REFERENCE_ESTIMATES, REFERENCE_FITS, criterion5_seeds, estimate_summary,
                      nn_cv_summaries, ss_summary)

GROUPS = [*REFERENCE_FITS, "ss", "nn_cv"]


def fit_group(group: str) -> dict:
    if group == "nn_cv":
        return nn_cv_summaries()
    spec_args, config_args, count = REFERENCE_FITS["criterion5" if group == "ss" else group]
    spec, cfg = scenario_spec(**spec_args), IdentConfig(**config_args)
    fits = {}
    for seed in criterion5_seeds(count):
        d = gen_scenario_run(spec, seed).data
        fits[str(seed)] = (ss_summary(*ss_estimate(d, cfg.T, return_details=True))
                           if group == "ss" else estimate_summary(identify(d, cfg)))
    return fits


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REFERENCE_ESTIMATES))
    parser.add_argument("--group", choices=sorted(GROUPS), action="append")
    args = parser.parse_args()
    fits = {group: fit_group(group) for group in args.group or GROUPS}
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = dict(numpy=np.__version__, scipy=scipy.__version__,
                  blas=f"{blas['name']} {blas['version']}",
                  openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"), fits=fits)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
