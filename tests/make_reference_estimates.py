"""Write the reference estimates that the test suite compares identify with.

Runs the fits of ``conftest.REFERENCE_FITS`` and writes, per group and
dataset seed, what ``conftest.estimate_summary`` keeps: n, the stop reason,
the number of accepted acceptance tests, f_final, lambda and ||hhat||, next
to the numpy and scipy versions, scipy's BLAS and the thread count.  Write
the file with one BLAS thread, the setting the benchmark pins:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/make_reference_estimates.py

``--out`` writes elsewhere and ``--group`` runs one group, to compare thread
counts or two trees.
"""

import argparse
import json
import os

import numpy as np
import scipy

from hankelid import IdentConfig, identify
from hankelid.benchmark import gen_scenario_run, scenario_spec

from conftest import REFERENCE_ESTIMATES, REFERENCE_FITS, criterion5_seeds, estimate_summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REFERENCE_ESTIMATES))
    parser.add_argument("--group", choices=sorted(REFERENCE_FITS), action="append")
    args = parser.parse_args()
    fits = {}
    for group in args.group or REFERENCE_FITS:
        spec_args, config_args, count = REFERENCE_FITS[group]
        spec, cfg = scenario_spec(**spec_args), IdentConfig(**config_args)
        fits[group] = {str(seed): estimate_summary(identify(gen_scenario_run(spec, seed).data, cfg))
                       for seed in criterion5_seeds(count)}
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = dict(numpy=np.__version__, scipy=scipy.__version__,
                  blas=f"{blas['name']} {blas['version']}",
                  openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"), fits=fits)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
