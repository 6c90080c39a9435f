"""Self-test of the benchmark at a tiny size (not part of the package's tests).

    python3 perfbench/selftest.py

Checks the output schema against BENCHMARK.json, that the checks reject
deliberately wrong estimates, and that the benchmark refuses to run
without the package sources.  Exits 0 when every check holds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def tiny(wl):
    return dataclasses.replace(wl, T=4 if wl.scenario == "S2" else 6, N=150,
                               core=1, fresh=1, cod_floor=float("-inf"))


def main() -> int:
    run.import_package()
    import numpy as np

    import checks
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end names and units match the run's")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer names and units match the run's")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the defined ones")

    outputs = {}
    for name, wl in workloads.WORKLOADS.items():
        small = tiny(wl)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            summary = run.run(small, seed=3, seconds=workloads.NOMINAL_SECONDS, tracer=tracer)
        finally:
            tracer.uninstall()
        layer, _ = run.layer_metrics(tracer.spans, summary)
        expect(summary["attempted"] == 2 and summary["failed"] == 0 and summary["correct"],
               f"{name}: tiny run attempts 2 operations, none fails")
        expect(set(summary["metrics"]) == set(run.END_TO_END)
               and all(np.isfinite(v) and v != 0 for v in summary["metrics"].values()),
               f"{name}: every end-to-end metric is present, finite and nonzero")
        expect(set(layer) == set(run.PER_LAYER), f"{name}: every per-layer metric is present")
        hk = sys.modules["hankelid"]
        d = hk.gen_scenario_run(small.spec(), 5).data
        outputs[name] = (small, d, small.operate(d))

    # the checks must reject deliberately wrong estimates
    small, d, out = outputs["s1-sh-empirical"]
    h, res = out["SH"]
    expect(not small.check(d, out), "SH: the untouched estimate passes")
    bad_h = dataclasses.replace(h, h=h.h * (1 + 1e-4))
    expect(bool(small.check(d, {"SH": (bad_h, dataclasses.replace(res, h=bad_h))})),
           "SH: a posterior mean scaled by 1+1e-4 is rejected")
    expect(bool(small.check(d, {"SH": (h, dataclasses.replace(res, f_final=res.f_final + 1e-3))})),
           "SH: f_final off by 1e-3 is rejected")
    expect(bool(small.check(d, {"SH": (h, dataclasses.replace(res, n=small.T * d.p + 1))})),
           "SH: n above p*r is rejected")

    small, d, out = outputs["s1-baselines"]
    expect(not small.check(d, out), "baselines: the untouched estimates pass")
    h, details = out["SS"]
    bad = dataclasses.replace(h, h=h.h + 1e-3 * np.abs(h.h).max())
    expect(bool(small.check(d, {"SS": (bad, details)})), "SS: a shifted estimate is rejected")
    h, (calls, lam_best, frac) = out["NN"]
    n_train = int(round(d.N * frac))
    errs = {lam: float(np.sum((d.y[n_train:] - checks.predict(
        checks.as_sequence(hh.h, hh.T, hh.p, hh.m), d.u)[n_train:]) ** 2))
        for n, lam, hh in calls[:-1]}
    worst = max(errs, key=errs.get)
    fake_calls = calls[:-1] + [(d.N, worst, h)]
    expect(bool(small.check(d, {"NN": (h, (fake_calls, worst, frac))})),
           "NN: a level that does not minimize the validation error is rejected")

    # the command line: one JSON object with exactly the contract's keys
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "s1-sh-empirical",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}
           and set(last["metrics"]) == set(run.END_TO_END),
           "command line prints the result object last")

    # without the package sources the benchmark fails and prints no result
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "s1-sh-empirical", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                              timeout=120)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "without src/ the run exits nonzero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
