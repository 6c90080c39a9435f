"""Benchmark of hankelid: fixed operation lists, checked estimates, one JSON line.

    python3 perfbench/run.py --workload s1-sh-empirical --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics,
taken from spans around the package's public functions.  A summary of
every run is written to ``perfbench/out/``.  See perfbench/README.md.
"""

import os
import time

T_START = time.perf_counter()
# One BLAS thread: the run is one process on a shared two-core machine,
# and a second OpenBLAS thread makes the per-call times slower and wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "ops_per_min": "ops/min",
    "pred_cod": "%",
    "fit_cod": "%",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "bayes.value_ms": "ms",
    "bayes.value_grad_ms": "ms",
    "bayes.value_calls": "count",
    "bayes.value_grad_calls": "count",
    "sgp.solves": "count",
    "sgp.iters": "count",
    "sgp.backtracks": "count",
    "sgp.bb_fallbacks": "count",
    "sgp.max_iters_solve": "count",
    "sgp.accept_ratio": "ratio",
    "sgp.self_s": "s",
    "identify.self_s": "s",
    "kernels.hankel_precisions_calls": "count",
    "kernels.hankel_precisions_s": "s",
    "identify.svd_split_s": "s",
    "identify.attempts": "count",
    "identify.accepted": "count",
    "identify.final_n": "count",
    "identify.spline_fit_s": "s",
    "bayes.noise_variance_s": "s",
    "bayes.posterior_mean_s": "s",
    "model.build_weights_s": "s",
    "model.regressor_block_s": "s",
    "baselines.admm_calls": "count",
    "baselines.admm_iters": "count",
    "baselines.admm_ms_per_iter": "ms",
    "baselines.admm_unconverged": "count",
    "baselines.cv_s": "s",
    "baselines.ss_s": "s",
    "setup.import_s": "s",
    "benchmark.gen_s": "s",
    "benchmark.evaluate_s": "s",
    "trace.op_s": "s",
}


def import_package():
    """Import hankelid from this checkout's src/; returns the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import hankelid
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hankelid from {SRC}: {exc}")
    seconds = time.perf_counter() - t0
    if Path(hankelid.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: hankelid imported from {hankelid.__file__}, not {SRC}")
    return seconds


def run(wl, seed: int, seconds: float, tracer=None, import_s: float = 0.0) -> dict:
    """Set up, run the operation list, then check every estimate; returns a summary.

    setup_s is process start to the first timed operation.  peak_rss_mb is
    read after the operations and before the checks, whose data-space
    oracles hold (N·p)² arrays that would otherwise set it.
    """
    import numpy as np

    import checks

    hk = sys.modules["hankelid"]
    bench_mod = sys.modules["hankelid.benchmark"]
    spec = wl.spec()
    core, fresh = wl.seeds(seed, seconds)
    seeds = core + fresh
    # warm-up: every estimator of the workload once, on a dataset small
    # enough (T=2, one CV candidate) that its cost stays well under a second
    warm_wl = dataclasses.replace(wl, T=2, N=200, cv_stride=25)
    warm_spec = warm_wl.spec()

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    phase("setup")
    runs = [hk.gen_scenario_run(spec, s) for s in seeds]
    phase("warmup")
    warm_wl.operate(hk.gen_scenario_run(warm_spec, seeds[0]).data)
    setup_s = time.perf_counter() - T_START

    ops, outs = [], []
    for i, (s, sr) in enumerate(zip(seeds, runs)):
        timed = i < len(core)
        phase("op" if timed else "fresh")
        t0 = time.perf_counter()
        try:
            out, fails = wl.operate(sr.data), []
        except Exception as exc:  # counted as a failed operation
            out, fails = None, [f"{type(exc).__name__}: {exc}"]
        ops.append(dict(seed=s, timed=timed, start=t0, seconds=time.perf_counter() - t0,
                        ok=False, fails=fails, cods=[], fits=[]))
        outs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phase("check")
    for o, sr, out in zip(ops, runs, outs):
        if out is None:
            continue
        fails = wl.check(sr.data, out)
        cods, fits = [], []
        for tag, (h, _) in out.items():
            hseq = checks.as_sequence(h.h, h.T, h.p, h.m)
            mine = checks.prediction_cods(hseq, sr.validation.u, sr.validation_clean)
            fit = checks.impulse_fit(sr.system.A, sr.system.B, sr.system.C, hseq)
            pkg_fit, pkg_cods, _, _ = bench_mod.evaluate_run(sr, spec, h)
            if not (np.allclose(pkg_cods, mine, rtol=0, atol=1e-9)
                    and abs(pkg_fit - fit) <= 1e-9):
                fails.append(f"{tag}: evaluate_run disagrees with the direct COD")
            cods += mine
            fits.append(fit)
        o.update(ok=not fails, fails=fails, cods=cods, fits=fits)

    good = [o for o in ops if o["ok"]]
    cods = [c for o in good for c in o["cods"]]
    fits = [f for o in good for f in o["fits"]]
    pred_cod = statistics.median(cods) if cods else float("nan")
    timed_ops = [o for o in ops if o["timed"]]
    timed_ok = [o["seconds"] for o in timed_ops if o["ok"]]
    metrics = {
        "setup_s": setup_s,
        "op_s": statistics.median(timed_ok) if timed_ok else float("nan"),
        "ops_per_min": 60.0 * len(timed_ops) / sum(o["seconds"] for o in timed_ops),
        "pred_cod": pred_cod,
        "fit_cod": statistics.median(fits) if fits else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(not o["ok"] for o in ops)
    correct = bool(failed == 0 and pred_cod >= wl.cod_floor)
    return dict(workload=wl.name, seed=seed, correct=correct, attempted=len(ops),
                failed=failed, metrics=metrics, import_s=import_s, ops=ops)


def layer_metrics(spans, summary: dict):
    """Per-operation layer figures, and per-function totals, of a traced run."""
    import tracing

    agg = tracing.aggregate(spans, "op")
    n_ops = sum(o["timed"] for o in summary["ops"])

    def rec(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                              "durations": [], "summaries": []})

    def per_op(name, key="total_s"):
        return rec(name)[key] / n_ops

    def median_ms(name):
        d = rec(name)["durations"]
        return 1e3 * statistics.median(d) if d else 0.0

    def layer_self(layer):
        return sum(r["self_s"] for n, r in agg.items() if n.startswith(layer + ".")) / n_ops

    sgp = rec("sgp.sgp_minimize")["summaries"]
    admm = rec("baselines.nn_admm")["summaries"]
    ident = rec("identify.identify")["summaries"]
    admm_iters = sum(s[0] for s in admm)
    per_call = {}
    for ph, name in (("setup", "benchmark.gen_scenario_run"), ("check", "benchmark.evaluate_run")):
        r = tracing.aggregate(spans, ph).get(name)
        per_call[name] = r["total_s"] / r["calls"] if r else 0.0
    return {
        "bayes.value_ms": median_ms("bayes.neg_log_marglik"),
        "bayes.value_grad_ms": median_ms("bayes.marglik_value_and_gradient"),
        "bayes.value_calls": per_op("bayes.neg_log_marglik", "calls"),
        "bayes.value_grad_calls": per_op("bayes.marglik_value_and_gradient", "calls"),
        "sgp.solves": len(sgp) / n_ops,
        "sgp.iters": sum(s[0] for s in sgp) / n_ops,
        "sgp.backtracks": sum(s[1] for s in sgp) / n_ops,
        "sgp.bb_fallbacks": sum(s[2] for s in sgp) / n_ops,
        "sgp.max_iters_solve": max((s[0] for s in sgp), default=0),
        "sgp.accept_ratio": (sum(s[3] for s in sgp) / sum(s[4] for s in sgp)
                             if any(s[4] for s in sgp) else 0.0),
        "sgp.self_s": layer_self("sgp"),
        "identify.self_s": layer_self("identify"),
        "kernels.hankel_precisions_calls": per_op("kernels.hankel_precisions", "calls"),
        "kernels.hankel_precisions_s": per_op("kernels.hankel_precisions"),
        "identify.svd_split_s": per_op("identify.svd_split"),
        "identify.attempts": sum(s[0] for s in ident) / n_ops,
        "identify.accepted": sum(s[1] for s in ident) / n_ops,
        "identify.final_n": sum(s[2] for s in ident) / n_ops,
        "identify.spline_fit_s": per_op("identify.fit_spline_hyperparams"),
        "bayes.noise_variance_s": per_op("bayes.estimate_noise_variance"),
        "bayes.posterior_mean_s": per_op("bayes.posterior_mean"),
        "model.build_weights_s": per_op("model.build_weights"),
        "model.regressor_block_s": per_op("model.regressor_block"),
        "baselines.admm_calls": len(admm) / n_ops,
        "baselines.admm_iters": admm_iters / n_ops,
        "baselines.admm_ms_per_iter": (1e3 * rec("baselines.nn_admm")["total_s"] / admm_iters
                                       if admm_iters else 0.0),
        "baselines.admm_unconverged": sum(not s[1] for s in admm) / n_ops,
        "baselines.cv_s": per_op("baselines.cross_validate"),
        "baselines.ss_s": per_op("baselines.ss_estimate"),
        "setup.import_s": summary["import_s"],
        "benchmark.gen_s": per_call["benchmark.gen_scenario_run"],
        "benchmark.evaluate_s": per_call["benchmark.evaluate_run"],
        "trace.op_s": summary["metrics"]["op_s"],
    }, {n: {k: r[k] for k in ("calls", "total_s", "self_s")} for n, r in agg.items()}


def per_op_counts(spans, ops) -> list:
    """Work counts of each operation of a traced run, for reference tables."""
    rows = []
    for o in ops:
        inside = [sp for sp in spans if sp[4] in ("op", "fresh")
                  and o["start"] <= sp[1] <= o["start"] + o["seconds"]]
        names = [sp[0] for sp in inside]
        sgp = [sp[5] for sp in inside if sp[0] == "sgp.sgp_minimize" and sp[5]]
        admm = [sp[5] for sp in inside if sp[0] == "baselines.nn_admm" and sp[5]]
        rows.append(dict(
            seed=o["seed"], seconds=o["seconds"],
            value_calls=names.count("bayes.neg_log_marglik"),
            value_grad_calls=names.count("bayes.marglik_value_and_gradient"),
            sgp_iters=sum(x[0] for x in sgp), sgp_max_iters_solve=max((x[0] for x in sgp), default=0),
            admm_iters=sum(x[0] for x in admm), admm_unconverged=sum(not x[1] for x in admm),
            final_n=[sp[5][2] for sp in inside if sp[0] == "identify.identify" and sp[5]],
        ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    import_s = import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        summary = run(wl, args.seed, args.seconds, tracer, import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {**summary, "trace": args.trace}
    if tracer is None:
        metrics, units = summary["metrics"], END_TO_END
    else:
        metrics, record["calls"] = layer_metrics(tracer.spans, summary)
        record["per_op"] = per_op_counts(tracer.spans, summary["ops"])
        record["layer_metrics"], units = metrics, PER_LAYER
    OUT_DIR.mkdir(exist_ok=True)
    record["wall_s"] = time.perf_counter() - T_START
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float))
    for o in summary["ops"]:
        for msg in o["fails"]:
            print(f"seed {o['seed']}: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
