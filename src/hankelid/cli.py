"""Command-line entry points: identify, simulate, bench, gradcheck.

Exit codes: 0 ok, 1 check failed / numerical failure, 2 usage or IO error
(or, for identify, data the procedure cannot use).
All file outputs are written atomically (temp file + rename) so an
interrupted run never leaves a truncated report behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from .bayes import (
    MarglikProblem,
    NoiseModel,
    marglik_value_and_gradient,
    neg_log_marglik,
)
from .benchmark import (
    gen_scenario_run,
    make_estimators,
    run_monte_carlo,
    scenario_spec,
)
from .identify import IdentConfig, identify
from .kernels import SplineHyper, SubspaceBasis
from .model import (
    WEIGHTING_MODES,
    Dataset,
    FirData,
    ImpulseResponse,
    _write_dataset,
    build_weights,
    read_dataset_csv,
    regressor_block,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _atomic_write(path: str, write_fn) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


def _write_json(path: str, obj) -> None:
    _atomic_write(path, lambda fh: json.dump(obj, fh, indent=2, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_impulse_csv(path: str, h: ImpulseResponse) -> None:
    M = h.as_matrix_sequence()

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "k", "value"])
        for i in range(h.p):
            for j in range(h.m):
                for k in range(h.T):
                    writer.writerow([i + 1, j + 1, k + 1, repr(float(M[k, i, j]))])

    _atomic_write(path, write)


def _load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are ignored."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _set_config_defaults(subparser: argparse.ArgumentParser, values: dict) -> None:
    """Make config-file values the subcommand's flag defaults.

    argparse converts a string default with the flag's type when the flag
    is absent, so an explicit flag wins over the file and the file over the
    built-in default.  Keys that name no flag of the subcommand are ignored.
    """
    defaults = {}
    for action in subparser._actions:
        raw = values.get(action.dest)
        if raw is not None and action.dest not in ("help", "config"):
            defaults[action.dest] = raw
    subparser.set_defaults(**defaults)


def int_at_least(low: int):
    """argparse type of an integer >= low: 1 for the counts, 0 for --seed (numpy's seeding)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _record_json(rec) -> dict:
    """One acceptance test of the identify trace; an infinite f_base is null."""
    return {"k": rec.k, "n": rec.n, "stage": rec.stage, "lambda": rec.lam, "f": rec.f,
            "f_base": rec.f_base if np.isfinite(rec.f_base) else None,
            "accepted": rec.accepted}


# ---------- subcommands ----------


def cmd_identify(args) -> int:
    T = args.T
    try:
        cfg = IdentConfig(T=T, epsilon=args.epsilon, weighting=args.weights)
        d = read_dataset_csv(args.data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out
    os.makedirs(out, exist_ok=True)  # an unwritable --out fails before the fit
    t0 = time.perf_counter()
    try:
        result = identify(d, cfg)
    except np.linalg.LinAlgError as exc:  # before ValueError, its base
        partial = [_record_json(rec) for rec in getattr(exc, "trace", ())]
        _write_json(
            os.path.join(out, "identify_trace.json"),
            {"error": f"{type(exc).__name__}: {exc}", "T": T,
             "epsilon": args.epsilon, "iterations": partial},
        )
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:  # data the procedure cannot use, e.g. all-zero windows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wall = time.perf_counter() - t0

    _write_impulse_csv(os.path.join(out, "impulse_response.csv"), result.h)
    trace = {
        "T": T,
        "epsilon": args.epsilon,
        "weighting": args.weights,
        "sigma": result.noise.sigma,
        "spline": {"c": result.nu.c, "beta": result.nu.beta},
        "lambda": result.lam,
        "n": result.n,
        "f_final": result.f_final,
        "stop_reason": result.stop_reason,
        "wall_time_s": wall,
        "iterations": [_record_json(rec) for rec in result.trace],
    }
    _write_json(os.path.join(out, "identify_trace.json"), trace)
    summary = (
        f"dataset: {args.data} (N={d.N}, m={d.m}, p={d.p})\n"
        f"FIR length T: {T}\n"
        f"noise variances: {np.array2string(result.noise.sigma, precision=4)}\n"
        f"spline hyper-parameters: c={result.nu.c:.4g}, beta={result.nu.beta:.4g}\n"
        f"lambda: {np.array2string(result.lam, precision=4)}\n"
        f"signal dimension n: {result.n}\n"
        f"objective: {result.f_final:.6g}\n"
        f"stopped: {result.stop_reason}\n"
        f"wall time: {wall:.2f} s\n"
    )
    _write_text(os.path.join(out, "summary.txt"), summary)
    print(summary, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        spec = scenario_spec(args.scenario, N=args.N, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = gen_scenario_run(spec, spec.seed)
    data_path = os.path.join(args.out, f"{args.scenario}_seed{args.seed}.csv")
    _atomic_write(data_path, lambda fh: _write_dataset(fh, run.data))
    truth = run.system.impulse_response(spec.T)
    _write_impulse_csv(os.path.join(args.out, "true_impulse_response.csv"), truth)
    _write_json(
        os.path.join(args.out, "simulate_meta.json"),
        {
            "scenario": args.scenario,
            "seed": args.seed,
            "N": run.data.N,
            "m": run.data.m,
            "p": run.data.p,
            "snr": run.snr,
            "noise_var": run.noise_var,
            "true_order": run.system.order,
        },
    )
    print(f"wrote {data_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    tags = [t.strip() for t in args.estimators.split(",") if t.strip()]
    overrides = {} if args.T is None else {"T": args.T}
    try:
        spec = scenario_spec(args.scenario, N=args.N, seed=args.seed, **overrides)
        estimators = make_estimators(spec, tags)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)  # an unwritable --out fails before the fits
    report = run_monte_carlo(spec, estimators, runs=args.runs)
    rows = report.aggregates()

    def write_csv(fh):
        writer = csv.writer(fh)
        writer.writerow(["estimator", "metric", "median", "p5", "p95", "n"])
        for row in rows:
            if row["metric"] == "time_s":
                continue  # wall-clock lives in the JSON; CSV stays seed-deterministic
            writer.writerow(
                [row["estimator"], row["metric"], repr(row["median"]),
                 repr(row["p5"]), repr(row["p95"]), row["n"]]
            )

    _atomic_write(os.path.join(args.out, "bench_aggregate.csv"), write_csv)

    _write_json(
        os.path.join(args.out, "bench_runs.json"),
        {
            "scenario": args.scenario,
            "runs": args.runs,
            "seed": args.seed,
            "failures": report.failures,
            "records": [dataclasses.asdict(r) for r in report.records],
        },
    )
    for row in rows:
        print(
            f"{row['estimator']:>4s} {row['metric']:>9s}: "
            f"median={row['median']:.3f} p5={row['p5']:.3f} p95={row['p95']:.3f}"
        )
    if report.failures:
        print(f"failures: {report.failures}")
    return EXIT_OK


def _random_gradcheck_problem(rng: np.random.Generator, weighting: str):
    """Small random marginal-likelihood instance for the gradient check."""
    p = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    T = int(rng.integers(2, 9))
    N = int(rng.integers(T * m + 5, 31))
    u = rng.standard_normal((N, m))
    y = rng.standard_normal((N, p))
    weights = build_weights(Dataset(u, y), T, weighting)
    pr = weights.W2.shape[0]
    Q = np.linalg.qr(rng.standard_normal((pr, pr)))[0]
    basis = SubspaceBasis(Q, int(rng.integers(0, pr + 1)))
    hp = SplineHyper(c=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(0.5, 0.95)))
    noise = NoiseModel(rng.uniform(0.2, 2.0, size=p))
    pb = MarglikProblem(FirData(regressor_block(u, T), y, T), noise, hp, weights, basis)
    lam = rng.uniform(0.1, 2.0, size=3)
    return pb, lam


def gradient_check(instances: int, seed: int) -> tuple[float, bool]:
    """Max relative error between analytic and central-difference gradients.

    Instances alternate identity and empirical Hankel weighting, identity first.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    split_ok = True
    for k in range(instances):
        pb, lam = _random_gradcheck_problem(rng, WEIGHTING_MODES[k % 2])
        _, B, V = marglik_value_and_gradient(pb, lam)
        grad = B - V
        split_ok = split_ok and bool(np.all(B >= 0) and np.all(V >= 0))
        fd = np.empty(3)
        for i in range(3):
            step = 1e-5 * (1.0 + abs(lam[i]))
            lo = lam.copy()
            hi = lam.copy()
            lo[i] -= step
            hi[i] += step
            fd[i] = (neg_log_marglik(pb, hi) - neg_log_marglik(pb, lo)) / (2 * step)
        denom = max(float(np.max(np.abs(fd))), 1e-10)
        worst = max(worst, float(np.max(np.abs(grad - fd))) / denom)
    return worst, split_ok


def cmd_gradcheck(args) -> int:
    worst, split_ok = gradient_check(args.instances, args.seed)
    print(f"max relative gradient error over {args.instances} instances: {worst:.3e}")
    print(f"split nonnegativity (B >= 0, V >= 0): {'ok' if split_ok else 'VIOLATED'}")
    if worst < 1e-5 and split_ok:
        print("gradcheck: PASS")
        return EXIT_OK
    print("gradcheck: FAIL")
    return EXIT_CHECK_FAILED


# ---------- parser ----------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelid",
        description="MIMO FIR identification with stable-Hankel priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, seed=True, out=True):
        if seed:
            sp.add_argument("--seed", type=int_at_least(0), default=0)
        if out:
            sp.add_argument("--out", default="out")
        sp.add_argument("--config", default=None, help="key=value file; flags win")

    sp = sub.add_parser("identify", help="estimate an impulse response from a CSV dataset")
    sp.add_argument("--data", required=True, help="dataset CSV (t,u1..um,y1..yp)")
    sp.add_argument("--T", type=int, default=80, help="FIR length")
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--weights", choices=WEIGHTING_MODES, default="identity")
    add_common(sp, seed=False)
    sp.set_defaults(func=cmd_identify, _subparser=sp)

    sp = sub.add_parser("simulate", help="generate a benchmark dataset CSV")
    sp.add_argument("--scenario", choices=["S1", "S2", "S3"], default="S1")
    sp.add_argument("--N", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_simulate, _subparser=sp)

    sp = sub.add_parser("bench", help="Monte-Carlo estimator comparison")
    sp.add_argument("--scenario", choices=["S1", "S2", "S3"], default="S1")
    sp.add_argument("--runs", type=int_at_least(1), default=20)
    sp.add_argument("--estimators", default="SH,SS")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--T", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_bench, _subparser=sp)

    sp = sub.add_parser("gradcheck", help="finite-difference check of the ML gradient")
    sp.add_argument("--instances", type=int_at_least(1), default=20)
    add_common(sp, out=False)
    sp.set_defaults(func=cmd_gradcheck, _subparser=sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _set_config_defaults(args._subparser, _load_config_file(args.config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:  # a dataset that cannot be read, an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
