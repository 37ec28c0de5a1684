"""Command-line front end: denoise, tune, bench, rmt-check.

Every numerical path is a thin wrapper over the library so CLI output
matches the corresponding library call exactly.  Exit codes are a stable
scripting contract: 0 success, 2 usage or contract violation, 3 numerical
failure; rmt-check additionally exits 1 when a statistical law check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

from . import __version__
from .errors import ContractError, NumericalError
from .rmt import OPTIMAL_SHRINK, SVHT_COEFF, AspectRatio, asymptotic_denoise, calibration_scale, verify_laws
from .shrinkage import Svht, apply
from .spectral import (
    DenoiseProblem,
    read_matrix,
    reconstruct,
    svd,
    truncated_spectrum,
    write_matrix,
)
from .sure import DEFAULT_C, DEFAULT_K, SVLT_P1, _FAMILIES, solve_svlet, sure, tune_grid


# ---------------------------------------------------------------------------
# denoise


def _fixed_or_tuned(args, problem, factors):
    """Resolve the svst/atn/svlt rule: explicit parameters win, otherwise
    the default SURE grid search runs.  Returns (rule, sure_value)."""
    rule_class = _FAMILIES[args.method]
    params = {field.name: getattr(args, field.name) for field in dataclasses.fields(rule_class)}
    # The grid holds svlt's p1 fixed, so it always has a value; every other
    # parameter is given or searched.
    options = [name for name in params if name != "p1"]
    given = [params[name] is not None for name in options]
    if any(given) and not all(given):
        raise ContractError(f"{args.method} needs both --{' and --'.join(options)}, or neither (grid search)")
    if all(given):
        report = sure(problem, factors, rule_class(**params))
    else:
        report = tune_grid(problem, factors, args.method, p1=args.p1)
    return report.rule, report.sure


def cmd_denoise(args) -> int:
    started = perf_counter()
    Y = read_matrix(args.input)
    read_seconds = perf_counter() - started
    problem = DenoiseProblem(Y=Y, sigma=args.sigma)
    started = perf_counter()
    factors = svd(Y)
    sure_value = None
    if args.method == "svlet":
        solved = solve_svlet(problem, factors, K=args.K, C=args.C)
        params = {"C": args.C, "K": args.K}
        sure_value = solved.report.sure
        Xhat = reconstruct(factors, apply(solved.rule, factors.S))
    elif args.method in _FAMILIES:
        rule, sure_value = _fixed_or_tuned(args, problem, factors)
        params = dataclasses.asdict(rule)
        Xhat = reconstruct(factors, apply(rule, factors.S))
    elif args.method == "svht":
        mu = args.mu
        if mu is None:
            mu = SVHT_COEFF * calibration_scale(problem.shape, problem.sigma)
        rule = Svht(mu=mu)
        params = dataclasses.asdict(rule)
        Xhat = reconstruct(factors, apply(rule, factors.S))
    elif args.method == OPTIMAL_SHRINK:
        params = {"beta": AspectRatio.of(problem.shape).beta}
        Xhat = asymptotic_denoise(problem, factors, OPTIMAL_SHRINK)
    else:  # eym
        if args.rank is None:
            raise ContractError("--rank is required for the eym method")
        params = {"rank": args.rank}
        Xhat = reconstruct(factors, truncated_spectrum(factors.S, args.rank))
    seconds = perf_counter() - started
    output = args.output
    if output is None:
        output = str(Path(args.input).with_suffix(".denoised.csv"))
    started = perf_counter()
    write_matrix(output, Xhat)
    stages = {"read": read_seconds, "fit": seconds, "write": perf_counter() - started}
    print(
        json.dumps(
            {
                "method": args.method,
                "params": params,
                "sure": sure_value,
                "seconds": seconds,
                "stages": stages,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# tune


def cmd_tune(args) -> int:
    Y = read_matrix(args.input)
    problem = DenoiseProblem(Y=Y, sigma=args.sigma)
    factors = svd(Y)
    if args.family == "svlet":
        solved = solve_svlet(problem, factors, K=args.K, C=args.C)
        print(
            json.dumps(
                {
                    "a": [float(v) for v in solved.a],
                    "condition_estimate": solved.condition_estimate,
                    "ridge_used": solved.ridge_used,
                    "sure": solved.report.sure,
                }
            )
        )
        return 0
    report = tune_grid(problem, factors, args.family)
    columns = tuple(field.name for field in dataclasses.fields(report.rule))
    pairs = " ".join(f"{name}={getattr(report.rule, name)!r}" for name in columns)
    print(f"# best {pairs} sure={report.sure!r}")
    print(",".join(columns + ("sure",)))
    for params, value in report.trace:
        print(",".join([repr(float(p)) for p in params] + [repr(float(value))]))
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ContractError("bench needs exactly one of --config FILE or --preset paper")
    # Only this command loads the benchmark harness.
    from . import bench

    if args.preset == "paper":
        jobs = bench.preset_jobs(args.seed, args.trials)
    elif args.trials is not None:
        raise ContractError("--trials applies to --preset only; set the config's `trials` key")
    else:
        jobs = [bench.load_config(args.config, args.seed)]
    print(json.dumps(bench.run_jobs(jobs, args.output_dir)))
    return 0


# ---------------------------------------------------------------------------
# rmt-check


def cmd_rmt_check(args) -> int:
    checks = verify_laws(args.n, args.beta, args.trials, args.seed)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(
            f"{status} {check.name}: statistic={check.statistic:.6g} "
            f"target={check.target:.6g} tolerance={check.tolerance:g} ({check.mode})"
        )
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svshrink",
        description="Singular-value shrinkage denoising, tuning, and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"svshrink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    den = sub.add_parser("denoise", help="denoise a matrix CSV and write the estimate")
    den.add_argument("input", help="path to the observed matrix CSV")
    den.add_argument("--sigma", type=float, required=True, help="noise standard deviation (> 0)")
    den.add_argument(
        "--method",
        required=True,
        choices=["svlet", *_FAMILIES, "svht", OPTIMAL_SHRINK, "eym"],
    )
    den.add_argument("--C", type=float, default=DEFAULT_C, help="svlet width multiplier")
    den.add_argument("--K", type=int, default=DEFAULT_K, help="svlet expansion order")
    den.add_argument("--lam", type=float, help="svst threshold (omit to grid-search)")
    den.add_argument("--tau", type=float, help="atn threshold (omit to grid-search)")
    den.add_argument("--gamma", type=float, help="atn exponent (omit to grid-search)")
    den.add_argument("--p1", type=float, default=SVLT_P1, help="svlt steepness (default %(default)g)")
    den.add_argument("--p2", type=float, help="svlt center index (omit to grid-search)")
    den.add_argument("--p3", type=float, help="svlt offset (omit to grid-search)")
    den.add_argument("--mu", type=float, help="svht threshold (default 4/sqrt(3)*sqrt(max(n,m))*sigma)")
    den.add_argument("--rank", type=int, help="eym truncation rank")
    den.add_argument("--output", help="output CSV path (default INPUT.denoised.csv)")
    den.set_defaults(func=cmd_denoise)

    tun = sub.add_parser("tune", help="print the SURE search trace or solved coefficients")
    tun.add_argument("input", help="path to the observed matrix CSV")
    tun.add_argument("--sigma", type=float, required=True, help="noise standard deviation (> 0)")
    tun.add_argument("--family", required=True, choices=["svlet", *_FAMILIES])
    tun.add_argument("--C", type=float, default=DEFAULT_C, help="svlet width multiplier")
    tun.add_argument("--K", type=int, default=DEFAULT_K, help="svlet expansion order")
    tun.set_defaults(func=cmd_tune)

    ben = sub.add_parser("bench", help="run seeded benchmark sweeps and write CSV tables")
    ben.add_argument("--config", help="flat key=value config file")
    ben.add_argument("--preset", choices=["paper"], help="run the documented 50x50 regime")
    ben.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    ben.add_argument("--trials", type=int, help="realizations per cell of --preset (default 10)")
    ben.add_argument("--output-dir", default=".", help="directory for CSV outputs")
    ben.set_defaults(func=cmd_bench)

    rmt = sub.add_parser("rmt-check", help="Monte Carlo verification of the spectral laws")
    rmt.add_argument("--n", type=int, required=True, help="matrix rows")
    rmt.add_argument("--beta", type=float, default=1.0, help="aspect ratio in (0, 1]")
    rmt.add_argument("--trials", type=int, default=10, help="draws per spiked check")
    rmt.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    rmt.set_defaults(func=cmd_rmt_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
