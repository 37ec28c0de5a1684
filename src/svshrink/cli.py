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

from ._version import __version__
from .bench import (
    DEFAULT_C,
    DEFAULT_K,
    DEFAULT_TRIALS,
    PAPER_C_VALUES,
    PAPER_K_VALUES,
    ExperimentGrid,
    paper_preset,
    run_sweep,
    sensitivity_sweep,
    timing_report,
    write_timing_csv,
)
from .errors import ContractError, NumericalError
from .rmt import OPTIMAL_SHRINK, SVHT_COEFF, AspectRatio, asymptotic_denoise, calibration_scale, verify_laws
from .shrinkage import Atn, Svht, Svlt, Svst, apply
from .spectral import (
    DenoiseProblem,
    read_matrix,
    reconstruct,
    svd,
    truncated_spectrum,
    write_matrix,
)
from .sure import SVLT_P1, solve_svlet, sure, tune_grid

_DEFAULT_METHODS = (
    "svlet(C=10,K=2)",
    "svst-sure",
    "atn-sure",
    "svlt-sure",
    "opt-shrink",
    "svht-4sqrt3",
    "svst-bulk",
    "eym-oracle",
)


@dataclasses.dataclass(frozen=True)
class CliConfig:
    """Validated bench configuration; field defaults are the documented ones."""

    run: str = "sweep"
    n: int = 50
    m: int = 50
    ranks: tuple = tuple(range(1, 51))
    snrs: tuple = (0.5, 1.0, 2.0, 4.0)
    methods: tuple = _DEFAULT_METHODS
    trials: int = DEFAULT_TRIALS
    c_values: tuple = PAPER_C_VALUES
    k_values: tuple = PAPER_K_VALUES
    out: str = None

    def __post_init__(self) -> None:
        if self.run not in ("sweep", "sensitivity", "timing"):
            raise ContractError(
                f"run must be one of sweep, sensitivity, timing; got {self.run!r}"
            )

    def grid(self, seed: int) -> ExperimentGrid:
        return ExperimentGrid(
            n=self.n, m=self.m, ranks=self.ranks, snrs=self.snrs,
            methods=self.methods, trials=self.trials, seed=seed,
        )


def _parse_int_list(value: str, key: str) -> tuple:
    value = value.strip()
    if ".." in value and "," not in value:
        lo, _, hi = value.partition("..")
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ContractError(f"{key}: cannot parse range {value!r}") from None
    items = value.replace(",", " ").split()
    try:
        return tuple(int(item) for item in items)
    except ValueError:
        raise ContractError(f"{key}: cannot parse integer list {value!r}") from None


def _parse_float_list(value: str, key: str) -> tuple:
    items = value.replace(",", " ").split()
    try:
        return tuple(float(item) for item in items)
    except ValueError:
        raise ContractError(f"{key}: cannot parse number list {value!r}") from None


def _parse_scalar(kind, key):
    def parse(value: str):
        try:
            return kind(value)
        except ValueError:
            raise ContractError(f"{key}: cannot parse {value!r}") from None

    return parse


_CONFIG_PARSERS = {
    "run": lambda v: v.strip(),
    "n": _parse_scalar(int, "n"),
    "m": _parse_scalar(int, "m"),
    "ranks": lambda v: _parse_int_list(v, "ranks"),
    "snrs": lambda v: _parse_float_list(v, "snrs"),
    "methods": lambda v: tuple(v.split()),
    "trials": _parse_scalar(int, "trials"),
    "c_values": lambda v: _parse_float_list(v, "c_values"),
    "k_values": lambda v: _parse_int_list(v, "k_values"),
    "out": lambda v: v.strip(),
}


def load_config(path) -> CliConfig:
    """Parse a flat `key = value` file ('#' starts a comment) into CliConfig.

    Unknown and duplicate keys are errors; the seed never comes from the
    file — reproducibility is owned by the mandatory --seed flag.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ContractError(f"config line {lineno}: expected `key = value`, got {raw!r}")
        key = key.strip()
        if key == "seed":
            raise ContractError("config line %d: seed must be given via --seed" % lineno)
        if key not in _CONFIG_PARSERS:
            raise ContractError(
                f"config line {lineno}: unknown key {key!r}; "
                f"valid keys: {', '.join(sorted(_CONFIG_PARSERS))}"
            )
        if key in fields:
            raise ContractError(f"config line {lineno}: duplicate key {key!r}")
        fields[key] = _CONFIG_PARSERS[key](value.strip())
    return CliConfig(**fields)


# ---------------------------------------------------------------------------
# denoise


def _fixed_or_tuned(args, problem, factors):
    """Resolve the svst/atn/svlt rule: explicit parameters win, otherwise
    the default SURE grid search runs.  Returns (rule, sure_value)."""
    family = args.method
    if family == "svst":
        rule = None if args.lam is None else Svst(lam=args.lam)
    elif family == "atn":
        given = (args.tau is not None, args.gamma is not None)
        if any(given) and not all(given):
            raise ContractError("atn needs both --tau and --gamma, or neither (grid search)")
        rule = Atn(tau=args.tau, gamma=args.gamma) if all(given) else None
    else:
        given = (args.p2 is not None, args.p3 is not None)
        if any(given) and not all(given):
            raise ContractError("svlt needs both --p2 and --p3, or neither (grid search)")
        rule = Svlt(p1=args.p1, p2=args.p2, p3=args.p3) if all(given) else None
    report = tune_grid(problem, factors, family, p1=args.p1) if rule is None else sure(problem, factors, rule)
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
        params = {"C": solved.rule.C, "K": solved.rule.K}
        sure_value = solved.report.sure
        Xhat = reconstruct(factors, apply(solved.rule, factors.S))
    elif args.method in ("svst", "atn", "svlt"):
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
    elif args.method == "opt-shrink":
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


def _run_job(args, run: str, grid: ExperimentGrid, path: Path, c_values, k_values) -> dict:
    """Run one bench job, write its CSV to path and return its summary keys."""
    if run == "timing":
        write_timing_csv(path, timing_report(grid), grid.seed)
        return {}
    if run == "sweep":
        run_sweep(grid).write_csv(path, include_timing=args.include_timing)
        return {}
    report = sensitivity_sweep(grid, c_values, k_values)
    report.table.write_csv(path, include_timing=args.include_timing)
    return {"best_C": report.best.C, "best_K": report.best.K, "best_nmse": report.best.mean_nmse}


def cmd_bench(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ContractError("bench needs exactly one of --config FILE or --preset paper")
    if args.preset == "paper":
        grids = paper_preset(args.seed, trials=DEFAULT_TRIALS if args.trials is None else args.trials)
        jobs = [
            ("sweep", grids["asymptotic"], "asymptotic.csv"),
            ("sweep", grids["sure"], "sure.csv"),
            ("sensitivity", grids["sensitivity"], "sensitivity.csv"),
            ("timing", grids["timing"], "timing.csv"),
        ]
        c_values, k_values = PAPER_C_VALUES, PAPER_K_VALUES
    else:
        if args.trials is not None:
            raise ContractError("--trials applies to --preset only; set the config's `trials` key")
        config = load_config(args.config)
        jobs = [(config.run, config.grid(args.seed), config.out or f"{config.run}.csv")]
        c_values, k_values = config.c_values, config.k_values
    outdir = Path(args.output_dir)
    summary = {}
    written = []
    try:  # the directory and the CSVs are the only file-system writes here
        outdir.mkdir(parents=True, exist_ok=True)
        for run, grid, name in jobs:
            summary.update(_run_job(args, run, grid, outdir / name, c_values, k_values))
            written.append(str(outdir / name))
    except OSError as exc:
        raise ContractError(f"cannot write bench output: {exc}") from exc
    summary["written"] = written
    print(json.dumps(summary))
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
        choices=["svlet", "svst", "atn", "svlt", "svht", "opt-shrink", "eym"],
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
    tun.add_argument("--family", required=True, choices=["svlet", "svst", "atn", "svlt"])
    tun.add_argument("--C", type=float, default=DEFAULT_C, help="svlet width multiplier")
    tun.add_argument("--K", type=int, default=DEFAULT_K, help="svlet expansion order")
    tun.set_defaults(func=cmd_tune)

    ben = sub.add_parser("bench", help="run seeded benchmark sweeps and write CSV tables")
    ben.add_argument("--config", help="flat key=value config file")
    ben.add_argument("--preset", choices=["paper"], help="run the documented 50x50 regime")
    ben.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    ben.add_argument(
        "--trials", type=int, help=f"realizations per cell of --preset (default {DEFAULT_TRIALS})"
    )
    ben.add_argument("--output-dir", default=".", help="directory for CSV outputs")
    ben.add_argument(
        "--include-timing",
        action="store_true",
        help="fill median_time_s in sweep CSVs (breaks cross-run byte identity)",
    )
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
