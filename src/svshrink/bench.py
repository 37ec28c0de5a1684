"""Reproducible NMSE benchmark harness.

Random number streams are derived per (seed, cell index, trial index)
with SeedSequence, so a table's NMSE values come out identical across runs
and platforms for the same build.  Only the clock readings differ from run
to run: timing_report's medians, each row's median_time_s, and the CSV
timestamp.
Method failures inside a sweep are downgraded to error rows instead of
aborting, so a long grid survives isolated degenerate cells.
"""

from __future__ import annotations

import csv
import re
import statistics
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .errors import ContractError
from .rmt import OPTIMAL_SHRINK, SVHT_4SQRT3, SVST_BULK
from .rmt import asymptotic_denoise as _asymptotic_denoise
from .shrinkage import _expansion_order, apply
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, _positive, reconstruct, svd, truncated_spectrum
from .sure import DEFAULT_C, DEFAULT_K, solve_svlet, tune_grid

DEFAULT_TRIALS = 10
# timing_report times each method this many times per trial and keeps the
# fastest run: other work on the machine only ever adds time.
TIMED_RUNS = 3

PAPER_C_VALUES = tuple(float(c) for c in range(1, 21))
PAPER_K_VALUES = (1, 2, 3, 4, 5)
PAPER_ASYMPTOTIC_SNRS = (0.5, 1.0, 2.0, 4.0)
PAPER_SURE_SNRS = (0.5, 1.0, 1.5, 2.0)

_SVLET_SPEC = re.compile(r"^svlet(?:\((?P<params>[^()]*)\))?$")

TUNED_FAMILIES = ("svst-sure", "atn-sure", "svlt-sure")
EYM_ORACLE = "eym-oracle"


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark method: a rule family plus its tuning mode.

    The svlet family carries its two fixed parameters; every other family
    is fully determined by its name (SURE grid search or calibrated
    asymptotic rule or oracle truncation).
    """

    family: str
    C: float = DEFAULT_C
    K: int = DEFAULT_K

    def __post_init__(self) -> None:
        if self.family not in METHOD_RUNNERS:
            raise ContractError(
                f"unknown method {self.family!r}; expected one of {sorted(METHOD_RUNNERS)}"
            )
        C = _positive(self.C, "C")
        object.__setattr__(self, "K", _expansion_order(self.K))
        object.__setattr__(self, "C", C)

    @property
    def label(self) -> str:
        if self.family == "svlet":
            return f"svlet(C={self.C:g},K={self.K})"
        return self.family


def parse_method(spec: str) -> MethodSpec:
    """Parse a method specifier like "svst-sure" or "svlet(C=10,K=2)"."""
    if isinstance(spec, MethodSpec):
        return spec
    if not isinstance(spec, str):
        raise ContractError(f"method specifier must be a string, got {type(spec).__name__}")
    text = spec.strip()
    hit = _SVLET_SPEC.match(text)
    if hit is None:
        return MethodSpec(family=text)
    params = {"C": DEFAULT_C, "K": DEFAULT_K}
    raw = hit.group("params")
    if raw is not None:
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise ContractError(f"bad svlet parameter {item!r}; expected C=... or K=...")
            try:
                params[key] = int(value) if key == "K" else float(value)
            except ValueError:
                raise ContractError(f"bad svlet parameter value {item!r}") from None
    return MethodSpec(family="svlet", C=params["C"], K=params["K"])


@dataclass(frozen=True)
class ExperimentGrid:
    """Benchmark grid: one cell per (method, rank, snr), `trials` draws each."""

    n: int
    m: int
    ranks: tuple
    snrs: tuple
    methods: tuple
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self) -> None:
        shape = MatrixShape(self.n, self.m)
        ranks = tuple(self.ranks)
        if not ranks:
            raise ContractError("ranks must be non-empty")
        for r in ranks:
            if not isinstance(r, (int, np.integer)) or not (1 <= r <= shape.L):
                raise ContractError(f"ranks must be integers in [1, {shape.L}], got {r!r}")
        snrs = tuple(_positive(s, "snr") for s in self.snrs)
        if not snrs:
            raise ContractError("snrs must be non-empty")
        methods = tuple(parse_method(spec) for spec in self.methods)
        if not methods:
            raise ContractError("methods must be non-empty")
        labels = [spec.label for spec in methods]
        if len(set(labels)) != len(labels):
            raise ContractError(f"duplicate method specifiers in {labels}")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ContractError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ContractError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))
        object.__setattr__(self, "snrs", snrs)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape(self.n, self.m)


def generate_problem(n: int, m: int, r: int, snr: float, rng) -> tuple:
    """Draw one rank-r signal X = L R^T plus white noise at exact SNR.

    The factors have i.i.d. standard normal entries and sigma is computed
    from the realized ||X||_F so that ||X||_F^2 / (n m sigma^2) equals the
    requested snr for this draw, not merely in expectation.
    """
    shape = MatrixShape(n, m)
    if not isinstance(r, (int, np.integer)) or not (1 <= r <= shape.L):
        raise ContractError(f"r must be an integer in [1, {shape.L}], got {r!r}")
    snr = _positive(snr, "snr")
    left = rng.standard_normal((shape.n, int(r)))
    right = rng.standard_normal((shape.m, int(r)))
    X = left @ right.T
    sigma = float(np.linalg.norm(X) / np.sqrt(snr * shape.n * shape.m))
    Y = X + sigma * rng.standard_normal((shape.n, shape.m))
    return X, DenoiseProblem(Y=Y, sigma=sigma)


# ---------------------------------------------------------------------------
# method runners


def _run_svlet(problem: DenoiseProblem, factors: SvdFactors, spec: MethodSpec, true_rank: int):
    solved = solve_svlet(problem, factors, K=spec.K, C=spec.C)
    return reconstruct(factors, apply(solved.rule, factors.S))


def _make_tuned_runner(family: str):
    def run(problem: DenoiseProblem, factors: SvdFactors, spec: MethodSpec, true_rank: int):
        report = tune_grid(problem, factors, family)
        return reconstruct(factors, apply(report.rule, factors.S))

    return run


def _make_asymptotic_runner(variant: str):
    def run(problem: DenoiseProblem, factors: SvdFactors, spec: MethodSpec, true_rank: int):
        return _asymptotic_denoise(problem, factors, variant)

    return run


def _run_eym_oracle(problem: DenoiseProblem, factors: SvdFactors, spec: MethodSpec, true_rank: int):
    return reconstruct(factors, truncated_spectrum(factors.S, int(true_rank)))


METHOD_RUNNERS = {
    "svlet": _run_svlet,
    "svst-sure": _make_tuned_runner("svst"),
    "atn-sure": _make_tuned_runner("atn"),
    "svlt-sure": _make_tuned_runner("svlt"),
    OPTIMAL_SHRINK: _make_asymptotic_runner(OPTIMAL_SHRINK),
    SVHT_4SQRT3: _make_asymptotic_runner(SVHT_4SQRT3),
    SVST_BULK: _make_asymptotic_runner(SVST_BULK),
    EYM_ORACLE: _run_eym_oracle,
}


# ---------------------------------------------------------------------------
# CSV tables


def _write_table(dest, comments: dict, header, rows) -> None:
    """Write a harness table to a path or an open text stream: one
    '# key=value' line per comment, then the header and the rows as CSV."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as stream:
            _write_table(stream, comments, header, rows)
        return
    dest.write("".join(f"# {key}={value}\n" for key, value in comments.items()))
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _number(x) -> str:
    """A float field: repr's round-trip digits, or empty for None."""
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class NmseRow:
    """One (method, rank, snr) cell. nmse fields are None on error rows."""

    method: str
    n: int
    m: int
    r: int
    snr: float
    trials: int
    nmse: float
    nmse_stderr: float
    median_time_s: float
    status: str


@dataclass(frozen=True)
class NmseTable:
    rows: tuple
    seed: int
    n: int
    m: int
    trials: int

    def write_csv(self, dest, *, include_timing: bool = False, timestamp: str = None) -> None:
        """Emit the table: '#' metadata comments, header, one row per cell.

        median_time_s is left empty unless include_timing is set, so that
        two runs of the same seeded grid produce byte-identical files; the
        measured times stay available on the rows and via timing_report.
        """
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        comments = dict(
            seed=self.seed, n=self.n, m=self.m, trials=self.trials, version=__version__, timestamp=timestamp
        )
        header = ("method", "n", "m", "r", "snr", "trials", "nmse", "nmse_stderr", "median_time_s", "status")
        rows = (
            (
                row.method, row.n, row.m, row.r, _number(row.snr), row.trials, _number(row.nmse),
                _number(row.nmse_stderr), _number(row.median_time_s if include_timing else None), row.status,
            )
            for row in self.rows
        )
        _write_table(dest, comments, header, rows)

    def cell(self, method: str, r: int, snr: float) -> NmseRow:
        """Look up the unique row for (method label, r, snr)."""
        for row in self.rows:
            if row.method == method and row.r == r and row.snr == float(snr):
                return row
        raise ContractError(f"no row for ({method!r}, r={r}, snr={snr})")


def _draw(grid: ExperimentGrid, r_idx: int, s_idx: int, trial: int) -> tuple:
    """(X, problem) of one trial of cell (ranks[r_idx], snrs[s_idx]), from its
    own SeedSequence([seed, r_idx, s_idx, trial]) stream."""
    rng = np.random.default_rng(np.random.SeedSequence([grid.seed, r_idx, s_idx, trial]))
    return generate_problem(grid.n, grid.m, grid.ranks[r_idx], grid.snrs[s_idx], rng)


def _warm_up(grid: ExperimentGrid) -> None:
    """Run each method once, untimed, on the grid's first problem, so
    first-call costs such as cold caches land in no timing."""
    _, problem = _draw(grid, 0, 0, 0)
    for spec in grid.methods:
        try:
            METHOD_RUNNERS[spec.family](problem, svd(problem.Y), spec, grid.ranks[0])
        except Exception:  # a failing method gets its error rows from the timed runs
            pass


def _cell_rows(grid: ExperimentGrid, r_idx: int, s_idx: int) -> list:
    r = grid.ranks[r_idx]
    snr = grid.snrs[s_idx]
    ratios = {spec.label: [] for spec in grid.methods}
    times = {spec.label: [] for spec in grid.methods}
    failures = {}
    for trial in range(grid.trials):
        X, problem = _draw(grid, r_idx, s_idx, trial)
        factors = svd(problem.Y)
        x_energy = float(np.sum(X * X))
        for spec in grid.methods:
            label = spec.label
            if label in failures:
                continue
            started = perf_counter()
            try:
                Xhat = METHOD_RUNNERS[spec.family](problem, factors, spec, r)
            except Exception as exc:  # error rows must never abort the sweep
                failures[label] = type(exc).__name__
                continue
            times[label].append(perf_counter() - started)
            ratios[label].append(float(np.sum((Xhat - X) ** 2)) / x_energy)
    rows = []
    for spec in grid.methods:
        label = spec.label
        if label in failures:
            rows.append(
                NmseRow(
                    method=label, n=grid.n, m=grid.m, r=r, snr=snr, trials=grid.trials,
                    nmse=None, nmse_stderr=None, median_time_s=None,
                    status=f"error:{failures[label]}",
                )
            )
            continue
        values = ratios[label]
        mean = float(np.mean(values))
        stderr = 0.0 if len(values) < 2 else float(np.std(values, ddof=1) / np.sqrt(len(values)))
        rows.append(
            NmseRow(
                method=label, n=grid.n, m=grid.m, r=r, snr=snr, trials=grid.trials,
                nmse=mean, nmse_stderr=stderr,
                median_time_s=float(statistics.median(times[label])),
                status="ok",
            )
        )
    return rows


def run_sweep(grid: ExperimentGrid) -> NmseTable:
    """Run the full grid and aggregate NMSE per (method, rank, snr) cell.

    Cells run one after another, each from its own seeded draws; rows are
    sorted by (method, r, snr) before emission.
    """
    _warm_up(grid)
    rows = [
        row
        for ri in range(len(grid.ranks))
        for si in range(len(grid.snrs))
        for row in _cell_rows(grid, ri, si)
    ]
    rows.sort(key=lambda row: (row.method, row.r, row.snr))
    return NmseTable(
        rows=tuple(rows), seed=grid.seed, n=grid.n, m=grid.m, trials=grid.trials
    )


# ---------------------------------------------------------------------------
# parameter sensitivity


@dataclass(frozen=True)
class SensitivityCell:
    C: float
    K: int
    mean_nmse: float  # averaged over every (rank, snr) cell; NaN if any errored


@dataclass(frozen=True)
class SensitivityReport:
    table: NmseTable
    cells: tuple
    best: SensitivityCell

    def mean_for(self, C: float, K: int) -> float:
        for cell in self.cells:
            if cell.C == float(C) and cell.K == int(K):
                return cell.mean_nmse
        raise ContractError(f"no sensitivity cell for C={C}, K={K}")


def sensitivity_sweep(
    base_grid: ExperimentGrid, c_values=PAPER_C_VALUES, k_values=PAPER_K_VALUES
) -> SensitivityReport:
    """Sweep svlet over a (C, K) grid and report the rank-averaged argmin.

    Every (C, K) combination runs on the same seeded problems (the base
    grid's methods list is replaced), so the comparison is paired.  Ties in
    the argmin resolve toward smaller (C, K).
    """
    c_values = tuple(float(c) for c in c_values)
    k_values = tuple(k_values)
    if not c_values or not k_values:
        raise ContractError("c_values and k_values must be non-empty")
    methods = tuple(
        MethodSpec(family="svlet", C=c, K=k) for c in c_values for k in k_values
    )
    table = run_sweep(replace(base_grid, methods=methods))
    by_label = {}
    for row in table.rows:
        by_label.setdefault(row.method, []).append(row)
    cells = []
    for spec in methods:
        rows = by_label[spec.label]
        if any(row.status != "ok" for row in rows):
            mean = float("nan")
        else:
            mean = float(np.mean([row.nmse for row in rows]))
        cells.append(SensitivityCell(C=spec.C, K=spec.K, mean_nmse=mean))
    usable = [cell for cell in cells if np.isfinite(cell.mean_nmse)]
    if not usable:
        raise ContractError("every (C, K) combination produced error rows")
    best = min(usable, key=lambda cell: (cell.mean_nmse, cell.C, cell.K))
    return SensitivityReport(table=table, cells=tuple(cells), best=best)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True)
class TimingRow:
    method: str
    median_seconds: float
    ratio_vs_svlet: float  # None when the grid has no svlet method


def timing_report(grid: ExperimentGrid):
    """Median end-to-end wall time per method (SVD included) over the grid.

    Unlike run_sweep, each timed run performs its own factorization, so the
    numbers reflect what a caller of a single method would pay.  Each
    method runs untimed on a trial's problem right before it is timed on
    that problem, so it finds the caches as it leaves them rather than as
    the draw or the previous method did; otherwise the first method timed
    in a trial pays extra and the order of the methods moves their medians.
    A trial's time for a method is the fastest of TIMED_RUNS runs.
    """
    samples = {spec.label: [] for spec in grid.methods}
    for r_idx, r in enumerate(grid.ranks):
        for s_idx in range(len(grid.snrs)):
            for trial in range(grid.trials):
                _, problem = _draw(grid, r_idx, s_idx, trial)
                for spec in grid.methods:
                    run = METHOD_RUNNERS[spec.family]
                    run(problem, svd(problem.Y), spec, r)
                    times = []
                    for _ in range(TIMED_RUNS):
                        started = perf_counter()
                        factors = svd(problem.Y)
                        run(problem, factors, spec, r)
                        times.append(perf_counter() - started)
                    samples[spec.label].append(min(times))
    medians = {label: float(statistics.median(times)) for label, times in samples.items()}
    base = None
    for spec in grid.methods:
        if spec.family == "svlet":
            base = medians[spec.label]
            break
    rows = []
    for spec in grid.methods:
        label = spec.label
        ratio = None if base is None else medians[label] / base
        rows.append(TimingRow(method=label, median_seconds=medians[label], ratio_vs_svlet=ratio))
    return tuple(rows)


def write_timing_csv(path, rows, seed: int) -> None:
    """Emit timing_report rows: '#' seed and version comments, header, one
    row per method (ratio_vs_svlet empty when the grid has no svlet)."""
    table = ((row.method, _number(row.median_seconds), _number(row.ratio_vs_svlet)) for row in rows)
    _write_table(path, dict(seed=seed, version=__version__), ("method", "median_time_s", "ratio_vs_svlet"), table)


# ---------------------------------------------------------------------------
# paper-style preset


def paper_preset(seed: int, *, trials: int = DEFAULT_TRIALS) -> dict:
    """The documented 50x50 benchmark regime, keyed by output table.

    "asymptotic" and "sure" are run_sweep grids over ranks 1..50 at the two
    documented SNR sets; "sensitivity" is a sensitivity_sweep base grid
    (pair it with PAPER_C_VALUES x PAPER_K_VALUES); "timing" is a mid-rank
    single-cell grid for timing_report over the four searched families.
    """
    ranks = tuple(range(1, 51))
    return {
        "asymptotic": ExperimentGrid(
            n=50, m=50, ranks=ranks, snrs=PAPER_ASYMPTOTIC_SNRS,
            methods=("svlet(C=10,K=2)", OPTIMAL_SHRINK, SVHT_4SQRT3, SVST_BULK, EYM_ORACLE),
            trials=trials, seed=seed,
        ),
        "sure": ExperimentGrid(
            n=50, m=50, ranks=ranks, snrs=PAPER_SURE_SNRS,
            methods=("svlet(C=10,K=2)", "svst-sure", "atn-sure", "svlt-sure"),
            trials=trials, seed=seed,
        ),
        "sensitivity": ExperimentGrid(
            n=50, m=50, ranks=ranks, snrs=PAPER_ASYMPTOTIC_SNRS,
            methods=("svlet(C=10,K=2)",), trials=trials, seed=seed,
        ),
        "timing": ExperimentGrid(
            n=50, m=50, ranks=(25,), snrs=(1.0,),
            methods=("svlet(C=10,K=2)", "svst-sure", "atn-sure", "svlt-sure"),
            trials=trials, seed=seed,
        ),
    }


# ---------------------------------------------------------------------------
# `svshrink bench` jobs: the paper preset or one config file


@dataclass(frozen=True)
class BenchJob:
    """One `svshrink bench` job: a run kind, its grid and its CSV's name; a
    sensitivity run sweeps svlet over c_values x k_values."""

    run: str
    grid: ExperimentGrid
    out: str
    c_values: tuple = PAPER_C_VALUES
    k_values: tuple = PAPER_K_VALUES


def preset_jobs(seed: int, trials: int = None) -> list:
    """The paper preset's four jobs on paper_preset's grids."""
    grids = paper_preset(seed, trials=DEFAULT_TRIALS if trials is None else trials)
    return [
        BenchJob("sweep", grids["asymptotic"], "asymptotic.csv"),
        BenchJob("sweep", grids["sure"], "sure.csv"),
        BenchJob("sensitivity", grids["sensitivity"], "sensitivity.csv"),
        BenchJob("timing", grids["timing"], "timing.csv"),
    ]


def _parse_list(value: str, key: str, kind) -> tuple:
    """Numbers separated by commas or spaces; integers also as `lo..hi`,
    both ends included."""
    if kind is int and ".." in value and "," not in value:
        lo, _, hi = value.partition("..")
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ContractError(f"{key}: cannot parse range {value!r}") from None
    try:
        return tuple(kind(item) for item in value.replace(",", " ").split())
    except ValueError:
        what = "integer" if kind is int else "number"
        raise ContractError(f"{key}: cannot parse {what} list {value!r}") from None


def _parse_scalar(kind, key):
    def parse(value: str):
        try:
            return kind(value)
        except ValueError:
            raise ContractError(f"{key}: cannot parse {value!r}") from None

    return parse


# Each parser reads a value already stripped of surrounding blanks.
_CONFIG_PARSERS = {
    "run": str,
    "n": _parse_scalar(int, "n"),
    "m": _parse_scalar(int, "m"),
    "ranks": lambda v: _parse_list(v, "ranks", int),
    "snrs": lambda v: _parse_list(v, "snrs", float),
    "methods": lambda v: tuple(v.split()),
    "trials": _parse_scalar(int, "trials"),
    "c_values": lambda v: _parse_list(v, "c_values", float),
    "k_values": lambda v: _parse_list(v, "k_values", int),
    "out": str,
}


def load_config(path, seed: int) -> BenchJob:
    """Parse a flat `key = value` file ('#' starts a comment) into one job.

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
    run = fields.pop("run", "sweep")
    if run not in ("sweep", "sensitivity", "timing"):
        raise ContractError(f"run must be one of sweep, sensitivity, timing; got {run!r}")
    out = fields.pop("out", None) or f"{run}.csv"
    sweep = {key: fields.pop(key) for key in ("c_values", "k_values") if key in fields}
    grid = dict(n=50, m=50, ranks=tuple(range(1, 51)), snrs=PAPER_ASYMPTOTIC_SNRS, methods=tuple(METHOD_RUNNERS))
    return BenchJob(run, ExperimentGrid(**{**grid, **fields}, seed=seed), out, **sweep)


def run_jobs(jobs, outdir, *, include_timing: bool = False) -> dict:
    """Run each job into its CSV under outdir and return the summary: a
    sensitivity run's best (C, K) and its NMSE, and the files `written`."""
    outdir = Path(outdir)
    summary = {}
    written = []
    try:  # the directory and the CSVs are the only file-system writes here
        outdir.mkdir(parents=True, exist_ok=True)
        # A job's CSV is written only after its sweep, so a missing directory
        # must fail before the first job runs, not after it.
        for job in jobs:
            if not (outdir / job.out).parent.is_dir():
                raise ContractError(f"cannot write bench output: no directory for {outdir / job.out}")
        for job in jobs:
            path = outdir / job.out
            if job.run == "timing":
                write_timing_csv(path, timing_report(job.grid), job.grid.seed)
            elif job.run == "sweep":
                run_sweep(job.grid).write_csv(path, include_timing=include_timing)
            else:
                report = sensitivity_sweep(job.grid, job.c_values, job.k_values)
                report.table.write_csv(path, include_timing=include_timing)
                summary.update(best_C=report.best.C, best_K=report.best.K, best_nmse=report.best.mean_nmse)
            written.append(str(path))
    except OSError as exc:
        raise ContractError(f"cannot write bench output: {exc}") from exc
    summary["written"] = written
    return summary
