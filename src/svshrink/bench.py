"""Reproducible NMSE benchmark harness.

Every function here is a pure function of its arguments: random number
streams are derived per (seed, cell index, trial index) with SeedSequence,
so tables come out identical across runs and platforms for the same build.
Method failures inside a sweep are downgraded to error rows instead of
aborting, so a long grid survives isolated degenerate cells.
"""

from __future__ import annotations

import csv
import re
import statistics
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from time import perf_counter

import numpy as np

from ._version import __version__
from .errors import ContractError
from .rmt import (
    OPTIMAL_SHRINK,
    SVHT_4SQRT3,
    SVST_BULK,
    AspectRatio,
    calibration_scale,
    estimate_rank,
)
from .rmt import asymptotic_denoise as _asymptotic_denoise
from .shrinkage import RmtOptimal, _expansion_order, apply, dog_basis
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, reconstruct, svd, truncated_spectrum
from .sure import _fit_expansion, _spectral_pieces, solve_svlet, sure, tune_grid

DEFAULT_C = 10.0
DEFAULT_K = 2
DEFAULT_TRIALS = 10

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
        C = float(self.C)
        if not np.isfinite(C) or C <= 0.0:
            raise ContractError(f"C must be a finite positive number, got {self.C!r}")
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
        for name in ("n", "m"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {value!r}")
        shape = MatrixShape(int(self.n), int(self.m))
        ranks = tuple(self.ranks)
        if not ranks:
            raise ContractError("ranks must be non-empty")
        for r in ranks:
            if not isinstance(r, (int, np.integer)) or not (1 <= r <= shape.L):
                raise ContractError(f"ranks must be integers in [1, {shape.L}], got {r!r}")
        snrs = tuple(float(s) for s in self.snrs)
        if not snrs:
            raise ContractError("snrs must be non-empty")
        for s in snrs:
            if not np.isfinite(s) or s <= 0.0:
                raise ContractError(f"snrs must be finite and > 0, got {s!r}")
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
    shape = MatrixShape(int(n), int(m))
    if not isinstance(r, (int, np.integer)) or not (1 <= r <= shape.L):
        raise ContractError(f"r must be an integer in [1, {shape.L}], got {r!r}")
    snr = float(snr)
    if not np.isfinite(snr) or snr <= 0.0:
        raise ContractError(f"snr must be finite and > 0, got {snr!r}")
    left = rng.standard_normal((shape.n, int(r)))
    right = rng.standard_normal((shape.m, int(r)))
    X = left @ right.T
    sigma = float(np.linalg.norm(X) / np.sqrt(snr * shape.n * shape.m))
    Y = X + sigma * rng.standard_normal((shape.n, shape.m))
    return X, DenoiseProblem(Y=Y, sigma=sigma)


def nmse(estimates, truths) -> float:
    """Trial-averaged ||Xhat - X||_F^2 / ||X||_F^2."""
    if len(estimates) == 0 or len(estimates) != len(truths):
        raise ContractError("estimates and truths must be equal-length non-empty lists")
    total = 0.0
    for Xhat, X in zip(estimates, truths):
        Xhat = np.asarray(Xhat, dtype=float)
        X = np.asarray(X, dtype=float)
        if Xhat.shape != X.shape:
            raise ContractError(f"shape mismatch: {Xhat.shape} vs {X.shape}")
        denom = float(np.sum(X * X))
        if denom == 0.0:
            raise ContractError("truth matrix is identically zero")
        total += float(np.sum((Xhat - X) ** 2)) / denom
    return total / len(estimates)


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
    version: str = __version__

    def write_csv(self, dest, *, include_timing: bool = False, timestamp: str = None) -> None:
        """Emit the table: '#' metadata comments, header, one row per cell.

        median_time_s is left empty unless include_timing is set, so that
        two runs of the same seeded grid produce byte-identical files; the
        measured times stay available on the rows and via timing_report.
        """
        if hasattr(dest, "write"):
            self._write_stream(dest, include_timing, timestamp)
        else:
            with open(dest, "w", newline="") as stream:
                self._write_stream(stream, include_timing, timestamp)

    def _write_stream(self, stream, include_timing: bool, timestamp: str) -> None:
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        stream.write(f"# seed={self.seed}\n")
        stream.write(f"# n={self.n}\n")
        stream.write(f"# m={self.m}\n")
        stream.write(f"# trials={self.trials}\n")
        stream.write(f"# version={self.version}\n")
        stream.write(f"# timestamp={timestamp}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            ["method", "n", "m", "r", "snr", "trials", "nmse", "nmse_stderr", "median_time_s", "status"]
        )
        for row in self.rows:
            timing = ""
            if include_timing and row.median_time_s is not None:
                timing = repr(float(row.median_time_s))
            writer.writerow(
                [
                    row.method,
                    row.n,
                    row.m,
                    row.r,
                    repr(float(row.snr)),
                    row.trials,
                    "" if row.nmse is None else repr(float(row.nmse)),
                    "" if row.nmse_stderr is None else repr(float(row.nmse_stderr)),
                    timing,
                    row.status,
                ]
            )

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
    """Run each method once, untimed, on the grid's first problem, so lazy
    setup work (the logistic rule's scipy import) lands in no timing."""
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
    label: str


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
        cells.append(SensitivityCell(C=spec.C, K=spec.K, mean_nmse=mean, label=spec.label))
    usable = [cell for cell in cells if np.isfinite(cell.mean_nmse)]
    if not usable:
        raise ContractError("every (C, K) combination produced error rows")
    best = min(usable, key=lambda cell: (cell.mean_nmse, cell.C, cell.K))
    return SensitivityReport(table=table, cells=tuple(cells), best=best)


# ---------------------------------------------------------------------------
# asymptotic optimality check


@dataclass(frozen=True)
class AsymptoticCheck:
    """Per matrix size: fitted-expansion vs closed-form shrinker deviation.

    mean_deviation averages, over the seeds where spikes were detected, the
    worst relative deviation across detected spikes; skipped counts seeds
    with no detected spike.
    """

    n: int
    m: int
    mean_deviation: float
    per_seed: tuple
    detected_ranks: tuple
    skipped: int


def verify_asymptotic_optimality(
    n_values, r: int, beta: float, seed: int, *, spikes=None, n_seeds: int = 5
):
    """Check that the fitted expansion converges to the optimal bulk shrinker.

    For each n: draw a calibrated spiked model (orthonormal factors, noise
    standard deviation 1/sqrt(m)), estimate the spike count r*, fit the
    expansion on exactly the top r* singular values (K = r*, T = their
    mean, cross-sums still over the full spectrum), and measure the
    relative gap to the closed-form optimal shrinker at those values.
    """
    ratio = AspectRatio(beta)
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ContractError(f"r must be an integer >= 1, got {r!r}")
    if not isinstance(n_seeds, (int, np.integer)) or n_seeds < 1:
        raise ContractError(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    if spikes is None:
        spikes = np.linspace(2.0, 4.0, int(r))
    spikes = np.sort(np.asarray(spikes, dtype=float))[::-1]
    if spikes.shape != (int(r),) or np.any(~np.isfinite(spikes)) or np.any(spikes <= 0.0):
        raise ContractError("spikes must be r finite positive strengths")
    n_values = tuple(int(n) for n in n_values)
    rule = RmtOptimal(beta=ratio.beta)
    checks = []
    for n in n_values:
        if n < 2 * r:
            raise ContractError(f"n={n} too small for r={r} spikes")
        m = int(round(n / ratio.beta))
        shape = MatrixShape(n, m)
        sigma = 1.0 / np.sqrt(m)
        scale = calibration_scale(shape, sigma)
        devs = []
        detected = []
        skipped = 0
        for s in range(int(n_seeds)):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), n, s]))
            U0 = np.linalg.qr(rng.standard_normal((n, int(r))))[0]
            V0 = np.linalg.qr(rng.standard_normal((m, int(r))))[0]
            Y = (U0 * spikes) @ V0.T + sigma * rng.standard_normal((n, m))
            spectrum = np.linalg.svd(Y, compute_uv=False)
            r_star = estimate_rank(spectrum, shape, sigma).r_star
            detected.append(r_star)
            if r_star == 0:
                skipped += 1
                continue
            T = float(np.mean(spectrum[:r_star]))
            s, _, rowsums = _spectral_pieces(spectrum, shape)
            a = _fit_expansion(s, rowsums, shape, sigma, r_star, T, r_star)[4]
            fitted = dog_basis(spectrum[:r_star], r_star, T) @ a
            target = scale * apply(rule, spectrum / scale)[:r_star]
            compare = min(r_star, int(r))  # extra near-edge detections are fit, not scored
            gaps = np.abs(fitted[:compare] - target[:compare]) / target[:compare]
            devs.append(float(np.max(gaps)))
        if not devs:
            mean_dev = float("nan")
        else:
            mean_dev = float(np.mean(devs))
        checks.append(
            AsymptoticCheck(
                n=n, m=m, mean_deviation=mean_dev, per_seed=tuple(devs),
                detected_ranks=tuple(detected), skipped=skipped,
            )
        )
    return tuple(checks)


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
    numbers reflect what a caller of a single method would pay.  One
    untimed warm-up run per method absorbs lazy setup work, and one untimed
    SVD per trial takes the cold-cache cost that would otherwise fall on
    whichever method is timed first after the previous trial's work.
    """
    samples = {spec.label: [] for spec in grid.methods}
    _warm_up(grid)
    for r_idx, r in enumerate(grid.ranks):
        for s_idx in range(len(grid.snrs)):
            for trial in range(grid.trials):
                _, problem = _draw(grid, r_idx, s_idx, trial)
                svd(problem.Y)
                for spec in grid.methods:
                    started = perf_counter()
                    factors = svd(problem.Y)
                    METHOD_RUNNERS[spec.family](problem, factors, spec, r)
                    samples[spec.label].append(perf_counter() - started)
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
    with open(path, "w", newline="") as stream:
        stream.write(f"# seed={seed}\n")
        stream.write(f"# version={__version__}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["method", "median_time_s", "ratio_vs_svlet"])
        for row in rows:
            ratio = "" if row.ratio_vs_svlet is None else repr(float(row.ratio_vs_svlet))
            writer.writerow([row.method, repr(float(row.median_seconds)), ratio])


# ---------------------------------------------------------------------------
# SURE unbiasedness harness


@dataclass(frozen=True)
class SureCheck:
    rule_label: str
    mean_sure: float
    mean_loss: float
    gap: float
    combined_stderr: float
    passed: bool


def sure_unbiasedness(configs, draws: int, seed: int):
    """Monte Carlo check that mean SURE tracks mean squared loss.

    Each config is (X, sigma, rule) with X held fixed; `draws` independent
    noise realizations are used for both averages (paired).  A config
    passes when |mean SURE - mean loss| <= 3 combined standard errors.
    """
    if not isinstance(draws, (int, np.integer)) or draws < 2:
        raise ContractError(f"draws must be an integer >= 2, got {draws!r}")
    configs = list(configs)
    if not configs:
        raise ContractError("configs must be non-empty")
    checks = []
    for idx, (X, sigma, rule) in enumerate(configs):
        X = np.asarray(X, dtype=float)
        sures = np.empty(draws)
        losses = np.empty(draws)
        for d in range(int(draws)):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx, d]))
            problem = DenoiseProblem(Y=X + float(sigma) * rng.standard_normal(X.shape), sigma=float(sigma))
            factors = svd(problem.Y)
            report = sure(problem, factors, rule)
            Xhat = reconstruct(factors, apply(rule, factors.S))
            sures[d] = report.sure
            losses[d] = float(np.sum((Xhat - X) ** 2))
        gap = float(np.mean(sures) - np.mean(losses))
        combined = float(np.sqrt(np.var(sures, ddof=1) / draws + np.var(losses, ddof=1) / draws))
        checks.append(
            SureCheck(
                rule_label=type(rule).__name__,
                mean_sure=float(np.mean(sures)),
                mean_loss=float(np.mean(losses)),
                gap=gap,
                combined_stderr=combined,
                passed=bool(abs(gap) <= 3.0 * combined),
            )
        )
    return tuple(checks)


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
