"""Benchmark workloads: seeded inputs, the timed operation, and its checks.

An op is one (matrix, method) denoise that pays for its own SVD, as in
svshrink.bench.timing_report.  Inputs are drawn from the same
SeedSequence([seed, r_idx, s_idx, trial]) streams that run_sweep uses, so the
benchmark's loop can be cross-checked against the library's own harness.
Every op is checked after it is timed; a failed check is recorded, never
raised.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from svshrink import bench, cli, rmt, spectral
from svshrink.spectral import IO_ROUNDTRIP_TOL, DenoiseProblem

# The package re-exports the function `sure` under the module's name, so the
# modules are fetched by their full dotted names.
sure_mod = importlib.import_module("svshrink.sure")
shrinkage = importlib.import_module("svshrink.shrinkage")

SURE_IDENTITY_RTOL = 1e-12
CROSS_CHECK_RTOL = 1e-12
TRIAL = 0  # every input uses trial index 0 of its cell's stream


def library_calls() -> SimpleNamespace:
    """The public functions an op calls, looked up when the run starts."""
    return SimpleNamespace(
        svd=spectral.svd,
        reconstruct=spectral.reconstruct,
        apply=shrinkage.apply,
        solve_svlet=sure_mod.solve_svlet,
        tune_grid=sure_mod.tune_grid,
        asymptotic_denoise=rmt.asymptotic_denoise,
        cli_main=cli.main,
    )


@dataclass(frozen=True)
class CellGrid:
    """One matrix shape's seeded cells: (r_idx, s_idx) pairs into ranks x snrs."""

    n: int
    m: int
    ranks: tuple
    snrs: tuple
    cells: tuple

    def draw(self, seed: int, r_idx: int, s_idx: int):
        """The (X, problem) run_sweep draws for this cell at trial 0."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, r_idx, s_idx, TRIAL]))
        return bench.generate_problem(self.n, self.m, self.ranks[r_idx], self.snrs[s_idx], rng)

    def sweep_grid(self, seed: int, methods) -> bench.ExperimentGrid:
        """A run_sweep grid whose only cell is this grid's cell (0, 0)."""
        return bench.ExperimentGrid(
            n=self.n, m=self.m, ranks=(self.ranks[0],), snrs=(self.snrs[0],),
            methods=tuple(methods), trials=1, seed=seed,
        )


def nmse(Xhat: np.ndarray, X: np.ndarray) -> float:
    """||Xhat - X||^2 / ||X||^2, computed as run_sweep computes it."""
    return float(np.sum((Xhat - X) ** 2)) / float(np.sum(X * X))


def estimate_failure(Xhat, shape) -> str | None:
    if not isinstance(Xhat, np.ndarray) or Xhat.shape != shape:
        return f"estimate shape {getattr(Xhat, 'shape', None)} != input shape {shape}"
    if not np.all(np.isfinite(Xhat)):
        return "estimate has non-finite entries"
    return None


def report_failure(report, shape, sigma: float) -> str | None:
    """Check sure = -nm*sigma^2 + residual + 2*sigma^2*divergence and, for a
    grid search, that the winner is the minimum of its trace."""
    n, m = shape
    sigma2 = sigma * sigma
    rhs = -n * m * sigma2 + report.residual + 2.0 * sigma2 * report.divergence
    scale = n * m * sigma2 + abs(report.residual) + 2.0 * sigma2 * abs(report.divergence)
    if not abs(report.sure - rhs) <= SURE_IDENTITY_RTOL * scale:
        return f"SURE identity off by {abs(report.sure - rhs) / scale:.3e} relative"
    if report.trace and report.sure != min(value for _, value in report.trace):
        return "grid winner is not the minimum of its trace"
    return None


def denoise(lib, method: bench.MethodSpec, Y: np.ndarray, sigma: float):
    """One in-memory op: validate, factor, fit, shrink, rebuild.

    Returns the estimate and the SureReport to check (None for the
    calibrated asymptotic rules, which have no fit)."""
    problem = DenoiseProblem(Y=Y, sigma=sigma)
    factors = lib.svd(problem.Y)
    if method.family == "svlet":
        solved = lib.solve_svlet(problem, factors, K=method.K, C=method.C)
        return lib.reconstruct(factors, lib.apply(solved.rule, factors.S)), solved.report
    if method.family in bench.TUNED_FAMILIES:
        report = lib.tune_grid(problem, factors, method.family.removesuffix("-sure"))
        return lib.reconstruct(factors, lib.apply(report.rule, factors.S)), report
    return lib.asymptotic_denoise(problem, factors, method.family), None


@dataclass(frozen=True, eq=False)
class MemoryOp:
    """Denoise one in-memory matrix with one method."""

    method: bench.MethodSpec
    X: np.ndarray
    problem: DenoiseProblem

    def run(self, lib):
        return denoise(lib, self.method, self.problem.Y, self.problem.sigma)

    def check(self, result) -> tuple:
        """(failure reason or None, NMSE or None)."""
        Xhat, report = result
        failure = estimate_failure(Xhat, self.X.shape)
        if failure is None and report is not None:
            failure = report_failure(report, self.X.shape, self.problem.sigma)
        return failure, None if failure else nmse(Xhat, self.X)


@dataclass(frozen=True, eq=False)
class CliOp:
    """`svshrink denoise` on a CSV prepared beforehand, run in-process."""

    method: str
    X: np.ndarray
    argv: tuple
    output: str
    reference: np.ndarray  # the library's estimate, computed untimed

    def run(self, lib):
        return lib.cli_main(list(self.argv))

    def check(self, code) -> tuple:
        if code != 0:
            return f"CLI exit code {code}", None
        Xhat = spectral.read_matrix(self.output)
        failure = estimate_failure(Xhat, self.X.shape)
        if failure is None:
            gap = float(np.linalg.norm(Xhat - self.reference))
            if not gap <= IO_ROUNDTRIP_TOL * float(np.linalg.norm(self.reference)):
                failure = f"CLI output differs from the library estimate by {gap:.3e}"
        return failure, None if failure else nmse(Xhat, self.X)


@dataclass
class Prepared:
    """A workload's inputs for one seed, plus problems found while preparing."""

    ops: list
    methods: int  # distinct methods; the first `methods` ops cover each once
    cross_check: object = None  # callable(nmse_by_label) -> list of problems
    problems: list = field(default_factory=list)


def _memory_ops(seed: int, grids, methods) -> list:
    """Ops ordered cell by cell (grids interleaved), every method per cell."""
    specs = [bench.parse_method(label) for label in methods]
    ops = []
    for cells in zip(*(grid.cells for grid in grids)):
        for grid, (r_idx, s_idx) in zip(grids, cells):
            X, problem = grid.draw(seed, r_idx, s_idx)
            ops.extend(MemoryOp(spec, X, problem) for spec in specs)
    return ops


def _sweep_cross_check(seed: int, grid: CellGrid, methods):
    """Compare the benchmark's NMSE on cell (0, 0) with run_sweep's."""

    def compare(nmse_by_label: dict) -> list:
        problems = []
        table = bench.run_sweep(grid.sweep_grid(seed, methods))
        for row in table.rows:
            ours = nmse_by_label.get(row.method)
            if row.status != "ok" or ours is None:
                problems.append(f"cross-check {row.method}: run_sweep {row.status}, benchmark {ours}")
            elif not abs(ours - row.nmse) <= CROSS_CHECK_RTOL * abs(row.nmse):
                problems.append(f"cross-check {row.method}: NMSE {ours!r} vs run_sweep {row.nmse!r}")
        return problems

    return compare


def _in_memory(grids, methods):
    def prepare(seed: int, workdir: str) -> Prepared:
        return Prepared(
            ops=_memory_ops(seed, grids, methods),
            methods=len(methods),
            cross_check=_sweep_cross_check(seed, grids[0], methods),
        )

    return prepare


def _library_estimate(method: str, problem: DenoiseProblem):
    """What `svshrink denoise --method <method>` should write, from the library."""
    factors = spectral.svd(problem.Y)
    if method == "svlet":
        solved = sure_mod.solve_svlet(problem, factors, K=bench.DEFAULT_K, C=bench.DEFAULT_C)
        return spectral.reconstruct(factors, shrinkage.apply(solved.rule, factors.S)), solved.report
    if method == "svst":
        report = sure_mod.tune_grid(problem, factors, "svst")
        return spectral.reconstruct(factors, shrinkage.apply(report.rule, factors.S)), report
    return rmt.asymptotic_denoise(problem, factors, method), None


def _cli_files(grids, methods):
    def prepare(seed: int, workdir: str) -> Prepared:
        ops, problems = [], []
        output = os.path.join(workdir, "denoised.csv")
        for cells in zip(*(grid.cells for grid in grids)):
            for grid, (r_idx, s_idx) in zip(grids, cells):
                X, problem = grid.draw(seed, r_idx, s_idx)
                path = os.path.join(workdir, f"Y-{grid.n}x{grid.m}-{r_idx}-{s_idx}.csv")
                np.savetxt(path, problem.Y, fmt="%.17g", delimiter=",")
                read_back = DenoiseProblem(Y=spectral.read_matrix(path), sigma=problem.sigma)
                for method in methods:
                    reference, report = _library_estimate(method, read_back)
                    if report is not None:
                        failure = report_failure(report, X.shape, problem.sigma)
                        if failure:
                            problems.append(f"library estimate {method} {path}: {failure}")
                    argv = ("denoise", path, "--sigma", repr(problem.sigma),
                            "--method", method, "--output", output)
                    ops.append(CliOp(method, X, argv, output, reference))
        return Prepared(ops=ops, methods=len(methods), problems=problems)

    return prepare


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object  # callable(seed, workdir) -> Prepared
    # The tail percentile reported as op_tail_ms (see perfbench/README.md).
    tail_percentile: float


PAPER_SNRS = (0.5, 1.0, 2.0, 4.0)
SURE_SNRS = (0.5, 1.0, 1.5, 2.0)
SURE_RANKS = (1, 5, 15, 30)
CLI_RANKS = (5, 20)
CLI_SNRS = (1.0, 2.0)
CLI_N, CLI_M = 400, 200

WORKLOADS = {
    workload.name: workload
    for workload in (
        # All 200 (rank, SNR) cells of the paper's 50x50 table, four closed-form
        # or calibrated methods: SVD, validation and the fit are the whole op.
        Workload(
            name="paper-closed-form",
            prepare=_in_memory(
                (CellGrid(50, 50, tuple(range(1, 51)), PAPER_SNRS,
                          tuple((r, s) for r in range(50) for s in range(4))),),
                ("svlet(C=10,K=2)", "opt-shrink", "svht-4sqrt3", "svst-bulk"),
            ),
            tail_percentile=95.0,
        ),
        # One rank per SNR on a square and a wide shape (the wide one makes the
        # |n - m| divergence term non-zero); the per-candidate SURE loop in
        # tune_grid is more than 99% of each op.
        Workload(
            name="sure-grid",
            prepare=_in_memory(
                (CellGrid(50, 50, SURE_RANKS, SURE_SNRS, ((0, 0), (1, 1), (2, 2), (3, 3))),
                 CellGrid(40, 80, SURE_RANKS, SURE_SNRS, ((3, 0), (2, 1), (1, 2), (0, 3)))),
                ("svst-sure", "atn-sure", "svlt-sure"),
            ),
            tail_percentile=75.0,
        ),
        # A tall and a wide CSV per cell through `svshrink denoise`: reading and
        # writing 17-digit text is most of the op.
        Workload(
            name="cli-file",
            prepare=_cli_files(
                (CellGrid(CLI_N, CLI_M, CLI_RANKS, CLI_SNRS, ((0, 0), (1, 1))),
                 CellGrid(CLI_M, CLI_N, CLI_RANKS, CLI_SNRS, ((0, 0), (1, 1)))),
                ("svlet", "opt-shrink", "svst"),
            ),
            tail_percentile=75.0,
        ),
    )
}
