"""The count and scalar contracts at every site that reads one.

A count (a matrix dimension, a rank, an expansion order, an index, a trial
count or a seed) is an integer in a stated range; a bool, a fraction or a
numeric string is not one, and each fails with the same ContractError
message, "{name} must be an integer >= {lo}, got {x!r}" or "... in [{lo},
{hi}], got ...".  A valid count of any integer type is kept as a Python
int.  A scalar parameter that is not a number at all fails with the
ContractError of its own range check.
"""

import re

import numpy as np
import pytest

from svshrink import (
    AspectRatio,
    ContractError,
    DenoiseProblem,
    Identity,
    MatrixShape,
    Svlet,
    Svst,
    calibration_scale,
    cli,
    derivative,
    estimate_rank,
    solve_svlet,
    svd,
    tune_grid,
    verify_laws,
    write_matrix,
)
from svshrink.bench import ExperimentGrid, MethodSpec, generate_problem
from svshrink.spectral import truncated_spectrum

S3 = np.array([3.0, 2.0, 1.0])
GRID = dict(n=4, m=3, ranks=(1,), snrs=(1.0,), methods=("svst-sure",))


def small_problem():
    Y = np.random.default_rng(5).standard_normal((6, 5))
    return DenoiseProblem(Y, 0.5), svd(Y)


# site: (call on the count x, the name in the message, lo, hi or None, the
# stored count of the call's result or None where nothing is stored)
SITES = {
    "MatrixShape.n": (lambda x: MatrixShape(x, 3), "n", 1, None, lambda shape: shape.n),
    "MatrixShape.m": (lambda x: MatrixShape(3, x), "m", 1, None, lambda shape: shape.m),
    "truncated_spectrum": (lambda x: truncated_spectrum(S3, x), "rank", 0, 3, None),
    "Svlet.K": (lambda x: Svlet(K=x, T=1.0, a=[1.0, 0.5]), "K", 1, None, lambda rule: rule.K),
    "solve_svlet.K": (lambda x: solve_svlet(*small_problem(), K=x, C=10.0), "K", 1, None, lambda s: s.rule.K),
    "MethodSpec.K": (lambda x: MethodSpec("svlet", K=x), "K", 1, None, lambda spec: spec.K),
    "derivative.i": (lambda x: derivative(Identity(), 1.0, i=x), "index", 1, None, None),
    "ExperimentGrid.ranks": (
        lambda x: ExperimentGrid(**{**GRID, "ranks": (x,)}), "rank", 1, 3, lambda grid: grid.ranks[0]
    ),
    "ExperimentGrid.trials": (
        lambda x: ExperimentGrid(**GRID, trials=x), "trials", 1, None, lambda grid: grid.trials
    ),
    "ExperimentGrid.seed": (lambda x: ExperimentGrid(**GRID, seed=x), "seed", 0, None, lambda grid: grid.seed),
    "generate_problem.r": (lambda x: generate_problem(4, 3, x, 1.0, np.random.default_rng(0)), "r", 1, 3, None),
    "verify_laws.n": (lambda x: verify_laws(x, 1.0, 1, 0), "n", 2, None, None),
    "verify_laws.trials": (lambda x: verify_laws(4, 1.0, x, 0), "trials", 1, None, None),
    "verify_laws.seed": (lambda x: verify_laws(4, 1.0, 1, x), "seed", 0, None, None),
}


def bad_counts(lo, hi):
    return [True, 1.5, "2", lo - 1] + ([] if hi is None else [hi + 1])


CASES = [
    pytest.param(site, x, id=f"{site}-{x!r}")
    for site, (_, _, lo, hi, _) in SITES.items()
    for x in bad_counts(lo, hi)
]


class TestCounts:
    @pytest.mark.parametrize("site, x", CASES)
    def test_rejects_non_count(self, site, x):
        call, name, lo, hi, _ = SITES[site]
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        message = f"{name} must be an integer {bounds}, got {x!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call(x)

    @pytest.mark.parametrize("site", SITES)
    def test_numpy_integer_is_kept_as_int(self, site):
        call, _, _, _, stored = SITES[site]
        result = call(np.int64(2))
        if stored is not None:
            assert type(stored(result)) is int
            assert stored(result) == 2


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestCliCounts:
    """Counts given on the command line fail with exit 2 and the message."""

    def test_rmt_check_negative_seed(self, capsys):
        code, err = run_cli(["rmt-check", "--n", "20", "--seed", "-1", "--trials", "1"], capsys)
        assert code == 2
        assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_denoise_zero_order(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        write_matrix(path, np.random.default_rng(6).standard_normal((8, 6)))
        code, err = run_cli(["denoise", path, "--sigma", "0.5", "--method", "svlet", "--K", "0"], capsys)
        assert code == 2
        assert err == "error: K must be an integer >= 1, got 0\n"

    def test_denoise_rank_above_columns(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        write_matrix(path, np.random.default_rng(6).standard_normal((8, 6)))
        code, err = run_cli(["denoise", path, "--sigma", "0.5", "--method", "eym", "--rank", "7"], capsys)
        assert code == 2
        assert err == "error: rank must be an integer in [0, 6], got 7\n"


NON_NUMBERS = {
    "DenoiseProblem.sigma": lambda: DenoiseProblem(np.eye(3), None),
    "Svst.lam": lambda: Svst("x"),
    "solve_svlet.C": lambda: solve_svlet(*small_problem(), K=2, C=None),
    "calibration_scale.sigma": lambda: calibration_scale(MatrixShape(4, 3), None),
    "estimate_rank.sigma": lambda: estimate_rank(S3, MatrixShape(4, 3), None),
    "ExperimentGrid.snrs": lambda: ExperimentGrid(**{**GRID, "snrs": ("x",)}),
    "AspectRatio.beta": lambda: AspectRatio("x"),
    "tune_grid.p1": lambda: tune_grid(*small_problem(), "svlt", p1="x"),
}


class TestNonNumbers:
    @pytest.mark.parametrize("site", NON_NUMBERS)
    def test_rejects_non_number(self, site):
        with pytest.raises(ContractError):
            NON_NUMBERS[site]()

    def test_messages_name_the_value(self):
        with pytest.raises(ContractError, match=r"^sigma must be a finite positive number, got None$"):
            DenoiseProblem(np.eye(3), None)
        with pytest.raises(ContractError, match=r"^lam must be finite, got 'x'$"):
            Svst("x")
        with pytest.raises(ContractError, match=r"^beta must lie in \(0, 1\], got 'x'$"):
            AspectRatio("x")
        with pytest.raises(ContractError, match=r"^p1 must be finite, got 'x'$"):
            tune_grid(*small_problem(), "svlt", p1="x")

    def test_numeric_messages_unchanged(self):
        """A number keeps the message it had, printed as a float."""
        with pytest.raises(ContractError, match=r"^sigma must be a finite positive number, got -1\.0$"):
            DenoiseProblem(np.eye(3), np.float64(-1.0))
        with pytest.raises(ContractError, match=r"^lam must be finite, got nan$"):
            Svst(float("nan"))
        with pytest.raises(ContractError, match=r"^beta must lie in \(0, 1\], got 2\.0$"):
            AspectRatio(2.0)
