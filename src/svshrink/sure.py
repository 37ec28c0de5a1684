"""Unbiased risk estimation for spectral shrinkage estimators.

For Y = X + sigma * G with i.i.d. standard Gaussian G, an estimator that
keeps the singular vectors of Y and replaces each singular value y_i by
eta(y_i) admits a closed-form divergence on simple positive spectra.  With
the spectral weight

    w_i = |n - m| / y_i + 2 * y_i * sum_{j != i} 1 / (y_i^2 - y_j^2),

which depends on the spectrum alone, the divergence and the unbiased risk
estimate are

    div  = sum_i eta'(y_i) + sum_i eta(y_i) * w_i,
    SURE = -n*m*sigma^2 + sum_i (y_i - eta(y_i))^2 + 2*sigma^2 * div.

Every term is homogeneous in (y, eta, sigma), and scaling by a power of two
is exact, so the risk is computed on the spectrum scaled to y_1 in [0.5, 1)
and SURE is scaled back: raw squares never overflow or underflow.

Because SURE is quadratic in the coefficients of a linear expansion of
fixed shrinkage atoms, the risk-optimal expansion solves a K-by-K normal
system in closed form; that solve, plus grid tuning for the classical
parametric rules, lives here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DegenerateSpectrumError, SolverFailureError
from .shrinkage import (
    Atn,
    ShrinkageRule,
    Svlet,
    Svlt,
    Svst,
    _check_rule,
    _dog_atoms,
    _evaluate,
    _logistic_weights,
)
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, _check_matching, _check_spectrum, _count, _positive

# Pairwise squared-value gaps below GAP_TOL_FACTOR * y_1^2 count as ties.
GAP_TOL_FACTOR = 1e-10
# Normal-system conditioning guard and its ridge fallback.
CONDITION_LIMIT = 1e12
RIDGE_FACTOR = 1e-10
SOLVE_RESIDUAL_RTOL = 1e-8
# svlt steepness p1 when none is given (the grid holds it fixed).
SVLT_P1 = 100.0
# svlet's width multiplier C (T = C * sigma) and order K when none are given.
DEFAULT_C = 10.0
DEFAULT_K = 2
# Values per array in one block of svlt or atn grid candidates: svlt's
# blocks have max(1, BLOCK_ELEMENTS // L) rows, and an atn block holds the
# 100 thresholds of as many gammas as fit (at least one).  Larger blocks
# issue fewer numpy calls per grid, until the allocator starts to return
# the freed blocks to the OS and to fault them back.  The value is set by
# that cliff as measured with glibc 2.36 on a 2-CPU Xeon VM, in alternated
# perfbench sure-grid runs (50x50 and 40x80 grids): budgets of 8,000 and
# 10,000 values ran at 523 and 540 ops/s against 516 for the old 100-row
# blocks, with at most a few more minor faults per op; 12,500 ran at 504
# ops/s with about 50 more faults per op, and 15,000 at 453 with about 200
# more.  Another allocator, or other trim thresholds, may put the cliff
# elsewhere.  Every row is reduced on its own, so the block size never
# changes a bit of any score.
BLOCK_ELEMENTS = 10_000
# Thresholds in the svst and atn grids; each is one row of their blocks,
# and svst's 100 are always one block.
GRID_THRESHOLDS = 100
# The largest sigma / y_1 the risk engine accepts.  In the scaled units
# (y_1 in [0.5, 1)) sigma is then below 2^128, so the expansion's normal
# system, which squares terms in sigma^2, and SURE's n*m*sigma^2 stay far
# inside the double range.  From about 2^256 on the normal system leaves
# it; such a sigma lies far above any noise level the spectrum allows.
SIGMA_RATIO_LIMIT = 2.0**128


class GridTrace(Sequence):
    """The (parameter tuple, SURE) pairs of a grid search, in the order of
    nested loops over its parameter axes, the last axis fastest.  It holds
    the axes and the SURE array and builds each pair of Python floats when
    it is read; it equals the tuple of its pairs."""

    __slots__ = ("_axes", "_sures")

    def __init__(self, axes: tuple, sures: np.ndarray) -> None:
        self._axes = axes
        self._sures = sures

    def __len__(self) -> int:
        return self._sures.shape[0]

    def __getitem__(self, k):
        # range normalises a negative k and raises IndexError past the end.
        flat = rest = range(len(self))[k]
        params = []
        for axis in reversed(self._axes):
            rest, j = divmod(rest, len(axis))
            params.append(axis[j])
        return tuple(params[::-1]), float(self._sures[flat])

    def __iter__(self):
        return zip(product(*self._axes), self._sures.tolist())

    def __eq__(self, other):
        if isinstance(other, (tuple, GridTrace)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class SureReport:
    """One risk evaluation: the rule, its SURE value, and the two pieces
    (spectral residual and divergence) it decomposes into.  Grid tuning
    attaches the (parameter tuple, SURE) pairs it visited as a GridTrace;
    tuple(report.trace) lists them."""

    rule: ShrinkageRule
    sure: float
    residual: float
    divergence: float
    trace: Sequence = ()


@dataclass(frozen=True, eq=False)
class SvletSolve:
    """Closed-form solve of the expansion coefficients: normal matrix M,
    right-hand side c, coefficients a, plus conditioning diagnostics."""

    M: np.ndarray
    c: np.ndarray
    a: np.ndarray
    condition_estimate: float
    ridge_used: float
    rule: Svlet
    report: SureReport


def _spectral_pieces(spectrum: np.ndarray, shape: MatrixShape) -> tuple:
    """Check a spectrum for the closed-form risk, then compute what every
    rule's risk shares on the spectrum scaled by a power of two: (s, e, y,
    1-based rank indices, gap row sums sum_{j != i} 1 / (y_i^2 - y_j^2)),
    with s the checked spectrum, e the binary exponent of its top value and
    y = s * 2^-e, so that y_1 lies in [0.5, 1).  Past the tie check no
    squared gap of y is below GAP_TOL_FACTOR / 4, so the gap sums are
    finite at every scale of s."""
    s = _check_spectrum(spectrum)
    if s.shape[0] != shape.L:
        raise ContractError(f"spectrum length {s.shape[0]} does not match min(n, m) = {shape.L}")
    e = math.frexp(float(s[0]))[1]
    y = np.ldexp(s, -e)
    if y[-1] == 0.0:
        k = int(np.argmax(y == 0.0))
        raise DegenerateSpectrumError(
            f"singular value #{k + 1} ({float(s[k])!r}) is zero at the scale of y_1 = {float(s[0])!r}; "
            "the closed-form divergence requires a strictly positive spectrum"
        )
    sq = y * y
    if s.shape[0] > 1:
        gaps = sq[:-1] - sq[1:]
        tol = GAP_TOL_FACTOR * sq[0]
        k = int(gaps.argmin())
        if gaps[k] <= tol:
            raise DegenerateSpectrumError(
                f"singular values #{k + 1} and #{k + 2} are numerically tied "
                f"(squared gap {gaps[k] / sq[0]:.3e} * y_1^2 <= {GAP_TOL_FACTOR:.0e} * y_1^2); "
                "the divergence formula requires a simple spectrum"
            )
    diff = sq[:, None] - sq[None, :]
    # 1 / inf = 0 drops the diagonal from each row sum.
    diff.ravel()[:: s.shape[0] + 1] = np.inf
    idx = np.arange(1, s.shape[0] + 1, dtype=float)
    return s, e, y, idx, np.divide(1.0, diff, out=diff).sum(axis=1)


def _problem_pieces(problem: DenoiseProblem, factors: SvdFactors) -> tuple:
    """What sure, tune_grid and solve_svlet share: (shape, s, e, y, idx,
    rowsums) as in _spectral_pieces and sigma * 2^-e, the noise level in
    the units of y.  A sigma above SIGMA_RATIO_LIMIT * y_1 fails here, once
    and before numpy can warn."""
    shape = _check_matching(problem, factors)
    s, e, y, idx, rowsums = _spectral_pieces(factors.S, shape)
    sigma = _ldexp(problem.sigma, -e)
    if not sigma <= SIGMA_RATIO_LIMIT * y[0]:
        raise ContractError(
            f"sigma = {problem.sigma!r} is more than 2^128 times y_1 = {float(s[0])!r}; "
            "the risk is computed for sigma <= 2^128 * y_1"
        )
    return shape, s, e, y, idx, rowsums, sigma


def _ldexp(x: float, k: int) -> float:
    """x * 2^k as a Python float: inf past the double range, where
    math.ldexp raises."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scaled_formula(rule: ShrinkageRule, s: np.ndarray, e: int, idx: np.ndarray) -> tuple:
    """A checked rule's (eta, eta') on the spectrum s in the problem's
    units, with eta scaled by 2^-e like y; eta' has no unit.  An eta too
    large for the scaled units reads inf, which fails where it is scored."""
    vals, ders = _evaluate(rule, s, idx)
    with np.errstate(over="ignore"):
        return np.ldexp(vals, -e), ders


def _divergences(vals, ders, s, rowsums, shape: MatrixShape, work=None) -> np.ndarray:
    """Divergence array, one entry per row of a formula's values and
    derivatives on a checked spectrum (a scalar for a single 1-D row).
    A batch may pass s tiled to its shape, and a scratch array of that
    shape as work to form the terms in.  Every row is reduced on its own,
    so a row gives the same bits alone as in a batch."""
    # div = sum(eta') + sum(eta * w), with eta * w summed as its |n - m| term
    # and its gap term; forming w first would move SURE in the last bits.
    div = ders.sum(axis=-1)
    terms = np.divide(vals, s, out=work)
    div += abs(shape.n - shape.m) * terms.sum(axis=-1)
    # One matmul over the batch whose core is a (1, L) by (L, 1) product:
    # each row still meets rowsums in a dot product of its own.
    np.multiply(s, vals, out=terms)
    div += 2.0 * np.matmul(terms[..., None, :], rowsums[:, None])[..., 0, 0]
    return div


def _scores(vals, ders, s, rowsums, shape: MatrixShape, sigma: float, work=None) -> tuple:
    """(SURE, residual, divergence) arrays, one entry per row of a formula's
    values and derivatives on a checked spectrum (scalars for a single 1-D
    row), with s and work as in _divergences; the one place the estimate is
    assembled."""
    diff = np.subtract(s, vals, out=work)
    resid = np.multiply(diff, diff, out=diff).sum(axis=-1)
    div = _divergences(vals, ders, s, rowsums, shape, diff)
    sigma2 = sigma * sigma
    return -shape.n * shape.m * sigma2 + resid + 2.0 * sigma2 * div, resid, div


def _report(rule, vals, ders, y, rowsums, shape: MatrixShape, sigma: float, e: int) -> SureReport:
    """SURE report of one rule from its formula's values and derivatives on
    the scaled spectrum y, with eta and sigma scaled like y; SURE and the
    residual come back in the problem's units, times 2^2e.  A finite eta
    far above the spectrum can still square past the double range, and
    that residual has no finite risk, so it fails here before numpy warns
    about the overflow.  This is also the one place where a risk that
    leaves the double range in the problem's units fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, resid, div = _scores(vals, ders, y, rowsums, shape, sigma)
    if not math.isfinite(resid):
        raise ContractError("the rule's residual sum_i (y_i - eta(y_i))^2 overflows")
    value, resid = _ldexp(float(value), 2 * e), _ldexp(float(resid), 2 * e)
    if not (math.isfinite(value) and math.isfinite(resid)):
        raise DegenerateSpectrumError(
            f"SURE leaves the double range for y_1 = {math.ldexp(float(y[0]), e)!r} and sigma = "
            f"{math.ldexp(sigma, e)!r}"
        )
    return SureReport(rule=rule, sure=value, residual=resid, divergence=float(div))


def divergence(spectrum: np.ndarray, rule: ShrinkageRule, shape: MatrixShape) -> float:
    """Closed-form divergence of the induced spectral estimator.

    Scores the rule's formula, which for a solved expansion is the
    unclamped linear form, matching how the SURE objective is defined.  An
    eta' or y * eta past the double range fails here, before numpy warns.
    """
    s, e, y, idx, rowsums = _spectral_pieces(spectrum, shape)
    _check_rule(rule)
    vals, ders = _scaled_formula(rule, s, e, idx)
    # No residual is formed: its squares may overflow where the divergence
    # does not.
    with np.errstate(over="ignore", invalid="ignore"):
        div = float(_divergences(vals, ders, y, rowsums, shape))
    if not math.isfinite(div):
        raise ContractError("the rule's divergence is not finite")
    return div


def sure(problem: DenoiseProblem, factors: SvdFactors, rule: ShrinkageRule) -> SureReport:
    """Unbiased estimate of ||Xhat - X||_F^2 for the spectral rule's
    formula; for a Svlet that is the unclamped expansion, not the clamped
    rule apply uses.

    The report satisfies sure = -n*m*sigma^2 + residual + 2*sigma^2*divergence
    by construction; residual is the spectral form sum_i (y_i - eta(y_i))^2.
    """
    shape, s, e, y, idx, rowsums, sigma = _problem_pieces(problem, factors)
    _check_rule(rule)
    return _report(rule, *_scaled_formula(rule, s, e, idx), y, rowsums, shape, sigma, e)


def _solve_normal_system(M: np.ndarray, c: np.ndarray, K: int) -> tuple[np.ndarray, float, float]:
    # The K-by-K entries are checked as Python floats, which is faster than
    # numpy calls on arrays this small.
    if not all(map(math.isfinite, M.ravel().tolist() + c.tolist())):
        raise SolverFailureError("normal system has non-finite entries; sigma is far above the spectrum")
    sv = np.linalg.svd(M, compute_uv=False)
    top, low = float(sv[0]), float(sv[-1])
    cond = float("inf") if low <= 0.0 else top / low
    # An ill-conditioned system gets the ridge at once; a singular one that
    # looked well-conditioned gets it as a retry.
    ridged = RIDGE_FACTOR * float(M.trace()) / K
    ridges = (ridged,) if not math.isfinite(cond) or cond > CONDITION_LIMIT else (0.0, ridged)
    for ridge in ridges:
        try:
            a = np.linalg.solve(M + ridge * np.eye(K) if ridge else M, c)
            break
        except np.linalg.LinAlgError as exc:
            failure = exc
    else:
        raise SolverFailureError(
            f"normal system is singular even with ridge {ridge:.3e}; try a smaller K"
        ) from failure
    # Both norms are sqrt(x . x), as np.linalg.norm forms them.  A solution
    # that overflowed leaves an inf or NaN residual, which fails the test
    # below.
    with np.errstate(over="ignore", invalid="ignore"):
        r = M @ a - c
        resid = math.sqrt(r.dot(r))
    bound = SOLVE_RESIDUAL_RTOL * math.sqrt(c.dot(c))
    if not resid <= bound:
        raise SolverFailureError(
            f"normal-system residual {resid:.3e} exceeds {bound:.3e} "
            f"(condition estimate {cond:.3e}); try a smaller K"
        )
    return a, cond, ridge


def _fit_expansion(s, rowsums, shape: MatrixShape, sigma: float, K: int, T: float) -> tuple:
    """Assemble and solve the K-by-K normal system for the expansion on
    singular values s with their pairwise gap sums, returning (phi, phid,
    M, c, a, condition_estimate, ridge_used) with phi, phid the basis and
    its derivatives.  To fit only the leading values of a checked spectrum,
    pass those values and their gap sums, still summed over the whole
    spectrum.
    """
    K = _count(K, "K", 1)
    T = _positive(T, "T")
    sigma2 = float(sigma) * float(sigma)
    # A sigma far above the spectrum can overflow here; the solve rejects
    # the non-finite system that results.
    with np.errstate(over="ignore", invalid="ignore"):
        g = s - abs(shape.n - shape.m) * sigma2 / s - 2.0 * sigma2 * s * rowsums
        phi, phid = _dog_atoms(s, K, T)
        M = phi.T @ phi
        M = 0.5 * (M + M.T)
        c = phi.T @ g - sigma2 * phid.sum(axis=0)
    a, cond, ridge = _solve_normal_system(M, c, K)
    return phi, phid, M, c, a, cond, ridge


def solve_svlet(problem: DenoiseProblem, factors: SvdFactors, K: int, C: float) -> SvletSolve:
    """Risk-optimal expansion coefficients for width T = C * sigma.

    The returned rule applies the solved expansion (with the non-negativity
    clamp); the attached report is its SURE, scored on the solve's own basis
    and coefficients.
    """
    C = _positive(C, "C")
    shape, _, e, y, _, rowsums, sigma = _problem_pieces(problem, factors)
    T = C * problem.sigma
    # Fitting on the scaled spectrum, sigma and width leaves a as it is;
    # _fit_expansion validates K.
    phi, phid, M, c, a, cond, ridge = _fit_expansion(y, rowsums, shape, sigma, K, _ldexp(T, -e))
    rule = Svlet(K=K, T=T, a=a)
    report = _report(rule, phi @ a, phid @ a, y, rowsums, shape, sigma, e)
    # M, c and the ridge have the units of SURE; an entry past the double
    # range reads inf.
    with np.errstate(over="ignore"):
        M, c = np.ldexp(M, 2 * e), np.ldexp(c, 2 * e)
    return SvletSolve(
        M=M,
        c=c,
        a=a,
        condition_estimate=cond,
        ridge_used=_ldexp(ridge, 2 * e),
        rule=rule,
        report=report,
    )


_FAMILIES = {"svst": Svst, "atn": Atn, "svlt": Svlt}


def _family_name(family) -> str:
    if isinstance(family, str):
        name = family.lower()
        if name in _FAMILIES:
            return name
    raise ContractError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")


def _upper_half_grid(y1: float, count: int) -> np.ndarray:
    # count equally spaced points in (0, 0.5 * y1]: the open end excludes 0,
    # the closed end includes the midpoint of the spectrum range.
    return 0.5 * y1 * np.arange(1, count + 1, dtype=float) / count


@functools.lru_cache(maxsize=8)
def _svlt_weight_table(L: int, p1: float) -> np.ndarray:
    """tune_grid's read-only svlt weights at p1 * k, k in [1 - L, L - 1]."""
    table = _logistic_weights(np.arange(1 - L, L, dtype=float), p1, 0.0)
    table.setflags(write=False)
    return table


# A sigma far above the spectrum makes grid scores inf or NaN, and a SURE
# scaled back past the double range reads inf in the trace; the winner's
# report fails on either, so numpy need not warn.  One errstate per call
# costs less than one per block.
@np.errstate(over="ignore", invalid="ignore")
def tune_grid(problem: DenoiseProblem, factors: SvdFactors, family, *, p1: float = SVLT_P1) -> SureReport:
    """Exhaustive SURE minimization over a fixed parameter grid.

    Grids (y1 the top singular value, L the spectrum length):
      svst: 100 thresholds equally spaced in (0, 0.5*y1]
      atn:  the same 100 thresholds crossed with integer gamma in [1, 20]
      svlt: steepness p1 held fixed, integer p2 in [1, L], 50 offsets in (0, 0.5*y1]

    Candidates are scored as rows of formula values, one row per
    candidate, in blocks sized by BLOCK_ELEMENTS values per array: svlt
    cuts its (p2, p3) rows into blocks of max(1, BLOCK_ELEMENTS // L) rows,
    atn scores the 100 thresholds of as many gammas as fit in one block
    (at least one gamma), and svst scores its 100 thresholds as one block.
    The budget sits below the size at which glibc was measured to return
    freed blocks to the OS and fault them back (see its comment).  Each
    block is scored against the scaled spectrum tiled once per call, with
    thresholds and offsets built from its top value, in one scratch buffer
    the call reuses, and every row is reduced on its own; the trace's axes
    and SUREs are scaled back, so each trace value has the same bits as
    sure() of its candidate's rule whatever the block size.  Only the winner is built as a rule.
    Ties are broken toward the lexicographically smallest parameter tuple.
    The winning report carries the (params, sure) pairs as a GridTrace,
    which builds them on access; tuple(report.trace) lists them.
    """
    name = _family_name(family)
    shape, s, e, y, idx, rowsums, sigma = _problem_pieces(problem, factors)
    L = shape.L
    rows = max(1, BLOCK_ELEMENTS // L)
    gammas = [float(g) for g in range(1, 21)]
    per = min(len(gammas), max(1, rows // GRID_THRESHOLDS))
    # With y tiled, no formula or score broadcasts y against every row.  No
    # block is longer than its grid.
    block_rows = {"svst": GRID_THRESHOLDS, "atn": per * GRID_THRESHOLDS, "svlt": min(rows, L * 50)}[name]
    tiled = np.tile(y, (block_rows, 1))
    work = np.empty_like(tiled)

    def score(formula: tuple) -> np.ndarray:
        # SURE of each row of a block's (eta, eta'), in the scaled units.
        count = formula[0].shape[0]
        return _scores(*formula, tiled[:count], rowsums, shape, sigma, work[:count])[0]

    if name == "svlt":
        p3 = _upper_half_grid(float(y[0]), 50)
        # Every p2 and p3 is valid, so building the first candidate checks p1.
        p1 = Svlt(p1=p1, p2=1.0, p3=float(p3[0])).p1
        # On the integer grid p1*(i - p2) is p1*k for some k in [1 - L, L - 1],
        # so one table of weights holds every row: p2's is table[L - p2 : 2L - p2],
        # row p2 - 1 of the reversed length-L windows.  The (p2, p3) rows run
        # in blocks, and each block gathers only its own weight rows.
        weights = sliding_window_view(_svlt_weight_table(L, p1), L)[::-1]
        p2_row, p3_col = np.divmod(np.arange(L * p3.shape[0]), p3.shape[0])

        def block(k: int) -> np.ndarray:
            w = weights[p2_row[k : k + rows]]
            return score(Svlt._formula(tiled[: w.shape[0]], w, p3[p3_col[k : k + rows], None]))

        sures = np.concatenate([block(k) for k in range(0, p2_row.shape[0], rows)])
        axes = ([p1], idx.tolist(), np.ldexp(p3, e).tolist())
    else:
        thresholds = _upper_half_grid(float(y[0]), GRID_THRESHOLDS)
        spectra = tiled[:GRID_THRESHOLDS]
        if name == "svst":
            sures = score(Svst._formula(spectra, thresholds[:, None]))
            axes = (np.ldexp(thresholds, e).tolist(),)
        else:
            # Each gamma is a Python float, as in a rule, so ** takes the same
            # path as sure() does.  The thresholds find the entries at or
            # above tau, and tau / y there, once for all 20 gammas.  Each
            # gamma of a block writes its (eta, eta') into its own 100 rows
            # of one zeroed pair; every gamma writes the same entries, so the
            # pair serves every block.
            thresholded = Atn._thresholded(spectra, thresholds[:, None])
            vals, ders = (np.zeros((per, GRID_THRESHOLDS, L)) for _ in range(2))
            blocks = []
            for j in range(0, len(gammas), per):
                group = gammas[j : j + per]
                for r, g in enumerate(group):
                    Atn._powered(thresholded, g, (vals[r], ders[r]))
                blocks.append(score((vals[: len(group)].reshape(-1, L), ders[: len(group)].reshape(-1, L))))
            # The blocks run gamma by gamma; the trace runs over (tau, gamma),
            # gamma fastest.
            sures = np.concatenate(blocks).reshape(len(gammas), GRID_THRESHOLDS).T.ravel()
            axes = (np.ldexp(thresholds, e).tolist(), gammas)

    # Candidates are in lexicographic parameter order and argmin takes the
    # first minimum, so ties go to the smallest tuple.  It compares the
    # scaled SUREs, which no overflow or underflow has rounded; scaled
    # back, a SURE past the double range reads inf in the trace.
    best = int(np.argmin(sures))
    trace = GridTrace(axes, np.ldexp(sures, 2 * e))
    winner = _FAMILIES[name](*trace[best][0])
    report = _report(winner, *_scaled_formula(winner, s, e, idx), y, rowsums, shape, sigma, e)
    return replace(report, trace=trace)
