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

Because SURE is quadratic in the coefficients of a linear expansion of
fixed shrinkage atoms, the risk-optimal expansion solves a K-by-K normal
system in closed form; that solve, plus grid tuning for the classical
parametric rules, lives here.
"""

from __future__ import annotations

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
    _expansion_order,
    _logistic_weights,
)
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, _check_matching, _check_spectrum, _positive

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
# svlt grid candidates scored at once: a batch holds BATCH_ROWS x L doubles.
# svlt's L * 50 rows are the only grid whose row count grows with L.
BATCH_ROWS = 100
# Thresholds in the svst and atn grids; each is one row of their batches.
GRID_THRESHOLDS = 100


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


def _spectral_pieces(spectrum: np.ndarray, shape: MatrixShape, sigma: float | None = None) -> tuple:
    """Check a spectrum for the closed-form risk and, when sigma is given,
    the noise level too, then compute what every rule's risk shares:
    (y, 1-based rank indices, gap row sums sum_{j != i} 1 / (y_i^2 - y_j^2)).
    Both scales must square without overflow, or every risk formed from them
    would be inf or NaN."""
    s = _check_spectrum(spectrum)
    if s.shape[0] != shape.L:
        raise ContractError(f"spectrum length {s.shape[0]} does not match min(n, m) = {shape.L}")
    # Products of Python floats overflow to inf without a numpy warning.
    y1 = float(s[0])
    if not math.isfinite(y1 * y1):
        raise DegenerateSpectrumError(
            f"the top singular value {y1!r} overflows when squared; rescale Y and sigma together"
        )
    if sigma is not None and not math.isfinite(shape.n * shape.m * sigma * sigma):
        raise DegenerateSpectrumError(
            f"n*m*sigma^2 overflows for sigma = {sigma!r}; rescale Y and sigma together"
        )
    if s[-1] == 0.0:
        k = int(np.argmax(s == 0.0))
        raise DegenerateSpectrumError(
            f"singular value #{k + 1} is not strictly positive ({s[k]!r}); "
            "the closed-form divergence requires a strictly positive spectrum"
        )
    sq = s * s
    if s.shape[0] > 1:
        gaps = sq[:-1] - sq[1:]
        tol = GAP_TOL_FACTOR * sq[0]
        k = int(gaps.argmin())
        if gaps[k] <= tol:
            raise DegenerateSpectrumError(
                f"singular values #{k + 1} and #{k + 2} are numerically tied "
                f"(squared gap {gaps[k]:.3e} <= {tol:.3e}); the divergence formula "
                "requires a simple spectrum"
            )
    diff = sq[:, None] - sq[None, :]
    # 1 / inf = 0 drops the diagonal from each row sum.
    np.fill_diagonal(diff, np.inf)
    idx = np.arange(1, s.shape[0] + 1, dtype=float)
    return s, idx, np.divide(1.0, diff, out=diff).sum(axis=1)


def _scored_spectrum(problem: DenoiseProblem, factors: SvdFactors) -> tuple:
    """(shape, y, idx, rowsums) for scoring rules on a problem.  A rule's
    residual sum of squares reaches L * y_1^2 when it zeroes the spectrum,
    so that bound must not overflow either."""
    shape = _check_matching(problem, factors)
    s, idx, rowsums = _spectral_pieces(factors.S, shape, problem.sigma)
    # Python floats overflow to inf without a numpy warning.
    y1 = float(s[0])
    if not math.isfinite(shape.L * y1 * y1):
        raise DegenerateSpectrumError(
            f"L*y_1^2 overflows for L = {shape.L} and y_1 = {y1!r}; rescale Y and sigma together"
        )
    return shape, s, idx, rowsums


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


def _rule_scores(vals, ders, s, rowsums, shape: MatrixShape, sigma: float) -> tuple:
    """_scores of one rule's formula values and derivatives, as floats.  A
    finite eta far above the spectrum can still square past the double
    range, and that residual has no finite risk, so it fails here before
    numpy warns about the overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, resid, div = _scores(vals, ders, s, rowsums, shape, sigma)
    if not math.isfinite(resid):
        raise ContractError("the rule's residual sum_i (y_i - eta(y_i))^2 overflows")
    return float(value), float(resid), float(div)


def _report(rule, vals, ders, s, rowsums, shape: MatrixShape, sigma: float) -> SureReport:
    """SURE report of one rule from its formula's values and derivatives."""
    value, resid, div = _rule_scores(vals, ders, s, rowsums, shape, sigma)
    return SureReport(rule=rule, sure=value, residual=resid, divergence=div)


def divergence(spectrum: np.ndarray, rule: ShrinkageRule, shape: MatrixShape) -> float:
    """Closed-form divergence of the induced spectral estimator.

    Scores the rule's formula, which for a solved expansion is the
    unclamped linear form, matching how the SURE objective is defined.
    """
    s, idx, rowsums = _spectral_pieces(spectrum, shape)
    _check_rule(rule)
    # No residual is formed: its squares may overflow where the divergence
    # does not.
    vals, ders = _evaluate(rule, s, idx)
    return float(_divergences(vals, ders, s, rowsums, shape))


def sure(problem: DenoiseProblem, factors: SvdFactors, rule: ShrinkageRule) -> SureReport:
    """Unbiased estimate of ||Xhat - X||_F^2 for the spectral rule's
    formula; for a Svlet that is the unclamped expansion, not the clamped
    rule apply uses.

    The report satisfies sure = -n*m*sigma^2 + residual + 2*sigma^2*divergence
    by construction; residual is the spectral form sum_i (y_i - eta(y_i))^2.
    """
    shape, s, idx, rowsums = _scored_spectrum(problem, factors)
    _check_rule(rule)
    return _report(rule, *_evaluate(rule, s, idx), s, rowsums, shape, problem.sigma)


def svlet_clamp_gap(problem: DenoiseProblem, factors: SvdFactors, rule: Svlet) -> dict:
    """Difference between clamped and unclamped spectral residuals.

    The solve works with the unclamped expansion while application clamps
    negatives to zero; this reports how much the two residual terms differ
    on a given spectrum (verbose diagnostics).
    """
    if not isinstance(rule, Svlet):
        raise ContractError("clamp gap is defined for solved expansion rules only")
    shape = _check_matching(problem, factors)
    s, idx, rowsums = _spectral_pieces(factors.S, shape)
    raw, ders = _evaluate(rule, s, idx)
    # Only the residuals are read.
    r_raw = _rule_scores(raw, ders, s, rowsums, shape, problem.sigma)[1]
    r_clamped = _rule_scores(np.maximum(raw, 0.0), ders, s, rowsums, shape, problem.sigma)[1]
    return {
        "residual_unclamped": r_raw,
        "residual_clamped": r_clamped,
        "gap": abs(r_clamped - r_raw),
    }


def _solve_normal_system(M: np.ndarray, c: np.ndarray, K: int) -> tuple[np.ndarray, float, float]:
    # The K-by-K entries are checked as Python floats, which is faster than
    # numpy calls on arrays this small.
    if not all(map(math.isfinite, M.ravel().tolist() + c.tolist())):
        raise SolverFailureError("normal system has non-finite entries; rescale Y and sigma together")
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
    K = _expansion_order(K)
    T = _positive(T, "T")
    sigma2 = float(sigma) * float(sigma)
    # Values near the top of the double range can overflow here; the solve
    # rejects the non-finite system that results.
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
    shape = _check_matching(problem, factors)
    T = C * problem.sigma
    s, _, rowsums = _spectral_pieces(factors.S, shape, problem.sigma)
    # _fit_expansion validates K.
    phi, phid, M, c, a, cond, ridge = _fit_expansion(s, rowsums, shape, problem.sigma, K, T)
    rule = Svlet(K=K, T=T, a=a)
    report = _report(rule, phi @ a, phid @ a, s, rowsums, shape, problem.sigma)
    return SvletSolve(
        M=M,
        c=c,
        a=a,
        condition_estimate=cond,
        ridge_used=ridge,
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


def tune_grid(problem: DenoiseProblem, factors: SvdFactors, family, *, p1: float = SVLT_P1) -> SureReport:
    """Exhaustive SURE minimization over a fixed parameter grid.

    Grids (y1 the top singular value, L the spectrum length):
      svst: 100 thresholds equally spaced in (0, 0.5*y1]
      atn:  the same 100 thresholds crossed with integer gamma in [1, 20]
      svlt: steepness p1 held fixed, integer p2 in [1, L], 50 offsets in (0, 0.5*y1]

    Candidates are scored as rows of formula values, one row per candidate
    (svlt's in batches of BATCH_ROWS), with the same bits as sure() of each
    candidate's rule; each batch is scored against the spectrum tiled once
    per call to the batch's shape, in one scratch buffer the call reuses.
    Only the winner is built as a rule.  Ties are broken toward the
    lexicographically smallest parameter tuple.  The winning report carries
    the (params, sure) pairs as a GridTrace, which builds them on access;
    tuple(report.trace) lists them.
    """
    name = _family_name(family)
    shape, s, idx, rowsums = _scored_spectrum(problem, factors)
    # With s tiled, no formula or score broadcasts s against every row.
    tiled = np.tile(s, (max(BATCH_ROWS, GRID_THRESHOLDS), 1))
    work = np.empty_like(tiled)

    def score(formula: tuple) -> np.ndarray:
        # SURE of each row of a batch's (eta, eta').
        rows = formula[0].shape[0]
        return _scores(*formula, tiled[:rows], rowsums, shape, problem.sigma, work[:rows])[0]

    if name == "svlt":
        p1 = float(p1)
        L = shape.L
        p3 = _upper_half_grid(float(s[0]), 50)
        # Every p2 and p3 is valid, so building the first candidate checks p1.
        Svlt(p1=p1, p2=1.0, p3=float(p3[0]))
        # On the integer grid p1*(i - p2) is p1*k for some k in [1 - L, L - 1],
        # so one table of weights holds every row: p2's is table[L - p2 : 2L - p2],
        # row p2 - 1 of the reversed length-L windows.  The (p2, p3) rows run
        # in batches of BATCH_ROWS, and each batch gathers only its own weight rows.
        table = _logistic_weights(np.arange(1 - L, L, dtype=float), p1, 0.0)
        weights = sliding_window_view(table, L)[::-1]
        p2_row, p3_col = np.divmod(np.arange(L * p3.shape[0]), p3.shape[0])

        def batch(rows: slice) -> np.ndarray:
            w = weights[p2_row[rows]]
            return score(Svlt._formula(tiled[: w.shape[0]], w, p3[p3_col[rows], None]))

        sures = np.concatenate([batch(slice(k, k + BATCH_ROWS)) for k in range(0, p2_row.shape[0], BATCH_ROWS)])
        axes = ([p1], idx.tolist(), p3.tolist())
    else:
        thresholds = _upper_half_grid(float(s[0]), GRID_THRESHOLDS)
        spectra = tiled[:GRID_THRESHOLDS]
        if name == "svst":
            sures = score(Svst._formula(spectra, thresholds[:, None]))
            axes = (thresholds.tolist(),)
        else:
            # Each gamma is a Python float, as in a rule, so ** takes the same
            # path as sure() does.  The thresholds find the entries at or
            # above tau, and tau / y there, once for all 20 gammas, which
            # write their (eta, eta') into the same pair of arrays.
            gammas = [float(g) for g in range(1, 21)]
            thresholded = Atn._thresholded(spectra, thresholds[:, None])
            out = (np.zeros(spectra.shape), np.zeros(spectra.shape))
            sures = np.stack([score(Atn._powered(thresholded, g, out)) for g in gammas], axis=1).ravel()
            axes = (thresholds.tolist(), gammas)

    # Candidates are in lexicographic parameter order and argmin takes the
    # first minimum, so ties go to the smallest tuple.
    trace = GridTrace(axes, sures)
    winner = _FAMILIES[name](*trace[int(np.argmin(sures))][0])
    report = _report(winner, *_evaluate(winner, s, idx), s, rowsums, shape, problem.sigma)
    return replace(report, trace=trace)
