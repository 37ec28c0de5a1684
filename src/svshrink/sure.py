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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegenerateSpectrumError, SolverFailureError
from .shrinkage import (
    GAMMA_MAX,
    Atn,
    ShrinkageRule,
    Svlet,
    Svlt,
    Svst,
    _check_rule,
    _dog_atoms,
    _expansion_order,
    apply,
)
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, _check_matching

# Pairwise squared-value gaps below GAP_TOL_FACTOR * y_1^2 count as ties.
GAP_TOL_FACTOR = 1e-10
# Normal-system conditioning guard and its ridge fallback.
CONDITION_LIMIT = 1e12
RIDGE_FACTOR = 1e-10
SOLVE_RESIDUAL_RTOL = 1e-8
# svlt steepness p1 when none is given (the default grid holds it fixed).
SVLT_P1 = 100.0
# Grid candidates scored at once: a batch holds BATCH_ROWS x L doubles.
BATCH_ROWS = 100


@dataclass(frozen=True, eq=False)
class SureReport:
    """One risk evaluation: the rule, its SURE value, and the two pieces
    (spectral residual and divergence) it decomposes into.  Grid tuning
    attaches the full list of (parameter tuple, SURE) pairs it visited."""

    rule: ShrinkageRule
    sure: float
    residual: float
    divergence: float
    trace: tuple = ()


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


def _checked_spectrum(spectrum: np.ndarray, shape: MatrixShape, sigma: float | None = None) -> np.ndarray:
    """Check a spectrum for the closed-form risk and, when sigma is given,
    the noise level too: both scales must square without overflow, or every
    risk formed from them would be inf or NaN."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1:
        raise ContractError(f"spectrum must be 1-D, got shape {s.shape}")
    if s.shape[0] != shape.L:
        raise ContractError(f"spectrum length {s.shape[0]} does not match min(n, m) = {shape.L}")
    if not np.isfinite(s).all():
        raise ContractError("spectrum contains non-finite entries")
    if (s[1:] - s[:-1] > 0.0).any():
        raise ContractError("spectrum must be sorted in descending order")
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
    if s[-1] <= 0.0:
        k = int(np.argmax(s <= 0.0))
        raise DegenerateSpectrumError(
            f"singular value #{k + 1} is not strictly positive ({s[k]!r}); "
            "the closed-form divergence requires a strictly positive spectrum"
        )
    if s.shape[0] > 1:
        sq = s * s
        gaps = sq[:-1] - sq[1:]
        tol = GAP_TOL_FACTOR * sq[0]
        k = int(np.argmin(gaps))
        if gaps[k] <= tol:
            raise DegenerateSpectrumError(
                f"singular values #{k + 1} and #{k + 2} are numerically tied "
                f"(squared gap {gaps[k]:.3e} <= {tol:.3e}); the divergence formula "
                "requires a simple spectrum"
            )
    return s


def _spectral_pieces(spectrum: np.ndarray, shape: MatrixShape, sigma: float | None = None) -> tuple:
    """Check a spectrum (and sigma, when given) once and compute what every
    rule's risk shares: (y, 1-based rank indices, gap row sums
    sum_{j != i} 1 / (y_i^2 - y_j^2))."""
    s = _checked_spectrum(spectrum, shape, sigma)
    sq = s * s
    diff = sq[:, None] - sq[None, :]
    np.fill_diagonal(diff, np.inf)
    idx = np.arange(1, s.shape[0] + 1, dtype=float)
    return s, idx, (1.0 / diff).sum(axis=1)


def _scores(vals, ders, s, rowsums, shape: MatrixShape, sigma: float) -> tuple:
    """(SURE, residual, divergence) arrays, one entry per row of a formula's
    values and derivatives on a checked spectrum; the one place the
    estimate is assembled.  Every row is reduced on its own, so a row scores
    the same bits alone as in a batch."""
    resid = ((s - vals) ** 2).sum(axis=-1)
    # div = sum(eta') + sum(eta * w), with eta * w summed as its |n - m| term
    # and its gap term; forming w first would move SURE in the last bits.
    div = ders.sum(axis=-1)
    div += abs(shape.n - shape.m) * (vals / s).sum(axis=-1)
    # One dot product per row: a matrix-vector product sums in another order.
    div += 2.0 * np.array([np.dot(row, rowsums) for row in s * vals])
    sigma2 = sigma * sigma
    return -shape.n * shape.m * sigma2 + resid + 2.0 * sigma2 * div, resid, div


def _report(rule, vals, ders, s, rowsums, shape: MatrixShape, sigma: float) -> SureReport:
    """SURE report of one rule from its formula's values and derivatives."""
    value, resid, div = _scores(vals[None], ders[None], s, rowsums, shape, sigma)
    return SureReport(rule=rule, sure=float(value[0]), residual=float(resid[0]), divergence=float(div[0]))


def divergence(spectrum: np.ndarray, rule: ShrinkageRule, shape: MatrixShape) -> float:
    """Closed-form divergence of the induced spectral estimator.

    Scores the rule's formula, which for a solved expansion is the
    unclamped linear form, matching how the SURE objective is defined.
    """
    s, idx, rowsums = _spectral_pieces(spectrum, shape)
    _check_rule(rule)
    # sigma only scales the SURE value, which is discarded here.
    return _report(rule, *rule._eval(s, idx), s, rowsums, shape, 1.0).divergence


def sure(problem: DenoiseProblem, factors: SvdFactors, rule: ShrinkageRule) -> SureReport:
    """Unbiased estimate of ||Xhat - X||_F^2 for the spectral rule.

    The report satisfies sure = -n*m*sigma^2 + residual + 2*sigma^2*divergence
    by construction; residual is the spectral form sum_i (y_i - eta(y_i))^2.
    """
    _check_matching(problem, factors)
    shape = factors.shape
    s, idx, rowsums = _spectral_pieces(factors.S, shape, problem.sigma)
    _check_rule(rule)
    return _report(rule, *rule._eval(s, idx), s, rowsums, shape, problem.sigma)


def svlet_clamp_gap(problem: DenoiseProblem, factors: SvdFactors, rule: Svlet) -> dict:
    """Difference between clamped and unclamped spectral residuals.

    The solve works with the unclamped expansion while application clamps
    negatives to zero; this reports how much the two residual terms differ
    on a given spectrum (verbose diagnostics).
    """
    if not isinstance(rule, Svlet):
        raise ContractError("clamp gap is defined for solved expansion rules only")
    _check_matching(problem, factors)
    s = _checked_spectrum(factors.S, factors.shape)
    raw = rule._eval(s, np.arange(1, s.shape[0] + 1, dtype=float))[0]
    clamped = apply(rule, s)
    r_raw = float(np.sum((s - raw) ** 2))
    r_clamped = float(np.sum((s - clamped) ** 2))
    return {
        "residual_unclamped": r_raw,
        "residual_clamped": r_clamped,
        "gap": abs(r_clamped - r_raw),
    }


def _solve_normal_system(M: np.ndarray, c: np.ndarray, K: int) -> tuple[np.ndarray, float, float]:
    if not (np.isfinite(M).all() and np.isfinite(c).all()):
        raise SolverFailureError("normal system has non-finite entries; rescale Y and sigma together")
    sv = np.linalg.svd(M, compute_uv=False)
    cond = float("inf") if sv[-1] <= 0.0 else float(sv[0] / sv[-1])
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
    # A solution that overflowed leaves an inf or NaN residual, which fails
    # the test below.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(M @ a - c))
    bound = SOLVE_RESIDUAL_RTOL * float(np.linalg.norm(c))
    if not resid <= bound:
        raise SolverFailureError(
            f"normal-system residual {resid:.3e} exceeds {bound:.3e} "
            f"(condition estimate {cond:.3e}); try a smaller K"
        )
    return a, cond, ridge


def _fit_expansion(s, rowsums, shape: MatrixShape, sigma: float, K: int, T: float, rows: int) -> tuple:
    """Assemble and solve the K-by-K normal system for the expansion on a
    checked spectrum, returning (phi, phid, M, c, a, condition_estimate,
    ridge_used) with phi, phid the basis and its derivatives.  Only the
    leading `rows` singular values enter the quadratic fit; the pairwise
    gap sums inside the right-hand side still run over the whole spectrum.
    """
    K = _expansion_order(K)
    if not math.isfinite(T) or T <= 0.0:
        raise ContractError(f"T must be a finite positive number, got {T!r}")
    sigma2 = float(sigma) * float(sigma)
    # Values near the top of the double range can overflow here; the solve
    # rejects the non-finite system that results.
    with np.errstate(over="ignore", invalid="ignore"):
        g = s - abs(shape.n - shape.m) * sigma2 / s - 2.0 * sigma2 * s * rowsums
        phi, phid = _dog_atoms(s, K, float(T))
        phi_fit = phi[:rows]
        M = phi_fit.T @ phi_fit
        M = 0.5 * (M + M.T)
        c = phi_fit.T @ g[:rows] - sigma2 * phid[:rows].sum(axis=0)
    a, cond, ridge = _solve_normal_system(M, c, K)
    return phi, phid, M, c, a, cond, ridge


def solve_svlet(problem: DenoiseProblem, factors: SvdFactors, K: int, C: float) -> SvletSolve:
    """Risk-optimal expansion coefficients for width T = C * sigma.

    The returned rule applies the solved expansion (with the non-negativity
    clamp); the attached report is its SURE, scored on the solve's own basis
    and coefficients.
    """
    C = float(C)
    if not math.isfinite(C) or C <= 0.0:
        raise ContractError(f"C must be a finite positive number, got {C!r}")
    _check_matching(problem, factors)
    shape = factors.shape
    T = C * problem.sigma
    s, _, rowsums = _spectral_pieces(factors.S, shape, problem.sigma)
    # _fit_expansion validates K.
    phi, phid, M, c, a, cond, ridge = _fit_expansion(s, rowsums, shape, problem.sigma, K, T, s.shape[0])
    rule = Svlet(K=K, T=T, a=a, C=C)
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


@dataclass(frozen=True)
class GridSpec:
    """Overrides for tune_grid; any field left None takes the default grid
    derived from the spectrum (documented in tune_grid)."""

    thresholds: tuple | None = None
    gammas: tuple | None = None
    p1: float | None = None


_FAMILIES = {"svst": Svst, "atn": Atn, "svlt": Svlt}


def _family_name(family) -> str:
    if isinstance(family, str):
        name = family.lower()
        if name in _FAMILIES:
            return name
    elif family in _FAMILIES.values():
        return {v: k for k, v in _FAMILIES.items()}[family]
    raise ContractError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")


def _upper_half_grid(y1: float, count: int) -> np.ndarray:
    # count equally spaced points in (0, 0.5 * y1]: the open end excludes 0,
    # the closed end includes the midpoint of the spectrum range.
    return 0.5 * y1 * np.arange(1, count + 1, dtype=float) / count


def _sorted_axis(values, name: str) -> np.ndarray:
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1:
        raise ContractError(f"{name} must be a 1-D sequence, got shape {axis.shape}")
    return np.sort(axis)


def _first_invalid(bad_outer: np.ndarray, bad_inner: np.ndarray):
    """Indices of the first candidate of outer x inner, in that order, with
    a bad parameter on either axis; None when every parameter is valid."""
    if bad_outer[0]:
        return 0, 0
    if bad_inner.any():
        return 0, int(np.argmax(bad_inner))
    if bad_outer.any():
        return int(np.argmax(bad_outer)), 0
    return None


def tune_grid(problem: DenoiseProblem, factors: SvdFactors, family, grid: GridSpec | None = None) -> SureReport:
    """Exhaustive SURE minimization over a parameter grid.

    Default grids (y1 the top singular value, L the spectrum length):
      svst: 100 thresholds equally spaced in (0, 0.5*y1]
      atn:  the same 100 thresholds crossed with integer gamma in [1, 20]
      svlt: p1 fixed at SVLT_P1 (100), integer p2 in [1, L], 50 offsets in (0, 0.5*y1]

    Candidates are scored in batches, one row of formula values per
    candidate, with the same bits as sure() of each candidate's rule; only
    the winner is built as a rule.  Ties are broken toward the
    lexicographically smallest parameter tuple; the winning report is
    returned with the full (params, sure) trace.
    """
    name = _family_name(family)
    grid = grid or GridSpec()
    _check_matching(problem, factors)
    shape = factors.shape
    s, idx, rowsums = _spectral_pieces(factors.S, shape, problem.sigma)

    def score(formula, column: np.ndarray) -> np.ndarray:
        # SURE of formula(p) for each p in column, at most BATCH_ROWS rows at a time.
        return np.concatenate([
            _scores(*formula(column[start:start + BATCH_ROWS, None]), s, rowsums, shape, problem.sigma)[0]
            for start in range(0, column.shape[0], BATCH_ROWS)
        ])

    if name == "svlt":
        p1 = SVLT_P1 if grid.p1 is None else float(grid.p1)
        p2s = idx.tolist()
        p3 = _upper_half_grid(float(s[0]), 50)
        # Every p2 and p3 is valid, so building the first candidate checks p1.
        Svlt(p1=p1, p2=p2s[0], p3=float(p3[0]))
        sures = np.concatenate([score(lambda c: Svlt._formula(s, idx, p1, p2, c), p3) for p2 in p2s])
        params = [(p1, p2, offset) for p2 in p2s for offset in p3.tolist()]
    else:
        thresholds = _upper_half_grid(float(s[0]), 100) if grid.thresholds is None else grid.thresholds
        thresholds = _sorted_axis(thresholds, "thresholds")
        if name == "svst":
            if not thresholds.size:
                raise ContractError("tuning grid is empty")
            bad = ~(np.isfinite(thresholds) & (thresholds >= 0.0))
            if bad.any():
                Svst(lam=float(thresholds[np.argmax(bad)]))  # raises the rule's own message
            sures = score(lambda c: Svst._formula(s, c), thresholds)
            params = [(lam,) for lam in thresholds.tolist()]
        else:
            gammas = np.arange(1, 21, dtype=float) if grid.gammas is None else grid.gammas
            gammas = _sorted_axis(gammas, "gammas")
            if not thresholds.size or not gammas.size:
                raise ContractError("tuning grid is empty")
            first = _first_invalid(
                ~(np.isfinite(thresholds) & (thresholds > 0.0)),
                ~(np.isfinite(gammas) & (gammas >= 1.0) & (gammas <= GAMMA_MAX)),
            )
            if first is not None:  # building that candidate raises the rule's own message
                Atn(tau=float(thresholds[first[0]]), gamma=float(gammas[first[1]]))
            # One batch of thresholds per gamma.  Each gamma stays a Python
            # float, as in a rule, so ** takes the same path as sure() does.
            g_list = gammas.tolist()
            sures = np.stack([score(lambda c: Atn._formula(s, c, g), thresholds) for g in g_list], axis=1).ravel()
            params = [(tau, g) for tau in thresholds.tolist() for g in g_list]

    # Candidates are in lexicographic parameter order and argmin takes the
    # first minimum, so ties go to the smallest tuple.
    winner = _FAMILIES[name](*params[int(np.argmin(sures))])
    report = _report(winner, *winner._eval(s, idx), s, rowsums, shape, problem.sigma)
    return replace(report, trace=tuple(zip(params, sures.tolist())))
