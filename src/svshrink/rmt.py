"""Large-matrix spectral laws for white noise and spiked signals.

Calibration.  With noise entries of standard deviation 1/sqrt(max(n, m))
(equivalently: singular values divided by sqrt(max(n, m)) * sigma) and
aspect ratio beta = min(n, m)/max(n, m) in (0, 1], the noise singular values
fill [1 - sqrt(beta), 1 + sqrt(beta)] with the quarter-circle-type density,
a signal value x appears at spike_location(x) once x exceeds beta**(1/4),
and the observed singular vectors keep only overlap_u/overlap_v of their
true counterparts.  These laws give the asymptotically optimal shrinker and
the spike-counting rank estimate implemented below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .shrinkage import RmtOptimal, Svht, Svst, apply
from .spectral import DenoiseProblem, MatrixShape, SvdFactors, _check_matching, _count, _positive, reconstruct

OPTIMAL_SHRINK = "opt-shrink"
SVHT_4SQRT3 = "svht-4sqrt3"
SVST_BULK = "svst-bulk"
ASYMPTOTIC_VARIANTS = (OPTIMAL_SHRINK, SVHT_4SQRT3, SVST_BULK)

SVHT_COEFF = 4.0 / np.sqrt(3.0)
CDF_PANELS = 20000  # trapezoid panels of the integrated quarter-circle CDF


@dataclass(frozen=True)
class AspectRatio:
    """beta = min(n, m) / max(n, m), in (0, 1]."""

    beta: float

    def __post_init__(self) -> None:
        try:
            beta = float(self.beta)
        except (TypeError, ValueError):
            beta = float("nan")  # not a number: fails the check below
        if not 0.0 < beta <= 1.0:  # False for a NaN
            raise ContractError(f"beta must lie in (0, 1], got {self.beta!r}")
        object.__setattr__(self, "beta", beta)

    @property
    def edge_low(self) -> float:
        return 1.0 - math.sqrt(self.beta)

    @property
    def edge_high(self) -> float:
        return 1.0 + math.sqrt(self.beta)

    @property
    def transition(self) -> float:
        """Detection threshold for calibrated signal strength."""
        return self.beta ** 0.25

    @classmethod
    def of(cls, shape: MatrixShape) -> "AspectRatio":
        return cls(shape.L / max(shape.n, shape.m))


@dataclass(frozen=True)
class RankEstimate:
    """Spike count above the bulk edge, with the threshold that was used."""

    r_star: int
    threshold: float
    beta: float


def _as_ratio(beta) -> AspectRatio:
    return beta if isinstance(beta, AspectRatio) else AspectRatio(beta)


def quarter_circle_pdf(w, beta) -> np.ndarray:
    """Limiting density of calibrated noise singular values.

    f(w) = sqrt((w^2 - edge_low^2) (edge_high^2 - w^2)) / (pi * beta * w)
    on [edge_low, edge_high], 0 outside.  For the square case beta = 1 the
    density extends continuously to f(0) = 2/pi.
    """
    ratio = _as_ratio(beta)
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if np.any(w < 0.0):
        raise ContractError("singular values must be non-negative")
    lo, hi = ratio.edge_low, ratio.edge_high
    out = np.zeros_like(w)
    inside = (w >= lo) & (w <= hi)
    if ratio.beta == 1.0:
        # sqrt(w^2 (4 - w^2)) / (pi w) -> sqrt(4 - w^2)/pi, finite at w = 0.
        out[inside] = np.sqrt(np.maximum(hi * hi - w[inside] ** 2, 0.0)) / np.pi
    else:
        wi = w[inside]
        rad = np.maximum((wi * wi - lo * lo) * (hi * hi - wi * wi), 0.0)
        out[inside] = np.sqrt(rad) / (np.pi * ratio.beta * wi)
    return float(out[0]) if scalar else out


def quarter_circle_cdf(w, beta) -> np.ndarray:
    """Numerically integrated CDF of quarter_circle_pdf (trapezoid rule on
    CDF_PANELS panels)."""
    ratio = _as_ratio(beta)
    grid = np.linspace(ratio.edge_low, ratio.edge_high, CDF_PANELS + 1)
    dens = quarter_circle_pdf(grid, ratio)
    step = (ratio.edge_high - ratio.edge_low) / CDF_PANELS
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * step)])
    cum = np.minimum(cum / cum[-1], 1.0)  # normalize away the quadrature residue
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    out = np.interp(np.atleast_1d(w), grid, cum, left=0.0, right=1.0)
    return float(out[0]) if scalar else out


def _spike_law(x, ratio: AspectRatio, below: float, law) -> np.ndarray:
    """`law` at the strengths above the detection threshold, `below` at the
    others; a scalar x gives a float."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ContractError("signal strength x must be finite and > 0")
    out = np.full_like(x, below)
    above = x > ratio.transition
    out[above] = law(x[above])
    return float(out[0]) if scalar else out


def _overlap(x2: np.ndarray, beta: float, shift: float) -> np.ndarray:
    return np.sqrt((x2 * x2 - beta) / (x2 * (x2 + shift)))


def spike_location(x, beta) -> np.ndarray:
    """Observed (calibrated) singular value of a signal of strength x.

    Above the detection threshold beta**(1/4) the spike separates from the
    bulk at sqrt((x + 1/x)(x + beta/x)); at or below it the observed value
    sticks to the bulk edge.
    """
    ratio = _as_ratio(beta)
    return _spike_law(
        x, ratio, ratio.edge_high, lambda xa: np.sqrt((xa + 1.0 / xa) * (xa + ratio.beta / xa))
    )


def overlap_u(x, beta) -> np.ndarray:
    """Asymptotic |<true, observed>| for left singular vectors: 0 at or
    below the detection threshold, sqrt((x^4 - beta)/(x^2 (x^2 + beta)))
    above it."""
    ratio = _as_ratio(beta)
    return _spike_law(x, ratio, 0.0, lambda xa: _overlap(xa * xa, ratio.beta, ratio.beta))


def overlap_v(x, beta) -> np.ndarray:
    """Asymptotic |<true, observed>| for right singular vectors."""
    ratio = _as_ratio(beta)
    return _spike_law(x, ratio, 0.0, lambda xa: _overlap(xa * xa, ratio.beta, 1.0))


def calibration_scale(shape: MatrixShape, sigma: float) -> float:
    """Scale that maps observed singular values onto the calibrated laws:
    sqrt(max(n, m)) * sigma, under which the bulk laws above hold for every
    shape and a matrix and its transpose calibrate alike (Gavish & Donoho
    2014).  Every calibrated rule and rank count divides by this one value.
    """
    return math.sqrt(max(shape.n, shape.m)) * _positive(sigma, "sigma")


def estimate_rank(spectrum: np.ndarray, shape: MatrixShape, sigma: float) -> RankEstimate:
    """Count calibrated singular values strictly above the bulk edge."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1 or s.shape[0] != shape.L:
        raise ContractError(f"spectrum must have length min(n, m) = {shape.L}")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise ContractError("spectrum must be finite and non-negative")
    ratio = AspectRatio.of(shape)
    calibrated = s / calibration_scale(shape, sigma)
    r_star = int(np.sum(calibrated > ratio.edge_high))
    return RankEstimate(r_star=r_star, threshold=ratio.edge_high, beta=ratio.beta)


def asymptotic_denoise(problem: DenoiseProblem, factors: SvdFactors, variant: str) -> np.ndarray:
    """Apply one of the calibrated asymptotic rules and map back.

    The spectrum is divided by calibration_scale, shrunk with the requested
    rule (the optimal bulk shrinker, a hard threshold at 4/sqrt(3), or a
    soft threshold at the bulk edge 1 + sqrt(beta)), and rescaled.
    """
    shape = _check_matching(problem, factors)
    ratio = AspectRatio.of(shape)
    if variant == OPTIMAL_SHRINK:
        rule = RmtOptimal(beta=ratio.beta)
    elif variant == SVHT_4SQRT3:
        rule = Svht(mu=SVHT_COEFF)
    elif variant == SVST_BULK:
        rule = Svst(lam=ratio.edge_high)
    else:
        raise ContractError(f"variant must be one of {ASYMPTOTIC_VARIANTS}, got {variant!r}")
    scale = calibration_scale(shape, problem.sigma)
    shrunk = apply(rule, factors.S / scale)
    return reconstruct(factors, scale * shrunk)


def ks_distance(sample: np.ndarray, beta) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and the
    integrated quarter-circle law."""
    s = np.sort(np.asarray(sample, dtype=float))
    if s.ndim != 1 or s.shape[0] < 1:
        raise ContractError("sample must be a non-empty 1-D array")
    n = s.shape[0]
    F = quarter_circle_cdf(s, beta)
    steps_lo = np.arange(n, dtype=float) / n
    steps_hi = np.arange(1, n + 1, dtype=float) / n
    return float(max(np.max(F - steps_lo), np.max(steps_hi - F)))


@dataclass(frozen=True)
class LawCheck:
    """One Monte Carlo law verification: statistic vs target with a bound."""

    name: str
    statistic: float
    target: float
    tolerance: float
    mode: str  # "abs" or "rel"
    passed: bool


def _check(name: str, statistic: float, target: float, tolerance: float, mode: str) -> LawCheck:
    if mode == "rel":
        dev = abs(statistic - target) / abs(target)
    else:
        dev = abs(statistic - target)
    return LawCheck(
        name=name,
        statistic=float(statistic),
        target=float(target),
        tolerance=float(tolerance),
        mode=mode,
        passed=bool(dev <= tolerance),
    )


def verify_laws(n: int, beta: float, trials: int, seed: int) -> list[LawCheck]:
    """Monte Carlo verification of the bulk and spike laws at size n.

    Checks, on calibrated noise (entries with standard deviation
    1/sqrt(max(n, m))): the top singular value sits within 0.1 of the bulk
    edge; the KS distance to the integrated quarter-circle law is <= 0.05;
    spike locations for x in {1.5, 2, 3} match spike_location within 5%
    (mean over `trials` draws); the left-vector overlap at x = 2 matches
    overlap_u within 0.05 (mean over `trials` draws).
    """
    n = _count(n, "n", 2)
    ratio = _as_ratio(beta)
    trials = _count(trials, "trials", 1)
    seed = _count(seed, "seed", 0)
    m = int(round(n / ratio.beta))
    root_m = np.sqrt(m)
    checks: list[LawCheck] = []

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    W = rng.standard_normal((n, m)) / root_m
    w = np.linalg.svd(W, compute_uv=False)
    checks.append(_check("bulk-edge", float(w[0]), ratio.edge_high, 0.1, "abs"))
    checks.append(_check("quarter-circle-ks", ks_distance(w, ratio), 0.0, 0.05, "abs"))

    def spiked(stream: list, x: float) -> tuple:
        # Unit u and Y = x u v^T + noise / sqrt(m), drawn from one seed stream.
        rng = np.random.default_rng(np.random.SeedSequence(stream))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        return u, x * np.outer(u, v) + rng.standard_normal((n, m)) / root_m

    for x in (1.5, 2.0, 3.0):
        tops = []
        for t in range(trials):
            _, Y = spiked([seed, 1, int(10 * x), t], x)
            tops.append(np.linalg.svd(Y, compute_uv=False)[0])
        checks.append(
            _check(f"spike-location-x{x:g}", float(np.mean(tops)), float(spike_location(x, ratio)), 0.05, "rel")
        )

    x = 2.0
    overlaps = []
    for t in range(trials):
        u, Y = spiked([seed, 2, t], x)
        U, _, _ = np.linalg.svd(Y, full_matrices=False)
        overlaps.append(abs(float(u @ U[:, 0])))
    checks.append(_check("overlap-u-x2", float(np.mean(overlaps)), float(overlap_u(x, ratio)), 0.05, "abs"))
    return checks
