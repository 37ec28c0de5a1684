"""Singular-value shrinkage rules.

Each rule maps an observed singular value y_i (and, for the logistic rule,
its 1-based rank index i) to a replacement value, leaving the singular
vectors untouched.  Rules are frozen dataclasses validated at construction.
Each rule's one `_eval(y, idx, slope)` returns its formula and that
formula's analytic d(eta)/dy at fixed index, (eta, eta'), which is what the
risk engine scores; `apply` passes slope=False, and Svlet and RmtOptimal
then skip eta' (None or zeros).  Every entry point evaluates a rule
through `_evaluate`, which rejects an eta that is not finite; `apply`
evaluates it on a whole spectrum and `derivative` at one point, both with
the non-negativity clamp.  The grid-tuned families
(Svst, Atn, Svlt) evaluate through static formulas whose parameters
broadcast, so the risk engine can score a column of candidate parameters as
a batch of rows.

Derivative convention at a threshold point: the one-sided value from the
right (the branch the rule enters as y grows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ContractError
from .spectral import _all, _check_spectrum, _count, _positive

# Hard cap on the ATN exponent; beyond this the rule is indistinguishable
# from a hard threshold at double precision anyway.
GAMMA_MAX = 64.0


def _dog_atoms(y: np.ndarray, K: int, T: float, slope: bool = True) -> tuple:
    """dog_basis and dog_basis_deriv of a float spectrum, sharing one
    exponential; None for the second without slope."""
    ysq = (y * y)[:, None] * np.arange(K, dtype=float)
    # Dividing by -2T^2 gives the bits of negating ysq / 2T^2, in one call.
    decay = np.exp(ysq / (-2.0 * T * T))
    return y[:, None] * decay, (1.0 - ysq / (T * T)) * decay if slope else None


def dog_basis(spectrum: np.ndarray, K: int, T: float) -> np.ndarray:
    """Derivative-of-Gaussian expansion functions, L-by-K.

    Column k (0-based) is phi_{k+1}(y) = y * exp(-k * y^2 / (2 T^2)); the
    first column is the identity map, later columns decay the faster the
    larger y is, so the span can keep strong components while pulling the
    noise bulk toward zero.
    """
    return _dog_atoms(np.asarray(spectrum, dtype=float), K, T, slope=False)[0]


def dog_basis_deriv(spectrum: np.ndarray, K: int, T: float) -> np.ndarray:
    """Elementwise y-derivatives of dog_basis, L-by-K."""
    return _dog_atoms(np.asarray(spectrum, dtype=float), K, T)[1]


def _expit(v: float) -> float:
    # 1/(1+e^-v) through libm's exp, one value at a time, the bits of the
    # usual expit; numpy's vectorised exp can differ in the last bit.
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _logistic_weights(idx: np.ndarray, p1: float, p2: float) -> np.ndarray:
    """Weights 1/(1+e^(p1*(i-p2))) of a 1-D index array, one libm exp each.
    Python floats overflow to inf silently, and inf gives the exact weight."""
    return np.array([_expit(-p1 * (i - p2)) for i in idx.tolist()])


def _require(cond: bool, msg: str, *args) -> None:
    # The message is formatted only on failure: validation runs on every
    # rule built, and most rules are valid.
    if not cond:
        raise ContractError(msg.format(*args))


def _finite_scalar(x, name: str) -> float:
    try:
        value = float(x)
    except (TypeError, ValueError):
        value = x  # not a number: the check below fails and shows x as given
    _require(type(value) is float and math.isfinite(value), "{} must be finite, got {!r}", name, value)
    return value


@dataclass(frozen=True)
class Identity:
    """Keep every singular value: eta(y) = y."""

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        return y.copy(), np.ones_like(y)


@dataclass(frozen=True)
class Zero:
    """Discard every singular value: eta(y) = 0."""

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        return np.zeros_like(y), np.zeros_like(y)


@dataclass(frozen=True)
class Svht:
    """Hard threshold: keep y if y > mu, else drop it."""

    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _positive(self.mu, "mu"))

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        return np.where(y > self.mu, y, 0.0), np.where(y >= self.mu, 1.0, 0.0)


@dataclass(frozen=True)
class Svst:
    """Soft threshold: eta(y) = max(y - lam, 0)."""

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _finite_scalar(self.lam, "lam"))
        _require(self.lam >= 0.0, "lam must be >= 0, got {}", self.lam)

    @staticmethod
    def _formula(y: np.ndarray, lam) -> tuple:
        """(eta, eta') on y; lam broadcasts, so a column of thresholds
        scores one row per threshold."""
        return np.maximum(y - lam, 0.0), np.where(y >= lam, 1.0, 0.0)

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        return self._formula(y, self.lam)


@dataclass(frozen=True)
class Atn:
    """Adaptive trace-norm rule: eta(y) = y * max(1 - (tau/y)^gamma, 0).

    gamma = 1 recovers the soft threshold; as gamma grows the rule
    approaches the hard threshold at tau.  eta(0) = 0 by definition.
    (tau/y)^gamma is formed only where y >= tau, so no entry divides by
    zero or overflows; eta and eta' are 0 everywhere below tau.
    """

    tau: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _positive(self.tau, "tau"))
        object.__setattr__(self, "gamma", _finite_scalar(self.gamma, "gamma"))
        _require(1.0 <= self.gamma <= GAMMA_MAX, "gamma must lie in [1, {:g}], got {}", GAMMA_MAX, self.gamma)

    @staticmethod
    def _thresholded(y: np.ndarray, tau) -> tuple:
        """(flat indices where y >= tau, tau / y and y at those entries):
        the part of the formula that does not depend on gamma, so a grid
        forms it once for every gamma.  tau is a scalar, or a column with
        one threshold per row of y, which then scores one row per threshold.
        Below tau the clamp leaves 0, so nothing there is formed."""
        reached = np.flatnonzero(y >= tau)
        # reached // L is each entry's row, and so the index of its threshold.
        y_reached = y.ravel()[reached]
        return reached, np.ravel(tau)[reached // y.shape[-1]] / y_reached, y_reached

    @staticmethod
    def _powered(thresholded: tuple, gamma: float, out: tuple) -> tuple:
        """(eta, eta') from _thresholded's triple, written at its entries
        into out, a pair of zeroed C-ordered arrays of y's shape whose
        other entries stay 0.  Every gamma writes the same entries, so a
        grid passes one pair for all of them.  gamma stays a scalar, which
        keeps numpy's fast paths for ** 1.0 and ** 2.0.  At y = tau the
        ratio is exactly 1, so eta = y * (1 - 1) = +0.0 there, the clamp's
        value."""
        reached, quotient, y = thresholded
        vals, ders = out
        ratio = quotient ** gamma
        vals.ravel()[reached] = y * (1.0 - ratio)
        ders.ravel()[reached] = 1.0 + (gamma - 1.0) * ratio
        return vals, ders

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        out = (np.zeros(y.shape), np.zeros(y.shape))
        return self._powered(self._thresholded(y, self.tau), self.gamma, out)


@dataclass(frozen=True)
class Svlt:
    """Logistic taper by rank index: eta(y_i) = max(y_i * w_i - p3, 0),
    with weight w_i = 1 / (1 + exp(p1 * (i - p2))) and i the 1-based index
    of the singular value in descending order."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", _finite_scalar(self.p1, "p1"))
        object.__setattr__(self, "p2", _finite_scalar(self.p2, "p2"))
        object.__setattr__(self, "p3", _finite_scalar(self.p3, "p3"))
        _require(self.p1 >= 0.0, "p1 must be >= 0, got {}", self.p1)
        _require(self.p2 >= 1.0, "p2 must be >= 1, got {}", self.p2)
        _require(self.p3 >= 0.0, "p3 must be >= 0, got {}", self.p3)

    @staticmethod
    def _formula(y: np.ndarray, w: np.ndarray, p3) -> tuple:
        """(eta, eta') on y with weight row w; p3 broadcasts, so one (p1, p2)
        scores a column of offsets."""
        tapered = y * w - p3
        return np.maximum(tapered, 0.0), np.where(tapered >= 0.0, w, 0.0)

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        return self._formula(y, _logistic_weights(idx, self.p1, self.p2), self.p3)


@dataclass(frozen=True, eq=False)
class Svlet:
    """Linear expansion of derivative-of-Gaussian atoms with a solved
    coefficient vector: eta(y) = dog_basis(y, K, T) @ a.

    T is the Gaussian width; by convention T = C * sigma when the expansion
    is fitted to a problem with noise level sigma.  The coefficients a may
    be negative.  The formula is the unclamped expansion, which the risk
    engine scores; applying it clamps negative outputs to zero.
    """

    K: int
    T: float
    a: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _count(self.K, "K", 1))
        object.__setattr__(self, "T", _positive(self.T, "T"))
        a = np.asarray(self.a, dtype=float)
        _require(a.ndim == 1 and a.shape[0] == self.K, "a must be a length-{} vector, got shape {}", self.K, a.shape)
        # K is small, and Python's isfinite on its entries is cheaper than
        # numpy calls on so few values.
        _require(all(map(math.isfinite, a.tolist())), "a contains non-finite entries")
        object.__setattr__(self, "a", a)

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        phi, phid = _dog_atoms(y, self.K, self.T, slope)
        return phi @ self.a, phid @ self.a if slope else None


@dataclass(frozen=True)
class RmtOptimal:
    """Asymptotically optimal bulk shrinker on the calibrated scale.

    Expects singular values divided by sqrt(max(n, m)) * sigma (see
    rmt.calibration_scale), where the noise bulk ends at 1 + sqrt(beta):
        eta(y) = sqrt((y^2 - beta - 1)^2 - 4 beta) / y   for y above the edge,
        eta(y) = 0                                        otherwise.
    """

    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _finite_scalar(self.beta, "beta"))
        _require(0.0 < self.beta <= 1.0, "beta must lie in (0, 1], got {}", self.beta)

    @property
    def edge(self) -> float:
        return 1.0 + math.sqrt(self.beta)

    def _eval(self, y: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
        vals, ders = np.zeros_like(y), np.zeros_like(y)
        above = y > self.edge
        ya = y[above]
        b = ya * ya - self.beta - 1.0
        # Rounding just above the edge can push the radicand a hair negative.
        rad = np.sqrt(np.maximum(b * b - 4.0 * self.beta, 0.0))
        vals[above] = rad / ya
        # The right-derivative diverges at the edge itself (square-root
        # onset); the edge point uses the bulk branch, which is 0.
        if slope:
            with np.errstate(divide="ignore"):
                ders[above] = 2.0 * b / rad - rad / (ya * ya)
        return vals, ders


_RULES = (Identity, Zero, Svht, Svst, Atn, Svlt, Svlet, RmtOptimal)
ShrinkageRule = Union[_RULES]


def _check_rule(rule) -> None:
    if not isinstance(rule, _RULES):
        raise ContractError(f"unknown shrinkage rule: {type(rule).__name__}")


def _evaluate(rule: ShrinkageRule, s: np.ndarray, idx: np.ndarray, slope: bool = True) -> tuple:
    """A checked rule's (eta, eta') on a checked spectrum, the one evaluation
    every entry point runs (eta' left out without slope, see the module
    docstring).  An eta that is not finite has neither a clamped value nor
    a finite risk, so it fails here, before numpy warns about the overflow
    it came from."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, ders = rule._eval(s, idx, slope)
    if not _all(np.isfinite(vals)):
        raise ContractError("rule produced non-finite output")
    return vals, ders


def apply(rule: ShrinkageRule, spectrum: np.ndarray) -> np.ndarray:
    """Evaluate a rule entrywise on a descending non-negative spectrum.

    Every rule's formula is clamped to non-negative values here (only the
    expansion's can go negative; the risk engine scores it unclamped).  The
    output is non-negative and finite but need not be descending (the
    expansion rule in particular may reorder magnitudes).
    """
    _check_rule(rule)
    s = _check_spectrum(spectrum)
    idx = np.arange(1, s.shape[0] + 1, dtype=float)
    return np.maximum(_evaluate(rule, s, idx, slope=False)[0], 0.0)


def derivative(rule: ShrinkageRule, y: float, i: int = 1) -> float:
    """Analytic d(eta)/dy at the point y, holding the rank index i fixed.

    Where apply's non-negativity clamp is active the derivative is 0; a
    derivative that is not finite raises ContractError.
    """
    _check_rule(rule)
    y = _positive(y, "y")
    i = _count(i, "index", 1)
    vals, ders = _evaluate(rule, np.asarray([y], dtype=float), np.asarray([float(i)]))
    d = 0.0 if vals[0] < 0.0 else float(ders[0])
    _require(math.isfinite(d), "rule produced a non-finite derivative")
    return d
