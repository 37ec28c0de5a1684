"""Singular-value shrinkage rules.

Each rule maps an observed singular value y_i (and, for the logistic rule,
its 1-based rank index i) to a replacement value, leaving the singular
vectors untouched.  Rules are frozen dataclasses validated at construction.
Each rule's one `_eval(y, idx)` returns its formula and that formula's
analytic d(eta)/dy at fixed index, (eta, eta'), which is what the risk
engine scores; `apply` evaluates it on a whole spectrum and `derivative` at
one point, both with the non-negativity clamp.  The grid-tuned families
(Svst, Atn, Svlt) evaluate through one static `_formula` whose parameters
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

# scipy.special.expit, bound on the first logistic-rule evaluation: importing
# scipy.special takes about 0.3 s and 25 MB, and no other rule needs it.
_expit = None

# Hard cap on the ATN exponent; beyond this the rule is indistinguishable
# from a hard threshold at double precision anyway.
GAMMA_MAX = 64.0


def _dog_atoms(y: np.ndarray, K: int, T: float) -> tuple:
    """dog_basis and dog_basis_deriv of a float spectrum, sharing one
    exponential."""
    ysq = (y * y)[:, None] * np.arange(K, dtype=float)
    decay = np.exp(-ysq / (2.0 * T * T))
    return y[:, None] * decay, (1.0 - ysq / (T * T)) * decay


def dog_basis(spectrum: np.ndarray, K: int, T: float) -> np.ndarray:
    """Derivative-of-Gaussian expansion functions, L-by-K.

    Column k (0-based) is phi_{k+1}(y) = y * exp(-k * y^2 / (2 T^2)); the
    first column is the identity map, later columns decay the faster the
    larger y is, so the span can keep strong components while pulling the
    noise bulk toward zero.
    """
    return _dog_atoms(np.asarray(spectrum, dtype=float), K, T)[0]


def dog_basis_deriv(spectrum: np.ndarray, K: int, T: float) -> np.ndarray:
    """Elementwise y-derivatives of dog_basis, L-by-K."""
    return _dog_atoms(np.asarray(spectrum, dtype=float), K, T)[1]


def _load_expit():
    global _expit
    from scipy.special import expit

    _expit = expit
    return expit


def _logistic_weights(idx: np.ndarray, p1: float, p2: float) -> np.ndarray:
    # expit(-z) = 1/(1+e^z), stable for p1*(i-p2) of either sign.
    return (_expit or _load_expit())(-p1 * (idx - p2))


def _require(cond: bool, msg: str, *args) -> None:
    # The message is formatted only on failure: validation runs on every
    # rule built, and most rules are valid.
    if not cond:
        raise ContractError(msg.format(*args))


def _finite_scalar(x, name: str) -> float:
    x = float(x)
    _require(math.isfinite(x), "{} must be finite, got {!r}", name, x)
    return x


def _expansion_order(K) -> int:
    """The expansion order K as an int; booleans are not orders."""
    _require(
        isinstance(K, (int, np.integer)) and not isinstance(K, bool) and K >= 1,
        "K must be an integer >= 1, got {!r}",
        K,
    )
    return int(K)


@dataclass(frozen=True)
class Identity:
    """Keep every singular value: eta(y) = y."""

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        return y.copy(), np.ones_like(y)


@dataclass(frozen=True)
class Zero:
    """Discard every singular value: eta(y) = 0."""

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        return np.zeros_like(y), np.zeros_like(y)


@dataclass(frozen=True)
class Svht:
    """Hard threshold: keep y if y > mu, else drop it."""

    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _finite_scalar(self.mu, "mu"))
        _require(self.mu > 0.0, "mu must be > 0, got {}", self.mu)

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
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

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        return self._formula(y, self.lam)


@dataclass(frozen=True)
class Atn:
    """Adaptive trace-norm rule: eta(y) = y * max(1 - (tau/y)^gamma, 0).

    gamma = 1 recovers the soft threshold; as gamma grows the rule
    approaches the hard threshold at tau.  eta(0) = 0 by definition.
    """

    tau: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _finite_scalar(self.tau, "tau"))
        object.__setattr__(self, "gamma", _finite_scalar(self.gamma, "gamma"))
        _require(self.tau > 0.0, "tau must be > 0, got {}", self.tau)
        _require(1.0 <= self.gamma <= GAMMA_MAX, "gamma must lie in [1, {:g}], got {}", GAMMA_MAX, self.gamma)

    @staticmethod
    def _formula(y: np.ndarray, tau, gamma: float) -> tuple:
        """(eta, eta') on y; tau broadcasts.  gamma stays a scalar, which
        keeps numpy's fast paths for ** 1.0 and ** 2.0."""
        # Below tau the ratio may overflow (or be tau/0), and gamma = 1 gives
        # 0 * inf there; the clamp discards every such entry.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = (tau / y) ** gamma
            vals = np.where(y > tau, y * (1.0 - ratio), 0.0)
            ders = np.where(y >= tau, 1.0 + (gamma - 1.0) * ratio, 0.0)
        return vals, ders

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        return self._formula(y, self.tau, self.gamma)


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
    def _formula(y: np.ndarray, idx: np.ndarray, p1: float, p2: float, p3) -> tuple:
        """(eta, eta') on y; p3 broadcasts, while one (p1, p2) gives one
        weight vector for all of them."""
        w = _logistic_weights(idx, p1, p2)
        tapered = y * w - p3
        return np.maximum(tapered, 0.0), np.where(tapered >= 0.0, w, 0.0)

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        return self._formula(y, idx, self.p1, self.p2, self.p3)


@dataclass(frozen=True, eq=False)
class Svlet:
    """Linear expansion of derivative-of-Gaussian atoms with a solved
    coefficient vector: eta(y) = dog_basis(y, K, T) @ a.

    T is the Gaussian width; by convention T = C * sigma when the expansion
    is fitted to a problem with noise level sigma, and C is kept for
    reporting when known.  The coefficients a may be negative.  The formula
    is the unclamped expansion, which the risk engine scores; applying it
    clamps negative outputs to zero.
    """

    K: int
    T: float
    a: np.ndarray = field(repr=False)
    C: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _expansion_order(self.K))
        object.__setattr__(self, "T", _finite_scalar(self.T, "T"))
        _require(self.T > 0.0, "T must be > 0, got {}", self.T)
        a = np.asarray(self.a, dtype=float)
        _require(a.ndim == 1 and a.shape[0] == self.K, "a must be a length-{} vector, got shape {}", self.K, a.shape)
        _require(bool(np.isfinite(a).all()), "a contains non-finite entries")
        object.__setattr__(self, "a", a)
        if self.C is not None:
            C = _finite_scalar(self.C, "C")
            _require(C > 0.0, "C must be > 0, got {}", C)
            object.__setattr__(self, "C", C)

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        phi, phid = _dog_atoms(y, self.K, self.T)
        return phi @ self.a, phid @ self.a


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
        return 1.0 + np.sqrt(self.beta)

    def _eval(self, y: np.ndarray, idx: np.ndarray) -> tuple:
        vals, ders = np.zeros_like(y), np.zeros_like(y)
        above = y > self.edge
        ya = y[above]
        b = ya * ya - self.beta - 1.0
        # Rounding just above the edge can push the radicand a hair negative.
        rad = np.sqrt(np.maximum(b * b - 4.0 * self.beta, 0.0))
        vals[above] = rad / ya
        # The right-derivative diverges at the edge itself (square-root
        # onset); the edge point uses the bulk branch, which is 0.
        with np.errstate(divide="ignore"):
            ders[above] = 2.0 * b / rad - rad / (ya * ya)
        return vals, ders


ShrinkageRule = Union[Identity, Zero, Svht, Svst, Atn, Svlt, Svlet, RmtOptimal]


def _check_spectrum(spectrum: np.ndarray) -> np.ndarray:
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ContractError(f"spectrum must be a non-empty 1-D array, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ContractError("spectrum contains non-finite entries")
    if (s < 0.0).any():
        raise ContractError("spectrum contains negative entries")
    if (s[1:] - s[:-1] > 0.0).any():
        raise ContractError("spectrum must be sorted in descending order")
    return s


def _check_rule(rule) -> None:
    if not isinstance(rule, ShrinkageRule):
        raise ContractError(f"unknown shrinkage rule: {type(rule).__name__}")


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
    out = np.maximum(rule._eval(s, idx)[0], 0.0)
    if not np.isfinite(out).all():
        raise ContractError("rule produced non-finite output")
    return out


def derivative(rule: ShrinkageRule, y: float, i: int = 1) -> float:
    """Analytic d(eta)/dy at the point y, holding the rank index i fixed.

    Where apply's non-negativity clamp is active the derivative is 0.
    """
    _check_rule(rule)
    y = float(y)
    if not np.isfinite(y) or y <= 0.0:
        raise ContractError(f"derivative requires y > 0, got {y!r}")
    if i < 1:
        raise ContractError(f"index must be >= 1, got {i}")
    vals, ders = rule._eval(np.asarray([y], dtype=float), np.asarray([float(i)]))
    return 0.0 if vals[0] < 0.0 else float(ders[0])
