"""Thin SVD plumbing: factorization, reconstruction, truncation, matrix I/O.

Everything downstream (shrinkage rules, risk estimation, benchmarks) works
on the factors produced here, so this module pins down the conventions once:
thin factors with L = min(n, m) columns, descending singular values, and a
deterministic sign choice for the singular vectors.  It also owns the input
contracts the other modules share: MatrixShape checks every matrix's
dimensions, _check_spectrum every spectrum a rule or the risk engine
reads, and _positive every parameter that must be finite and > 0.

write_matrix prints every value with the bytes of ``"%.17g" % v`` but finds
the digits with numpy, a block of values at a time.  For finite nonzero x
with E = floor(log10|x|), the 17 digits are D = round-half-even(|x| *
10^(16-E)).  Write |x| = m * 2^e with m in [0.5, 1), and hold 10^(16-E) as
a double-double (h + l) * 2^q with h in [1, 2), within 2^-106.  Dekker's
error-free product gives m*h exactly as the sum of two doubles; adding m*l
leaves the sum within 1.25 * 2^-105 of m * 10^(16-E) / 2^q.  The exact
scaling by 2^(e+q) <= 2^57 then puts |x| * 10^(16-E) within 2^-47 of a
known integer plus fraction.  The digits are exact unless that fraction is
within 2^-44 of 1/2.  Such values go back to ``"%.17g" % v``, as do values
whose D is not strictly between 10^16 and 10^17 (a decade edge, or an E
that log10 misjudged), infinities and NaN.  Zeros print as "0" and "-0"
from the same tables.  The tables this needs are built on the first write,
not at import.
"""

from __future__ import annotations

import functools
import io
import math
import os
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, FactorizationError, MatrixParseError

IO_ROUNDTRIP_TOL = 1e-15
IO_SIGNIFICANT_DIGITS = 17

# The fast 17-digit formatter (see the module docstring).
_FORMAT_BLOCK = 4096  # values formatted per block
_POW10_MIN, _POW10_MAX = -293, 341  # the scalings 10^(16-E) of every double
_EXP_MIN, _EXP_MAX = -324, 308  # decimal exponents E of every nonzero double
_TIE_MARGIN = 2.0**-44  # a fraction this close to 1/2 is left to "%.17g"
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


@dataclass(frozen=True)
class MatrixShape:
    """Dimensions (n rows, m columns) of a data matrix."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and isinstance(self.m, (int, np.integer))):
            raise ContractError(f"matrix dimensions must be integers, got ({self.n!r}, {self.m!r})")
        if self.n < 1 or self.m < 1:
            raise ContractError(f"matrix dimensions must be >= 1, got ({self.n}, {self.m})")

    @property
    def L(self) -> int:
        """Number of singular values carried by a thin factorization."""
        return min(self.n, self.m)

    @classmethod
    def of(cls, matrix: np.ndarray) -> "MatrixShape":
        """The shape of a 2-D array with at least one row and one column."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ContractError(f"expected a 2-D array, got ndim={matrix.ndim}")
        return cls(*matrix.shape)


def _positive(x, name: str) -> float:
    """x as a float that is finite and > 0."""
    value = float(x)
    # Python's isfinite on one float is cheaper than numpy's.
    if not (math.isfinite(value) and value > 0.0):
        raise ContractError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _check_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """A spectrum as a float array that is 1-D, non-empty, finite,
    non-negative and descending."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ContractError(f"spectrum must be 1-D and non-empty, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ContractError("spectrum contains non-finite entries")
    if (s < 0.0).any():
        raise ContractError("spectrum contains negative entries")
    if (s[1:] > s[:-1]).any():
        raise ContractError("spectrum must be sorted in descending order")
    return s


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD factors: U is n-by-L, S is length L descending, V is m-by-L."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape(int(self.U.shape[0]), int(self.V.shape[0]))


@dataclass(frozen=True, eq=False)
class DenoiseProblem:
    """An observed matrix together with the known noise level sigma > 0."""

    Y: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=float)
        MatrixShape.of(Y)
        if not np.all(np.isfinite(Y)):
            raise ContractError("Y contains non-finite entries")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "sigma", _positive(self.sigma, "sigma"))

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape.of(self.Y)


def _check_matching(problem: DenoiseProblem, factors: SvdFactors) -> MatrixShape:
    """Reject factors whose (n, m) differ from the problem's, naming both;
    return the factors' shape."""
    shape = factors.shape
    n, m = problem.Y.shape
    if (n, m) != (shape.n, shape.m):
        raise ContractError(f"factors shape ({shape.n}, {shape.m}) does not match problem shape ({n}, {m})")
    return shape


def svd(Y: np.ndarray) -> SvdFactors:
    """Thin SVD with a deterministic sign convention.

    In each left singular vector the entry of largest magnitude is made
    non-negative (ties broken toward the lowest row index); the flipped sign
    is absorbed into the matching right singular vector, so U S V^T is
    unchanged.  The sign is read from each column's max and min, and only
    a column where both reach the largest magnitude looks for its first
    such entry; each factor then takes its signs in one multiply.  U and V
    are C-ordered, and two calls on the same matrix return
    bitwise-identical factors.
    """
    Y = np.asarray(Y, dtype=float)
    MatrixShape.of(Y)
    if not np.isfinite(Y).all():
        raise ContractError("matrix contains non-finite entries")
    try:
        U, S, Vh = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    # A column's largest magnitude is its max or minus its min; the sign
    # of the larger one is the sign of its lead entry.
    top, bottom = U.max(axis=0), U.min(axis=0)
    flip = top < -bottom
    tied = np.flatnonzero(top == -bottom)
    if tied.size:
        # Both signs reach the largest magnitude (or the column is zero):
        # np.argmax returns the first maximizer, the lowest row index.
        cols = U[:, tied]
        flip[tied] = cols[np.argmax(np.abs(cols), axis=0), np.arange(tied.size)] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    # V first, then a new U: writing LAPACK's U in place, or building U
    # first, raised the peak RSS of a 400x200 CLI denoise by 0.6-1.3 MB.
    V = np.multiply(Vh.T, sign, order="C")
    U = U * sign
    if not (np.isfinite(U).all() and np.isfinite(S).all() and np.isfinite(V).all()):
        raise FactorizationError("SVD produced non-finite factors")
    return SvdFactors(U=U, S=S, V=V)


def reconstruct(factors: SvdFactors, s_new: np.ndarray) -> np.ndarray:
    """Rebuild a matrix from the factors using replacement singular values."""
    s_new = np.asarray(s_new, dtype=float)
    L = factors.S.shape[0]
    if s_new.ndim != 1 or s_new.shape[0] != L:
        raise ContractError(f"s_new must be a length-{L} vector, got shape {s_new.shape}")
    if not np.isfinite(s_new).all():
        raise ContractError("s_new contains non-finite entries")
    if (s_new < 0.0).any():
        raise ContractError("s_new contains negative entries")
    return (factors.U * s_new) @ factors.V.T


def truncated_spectrum(S: np.ndarray, r: int) -> np.ndarray:
    """A copy of the spectrum S with every value after the leading r zeroed."""
    L = S.shape[0]
    if not isinstance(r, (int, np.integer)):
        raise ContractError(f"rank must be an integer, got {r!r}")
    if r < 0 or r > L:
        raise ContractError(f"rank must lie in [0, {L}], got {r}")
    s_new = S.copy()
    s_new[r:] = 0.0
    return s_new


def eym_truncate(Y: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation in Frobenius norm (hard truncation)."""
    factors = svd(Y)
    return reconstruct(factors, truncated_spectrum(factors.S, r))


def write_matrix(path: str | os.PathLike | io.TextIOBase, M: np.ndarray) -> None:
    """Write a matrix as CSV with 17 significant digits per entry.

    17 digits round-trip IEEE double exactly, so read_matrix recovers the
    stored values bit for bit.  Each entry is the bytes of "%.17g" % v (see
    the module docstring for how they are found).  The text goes out one
    block of values at a time, so the whole of it is never held at once.
    """
    M = np.asarray(M, dtype=float)
    MatrixShape.of(M)
    if hasattr(path, "write"):
        _write_csv(path, M)
    else:
        try:
            with open(path, "w", encoding="ascii") as fh:
                _write_csv(fh, M)
        except OSError as exc:
            raise ContractError(f"cannot write matrix file {os.fspath(path)}: {exc}") from exc


def _write_csv(fh, M: np.ndarray) -> None:
    """Write M's CSV text to fh, _FORMAT_BLOCK values per write call."""
    flat = M.reshape(-1)
    m = M.shape[1]
    for start in range(0, flat.size, _FORMAT_BLOCK):
        stop = min(start + _FORMAT_BLOCK, flat.size)
        last = np.arange(start, stop) % m == m - 1
        fh.write(_format_block(flat[start:stop], np.where(last, ord("\n"), ord(","))))


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of doubles into high and low 26-bit halves."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


def _words(strings: list) -> np.ndarray:
    """Each string as one 8-byte word of its Latin-1 bytes, NUL-padded."""
    return np.array([t.encode("latin-1") for t in strings], dtype="S8").view(np.uint64)


@functools.cache
def _format_tables() -> SimpleNamespace:
    """The tables the 17-digit formatter reads, built once per process.

    pow10_*: 10^k = (h + l) * 2^q for k in [_POW10_MIN, _POW10_MAX], with h in
    [1, 2) and l the rounded remainder; h is also kept split.  digits4: the
    four digits of 0..9999, each followed by a pad byte; keep_mask: the bytes
    of the first 0..4 of them; trailing_zeros: the trailing zero digits of
    0..9999 (4 for 0).  lead: sign, the "0.", "0.0", "0.00" or "0.000" of a
    value in [1e-4, 1), and the leading digit.  exponent: "e+XX", "e-XXX" or
    nothing, by E.
    """
    size = _POW10_MAX - _POW10_MIN + 1
    h, l, q = np.empty(size), np.empty(size), np.empty(size, dtype=np.int32)
    for i, k in enumerate(range(_POW10_MIN, _POW10_MAX + 1)):
        # 10^k / 2^q = num / den in [1, 2), with integers only.
        if k >= 0:
            q[i] = (10**k).bit_length() - 1
            num, den = 10**k, 1 << int(q[i])
        else:
            q[i] = -((10**-k).bit_length())
            num, den = 1 << -int(q[i]), 10**-k
        # int / int rounds correctly, so h and l are the nearest doubles.
        h[i] = num / den
        h_num, h_den = float(h[i]).as_integer_ratio()
        l[i] = (num * h_den - h_num * den) / (den * h_den)
    h_high, h_low = _split(h)
    # Small integer types keep the build's temporaries small.
    digit = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16)) % 10
    digits = np.zeros((10000, 8), dtype=np.uint8)
    digits[:, ::2] = digit + ord("0")
    lead = [
        sign + (f"0.{'0' * (prefix - 1)}" if prefix else "").ljust(5, "\0") + str(d) + "\0"
        for sign in ("\0", "-")
        for prefix in range(5)
        for d in range(10)
    ]
    exponent = ["" if -4 <= E < 17 else f"e{E:+03d}" for E in range(_EXP_MIN, _EXP_MAX + 1)]
    tables = SimpleNamespace(
        pow10_h=h,
        pow10_h_high=h_high,
        pow10_h_low=h_low,
        pow10_l=l,
        pow10_q=q,
        digits4=digits.view(np.uint64).reshape(-1),
        keep_mask=_words(["\xff\0" * kept for kept in range(5)]),
        trailing_zeros=np.logical_and.accumulate(digit[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.int8),
        lead=_words(lead),
        exponent=_words(exponent),
    )
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _format_block(x: np.ndarray, seps: np.ndarray) -> str:
    """The "%.17g" text of each value of x, each followed by its separator
    byte in seps."""
    t = _format_tables()
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0.0
    a = np.where(finite & ~zero, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - _POW10_MIN - E
    # |x| * 10^(16-E) = (m * (h + l)) * 2^(e+q) = (P + r) * scale.
    m, e = np.frexp(a)
    h = t.pow10_h.take(k)
    P = m * h
    m_high, m_low = _split(m)
    h_high, h_low = t.pow10_h_high.take(k), t.pow10_h_low.take(k)
    r = ((m_high * h_high - P) + m_high * h_low + m_low * h_high) + m_low * h_low
    r += m * t.pow10_l.take(k)
    scale = np.ldexp(1.0, e + t.pow10_q.take(k))
    # Where E is right, P * scale exceeds 2^53 and so is an integer; r *
    # scale holds the fraction.
    r *= scale
    r_floor = np.floor(r)
    frac = r - r_floor
    D = (P * scale).astype(np.int64) + r_floor.astype(np.int64) + (frac > 0.5)
    decided = (np.abs(frac - 0.5) > _TIE_MARGIN) & (D > 10**16) & (D < 10**17)
    # A zero prints as its sign and the single digit 0 (E = 0 already).
    D[zero] = 0
    slow = ~finite | ~(decided | zero)
    D[slow] = 10**16
    E[slow] = 0
    # D as its leading digit d0 and four 4-digit chunks.
    upper, lower = np.divmod(D, 10**8)
    d0, upper = np.divmod(upper, 10**8)
    chunks = np.divmod(upper, 10**4) + np.divmod(lower, 10**4)
    # Only the four chunks can be trailing zeros: d0 is 0 only for a zero,
    # which keeps its one digit below.
    trailing = t.trailing_zeros.take(chunks[3])
    all_zero = chunks[3] == 0
    for chunk in chunks[2::-1]:
        trailing += all_zero * t.trailing_zeros.take(chunk)
        all_zero &= chunk == 0
    # %g: fixed notation for -4 <= E < 17, with E + 1 digits before the
    # point; otherwise one digit before it and an exponent.  Trailing zeros
    # after the point are dropped, and the point with them.
    fixed = (E >= -4) & (E < 17)
    whole_digits = np.where(fixed, np.maximum(E + 1, 0), 1)
    kept = np.maximum(17 - trailing, whole_digits)
    # Each value is a row of 48 bytes, NUL where nothing is printed: sign
    # and "0.000" prefix, then digit j at byte 6 + 2j with a slot for the
    # point after it, then the exponent and the separator at byte 45.
    out = np.empty((x.shape[0], 6), dtype=np.uint64)
    prefix = np.where(fixed & (E < 0), -E, 0)
    out[:, 0] = t.lead.take((np.signbit(x) * 5 + prefix) * 10 + d0)
    for i, chunk in enumerate(chunks, start=1):
        out[:, i] = t.digits4.take(chunk) & t.keep_mask.take(np.clip(kept - (4 * i - 3), 0, 4))
    out[:, 5] = t.exponent.take(E - _EXP_MIN)
    row = out.view(np.uint8)
    row[:, 45] = seps
    point = np.flatnonzero((kept > whole_digits) & (whole_digits > 0))
    row.reshape(-1)[point * 48 + 5 + 2 * whole_digits[point]] = ord(".")
    if slow.any():
        text = np.array([f"%.{IO_SIGNIFICANT_DIGITS}g" % v for v in x[slow].tolist()], dtype="S45")
        row[slow, :45] = text.view(np.uint8).reshape(-1, 45)
    return row.tobytes().translate(None, b"\0").decode("ascii")


def read_matrix(path: str | os.PathLike | io.TextIOBase) -> np.ndarray:
    """Parse a CSV matrix written by write_matrix (or any plain float CSV).

    Parses with numpy's C reader and falls back to a line-by-line float()
    parse when that fails.  Raises MatrixParseError naming the offending
    1-based line for ragged rows, unparseable tokens or a non-ASCII byte,
    for an empty file, and for an unreadable path.
    """
    if hasattr(path, "read"):
        text = path.read()
        name = getattr(path, "name", "<stream>")
    else:
        name = os.fspath(path)
        try:
            # The bytes are dropped once decoded; on a non-ASCII byte the
            # error still holds them and the byte's offset.
            with open(path, "rb") as fh:
                text = fh.read().decode("ascii")
        except OSError as exc:
            raise MatrixParseError(f"cannot read matrix file {name}: {exc}") from exc
        except UnicodeDecodeError as exc:
            data, pos = exc.object, exc.start
            # Lines are counted as the parser's str.splitlines counts them.
            lineno = len((data[:pos].decode("ascii") + "x").splitlines())
            raise MatrixParseError(f"{name}: line {lineno}: byte 0x{data[pos]:02x} is not ASCII") from None
    lines = text.splitlines()
    # numpy's C reader accepts a subset of what float() does and gives the
    # same doubles.  It reads the lines str.splitlines made, as the line
    # parser does, so a form feed numpy would strip cannot join two lines;
    # text with U+001F, which numpy strips as whitespace and float() rejects,
    # goes to the line parser.
    if "\x1f" not in text:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                M = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
            if M.size:
                return M
        except (ValueError, Warning):
            pass
    return _parse_lines(lines, name)


def _parse_lines(lines: list[str], name: str) -> np.ndarray:
    """Line-by-line float() parse of a CSV: the reader for what numpy rejects
    (blank-looking lines, underscores in numbers) and the only source of
    MatrixParseError messages."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        tokens = line.split(",")
        values = []
        for col, tok in enumerate(tokens, start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise MatrixParseError(
                    f"{name}: line {lineno}, column {col}: cannot parse {tok.strip()!r} as a float"
                ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise MatrixParseError(
                f"{name}: line {lineno}: expected {width} columns, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise MatrixParseError(f"{name}: empty matrix")
    return np.asarray(rows, dtype=float)
