"""Thin SVD plumbing: factorization, reconstruction, truncation, matrix I/O.

Everything downstream (shrinkage rules, risk estimation, benchmarks) works
on the factors produced here, so this module pins down the conventions once:
thin factors with L = min(n, m) columns, descending singular values, and a
deterministic sign choice for the singular vectors.  It also owns the input
contracts the other modules share: MatrixShape checks every matrix's
dimensions, _check_spectrum every spectrum a rule or the risk engine
reads, _positive every parameter that must be finite and > 0, and _count
every count: a dimension, rank, expansion order, index, trials or seed.

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
from the same tables.  The tables this needs are built on the first write
or read, not at import.

read_matrix runs the same steps backwards (Clinger 1990), a block of whole
lines at a time, on text in the plain grammar: ASCII digits, ".", "e", "E",
"+", "-", "," and line breaks (LF, or CR LF); empty lines only at the ends.
One scan finds every byte that is not a digit and checks that each token is
a float literal: an optional sign, digits with at most one point, and an
optional exponent with an optional sign.  With the points deleted, the
three 8-byte words before the end of a token's mantissa hold its last 24
digits, and each word turns into its value by adding neighbouring digits,
then pairs, then fours (Lemire 2021).  At most 18 significant digits give
an exact int64 D < 10^18 < 2^63, with the token's value D * 10^p.
D = Dh + Dl exactly, Dh its nearest double.  With 10^p = (h + l) * 2^q as
above, Dekker's product gives Dh*h = P + e exactly, and r = e + Dl*h +
Dh*l, three roundings of terms below 2^-51 * P, leaves P + r within about
2^-100 * P of D * 10^p / 2^q (the dropped Dl*l and the table's error
included).  R, the double nearest P + r, and its exact tail P + r - R then
decide the rounding: unless R + tail +- 2^-90 * R round to different
doubles, R is the double nearest D * 10^p / 2^q, and R * 2^q is exact when
it is normal.  The other tokens go to ``float(token)``: a tail that close
to a rounding boundary, a result that is not above the least normal double
or is infinite, a power of ten outside the table, more than 18 significant
digits, more than 24 mantissa digits or more than 8 exponent digits.  Text
outside the grammar (a blank around a token and an empty line inside the
text among it), ragged rows and empty fields go to the line-by-line
``float()`` parser, which also raises every MatrixParseError.

Both directions work a block at a time: _FORMAT_BLOCK = 8,192 values per
write block and up to _READ_BLOCK = 64 KiB of whole lines per read block.
A block costs a fixed number of numpy calls whatever its size, each a C
function called directly (no ndarray.all, np.clip or other Python-level
wrapper), so larger blocks cost less per value, until glibc hands a
block's freed memory back to the system and faults it in again for the
next one.  Measured with glibc 2.36 on a 2-CPU Xeon VM: a fresh process
reading a seeded 1000x1000 CSV took 5.4k-5.9k minor faults with 64 KiB
blocks and 46k with 128 KiB blocks, and read no faster, so the read block
stays at 64 KiB.  In-process `svshrink denoise` ops on 400x200 CSVs took
1,286 minor faults per op with 16,384-value write blocks against 830 with
8,192 and 828 with 4,096, so the write block stays below 16,384 values.
(A loop of 400x200 writes alone took about 890 faults per write with
8,192-value blocks and none with 4,096.)
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ContractError, FactorizationError, MatrixParseError

IO_ROUNDTRIP_TOL = 1e-15

# The fast 17-digit formatter and reader (see the module docstring).
_FORMAT_BLOCK = 8192  # values formatted per block
_READ_BLOCK = 1 << 16  # bytes of whole lines read per block
# The writer's scalings 10^(16-E) of every double, and every 10^p by which
# a read of at most 18 digits can give a normal double.
_POW10_MIN, _POW10_MAX = -325, 341
_EXP_MIN, _EXP_MAX = -324, 308  # decimal exponents E of every nonzero double
_TIE_MARGIN = 2.0**-44  # a fraction this close to 1/2 is left to "%.17g"
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_READ_MARGIN = 2.0**-90  # a read this close (relative) to a rounding boundary goes to float()
# Kinds of the bytes that are not digits; 0 is outside the reader's grammar.
_SEPARATOR, _POINT, _EXPONENT, _SIGN = 1, 2, 3, 4
_MIN_NORMAL, _MAX_DOUBLE = float(np.finfo(float).tiny), float(np.finfo(float).max)
# Word constants of the 8-digit parse (Lemire 2021).
_DIGIT_MASKS = np.array([(2**64 - 1) << 8 * (8 - kept) & (2**64 - 1) for kept in range(9)], dtype=np.uint64)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_EVEN_PAIRS = np.uint64(0x000000FF000000FF)
_PAIR_SCALE = np.uint64(100 + (1000000 << 32))
_QUAD_SCALE = np.uint64(1 + (10000 << 32))
# The three mantissa words of a token end 16, 8 and 0 bytes before the end
# of its mantissa, with 16, 8 and 0 of its digits after them.
_WORD_ENDS = np.array([[-16], [-8], [0]])
_DIGITS_AFTER_WORD = np.array([[16], [8], [0]])
# ndarray.all() without its Python-level wrapper (see the module docstring); 2-D needs axis=None.
_all = np.logical_and.reduce


def _count(x, name: str, lo: int, hi: int | None = None) -> int:
    """x as a Python int in [lo, hi] (no upper bound when hi is None); a
    bool, a float or a string is not a count, whatever its value."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= x and (hi is None or x <= hi):
        return int(x)
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ContractError(f"{name} must be an integer {bounds}, got {x!r}")


@dataclass(frozen=True)
class MatrixShape:
    """Dimensions (n rows, m columns) of a data matrix."""

    n: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "n", 1))
        object.__setattr__(self, "m", _count(self.m, "m", 1))

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
    try:
        value = float(x)
    except (TypeError, ValueError):
        value = x  # not a number: the check below fails and shows x as given
    # Python's isfinite on one float is cheaper than numpy's.
    if not (type(value) is float and math.isfinite(value) and value > 0.0):
        raise ContractError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _check_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """A spectrum as a float array that is 1-D, non-empty, finite,
    non-negative and descending: s_1 finite, s_L >= 0 and each s_i >= s_i+1
    (False for a NaN) say so at once; the rest only chooses the message."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ContractError(f"spectrum must be 1-D and non-empty, got shape {s.shape}")
    if math.isfinite(s[0]) and s[-1] >= 0.0 and _all(s[:-1] >= s[1:]):
        return s
    if not np.isfinite(s).all():
        raise ContractError("spectrum contains non-finite entries")
    if (s < 0.0).any():
        raise ContractError("spectrum contains negative entries")
    if (s[1:] > s[:-1]).any():
        raise ContractError("spectrum must be sorted in descending order")
    return s


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD factors: U is n-by-L, S is length L descending, V is m-by-L.
    The (n, m) shape is checked and stored when the factors are built."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    shape: MatrixShape = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("U", "V"):
            ndim = np.ndim(getattr(self, name))
            if ndim != 2:
                raise ContractError(f"{name} must be a 2-D array, got ndim={ndim}")
        object.__setattr__(self, "shape", MatrixShape(self.U.shape[0], self.V.shape[0]))


@dataclass(frozen=True, eq=False)
class DenoiseProblem:
    """An observed matrix, its shape (stored when checked) and the known noise level sigma > 0."""

    Y: np.ndarray
    sigma: float
    shape: MatrixShape = field(init=False, repr=False)

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=float)
        object.__setattr__(self, "shape", MatrixShape.of(Y))
        if not _all(np.isfinite(Y), axis=None):
            raise ContractError("Y contains non-finite entries")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "sigma", _positive(self.sigma, "sigma"))


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
    unchanged.  U and V are C-ordered, and two calls on the same matrix
    return bitwise-identical factors.

    LAPACK factors np.ldexp(Y, -e), with e the binary exponent of max|Y|,
    and S is scaled back by np.ldexp(S, e).  Scaling by a power of two is
    exact, and with max|Y| in [0.5, 1) LAPACK never rescales the matrix
    itself (it does so outside about 1e-138..1e138, by a factor that is not
    a power of two), so svd(Y * 2^k) has the factors of svd(Y) with
    S * 2^k, bit for bit, wherever Y * 2^k and S * 2^k are exact (no entry
    leaves the normal range).
    """
    Y = np.asarray(Y, dtype=float)
    MatrixShape.of(Y)
    # Y's max and min give its largest magnitude and, as NaN or inf, any
    # entry that is not finite.
    largest, smallest = float(Y.max()), float(Y.min())
    if not (math.isfinite(largest) and math.isfinite(smallest)):
        raise ContractError("matrix contains non-finite entries")
    e = math.frexp(max(largest, -smallest))[1]
    try:
        U, S, Vh = np.linalg.svd(np.ldexp(Y, -e), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    # S * 2^e can overflow to inf, which fails the check below.
    with np.errstate(over="ignore"):
        S = np.ldexp(S, e)
    # |U| is held one row per column of U, which argmax reads in place, and
    # freed before V and U are built (kept, it made a 400x200 CLI denoise
    # fault about 870 pages back per op).
    magnitude = np.abs(U.T, order="C")
    if not (math.isfinite(magnitude.max()) and _all(np.isfinite(S)) and _all(np.isfinite(Vh), axis=None)):
        raise FactorizationError("SVD produced non-finite factors")
    sign = np.where(U[magnitude.argmax(axis=1), np.arange(U.shape[1])] < 0.0, -1.0, 1.0)
    del magnitude
    # V first, then a new U: writing LAPACK's U in place, or building U
    # first, raised the peak RSS of a 400x200 CLI denoise by 0.6-1.3 MB.
    V = np.multiply(Vh.T, sign, order="C")
    U = U * sign
    return SvdFactors(U=U, S=S, V=V)


def reconstruct(factors: SvdFactors, s_new: np.ndarray) -> np.ndarray:
    """Rebuild a matrix from the factors using replacement singular values:
    (U * s_new) @ V.T, bit for bit.

    Zero columns after the last non-zero value add exact zeros, so they
    are left out, but BLAS sums in unrolled steps and blocks of columns, and
    a product ending inside a step or past the full one's first block
    rounds differently (OpenBLAS 0.3.31: odd cuts at m >= 300, cuts past
    200 at L > 384).  So the product ends at a multiple of 8 columns, and
    keeps all L past 128, within half of a 256-column block.
    """
    s_new = np.asarray(s_new, dtype=float)
    L = factors.S.shape[0]
    if s_new.ndim != 1 or s_new.shape[0] != L:
        raise ContractError(f"s_new must be a length-{L} vector, got shape {s_new.shape}")
    if not (s_new.min() >= 0.0 and s_new.max() < math.inf):  # False for a NaN
        if not np.isfinite(s_new).all():
            raise ContractError("s_new contains non-finite entries")
        raise ContractError("s_new contains negative entries")
    nonzero = s_new.nonzero()[0]
    k = (int(nonzero[-1]) // 8 + 1) * 8 if nonzero.size else 0
    if k > 128:
        k = L
    return (factors.U[:, :k] * s_new[:k]) @ factors.V[:, :k].T


def truncated_spectrum(S: np.ndarray, r: int) -> np.ndarray:
    """A copy of the spectrum S with every value after the leading r zeroed."""
    r = _count(r, "rank", 0, S.shape[0])
    s_new = S.copy()
    s_new[r:] = 0.0
    return s_new


def eym_truncate(Y: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation in Frobenius norm (hard truncation)."""
    factors = svd(Y)
    return reconstruct(factors, truncated_spectrum(factors.S, r))


def write_matrix(path: str | os.PathLike | io.IOBase, M: np.ndarray) -> None:
    """Write a matrix as CSV with 17 significant digits per entry.

    17 digits round-trip IEEE double exactly, so read_matrix recovers the
    stored values bit for bit.  Each entry is the bytes of "%.17g" % v (see
    the module docstring for how they are found).  The text goes out one
    block of values at a time, so the whole of it is never held at once: as
    ASCII bytes to a path or a binary stream, as str to any other stream.
    """
    M = np.asarray(M, dtype=float)
    MatrixShape.of(M)
    if hasattr(path, "write"):
        _write_csv(path, M, isinstance(path, (io.RawIOBase, io.BufferedIOBase)))
    else:
        try:
            with open(path, "wb") as fh:
                _write_csv(fh, M, True)
        except OSError as exc:
            raise ContractError(f"cannot write matrix file {os.fspath(path)}: {exc}") from exc


def _write_csv(fh, M: np.ndarray, binary: bool) -> None:
    """Write M's CSV text to fh, _FORMAT_BLOCK values per write call, as
    bytes when binary and as str otherwise."""
    flat = M.reshape(-1)
    m = M.shape[1]
    for start in range(0, flat.size, _FORMAT_BLOCK):
        stop = min(start + _FORMAT_BLOCK, flat.size)
        last = np.arange(start, stop) % m == m - 1
        text = _format_block(flat[start:stop], np.where(last, ord("\n"), ord(",")))
        fh.write(text if binary else text.decode("ascii"))


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
    """The tables the 17-digit writer and reader use, built once per process.

    pow10_*: 10^k = (h + l) * 2^q for k in [_POW10_MIN, _POW10_MAX], with h in
    [1, 2) and l the rounded remainder; h is also kept split.  byte_kind:
    the reader's kind of each byte value, 0 for digits and bytes outside
    its grammar.  digits4: the four digits of 0..9999, each followed by a
    pad byte; keep_mask: the bytes of the first 0..4 of them;
    trailing_zeros: the trailing zero digits of 0..9999 (4 for 0).  lead:
    sign, the "0.", "0.0", "0.00" or "0.000" of a value in [1e-4, 1), and
    the leading digit.  exponent: "e+XX", "e-XXX" or nothing, by E.
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
    byte_kind = np.zeros(256, dtype=np.int8)
    for kind, chars in ((_SEPARATOR, b",\n"), (_POINT, b"."), (_EXPONENT, b"eE"), (_SIGN, b"+-")):
        byte_kind[list(chars)] = kind
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
        byte_kind=byte_kind,
    )
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytes:
    """The "%.17g" text of each value of x, each followed by its separator
    byte in seps, as ASCII bytes."""
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
        out[:, i] = t.digits4.take(chunk) & t.keep_mask.take(kept - (4 * i - 3), mode="clip")
    out[:, 5] = t.exponent.take(E - _EXP_MIN)
    row = out.view(np.uint8)
    row[:, 45] = seps
    point = ((kept > whole_digits) & (whole_digits > 0)).nonzero()[0]
    row.reshape(-1)[point * 48 + 5 + 2 * whole_digits.take(point)] = ord(".")
    slow = slow.nonzero()[0]
    if slow.size:
        text = np.array(["%.17g" % v for v in x.take(slow).tolist()], dtype="S45")
        row[slow, :45] = text.view(np.uint8).reshape(-1, 45)
    return row.tobytes().translate(None, b"\0")


def read_matrix(path: str | os.PathLike | io.IOBase) -> np.ndarray:
    """Parse a CSV matrix written by write_matrix (or any plain float CSV).

    Reads a path, or a text or binary stream, whose bytes are read as a
    file's are.  Text in the plain grammar is parsed with numpy, a block of
    whole lines at a time, to the doubles float() gives each token (see the
    module docstring); any other text goes to a line-by-line float() parse.
    Raises MatrixParseError naming the offending 1-based line for ragged
    rows, unparseable tokens or a non-ASCII byte, for an empty file, and for
    an unreadable path.
    """
    if hasattr(path, "read"):
        data = path.read()
        name = getattr(path, "name", "<stream>")
    else:
        name = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise MatrixParseError(f"cannot read matrix file {name}: {exc}") from exc
    text = data if isinstance(data, str) else None
    if text is None or text.isascii():
        M = _read_csv(bytes(data) if text is None else text.encode("ascii"))
        if M is not None:
            return M
    if text is None:
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            pos = exc.start
            # Lines are counted as the parser's str.splitlines counts them.
            lineno = len((data[:pos].decode("ascii") + "x").splitlines())
            raise MatrixParseError(f"{name}: line {lineno}: byte 0x{data[pos]:02x} is not ASCII") from None
    return _parse_lines(text.splitlines(), name)


# A result that leaves the double range goes to float(), so numpy need not
# warn.  One errstate per read costs less than one per block.
@np.errstate(over="ignore", under="ignore")
def _read_csv(data: bytes) -> np.ndarray | None:
    """The matrix of CSV bytes in the plain grammar, or None for anything
    else: other bytes (a blank among them), a token that is no float
    literal, an empty field or line, or rows of unequal length.  CR LF
    turns into LF, and empty lines at either end are dropped first."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if data.startswith(b"\n") or not data.endswith(b"\n") or data.endswith(b"\n\n"):
        data = data.strip(b"\n") + b"\n"  # a copy, made only when needed
    # bytes.count tests one byte at a time; numpy compares a block of them
    # at once, with no temporary larger than a block.
    text, blocks = np.frombuffer(data, dtype=np.uint8), range(0, len(data), _READ_BLOCK)
    n = sum([np.count_nonzero(text[i : i + _READ_BLOCK] == ord("\n")) for i in blocks])
    m = data.count(b",", 0, data.index(b"\n")) + 1
    if n * m > len(data):
        return None  # more values than bytes; this bounds what is allocated
    M = np.empty((n, m))
    flat = M.reshape(-1)
    start = done = 0
    while start < len(data):
        # Whole lines: up to the last line break in _READ_BLOCK bytes, or
        # one longer line.
        stop = data.rfind(b"\n", start, start + _READ_BLOCK) + 1 or data.index(b"\n", start) + 1
        count = _read_block(data[start:stop], m, flat[done:])
        if count is None:
            return None
        start, done = stop, done + count
    return M


class _Tokens(NamedTuple):
    """Where the tokens of a block lie and what their spelling says."""

    starts: np.ndarray  # first byte
    ends: np.ndarray  # the separator after the token
    mantissa_end: np.ndarray  # the e, or the separator
    points: np.ndarray  # points in the token and the tokens before it
    n_digits: np.ndarray  # digits before the e
    p: np.ndarray  # minus the digits after the point
    negative: np.ndarray
    exp_token: np.ndarray  # the tokens with an e, and for each of them:
    exp_digits: np.ndarray  # digits after the e and its sign
    exp_negative: np.ndarray


def _read_block(chunk: bytes, m: int, out: np.ndarray) -> int | None:
    """Parse whole lines of m tokens each, ending in a line break, into the
    front of out; return the number of values, or None (see _read_csv).
    Each step is a function of its own that works in place where it can, so
    that its temporaries are freed before the next step allocates.  That
    halved the traced peak memory of a 64 KiB block (1.65 to 0.77 MB).  In
    a fresh process glibc handed each block's freed heap back to the system
    and faulted it in again for the next block: a 1000x1000 read took 62k
    page faults at the old peak and 11k at the new one."""
    tokens = _tokens(np.frombuffer(chunk, dtype=np.uint8), m)
    if tokens is None:
        return None
    values = out[: tokens.ends.size]
    slow = _nearest_doubles(*_decimals(chunk, tokens), tokens.negative, values)
    for i in slow.nonzero()[0].tolist():
        values[i] = float(chunk[tokens.starts[i] : tokens.ends[i]])
    return values.size


def _tokens(text: np.ndarray, m: int) -> _Tokens | None:
    """The tokens of whole lines of m tokens each, or None when a line has
    another count or a token is not a float literal."""
    kinds = _format_tables().byte_kind
    special = ((text - np.uint8(ord("0"))) > 9).nonzero()[0]
    kind = kinds.take(text.take(special))
    is_sep = kind == _SEPARATOR
    ends = special.compress(is_sep)
    T = ends.size
    newline = text.take(ends) == ord("\n")
    if not _all(kind) or T != m * np.count_nonzero(newline) or not _all(newline[m - 1 :: m]):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A sign opens its token or follows its e; byte -1 is the block's last,
    # a line break.
    before = kinds.take(text.take(special.compress(kind == _SIGN) - 1))
    token = is_sep.cumsum()  # of each special byte that is no separator
    is_point, is_exp = kind == _POINT, kind == _EXPONENT
    point_token, exp_token = token.compress(is_point), token.compress(is_exp)
    if not (
        _all((before == _SEPARATOR) | (before == _EXPONENT))
        and _all(point_token[1:] > point_token[:-1])
        and _all(exp_token[1:] > exp_token[:-1])
    ):
        return None
    exp_at = special.compress(is_exp)
    mantissa_end = ends.copy()
    mantissa_end[exp_token] = exp_at
    has_point = np.zeros(T, dtype=bool)
    has_point[point_token] = True
    p = np.zeros(T, dtype=np.int64)
    p[point_token] = special.compress(is_point) + 1 - mantissa_end.take(point_token)
    lead = text.take(starts)
    negative = lead == ord("-")
    n_digits = mantissa_end - starts - (negative | (lead == ord("+"))) - has_point
    exp_sign = text.take(exp_at + 1)
    exp_negative = exp_sign == ord("-")
    exp_digits = ends.take(exp_token) - exp_at - 1 - (exp_negative | (exp_sign == ord("+")))
    if not (_all(p <= 0) and _all(n_digits > 0) and _all(exp_digits > 0)):
        return None
    points = has_point.cumsum()
    return _Tokens(starts, ends, mantissa_end, points, n_digits, p, negative, exp_token, exp_digits, exp_negative)


def _word_values(words: np.ndarray, end: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The value of the last `count` digits (clipped to 0..8) of each 8-byte
    word that ends at a byte offset in `end`, each read from the two
    aligned `words` that hold it: each byte plus ten times the byte before
    it, then pairs, then fours (Lemire 2021).  The steps work in place
    (see _read_block)."""
    index = end - 8
    shift = (index & 7).astype(np.uint64) << np.uint64(3)
    index >>= 3
    w = words.take(index)
    w >>= shift
    index += 1
    upper = words.take(index)
    del index
    np.subtract(np.uint64(64), shift, out=shift)
    upper <<= shift  # a shift by 64 gives 0
    del shift
    w |= upper
    del upper
    keep = _DIGIT_MASKS.take(count, mode="clip")
    w &= keep
    keep &= _ASCII_ZEROS
    w -= keep
    del keep
    pairs = w >> np.uint64(8)
    w *= np.uint64(10)
    w += pairs
    np.bitwise_and(w, _EVEN_PAIRS, out=pairs)
    pairs *= _PAIR_SCALE
    w >>= np.uint64(16)
    w &= _EVEN_PAIRS
    w *= _QUAD_SCALE
    w += pairs
    w >>= np.uint64(32)
    return w


def _decimals(chunk: bytes, tokens: _Tokens) -> tuple:
    """(Dh, Dl, p, slow): the last 24 mantissa digits of each token as
    D = Dh + Dl exactly, its value D * 10^p, and whether it goes to float()
    for more digits than D holds or more than 8 in its exponent."""
    # With the points deleted and 24 zero bytes in front, the words before
    # a token's e or separator hold its last 24 mantissa digits.
    body = chunk.replace(b".", b"")
    words = np.frombuffer(bytes(24) + body + bytes(16 - len(body) % 8), dtype="<u8")
    shifted = 24 - tokens.points
    mantissa_end = tokens.mantissa_end + shifted
    high, mid, low = _word_values(words, mantissa_end + _WORD_ENDS, tokens.n_digits - _DIGITS_AFTER_WORD)
    slow = (tokens.n_digits > 24) | (high >= 100)
    p = tokens.p
    if tokens.exp_token.size:
        e = tokens.exp_token
        exponent = _word_values(words, tokens.ends.take(e) + shifted.take(e), tokens.exp_digits).astype(np.int64)
        p[e] += np.where(tokens.exp_negative, -exponent, exponent)
        slow[e[tokens.exp_digits > 8]] = True
    # (high * 10^8 + mid) * 10^8 < 10^18 is exact, and Dl is the exact
    # remainder of the rounded sum.
    upper = (high * np.uint64(10**8) + mid).astype(np.float64) * 1e8
    low = low.astype(np.float64)
    Dh = upper + low
    return Dh, (upper - Dh) + low, p, slow


def _nearest_doubles(Dh, Dl, p, slow, negative, out) -> np.ndarray:
    """Write the nearest double to each (Dh + Dl) * 10^p, signed, into out;
    return slow or'ed with the tokens whose rounding is not certain."""
    t = _format_tables()
    zero = Dh == 0.0
    Dh[zero] = 1.0
    k = p - _POW10_MIN
    in_table = (k >= 0) & (k <= _POW10_MAX - _POW10_MIN)
    k[~in_table] = 0
    # D * 10^p / 2^q = P + r within about 2^-100 * P.
    h = t.pow10_h.take(k)
    P = Dh * h
    d_high, d_low = _split(Dh)
    h_high, h_low = t.pow10_h_high.take(k), t.pow10_h_low.take(k)
    r = ((d_high * h_high - P) + d_high * h_low + d_low * h_high) + d_low * h_low
    r += Dl * h + Dh * t.pow10_l.take(k)
    R = P + r
    tail = r - (R - P)
    margin = R * _READ_MARGIN
    decided = (R + (tail + margin) == R) & (R + (tail - margin) == R)
    x = np.ldexp(R, t.pow10_q.take(k))  # past the double range: float() (see _read_csv)
    x[zero] = 0.0
    np.copysign(x, 0.5 - negative, out=out)
    return slow | ~(zero | (in_table & decided & (x > _MIN_NORMAL) & (x <= _MAX_DOUBLE)))


def _parse_lines(lines: list[str], name: str) -> np.ndarray:
    """Line-by-line float() parse of a CSV: the reader for text outside the
    plain grammar (whitespace, empty lines inside the text, underscores
    in numbers, non-ASCII text) and the only source of MatrixParseError
    messages."""
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
