"""Thin SVD plumbing: factorization, reconstruction, truncation, matrix I/O.

Everything downstream (shrinkage rules, risk estimation, benchmarks) works
on the factors produced here, so this module pins down the conventions once:
thin factors with L = min(n, m) columns, descending singular values, and a
deterministic sign choice for the singular vectors.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FactorizationError, MatrixParseError

# Default tolerances; the validation helpers accept overrides.
RECONSTRUCTION_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
IO_ROUNDTRIP_TOL = 1e-15
IO_SIGNIFICANT_DIGITS = 17


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
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ContractError(f"expected a 2-D array, got ndim={matrix.ndim}")
        return cls(int(matrix.shape[0]), int(matrix.shape[1]))


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
        if Y.ndim != 2:
            raise ContractError(f"Y must be 2-D, got ndim={Y.ndim}")
        if Y.shape[0] < 1 or Y.shape[1] < 1:
            raise ContractError(f"Y must be non-empty, got shape {Y.shape}")
        if not np.all(np.isfinite(Y)):
            raise ContractError("Y contains non-finite entries")
        sigma = float(self.sigma)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ContractError(f"sigma must be a finite positive number, got {self.sigma!r}")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "sigma", sigma)

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape.of(self.Y)


def _check_matching(problem: DenoiseProblem, factors: SvdFactors) -> None:
    """Reject factors whose (n, m) differ from the problem's, naming both."""
    shape = factors.shape
    if (problem.shape.n, problem.shape.m) != (shape.n, shape.m):
        raise ContractError(
            f"factors shape ({shape.n}, {shape.m}) does not match problem shape "
            f"({problem.shape.n}, {problem.shape.m})"
        )


def svd(Y: np.ndarray) -> SvdFactors:
    """Thin SVD with a deterministic sign convention.

    In each left singular vector the entry of largest magnitude is made
    non-negative (ties broken toward the lowest row index); the flipped sign
    is absorbed into the matching right singular vector, so U S V^T is
    unchanged.  Two calls on the same matrix return bitwise-identical
    factors.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ContractError(f"expected a 2-D array, got ndim={Y.ndim}")
    if Y.shape[0] < 1 or Y.shape[1] < 1:
        raise ContractError(f"matrix must be non-empty, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise ContractError("matrix contains non-finite entries")
    try:
        U, S, Vh = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    V = Vh.T.copy()
    U = U.copy()
    # np.argmax returns the first maximizer, which is the lowest row index.
    lead = np.argmax(np.abs(U), axis=0)
    cols = np.arange(U.shape[1])
    flip = U[lead, cols] < 0.0
    U[:, flip] *= -1.0
    V[:, flip] *= -1.0
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


def validate_factors(factors: SvdFactors, Y: np.ndarray | None = None) -> None:
    """Check orthonormality (and reconstruction, if Y is given) of factors."""
    U, S, V = factors.U, factors.S, factors.V
    L = S.shape[0]
    if np.any(S < 0.0) or np.any(np.diff(S) > 0.0):
        raise ContractError("singular values must be non-negative and descending")
    gram_u = np.linalg.norm(U.T @ U - np.eye(L))
    gram_v = np.linalg.norm(V.T @ V - np.eye(L))
    if gram_u > ORTHONORMALITY_TOL or gram_v > ORTHONORMALITY_TOL:
        raise FactorizationError(
            f"factor columns are not orthonormal: |U'U-I|={gram_u:.3e}, |V'V-I|={gram_v:.3e}"
        )
    if Y is not None:
        Y = np.asarray(Y, dtype=float)
        scale = max(np.linalg.norm(Y), 1.0)
        err = np.linalg.norm(reconstruct(factors, S) - Y) / scale
        if err > RECONSTRUCTION_TOL:
            raise FactorizationError(f"reconstruction error {err:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")


def write_matrix(path: str | os.PathLike | io.TextIOBase, M: np.ndarray) -> None:
    """Write a matrix as CSV with 17 significant digits per entry.

    17 digits round-trip IEEE double exactly, so read_matrix recovers the
    stored values bit for bit.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ContractError(f"expected a non-empty 2-D array, got shape {getattr(M, 'shape', None)}")
    # One %-format per row: "%.17g" % v gives the bytes of format(v, ".17g").
    # Formatting row by row keeps the Python floats of one row alive at a time.
    row_fmt = ",".join([f"%.{IO_SIGNIFICANT_DIGITS}g"] * M.shape[1])
    text = "\n".join([row_fmt % tuple(row.tolist()) for row in M]) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise ContractError(f"cannot write matrix file {os.fspath(path)}: {exc}") from exc


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
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise MatrixParseError(f"cannot read matrix file {name}: {exc}") from exc
        except UnicodeDecodeError:
            raise MatrixParseError(_non_ascii_message(path, name)) from None
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


def _non_ascii_message(path: str | os.PathLike, name: str) -> str:
    """Name the 1-based line of a file's first non-ASCII byte, counting lines
    as the parser's str.splitlines does."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = re.search(rb"[\x80-\xff]", data).start()
    lineno = len((data[:pos].decode("ascii") + "x").splitlines())
    return f"{name}: line {lineno}: byte 0x{data[pos]:02x} is not ASCII"


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
