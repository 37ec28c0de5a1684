"""Exception hierarchy shared by all svshrink modules.

Two branches matter to callers: ContractError (bad inputs or parameters,
CLI exit code 2) and NumericalError (a computation that was attempted but
failed, CLI exit code 3).
"""


class SvshrinkError(Exception):
    """Base class for every error raised by this package."""


class ContractError(SvshrinkError, ValueError):
    """An input violated a documented precondition or parameter range."""


class MatrixParseError(ContractError):
    """A matrix file could not be parsed; the message names the line."""


class NumericalError(SvshrinkError, RuntimeError):
    """A numerical routine failed on otherwise admissible input."""


class FactorizationError(NumericalError):
    """The SVD backend did not converge or returned non-finite factors."""


class DegenerateSpectrumError(NumericalError):
    """A spectrum has a zero or (numerically) repeated singular value, or
    its top value or the noise level is too large to square."""


class SolverFailureError(NumericalError):
    """A linear system could not be solved to the required accuracy."""
