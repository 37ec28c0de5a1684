"""Singular-value shrinkage denoising with closed-form SURE tuning.

Estimate a low-rank (or any-rank) signal matrix X from Y = X + sigma * G by
keeping the singular vectors of Y and shrinking its singular values.  The
headline estimator solves a small linear system for the risk-optimal
coefficients of a smooth shrinkage expansion; classical thresholding rules,
their SURE grid searches and calibrated asymptotic shrinkers ride along.
The benchmark harness is the separate module `svshrink.bench`.

>>> import numpy as np, svshrink
>>> rng = np.random.default_rng(7)
>>> X = rng.standard_normal((40, 8)) @ rng.standard_normal((8, 30))
>>> problem = svshrink.DenoiseProblem(Y=X + 0.5 * rng.standard_normal((40, 30)), sigma=0.5)
>>> factors = svshrink.svd(problem.Y)
>>> solved = svshrink.solve_svlet(problem, factors, K=2, C=10.0)
>>> Xhat = svshrink.reconstruct(factors, svshrink.apply(solved.rule, factors.S))
>>> float(np.sum((Xhat - X) ** 2) / np.sum(X * X)) < 0.2
True
"""

# The one statement of the version: pyproject.toml reads it from here.
__version__ = "0.1.0"

from .errors import (
    ContractError,
    DegenerateSpectrumError,
    FactorizationError,
    MatrixParseError,
    NumericalError,
    SolverFailureError,
    SvshrinkError,
)
from .rmt import (
    ASYMPTOTIC_VARIANTS,
    OPTIMAL_SHRINK,
    SVHT_COEFF,
    AspectRatio,
    LawCheck,
    RankEstimate,
    asymptotic_denoise,
    calibration_scale,
    estimate_rank,
    ks_distance,
    overlap_u,
    overlap_v,
    quarter_circle_cdf,
    quarter_circle_pdf,
    spike_location,
    verify_laws,
)
from .shrinkage import (
    GAMMA_MAX,
    Atn,
    Identity,
    RmtOptimal,
    ShrinkageRule,
    Svht,
    Svlet,
    Svlt,
    Svst,
    Zero,
    apply,
    derivative,
    dog_basis,
    dog_basis_deriv,
)
from .spectral import (
    IO_ROUNDTRIP_TOL,
    DenoiseProblem,
    MatrixShape,
    SvdFactors,
    eym_truncate,
    read_matrix,
    reconstruct,
    svd,
    write_matrix,
)
from .sure import (
    GAP_TOL_FACTOR,
    SureReport,
    SvletSolve,
    divergence,
    solve_svlet,
    sure,
    tune_grid,
)

__all__ = [
    "__version__",
    "ASYMPTOTIC_VARIANTS",
    "GAMMA_MAX",
    "OPTIMAL_SHRINK",
    "GAP_TOL_FACTOR",
    "IO_ROUNDTRIP_TOL",
    "SVHT_COEFF",
    "Atn",
    "AspectRatio",
    "ContractError",
    "DegenerateSpectrumError",
    "DenoiseProblem",
    "FactorizationError",
    "Identity",
    "LawCheck",
    "MatrixParseError",
    "MatrixShape",
    "NumericalError",
    "RankEstimate",
    "RmtOptimal",
    "ShrinkageRule",
    "SolverFailureError",
    "SureReport",
    "SvdFactors",
    "Svht",
    "Svlet",
    "SvletSolve",
    "Svlt",
    "Svst",
    "SvshrinkError",
    "Zero",
    "apply",
    "asymptotic_denoise",
    "calibration_scale",
    "derivative",
    "divergence",
    "dog_basis",
    "dog_basis_deriv",
    "estimate_rank",
    "eym_truncate",
    "ks_distance",
    "overlap_u",
    "overlap_v",
    "quarter_circle_cdf",
    "quarter_circle_pdf",
    "read_matrix",
    "reconstruct",
    "solve_svlet",
    "spike_location",
    "sure",
    "svd",
    "tune_grid",
    "verify_laws",
    "write_matrix",
]
