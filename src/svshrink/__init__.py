"""Singular-value shrinkage denoising with closed-form SURE tuning.

Estimate a low-rank (or any-rank) signal matrix X from Y = X + sigma * G by
keeping the singular vectors of Y and shrinking its singular values.  The
headline estimator solves a small linear system for the risk-optimal
coefficients of a smooth shrinkage expansion; classical thresholding rules,
their SURE grid searches, calibrated asymptotic shrinkers, and a
reproducible benchmark harness ride along.

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

from ._version import __version__
from .bench import (
    DEFAULT_C,
    DEFAULT_K,
    DEFAULT_TRIALS,
    PAPER_C_VALUES,
    PAPER_K_VALUES,
    ExperimentGrid,
    MethodSpec,
    NmseRow,
    NmseTable,
    SensitivityReport,
    TimingRow,
    generate_problem,
    paper_preset,
    parse_method,
    run_sweep,
    sensitivity_sweep,
    timing_report,
)
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
    svlet_clamp_gap,
    tune_grid,
)

__all__ = [
    "__version__",
    "ASYMPTOTIC_VARIANTS",
    "DEFAULT_C",
    "DEFAULT_K",
    "DEFAULT_TRIALS",
    "GAMMA_MAX",
    "OPTIMAL_SHRINK",
    "GAP_TOL_FACTOR",
    "IO_ROUNDTRIP_TOL",
    "PAPER_C_VALUES",
    "PAPER_K_VALUES",
    "SVHT_COEFF",
    "Atn",
    "AspectRatio",
    "ContractError",
    "DegenerateSpectrumError",
    "DenoiseProblem",
    "ExperimentGrid",
    "FactorizationError",
    "Identity",
    "LawCheck",
    "MatrixParseError",
    "MatrixShape",
    "MethodSpec",
    "NmseRow",
    "NmseTable",
    "NumericalError",
    "RankEstimate",
    "RmtOptimal",
    "SensitivityReport",
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
    "TimingRow",
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
    "generate_problem",
    "ks_distance",
    "overlap_u",
    "overlap_v",
    "paper_preset",
    "parse_method",
    "quarter_circle_cdf",
    "quarter_circle_pdf",
    "read_matrix",
    "reconstruct",
    "run_sweep",
    "sensitivity_sweep",
    "solve_svlet",
    "spike_location",
    "sure",
    "svd",
    "svlet_clamp_gap",
    "timing_report",
    "tune_grid",
    "verify_laws",
    "write_matrix",
]
