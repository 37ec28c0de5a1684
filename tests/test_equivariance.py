"""Equivariance laws of every spectral estimator on tall, wide and square
matrices.

An estimator that keeps the singular vectors of Y and maps its spectrum by a
rule fitted to (spectrum, shape, sigma) must satisfy

- transpose equivariance: denoise(Y^T) = denoise(Y)^T, because Y and Y^T
  share the spectrum and |n - m|, so every fit and every SURE value agrees;
- scale equivariance: denoise(cY, c*sigma) = c * denoise(Y, sigma), because
  every fitted parameter either scales with the spectrum (thresholds, widths)
  or is scale free (expansion coefficients, rank indices);
- orthogonal invariance: denoise(QYR) = Q denoise(Y) R for orthogonal Q and
  R, because QYR has the spectrum of Y and the singular vectors QU and R^T V.

The SURE-fitted rules (svlet, svst, atn, svlt) and the calibrated asymptotic
rules (opt-shrink, svht-4sqrt3, svst-bulk) are covered alike.  The calibrated
rules divide the spectrum by calibration_scale, sqrt(max(n, m)) * sigma,
which a matrix and its transpose share.

The SVDs of Y, Y^T and QYR agree only to rounding, so the transpose and
orthogonal laws hold to 1e-10 relative.  A grid search may then pick a
different winner when two candidates tie to rounding; the law is then that
the two winners' SURE values tie to 1e-12, not a looser tolerance on the
estimate.  Scaling by a power of two is exact in floating point, so that law
is bitwise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from svshrink import (
    DenoiseProblem,
    MatrixShape,
    apply,
    asymptotic_denoise,
    calibration_scale,
    reconstruct,
    solve_svlet,
    svd,
    tune_grid,
)
from svshrink.rmt import ASYMPTOTIC_VARIANTS

LAW_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
METHODS = ("svlet(C=10,K=2)", "svst", "atn", "svlt") + ASYMPTOTIC_VARIANTS


@st.composite
def problems(draw):
    """A seeded rank-r signal plus noise; L = min(n, m) >= 4 so the K = 2
    expansion always has more singular values than coefficients."""
    L = draw(st.integers(4, 10))
    extra = draw(st.integers(1, 8))
    n, m = draw(st.sampled_from([(L + extra, L), (L, L + extra), (L, L)]))
    rank = draw(st.integers(1, L))
    sigma = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    return DenoiseProblem(Y=X + sigma * rng.standard_normal((n, m)), sigma=sigma)


def denoise(problem, method):
    """(estimate, winner's index in the grid trace, its SURE value); rules
    without a search report index 0 and, for the calibrated ones, SURE 0."""
    factors = svd(problem.Y)
    if method in ASYMPTOTIC_VARIANTS:
        return asymptotic_denoise(problem, factors, method), 0, 0.0
    if method == "svlet(C=10,K=2)":
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        return reconstruct(factors, apply(solved.rule, factors.S)), 0, solved.report.sure
    report = tune_grid(problem, factors, method)
    winner = [value for _, value in report.trace].index(report.sure)
    return reconstruct(factors, apply(report.rule, factors.S)), winner, report.sure


def assert_same_estimate(problem, first, second, expected):
    """The law `second = expected`, where `first` is denoise(problem) and
    `second` the denoised transformed problem; a winner flip must be a
    SURE tie."""
    Xhat, winner, value = first
    Xhat_t, winner_t, value_t = second
    if winner_t != winner:
        n, m = problem.Y.shape
        scale = max(abs(value), abs(value_t), n * m * problem.sigma**2)
        assert abs(value_t - value) <= 1e-12 * scale, (winner, winner_t, value, value_t)
    else:
        assert np.linalg.norm(Xhat_t - expected) <= 1e-10 * np.linalg.norm(expected)


@LAW_SETTINGS
@given(problems(), st.sampled_from(METHODS))
def test_transpose_equivariance(problem, method):
    first = denoise(problem, method)
    second = denoise(DenoiseProblem(Y=problem.Y.T, sigma=problem.sigma), method)
    assert_same_estimate(problem, first, second, first[0].T)


@LAW_SETTINGS
@given(problems(), st.sampled_from(METHODS), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
def test_scale_equivariance(problem, method, c):
    Xhat, winner, value = denoise(problem, method)
    scaled, winner_c, value_c = denoise(DenoiseProblem(Y=c * problem.Y, sigma=c * problem.sigma), method)
    assert winner_c == winner
    assert value_c == c * c * value
    np.testing.assert_array_equal(scaled, c * Xhat)


@LAW_SETTINGS
@given(problems(), st.sampled_from(METHODS), st.integers(0, 2**32 - 1))
def test_orthogonal_invariance(problem, method, seed):
    n, m = problem.Y.shape
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    R = np.linalg.qr(rng.standard_normal((m, m)))[0]
    first = denoise(problem, method)
    second = denoise(DenoiseProblem(Y=Q @ problem.Y @ R, sigma=problem.sigma), method)
    assert_same_estimate(problem, first, second, Q @ first[0] @ R)


def test_calibration_scale_is_sqrt_max_dim_times_sigma():
    """A 50x200 matrix and its transpose both calibrate by sqrt(200) * sigma."""
    for shape in (MatrixShape(50, 200), MatrixShape(200, 50)):
        assert calibration_scale(shape, 0.5) == float(np.sqrt(200) * 0.5)
