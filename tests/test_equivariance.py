"""Equivariance laws of the SURE-fitted estimators on tall, wide and square
matrices.

An estimator that keeps the singular vectors of Y and maps its spectrum by a
rule fitted to (spectrum, shape, sigma) must satisfy

- transpose equivariance: denoise(Y^T) = denoise(Y)^T, because Y and Y^T
  share the spectrum and |n - m|, so every fit and every SURE value agrees;
- scale equivariance: denoise(cY, c*sigma) = c * denoise(Y, sigma), because
  every fitted parameter either scales with the spectrum (thresholds, widths)
  or is scale free (expansion coefficients, rank indices).

The SVDs of Y and Y^T agree only to rounding, so the transpose law holds to
1e-10 relative.  A grid search may then pick a different winner when two
candidates tie to rounding; the law is then that the two winners' SURE values
tie to 1e-12, not a looser tolerance on the estimate.  Scaling by a power of
two is exact in floating point, so that law is bitwise.

The calibrated asymptotic rules are not covered: their non-square
calibration divides by sqrt(n) * sigma and is not transpose equivariant.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from svshrink import DenoiseProblem, apply, reconstruct, solve_svlet, svd, tune_grid

LAW_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
METHODS = ("svlet(C=10,K=2)", "svst", "atn", "svlt")


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
    """(estimate, winner's index in the grid trace, its SURE value)."""
    factors = svd(problem.Y)
    if method == "svlet(C=10,K=2)":
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        return reconstruct(factors, apply(solved.rule, factors.S)), 0, solved.report.sure
    report = tune_grid(problem, factors, method)
    winner = [value for _, value in report.trace].index(report.sure)
    return reconstruct(factors, apply(report.rule, factors.S)), winner, report.sure


@LAW_SETTINGS
@given(problems(), st.sampled_from(METHODS))
def test_transpose_equivariance(problem, method):
    Xhat, winner, value = denoise(problem, method)
    Xhat_t, winner_t, value_t = denoise(DenoiseProblem(Y=problem.Y.T, sigma=problem.sigma), method)
    if winner_t != winner:
        n, m = problem.Y.shape
        scale = max(abs(value), abs(value_t), n * m * problem.sigma**2)
        assert abs(value_t - value) <= 1e-12 * scale, (winner, winner_t, value, value_t)
    else:
        assert np.linalg.norm(Xhat_t.T - Xhat) <= 1e-10 * np.linalg.norm(Xhat)


@LAW_SETTINGS
@given(problems(), st.sampled_from(METHODS), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
def test_scale_equivariance(problem, method, c):
    Xhat, winner, value = denoise(problem, method)
    scaled, winner_c, value_c = denoise(DenoiseProblem(Y=c * problem.Y, sigma=c * problem.sigma), method)
    assert winner_c == winner
    assert value_c == c * c * value
    np.testing.assert_array_equal(scaled, c * Xhat)
