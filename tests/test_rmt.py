"""Asymptotic spectral laws: bulk density, spike location, vector overlaps,
rank counting, and the calibrated asymptotic denoisers.

Ground truth: closed-form plug-ins of the law formulas, numerical
integration of the bulk density (it must integrate to 1), and the exact
algebraic identity linking the spike/overlap laws to the optimal bulk
shrinker,

    x * overlap_u(x) * overlap_v(x) = sqrt((rho^2 - beta - 1)^2 - 4 beta) / rho

with rho = spike_location(x), for every x above the detection threshold
beta**(1/4).

Known values (beta = 1):
    pdf(0) = 2/pi              (continuous extension of sqrt(4 - w^2)/pi)
    spike_location(1) = 2      (bulk edge; both branches agree)
    spike_location(2) = 2.5    (sqrt(2.5 * 2.5))
    overlap_u(1) = overlap_v(1) = 0   (transition point)
"""

import numpy as np
import pytest
from scipy.integrate import simpson

from svshrink import (
    AspectRatio,
    ContractError,
    DenoiseProblem,
    MatrixShape,
    SVHT_COEFF,
    Svht,
    apply,
    asymptotic_denoise,
    calibration_scale,
    estimate_rank,
    ks_distance,
    overlap_u,
    overlap_v,
    quarter_circle_cdf,
    quarter_circle_pdf,
    reconstruct,
    spike_location,
    svd,
    verify_laws,
)
from svshrink.rmt import ASYMPTOTIC_VARIANTS, OPTIMAL_SHRINK, SVHT_4SQRT3, SVST_BULK


class TestAspectRatio:
    """Edges and the detection threshold."""

    def test_square_edges(self):
        ratio = AspectRatio(1.0)
        assert ratio.edge_low == 0.0
        assert ratio.edge_high == 2.0
        assert ratio.transition == 1.0

    def test_rectangular_edges(self):
        ratio = AspectRatio(0.25)
        np.testing.assert_allclose(ratio.edge_low, 0.5)
        np.testing.assert_allclose(ratio.edge_high, 1.5)
        np.testing.assert_allclose(ratio.transition, 0.25**0.25)

    def test_of_shape_uses_min_over_max(self):
        assert AspectRatio.of(MatrixShape(50, 200)).beta == 0.25
        assert AspectRatio.of(MatrixShape(200, 50)).beta == 0.25

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            AspectRatio(0.0)
        with pytest.raises(ContractError):
            AspectRatio(1.5)


class TestQuarterCirclePdf:
    """The limiting bulk density."""

    def test_square_value_at_zero(self):
        np.testing.assert_allclose(quarter_circle_pdf(0.0, 1.0), 2.0 / np.pi, rtol=1e-12)

    def test_zero_outside_support(self):
        assert quarter_circle_pdf(2.5, 1.0) == 0.0
        assert quarter_circle_pdf(0.3, 0.25) == 0.0  # below edge_low = 0.5
        assert quarter_circle_pdf(1.7, 0.25) == 0.0

    def test_normalizes_to_one(self):
        """Composite Simpson over the support with 10^4 panels."""
        for beta in (1.0, 0.5, 0.25):
            ratio = AspectRatio(beta)
            w = np.linspace(ratio.edge_low, ratio.edge_high, 10001)
            total = simpson(quarter_circle_pdf(w, beta), x=w)
            np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_square_matches_explicit_formula(self):
        w = np.linspace(0.0, 2.0, 50)
        np.testing.assert_allclose(quarter_circle_pdf(w, 1.0), np.sqrt(4.0 - w * w) / np.pi)

    def test_rejects_negative_w(self):
        with pytest.raises(ContractError):
            quarter_circle_pdf(-0.1, 1.0)


class TestQuarterCircleCdf:
    """Numerically integrated law."""

    def test_endpoints(self):
        assert quarter_circle_cdf(0.0, 1.0) == 0.0
        np.testing.assert_allclose(quarter_circle_cdf(2.0, 1.0), 1.0)
        assert quarter_circle_cdf(5.0, 1.0) == 1.0

    def test_monotone(self):
        w = np.linspace(0.0, 2.0, 200)
        F = quarter_circle_cdf(w, 1.0)
        assert np.all(np.diff(F) >= 0.0)

    def test_median_consistent_with_pdf(self):
        """CDF at the pdf's numerical median is 0.5."""
        w = np.linspace(0.0, 2.0, 20001)
        F = quarter_circle_cdf(w, 1.0)
        median = w[np.searchsorted(F, 0.5)]
        np.testing.assert_allclose(quarter_circle_cdf(median, 1.0), 0.5, atol=1e-3)


class TestSpikeLaws:
    """Spike location rho and the overlap cosines."""

    def test_spike_location_known_values(self):
        np.testing.assert_allclose(spike_location(1.0, 1.0), 2.0)
        np.testing.assert_allclose(spike_location(2.0, 1.0), 2.5)

    def test_spike_location_plateau_below_transition(self):
        ratio = AspectRatio(1.0)
        assert spike_location(0.5, ratio) == ratio.edge_high
        ratio = AspectRatio(0.5)
        assert spike_location(0.1, ratio) == ratio.edge_high

    def test_spike_location_asymptote(self):
        """rho -> x for strong signals: at x = 10, beta = 0.5, within 2%."""
        r = spike_location(10.0, 0.5)
        assert 1.0 <= r / 10.0 <= 1.02

    def test_spike_location_increasing_and_dominates(self):
        """Strictly increasing above the transition, always >= max(edge, x)."""
        for beta in (0.25, 0.5, 1.0):
            ratio = AspectRatio(beta)
            x = np.linspace(ratio.transition + 1e-6, 8.0, 500)
            r = spike_location(x, beta)
            assert np.all(np.diff(r) > 0.0)
            assert np.all(r >= np.maximum(ratio.edge_high, x) - 1e-12)

    def test_overlaps_vanish_at_transition(self):
        assert overlap_u(1.0, 1.0) == 0.0
        assert overlap_v(1.0, 1.0) == 0.0

    def test_overlaps_approach_one(self):
        assert overlap_u(100.0, 1.0) >= 0.9999
        assert overlap_v(100.0, 1.0) >= 0.9999

    def test_overlaps_bounded(self):
        x = np.linspace(0.1, 20.0, 300)
        for beta in (0.3, 1.0):
            for fn in (overlap_u, overlap_v):
                vals = fn(x, beta)
                assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_shrinker_identity(self):
        """x * overlap_u * overlap_v equals the optimal bulk shrinker
        evaluated at the spike location, at 100 random (x, beta) points."""
        rng = np.random.default_rng(60)
        for _ in range(100):
            beta = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(beta**0.25 + 1e-3, 6.0))
            rho = spike_location(x, beta)
            lhs = x * overlap_u(x, beta) * overlap_v(x, beta)
            rhs = np.sqrt((rho**2 - beta - 1.0) ** 2 - 4.0 * beta) / rho
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_rejects_non_positive_x(self):
        with pytest.raises(ContractError):
            spike_location(0.0, 1.0)
        with pytest.raises(ContractError):
            overlap_u(-1.0, 1.0)


class TestCalibration:
    """The scale that maps data onto the laws: sqrt(max(n, m)) * sigma."""

    def test_conventions_agree_for_square(self):
        """For a square matrix the larger dimension is the row count, so
        the scale is sqrt(n) * sigma."""
        shape = MatrixShape(50, 50)
        assert calibration_scale(shape, 0.5) == float(np.sqrt(50) * 0.5)

    def test_conventions_differ_for_wide(self):
        """A wide matrix calibrates by its column count, not its row count."""
        shape = MatrixShape(50, 200)
        np.testing.assert_allclose(calibration_scale(shape, 1.0), np.sqrt(200))
        assert not np.isclose(calibration_scale(shape, 1.0), np.sqrt(50))

    def test_rejects_bad_inputs(self):
        shape = MatrixShape(10, 10)
        with pytest.raises(ContractError):
            calibration_scale(shape, 0.0)


class TestEstimateRank:
    """Counting calibrated singular values above the bulk edge."""

    def test_all_zero_spectrum(self):
        est = estimate_rank(np.zeros(5), MatrixShape(5, 8), 1.0)
        assert est.r_star == 0

    def test_pure_noise_rarely_detects(self):
        """200x200 standard noise: mean detected rank <= 1 over 20 trials."""
        rng = np.random.default_rng(61)
        shape = MatrixShape(200, 200)
        counts = []
        for _ in range(20):
            S = np.linalg.svd(rng.standard_normal((200, 200)), compute_uv=False)
            counts.append(estimate_rank(S, shape, 1.0).r_star)
        assert np.mean(counts) <= 1.0

    def test_single_spike_detected(self):
        """A calibrated spike at x = 3 separates (rho(3) = 10/3 > 2): it is
        found in every trial at n = 200, and with no extra noise exceedance
        in at least 18 of 20.  The strict edge carries no safety margin, so
        one noise value crossing it is a ~10% event per trial."""
        rng = np.random.default_rng(63)
        n = 200
        shape = MatrixShape(n, n)
        estimates = []
        for _ in range(20):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            X = 3.0 * np.sqrt(n) * np.outer(u, v)  # strength 3 on the calibrated scale
            Y = X + rng.standard_normal((n, n))
            S = np.linalg.svd(Y, compute_uv=False)
            estimates.append(estimate_rank(S, shape, 1.0).r_star)
        assert all(r >= 1 for r in estimates)
        assert sum(r == 1 for r in estimates) >= 18

    def test_threshold_reported(self):
        est = estimate_rank(np.zeros(4), MatrixShape(4, 16), 1.0)
        np.testing.assert_allclose(est.threshold, 1.5)  # beta = 0.25
        np.testing.assert_allclose(est.beta, 0.25)

    def test_rejects_wrong_length(self):
        with pytest.raises(ContractError):
            estimate_rank(np.zeros(3), MatrixShape(5, 5), 1.0)

    @pytest.mark.parametrize("entry", [-1.0, np.nan])
    def test_rejects_negative_or_nan_entry(self, entry):
        with pytest.raises(ContractError, match="finite and non-negative"):
            estimate_rank(np.array([3.0, 2.0, entry]), MatrixShape(3, 5), 1.0)


class TestAsymptoticDenoise:
    """Calibrated shrink-and-rescale wrappers."""

    def test_zero_noise_limit_reproduces_signal(self):
        """With sigma = 1e-12 every value clears the edge and the optimal
        shrinker approaches the identity, so the output returns Y."""
        rng = np.random.default_rng(63)
        X = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 25))
        problem = DenoiseProblem(X, 1e-12)
        factors = svd(X + 0.0)
        out = asymptotic_denoise(problem, factors, OPTIMAL_SHRINK)
        rel = np.linalg.norm(out - X) / np.linalg.norm(X)
        assert rel < 1e-6

    def test_pure_noise_mostly_truncated(self):
        """X = 0 at 100x100: the bulk sits below the edge, so the output
        norm collapses to <= 5% of the input norm (10-trial Monte Carlo)."""
        rng = np.random.default_rng(64)
        ratios = []
        for _ in range(10):
            Y = rng.standard_normal((100, 100))
            problem = DenoiseProblem(Y, 1.0)
            out = asymptotic_denoise(problem, svd(Y), OPTIMAL_SHRINK)
            ratios.append(np.linalg.norm(out) / np.linalg.norm(Y))
        assert max(ratios) <= 0.05

    def test_hard_variant_unrolls_to_scaled_threshold(self):
        """The 4/sqrt(3) variant equals a plain hard threshold at
        mu = 4/sqrt(3) * sqrt(max(n, m)) * sigma applied at native scale."""
        rng = np.random.default_rng(65)
        Y = rng.standard_normal((40, 40)) + 3.0 * np.outer(np.ones(40), np.ones(40)) / 40
        sigma = 0.2
        problem = DenoiseProblem(Y, sigma)
        factors = svd(Y)
        via_wrapper = asymptotic_denoise(problem, factors, SVHT_4SQRT3)
        mu = SVHT_COEFF * np.sqrt(40) * sigma
        direct = reconstruct(factors, apply(Svht(mu), factors.S))
        np.testing.assert_allclose(via_wrapper, direct, atol=1e-12)

    def test_soft_variant_thresholds_at_edge(self):
        rng = np.random.default_rng(66)
        Y = rng.standard_normal((30, 30))
        problem = DenoiseProblem(Y, 1.0)
        factors = svd(Y)
        out = asymptotic_denoise(problem, factors, SVST_BULK)
        scale = np.sqrt(30)
        kept = np.maximum(factors.S / scale - 2.0, 0.0) * scale
        np.testing.assert_allclose(out, reconstruct(factors, kept), atol=1e-12)

    def test_soft_variant_wide_calibrates_by_larger_dimension(self):
        """At 20x80 (beta = 1/4) the soft threshold sits at the bulk edge
        1.5 on the sqrt(80) * sigma scale.  Only the calibrated strength-3
        spike (at about 3.2) clears it; on a sqrt(20) * sigma scale the noise
        values would reach about 2.9 and survive too."""
        rng = np.random.default_rng(67)
        u = rng.standard_normal(20)
        v = rng.standard_normal(80)
        X = 3.0 * np.sqrt(80) * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        Y = X + rng.standard_normal((20, 80))
        problem = DenoiseProblem(Y, 1.0)
        factors = svd(Y)
        out = asymptotic_denoise(problem, factors, SVST_BULK)
        scale = np.sqrt(80)
        kept = np.maximum(factors.S / scale - 1.5, 0.0) * scale
        np.testing.assert_allclose(out, reconstruct(factors, kept), atol=1e-12)
        assert np.count_nonzero(kept) == 1

    def test_unknown_variant_rejected(self):
        rng = np.random.default_rng(68)
        Y = rng.standard_normal((10, 10))
        problem = DenoiseProblem(Y, 1.0)
        with pytest.raises(ContractError):
            asymptotic_denoise(problem, svd(Y), "svht")

    def test_variant_names(self):
        assert set(ASYMPTOTIC_VARIANTS) == {"opt-shrink", "svht-4sqrt3", "svst-bulk"}


class TestKsDistance:
    """Empirical-vs-law distance used by the Monte Carlo checks."""

    def test_law_quantiles_give_small_distance(self):
        """A sample placed at exact law quantiles has KS distance ~ 1/(2N)."""
        ratio = AspectRatio(1.0)
        grid = np.linspace(0.0, 2.0, 100001)
        F = quarter_circle_cdf(grid, ratio)
        targets = (np.arange(1, 201) - 0.5) / 200
        sample = np.interp(targets, F, grid)
        assert ks_distance(sample, ratio) <= 1.0 / 200 + 1e-3

    def test_shifted_sample_gives_large_distance(self):
        sample = np.full(100, 1.99)
        assert ks_distance(sample, 1.0) > 0.5

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            ks_distance(np.array([]), 1.0)


class TestVerifyLaws:
    """Monte Carlo law verification harness."""

    def test_all_laws_pass_at_n_400(self):
        checks = verify_laws(400, 1.0, 10, 20260818)
        names = [c.name for c in checks]
        assert names == [
            "bulk-edge",
            "quarter-circle-ks",
            "spike-location-x1.5",
            "spike-location-x2",
            "spike-location-x3",
            "overlap-u-x2",
        ]
        for check in checks:
            assert check.passed, check

    def test_deterministic_given_seed(self):
        a = verify_laws(100, 1.0, 3, 7)
        b = verify_laws(100, 1.0, 3, 7)
        assert [(c.name, c.statistic) for c in a] == [(c.name, c.statistic) for c in b]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            verify_laws(1, 1.0, 10, 0)
        with pytest.raises(ContractError):
            verify_laws(100, 1.0, 0, 0)
