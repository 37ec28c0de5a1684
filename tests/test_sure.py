"""Unbiased risk estimation: divergence, SURE reports, the closed-form
expansion solve, and grid tuning.

Ground truth: a brute-force double-loop evaluation of the divergence

    div = sum_i eta'(y_i) + |n-m| sum_i eta(y_i)/y_i
        + 2 sum_{i != j} y_i eta(y_i) / (y_i^2 - y_j^2),

the algebraic identity div(Identity) = n*m (paired cross terms sum to 1,
so L + |n-m|L + L(L-1) = n*m), the closed-form K=1 solution
a_1 = 1 - n*m*sigma^2 / sum(y_i^2), and exhaustive trace inspection for
grid tuning (the tuner must return the argmin of its own trace).
"""

import gc
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from svshrink import (
    ASYMPTOTIC_VARIANTS,
    Atn,
    ContractError,
    DegenerateSpectrumError,
    DenoiseProblem,
    Identity,
    MatrixShape,
    RmtOptimal,
    SolverFailureError,
    SvdFactors,
    Svht,
    Svlet,
    Svlt,
    Svst,
    Zero,
    apply,
    asymptotic_denoise,
    derivative,
    divergence,
    dog_basis,
    dog_basis_deriv,
    solve_svlet,
    sure,
    svd,
    svlet_clamp_gap,
    tune_grid,
)
from svshrink.sure import (
    CONDITION_LIMIT,
    SOLVE_RESIDUAL_RTOL,
    _divergences,
    _scores,
    _spectral_pieces,
    _upper_half_grid,
)


def scored_formula(rule, s):
    """Values and derivatives SURE scores, built from public pieces: the
    unclamped expansion dog_basis(s, K, T) @ a for Svlet, apply and
    derivative for every other rule."""
    if isinstance(rule, Svlet):
        return dog_basis(s, rule.K, rule.T) @ rule.a, dog_basis_deriv(s, rule.K, rule.T) @ rule.a
    ders = np.array([derivative(rule, y, i + 1) for i, y in enumerate(s)])
    return apply(rule, s), ders


def brute_force_divergence(spectrum, rule, shape):
    """Direct double-loop transcription of the divergence formula."""
    s = np.asarray(spectrum, dtype=float)
    vals, ders = scored_formula(rule, s)
    total = float(np.sum(ders)) + abs(shape.n - shape.m) * float(np.sum(vals / s))
    for i in range(len(s)):
        for j in range(len(s)):
            if i != j:
                total += 2.0 * s[i] * vals[i] / (s[i] ** 2 - s[j] ** 2)
    return total


def random_problem(rng, n, m, sigma=0.5):
    Y = rng.standard_normal((n, m))
    problem = DenoiseProblem(Y, sigma)
    return problem, svd(Y)


class TestDivergence:
    """Closed-form divergence against the double-loop oracle."""

    def test_identity_gives_nm(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(2, 40))
            factors = svd(rng.standard_normal((n, m)))
            div = divergence(factors.S, Identity(), MatrixShape(n, m))
            np.testing.assert_allclose(div, n * m, rtol=1e-9)

    def test_zero_rule_gives_zero(self):
        factors = svd(np.random.default_rng(31).standard_normal((6, 9)))
        assert divergence(factors.S, Zero(), MatrixShape(6, 9)) == 0.0

    def test_svst_square_closed_form(self):
        """n = m, all entries above lam: L + 2 sum_{i!=j} y_i (y_i - lam)/(y_i^2 - y_j^2)."""
        s = np.array([5.0, 4.0, 3.0])
        lam = 1.0
        shape = MatrixShape(3, 3)
        expected = 3.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected += 2.0 * s[i] * (s[i] - lam) / (s[i] ** 2 - s[j] ** 2)
        np.testing.assert_allclose(divergence(s, Svst(lam), shape), expected, rtol=1e-12)

    def test_matches_brute_force_random_rules(self):
        rng = np.random.default_rng(32)
        # The last expansion is negative below y = sqrt(2 ln 20) and positive
        # above it, so SURE must score it unclamped on part of each spectrum.
        negative_part = Svlet(K=2, T=1.0, a=np.array([0.1, -2.0]))
        rules = [
            Identity(),
            Zero(),
            Svht(1.5),
            Svst(0.8),
            Atn(tau=0.6, gamma=3.0),
            Svlt(p1=2.0, p2=2.5, p3=0.3),
            Svlet(K=2, T=1.0, a=np.array([0.7, -0.2])),
            negative_part,
            RmtOptimal(0.5),
        ]
        mixed_signs = 0
        for _ in range(10):
            n = int(rng.integers(3, 15))
            m = int(rng.integers(3, 15))
            factors = svd(rng.standard_normal((n, m)))
            shape = MatrixShape(n, m)
            for rule in rules:
                np.testing.assert_allclose(
                    divergence(factors.S, rule, shape),
                    brute_force_divergence(factors.S, rule, shape),
                    rtol=1e-10,
                )
            raw, _ = scored_formula(negative_part, factors.S)
            mixed_signs += bool(np.any(raw < 0.0) and np.any(raw > 0.0))
        assert mixed_signs > 0

    def test_rejects_zero_singular_value(self):
        with pytest.raises(DegenerateSpectrumError, match="#3"):
            divergence(np.array([2.0, 1.0, 0.0]), Identity(), MatrixShape(3, 3))

    def test_rejects_tied_pair_naming_both(self):
        with pytest.raises(DegenerateSpectrumError, match="#2 and #3"):
            divergence(np.array([2.0, 1.0, 1.0]), Identity(), MatrixShape(3, 3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractError):
            divergence(np.array([2.0, 1.0]), Identity(), MatrixShape(3, 3))

    @pytest.mark.parametrize(
        "spectrum, message",
        [
            (np.array([[2.0, 1.0, 0.5]]), "must be 1-D"),
            (np.array([2.0, np.nan, 0.5]), "non-finite entries"),
            (np.array([1.0, 2.0, 0.5]), "sorted in descending order"),
            (np.array([2.0, 1.0, -0.5]), "negative entries"),
        ],
    )
    def test_rejects_malformed_spectrum(self, spectrum, message):
        with pytest.raises(ContractError, match=message):
            divergence(spectrum, Identity(), MatrixShape(3, 3))


def row_dot_divergences(vals, ders, s, rowsums, shape):
    """The divergence as it was first batched: one np.dot call per row."""
    div = ders.sum(axis=-1)
    div += abs(shape.n - shape.m) * (vals / s).sum(axis=-1)
    div += 2.0 * np.array([np.dot(row, rowsums) for row in s * vals])
    return div


class TestBatchedDivergence:
    """The batched divergence against one np.dot per row, bit for bit."""

    @pytest.mark.parametrize("n, m", [(1, 6), (7, 1), (9, 5), (5, 9), (50, 50), (40, 80), (120, 90)])
    @pytest.mark.parametrize("rows", [1, 37, 100])
    def test_batch_equals_row_dots_bitwise(self, n, m, rows):
        rng = np.random.default_rng([90, n, m, rows])
        shape = MatrixShape(n, m)
        s, _, rowsums = _spectral_pieces(svd(rng.standard_normal((n, m))).S, shape)
        # Values of both signs and exact zeros, as clamped and unclamped rules give.
        vals = s * rng.uniform(-0.5, 1.0, size=(rows, s.shape[0]))
        vals[rng.random(vals.shape) < 0.3] = 0.0
        ders = rng.uniform(0.0, 1.5, size=vals.shape)
        batched = _divergences(vals, ders, s, rowsums, shape)
        reference = row_dot_divergences(vals, ders, s, rowsums, shape)
        assert batched.shape == (rows,)
        assert batched.tobytes() == reference.tobytes()
        # A row scored alone, as sure() scores one rule, gives the bits it
        # has in the batch.
        for k in range(rows):
            alone = _divergences(vals[k], ders[k], s, rowsums, shape)
            assert alone.shape == ()
            assert float(alone) == float(batched[k])
            assert np.signbit(alone) == np.signbit(batched[k])

    @pytest.mark.parametrize("n, m", [(1, 6), (7, 1), (9, 5), (5, 9), (50, 50), (40, 80), (120, 90)])
    @pytest.mark.parametrize("rows", [1, 37, 100])
    def test_tiled_batch_scores_equal_rows_alone_bitwise(self, n, m, rows):
        """A batch scored as tune_grid scores it, against the leading rows of
        a tiled spectrum and of a reused scratch buffer, gives every row's
        SURE, residual and divergence the bits and sign of that row scored
        alone, as sure() scores one rule."""
        rng = np.random.default_rng([91, n, m, rows])
        shape = MatrixShape(n, m)
        s, _, rowsums = _spectral_pieces(svd(rng.standard_normal((n, m))).S, shape)
        tiled = np.tile(s, (100, 1))
        work = np.full_like(tiled, np.nan)
        sigma = 0.7
        for _ in range(2):  # the second pass reuses the buffer the first wrote
            vals = s * rng.uniform(-0.5, 1.0, size=(rows, s.shape[0]))
            vals[rng.random(vals.shape) < 0.3] = 0.0
            ders = rng.uniform(0.0, 1.5, size=vals.shape)
            batched = _scores(vals, ders, tiled[:rows], rowsums, shape, sigma, work[:rows])
            for k in range(rows):
                alone = _scores(vals[k], ders[k], s, rowsums, shape, sigma)
                for whole, one in zip(batched, alone):
                    assert whole.shape == (rows,) and one.shape == ()
                    assert float(one) == float(whole[k])
                    assert np.signbit(one) == np.signbit(whole[k])


class TestSureReports:
    """SURE values and the reconstruction identity."""

    def assert_report_identity(self, report, problem):
        n, m = problem.shape.n, problem.shape.m
        sigma2 = problem.sigma**2
        expected = -n * m * sigma2 + report.residual + 2.0 * sigma2 * report.divergence
        np.testing.assert_allclose(report.sure, expected, rtol=1e-10)

    def test_identity_rule_sure_is_nm_sigma2(self):
        rng = np.random.default_rng(33)
        problem, factors = random_problem(rng, 8, 11, sigma=0.7)
        report = sure(problem, factors, Identity())
        np.testing.assert_allclose(report.sure, 8 * 11 * 0.49, rtol=1e-10)
        assert report.residual == 0.0
        self.assert_report_identity(report, problem)

    def test_zero_rule_sure(self):
        rng = np.random.default_rng(34)
        problem, factors = random_problem(rng, 7, 7, sigma=1.2)
        report = sure(problem, factors, Zero())
        expected = -49 * 1.44 + float(np.sum(factors.S**2))
        np.testing.assert_allclose(report.sure, expected, rtol=1e-10)
        assert report.divergence == 0.0

    def test_identity_holds_across_rules(self):
        rng = np.random.default_rng(35)
        problem, factors = random_problem(rng, 10, 6, sigma=0.4)
        rules = [
            Identity(),
            Zero(),
            Svst(0.5),
            Atn(tau=0.4, gamma=2.0),
            Svlet(K=2, T=4.0, a=np.array([0.9, -0.1])),
        ]
        for rule in rules:
            self.assert_report_identity(sure(problem, factors, rule), problem)

    def test_rejects_mismatched_factors(self):
        """sure, solve_svlet, tune_grid, svlet_clamp_gap and every
        asymptotic_denoise variant name both shapes."""
        rng = np.random.default_rng(36)
        problem, _ = random_problem(rng, 5, 5)
        other = svd(rng.standard_normal((6, 5)))
        message = re.escape("factors shape (6, 5) does not match problem shape (5, 5)")
        with pytest.raises(ContractError, match=message):
            sure(problem, other, Identity())
        with pytest.raises(ContractError, match=message):
            solve_svlet(problem, other, K=2, C=10.0)
        with pytest.raises(ContractError, match=message):
            tune_grid(problem, other, "svst")
        # Shapes are checked before the spectrum: zero-spectrum 9x7 factors
        # are a mismatch, not a degenerate spectrum, for every entry point.
        zeros = svd(np.zeros((9, 7)))
        message97 = re.escape("factors shape (9, 7) does not match problem shape (5, 5)")
        for call in (
            lambda: sure(problem, zeros, Identity()),
            lambda: solve_svlet(problem, zeros, K=2, C=10.0),
            lambda: tune_grid(problem, zeros, "svst"),
        ):
            with pytest.raises(ContractError, match=message97):
                call()
        rule = Svlet(K=2, T=4.0, a=np.array([0.9, -0.1]))
        with pytest.raises(ContractError, match=message):
            svlet_clamp_gap(problem, other, rule)
        for variant in ASYMPTOTIC_VARIANTS:
            with pytest.raises(ContractError, match=message):
                asymptotic_denoise(problem, other, variant)

    def test_clamp_gap_checks_factors(self):
        """A 5x5 problem with 9x7 factors, an unusable spectrum, or a rule
        that is not a solved expansion raises."""
        rng = np.random.default_rng(48)
        problem, factors = random_problem(rng, 5, 5)
        rule = Svlet(K=2, T=4.0, a=np.array([0.9, -0.1]))
        with pytest.raises(ContractError):
            svlet_clamp_gap(problem, svd(rng.standard_normal((9, 7))), rule)
        zeroed = SvdFactors(U=factors.U, S=np.zeros(5), V=factors.V)
        with pytest.raises(DegenerateSpectrumError):
            svlet_clamp_gap(problem, zeroed, rule)
        with pytest.raises(ContractError, match="solved expansion rules only"):
            svlet_clamp_gap(problem, factors, Svst(1.0))

    def test_svlet_residual_uses_unclamped_form(self):
        """The risk engine scores the raw expansion, not the clamped apply."""
        rng = np.random.default_rng(37)
        problem, factors = random_problem(rng, 6, 6, sigma=1.0)
        rule = Svlet(K=2, T=0.5, a=np.array([0.05, -3.0]))
        report = sure(problem, factors, rule)
        gap = svlet_clamp_gap(problem, factors, rule)
        np.testing.assert_allclose(report.residual, gap["residual_unclamped"], rtol=1e-12)
        assert gap["gap"] > 0.0  # the clamp genuinely bites on this rule
        assert gap["residual_clamped"] != gap["residual_unclamped"]


class TestSolveSvlet:
    """Closed-form normal-system solve for the expansion coefficients."""

    def test_k1_closed_form(self):
        """a_1 = 1 - n*m*sigma^2 / sum(y_i^2), derived by collapsing the
        cross-term sums exactly as in the div(Identity) = n*m identity."""
        rng = np.random.default_rng(38)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            m = int(rng.integers(3, 25))
            sigma = float(rng.uniform(0.1, 2.0))
            problem = DenoiseProblem(rng.standard_normal((n, m)), sigma)
            factors = svd(problem.Y)
            solved = solve_svlet(problem, factors, K=1, C=10.0)
            expected = 1.0 - n * m * sigma**2 / float(np.sum(factors.S**2))
            np.testing.assert_allclose(solved.a[0], expected, rtol=1e-10)

    def test_vanishing_noise_fits_identity(self):
        """With sigma = 1e-12 the solve reduces to least squares on eta = y,
        so the expansion reproduces the observed spectrum."""
        rng = np.random.default_rng(39)
        Y = rng.standard_normal((20, 15))
        problem = DenoiseProblem(Y, 1e-12)
        factors = svd(Y)
        for K in (1, 2, 3):
            solved = solve_svlet(problem, factors, K=K, C=1e13)
            fitted = dog_basis(factors.S, K, solved.rule.T) @ solved.a
            np.testing.assert_allclose(fitted, factors.S, rtol=1e-6)

    def test_normal_matrix_symmetric_psd(self):
        rng = np.random.default_rng(40)
        problem, factors = random_problem(rng, 12, 12, sigma=0.8)
        solved = solve_svlet(problem, factors, K=3, C=5.0)
        np.testing.assert_allclose(solved.M, solved.M.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(solved.M)
        assert np.all(eigs >= -1e-10 * eigs[-1])

    def test_solve_residual_bound(self):
        rng = np.random.default_rng(41)
        problem, factors = random_problem(rng, 15, 10, sigma=0.6)
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        resid = np.linalg.norm(solved.M @ solved.a - solved.c)
        assert resid <= SOLVE_RESIDUAL_RTOL * np.linalg.norm(solved.c)

    def test_minimizes_quadratic_objective(self):
        """SURE as a function of a is the quadratic a'Ma - 2c'a + const, so
        no dense grid point around the solution may beat it."""
        rng = np.random.default_rng(42)
        problem, factors = random_problem(rng, 10, 10, sigma=1.0)
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        best = solved.report.sure

        def sure_at(a):
            rule = Svlet(K=2, T=solved.rule.T, a=np.asarray(a))
            return sure(problem, factors, rule).sure

        for da1 in np.linspace(-0.3, 0.3, 7):
            for da2 in np.linspace(-0.3, 0.3, 7):
                candidate = sure_at([solved.a[0] + da1, solved.a[1] + da2])
                assert candidate >= best - 1e-8 * abs(best)

    def test_noise_only_beats_zero_rule(self):
        """On pure noise the solved rule's SURE cannot exceed the zero rule's
        by more than numerical slack: eta = 0 is approached within the span."""
        rng = np.random.default_rng(43)
        problem = DenoiseProblem(rng.standard_normal((50, 50)), 1.0)
        factors = svd(problem.Y)
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        zero_sure = sure(problem, factors, Zero()).sure
        assert solved.report.sure <= zero_sure + 2.0 * 1e-6

    def test_stationarity_of_solution(self):
        """Coordinate perturbations of a never decrease SURE materially."""
        rng = np.random.default_rng(44)
        problem, factors = random_problem(rng, 15, 15, sigma=0.7)
        for K in (1, 2, 3):
            solved = solve_svlet(problem, factors, K=K, C=10.0)
            base = solved.report.sure
            for k in range(K):
                for eps in (1e-4, -1e-4):
                    a = solved.a.copy()
                    a[k] += eps * (1.0 + abs(a[k]))
                    rule = Svlet(K=K, T=solved.rule.T, a=a)
                    perturbed = sure(problem, factors, rule).sure
                    assert perturbed >= base - 1e-8 * abs(base)

    def test_ridge_engages_on_ill_conditioned_system(self):
        """A huge width C makes the atoms nearly identical, driving the
        condition estimate past the limit and triggering the ridge."""
        rng = np.random.default_rng(45)
        problem, factors = random_problem(rng, 10, 10, sigma=0.5)
        solved = solve_svlet(problem, factors, K=3, C=1e9)
        assert solved.condition_estimate > CONDITION_LIMIT
        assert solved.ridge_used > 0.0

    def test_solver_failure_advises_smaller_k(self):
        from svshrink.sure import _solve_normal_system

        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([0.0, 1.0])
        with pytest.raises(SolverFailureError, match="smaller K"):
            _solve_normal_system(M, c, 2)
        with pytest.raises(SolverFailureError, match="singular even with ridge 0.000e"):
            _solve_normal_system(np.zeros((2, 2)), c, 2)

    def test_fit_count_restricts_rows(self):
        """Fitting the top-t values and their gap sums puts only those
        values in the Gram matrix."""
        from svshrink.sure import _fit_expansion, _spectral_pieces

        rng = np.random.default_rng(46)
        problem, factors = random_problem(rng, 12, 12, sigma=0.5)
        shape = factors.shape
        s, _, rowsums = _spectral_pieces(factors.S, shape)
        M_full = _fit_expansion(s[:12], rowsums[:12], shape, 0.5, 2, 5.0)[2]
        M_top = _fit_expansion(s[:3], rowsums[:3], shape, 0.5, 2, 5.0)[2]
        phi = dog_basis(factors.S, 2, 5.0)
        np.testing.assert_allclose(M_top, phi[:3].T @ phi[:3], rtol=1e-12)
        assert not np.allclose(M_full, M_top)

    def test_report_equals_sure_of_rule(self):
        """The solve scores its own basis and coefficients; that report must
        equal sure() of the returned rule, field by field and bitwise."""
        rng = np.random.default_rng(60)
        for n, m in ((12, 12), (9, 20), (20, 9)):
            problem, factors = random_problem(rng, n, m, sigma=0.7)
            for K in (1, 2, 3):
                for C in (3.0, 10.0):
                    solved = solve_svlet(problem, factors, K=K, C=C)
                    again = sure(problem, factors, solved.rule)
                    assert solved.report.rule is again.rule is solved.rule
                    assert solved.report.sure == again.sure
                    assert solved.report.residual == again.residual
                    assert solved.report.divergence == again.divergence
                    assert solved.report.trace == again.trace == ()

    def test_validates_parameters(self):
        rng = np.random.default_rng(47)
        problem, factors = random_problem(rng, 5, 5)
        for K in (0, 2.5, "2", True):
            with pytest.raises(ContractError, match="K must be an integer >= 1"):
                solve_svlet(problem, factors, K=K, C=10.0)
        with pytest.raises(ContractError):
            solve_svlet(problem, factors, K=2, C=0.0)


class TestTuneGrid:
    """Exhaustive SURE minimization over parameter grids."""

    def test_returns_argmin_of_own_trace(self):
        rng = np.random.default_rng(48)
        problem, factors = random_problem(rng, 12, 12, sigma=0.9)
        for family in ("svst", "atn", "svlt"):
            report = tune_grid(problem, factors, family)
            sures = [v for (_, v) in report.trace]
            assert report.sure == min(sures)

    def test_svst_trace_has_100_rows(self):
        rng = np.random.default_rng(49)
        problem, factors = random_problem(rng, 10, 10)
        report = tune_grid(problem, factors, "svst")
        assert len(report.trace) == 100

    def test_atn_trace_cross_product(self):
        rng = np.random.default_rng(50)
        problem, factors = random_problem(rng, 8, 8)
        report = tune_grid(problem, factors, "atn")
        assert len(report.trace) == 100 * 20

    def test_svlt_trace_cross_product(self):
        rng = np.random.default_rng(51)
        problem, factors = random_problem(rng, 8, 6)
        report = tune_grid(problem, factors, "svlt")
        assert len(report.trace) == 6 * 50  # L * offsets

    def test_svst_grid_spans_half_top_value(self):
        rng = np.random.default_rng(52)
        problem, factors = random_problem(rng, 10, 10)
        report = tune_grid(problem, factors, "svst")
        lams = [p[0] for (p, _) in report.trace]
        np.testing.assert_allclose(max(lams), 0.5 * factors.S[0])
        assert min(lams) > 0.0

    def test_dominant_noise_selects_largest_threshold(self):
        """When sigma dwarfs the data every value should be killed, so the
        largest available threshold wins."""
        rng = np.random.default_rng(53)
        Y = rng.standard_normal((10, 10))
        problem = DenoiseProblem(Y, sigma=50.0)
        factors = svd(Y)
        report = tune_grid(problem, factors, "svst")
        lams = [p[0] for (p, _) in report.trace]
        assert report.rule.lam == max(lams)

    def test_atn_gamma_grid_of_one_matches_svst(self):
        """At gamma = 1 the adaptive rule is soft thresholding, so the atn
        trace's gamma = 1 entries repeat the svst trace."""
        rng = np.random.default_rng(54)
        problem, factors = random_problem(rng, 9, 9, sigma=0.8)
        atn = tune_grid(problem, factors, "atn")
        svst = tune_grid(problem, factors, "svst")
        gamma_one = [((tau,), value) for (tau, gamma), value in atn.trace if gamma == 1.0]
        assert len(gamma_one) == len(svst.trace) == 100
        for ((tau,), atn_value), ((lam,), svst_value) in zip(gamma_one, svst.trace):
            np.testing.assert_allclose(tau, lam, rtol=1e-12)
            np.testing.assert_allclose(atn_value, svst_value, rtol=1e-12)

    def test_reported_sure_matches_reevaluation(self):
        """The winner and every trace entry equal sure() of that candidate,
        bitwise, on a tall and a wide shape."""
        rng = np.random.default_rng(55)
        families = {"svst": Svst, "atn": Atn, "svlt": Svlt}
        for n, m in ((11, 7), (7, 11)):
            problem, factors = random_problem(rng, n, m, sigma=0.6)
            for family, build in families.items():
                report = tune_grid(problem, factors, family)
                again = sure(problem, factors, report.rule)
                assert report.sure == again.sure
                for params, value in report.trace:
                    assert value == sure(problem, factors, build(*params)).sure

    def test_lexicographic_tie_break(self):
        """With p1 = 0 every logistic weight is expit(0) = 0.5 whatever p2
        is, so each p2 row of the svlt grid repeats the first exactly; the
        smallest p2 must win the tie."""
        rng = np.random.default_rng(56)
        problem, factors = random_problem(rng, 8, 8)
        report = tune_grid(problem, factors, "svlt", p1=0.0)
        rows = np.array([v for (_, v) in report.trace]).reshape(8, 50)
        assert (rows == rows[0]).all()
        assert report.rule.p2 == 1.0
        assert report.rule.p3 == report.trace[int(np.argmin(rows[0]))][0][2]

    def test_family_class_rejected(self):
        """A family is named by its string; a rule class fails like an unknown name."""
        rng = np.random.default_rng(57)
        problem, factors = random_problem(rng, 7, 7)
        for family in (Svst, "svht"):
            with pytest.raises(ContractError, match=r"family must be one of \['atn', 'svlt', 'svst'\]"):
                tune_grid(problem, factors, family)

    def test_unknown_family_rejected(self):
        rng = np.random.default_rng(58)
        problem, factors = random_problem(rng, 5, 5)
        with pytest.raises(ContractError):
            tune_grid(problem, factors, "svht")

    @pytest.mark.parametrize(
        "n, m", [(120, 100), (100, 130), (100, 100), (9, 5), (5, 9), (7, 3), (3, 7), (1, 6), (41, 80)]
    )
    def test_trace_equals_sure_bitwise(self, n, m):
        """Every trace value, on each grid and with a non-default svlt p1,
        equals sure() of that candidate's rule bit for bit, and the winner
        is the first minimum of the trace.  The candidates come in the
        order of the nested loops the grids were first written with, so
        ties go where they always went."""
        rng = np.random.default_rng(61 + n + 2 * m)
        problem, factors = random_problem(rng, n, m, sigma=0.5)
        families = {"svst": Svst, "atn": Atn, "svlt": Svlt}
        grids = [("svst", {}), ("atn", {}), ("svlt", {}), ("svlt", {"p1": 0.75})]
        y1, L = float(factors.S[0]), min(n, m)
        thresholds = _upper_half_grid(y1, 100).tolist()
        gammas = [float(g) for g in range(1, 21)]
        offsets = _upper_half_grid(y1, 50).tolist()
        for family, options in grids:
            report = tune_grid(problem, factors, family, **options)
            p1 = float(options.get("p1", 100.0))
            expected = {
                "svst": [(lam,) for lam in thresholds],
                "atn": [(tau, g) for tau in thresholds for g in gammas],
                "svlt": [(p1, float(p2), offset) for p2 in range(1, L + 1) for offset in offsets],
            }[family]
            assert [params for params, _ in report.trace] == expected
            sures = [value for _, value in report.trace]
            first_min = sures.index(min(sures))
            assert report.rule == families[family](*report.trace[first_min][0])
            assert report.sure == sures[first_min]
            for params, value in report.trace:
                assert type(value) is float
                assert value == sure(problem, factors, families[family](*params)).sure

    @pytest.mark.parametrize(
        "n, m", [(120, 100), (100, 130), (100, 100), (9, 5), (5, 9), (7, 3), (3, 7), (1, 6), (41, 80)]
    )
    def test_trace_reads_as_the_eager_tuple(self, n, m):
        """The trace, built on access, reads as the tuple of (params, sure)
        pairs of Python floats over the grid's nested loops: its pairs, len,
        indexing, repeated iteration and equality are a tuple's."""
        rng = np.random.default_rng(61 + n + 2 * m)
        problem, factors = random_problem(rng, n, m, sigma=0.5)
        families = {"svst": Svst, "atn": Atn, "svlt": Svlt}
        y1, L = float(factors.S[0]), min(n, m)
        thresholds = _upper_half_grid(y1, 100).tolist()
        gammas = [float(g) for g in range(1, 21)]
        offsets = _upper_half_grid(y1, 50).tolist()
        for family, options in [("svst", {}), ("atn", {}), ("svlt", {}), ("svlt", {"p1": 0.75})]:
            report = tune_grid(problem, factors, family, **options)
            axes = {
                "svst": (thresholds,),
                "atn": (thresholds, gammas),
                "svlt": ([float(options.get("p1", 100.0))], [float(p2) for p2 in range(1, L + 1)], offsets),
            }[family]
            sures = np.array([sure(problem, factors, families[family](*params)).sure for params in product(*axes)])
            eager = tuple(zip(product(*axes), sures.tolist()))
            lazy = tuple(report.trace)
            assert lazy == eager
            assert all(type(p) is float for params, value in lazy for p in params + (value,))
            assert len(report.trace) == len(eager)
            assert report.trace[0] == eager[0] and report.trace[-1] == eager[-1]
            assert report.trace[-len(eager)] == eager[0]
            for k in (len(eager), -len(eager) - 1):
                with pytest.raises(IndexError):
                    report.trace[k]
            assert tuple(report.trace) == lazy
            assert report.trace == eager and eager == report.trace
            assert report.trace != eager[:-1] and report.trace != list(eager)
            assert report.trace == tune_grid(problem, factors, family, **options).trace

    @pytest.mark.parametrize("family", ["atn", "svlt"])
    def test_report_retains_little_memory(self, family):
        """A 50x50 report keeps the grid axes and the SURE array, not one
        Python tuple per candidate."""
        rng = np.random.default_rng(65)
        problem, factors = random_problem(rng, 50, 50)
        tune_grid(problem, factors, family)  # warm caches outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = tune_grid(problem, factors, family)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(report.trace) == {"atn": 2000, "svlt": 2500}[family]
        assert retained < 50_000

    @pytest.mark.parametrize(
        "p1, message",
        [(-1.0, "p1 must be >= 0, got -1.0"), (float("nan"), "p1 must be finite, got nan")],
    )
    def test_invalid_overrides_name_the_parameter(self, p1, message):
        rng = np.random.default_rng(62)
        problem, factors = random_problem(rng, 6, 5)
        with pytest.raises(ContractError, match=re.escape(message)):
            tune_grid(problem, factors, "svlt", p1=p1)

    def test_p1_is_keyword_only(self):
        rng = np.random.default_rng(64)
        problem, factors = random_problem(rng, 6, 5)
        with pytest.raises(TypeError):
            tune_grid(problem, factors, "svlt", 0.75)

    def test_atn_overflow_below_threshold_is_silent(self):
        """(tau/y)**gamma overflows for the tiny values below tau; those
        values are clamped to zero, and no RuntimeWarning escapes."""
        rng = np.random.default_rng(63)
        U, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        S = np.array([10.0, 5.0, 1.0, 1e-16])
        factors = SvdFactors(U=U, S=S, V=V)
        problem = DenoiseProblem((U * S) @ V.T, 0.5)
        assert 20.0 * np.log10(0.5 * S[0] / S[-1]) > np.log10(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = tune_grid(problem, factors, "atn")
            assert np.isfinite(report.sure)
            assert all(np.isfinite(value) for _, value in report.trace)
            # The steepest gamma the rule accepts, at every grid threshold.
            for (tau, gamma), _ in report.trace:
                if gamma == 1.0:
                    assert np.isfinite(sure(problem, factors, Atn(tau, 64.0)).sure)


def diagonal_problem(values, n, sigma):
    Y = np.zeros((n, len(values)))
    Y[np.arange(len(values)), np.arange(len(values))] = values
    return DenoiseProblem(Y, sigma), svd(Y)


class TestOverflow:
    """Scales whose squares leave the double range raise typed numerical
    errors instead of returning NaN; the suite turns any numpy
    RuntimeWarning into an error, so none may be emitted on the way."""

    def test_scaled_input_raises(self):
        rng = np.random.default_rng(70)
        Y = 1e200 * rng.standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 1e200), svd(Y)
        calls = (
            lambda: sure(problem, factors, Svst(1e200)),
            lambda: tune_grid(problem, factors, "svst"),
            lambda: tune_grid(problem, factors, "atn"),
            lambda: tune_grid(problem, factors, "svlt"),
            lambda: solve_svlet(problem, factors, K=2, C=10.0),
            lambda: divergence(factors.S, Identity(), factors.shape),
        )
        for call in calls:
            with pytest.raises(DegenerateSpectrumError, match="overflows when squared"):
                call()

    def test_huge_sigma_raises(self):
        rng = np.random.default_rng(71)
        problem, factors = random_problem(rng, 6, 5, sigma=1e160)
        for call in (
            lambda: sure(problem, factors, Svst(1.0)),
            lambda: tune_grid(problem, factors, "svst"),
            lambda: solve_svlet(problem, factors, K=2, C=10.0),
        ):
            with pytest.raises(DegenerateSpectrumError, match=r"n\*m\*sigma\^2 overflows"):
                call()
        # divergence takes no sigma, so only the spectrum half applies.
        assert np.isfinite(divergence(factors.S, Svst(1.0), factors.shape))

    def test_overflowing_normal_system_raises(self):
        """Every y^2 is finite, but their sum in the normal matrix is not."""
        problem, factors = diagonal_problem([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154], 6, 1.0)
        for K in (1, 2, 3):
            with pytest.raises(SolverFailureError, match="non-finite entries"):
                solve_svlet(problem, factors, K=K, C=10.0)

    def test_residual_bound_overflow_raises(self):
        """Every y^2 is finite, but L * y_1^2, which bounds the residual
        sum of squares, is not: scoring a rule raises before any sum
        overflows, while the expansion solve still fails in its own check."""
        problem, factors = diagonal_problem([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154], 6, 1.0)
        for call in (
            lambda: sure(problem, factors, Zero()),
            lambda: sure(problem, factors, Identity()),
            lambda: tune_grid(problem, factors, "svst"),
            lambda: tune_grid(problem, factors, "atn"),
            lambda: tune_grid(problem, factors, "svlt"),
        ):
            with pytest.raises(DegenerateSpectrumError, match=r"L\*y_1\^2 overflows"):
                call()
        with pytest.raises(SolverFailureError, match="non-finite entries"):
            solve_svlet(problem, factors, K=2, C=10.0)

    @pytest.mark.parametrize("a", [[1e308], [1e308, -1e308], [-1e308]])
    def test_non_finite_eta_raises(self, a):
        """An eta that overflows (to inf, to -inf, or to inf - inf = NaN)
        has neither a clamped value nor a finite risk: sure() and
        divergence() fail as apply(), derivative() and svlet_clamp_gap()
        do, before numpy warns about the overflow.  A clamp applied first
        would turn -inf into 0."""
        Y = np.random.default_rng(73).standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 0.5), svd(Y)
        rule = Svlet(K=len(a), T=1.0, a=a)
        for call in (
            lambda: sure(problem, factors, rule),
            lambda: divergence(factors.S, rule, factors.shape),
            lambda: apply(rule, factors.S),
            lambda: derivative(rule, factors.S[0]),
            lambda: svlet_clamp_gap(problem, factors, rule),
        ):
            with pytest.raises(ContractError, match="rule produced non-finite output"):
                call()

    def test_residual_overflow_raises(self):
        """eta is finite, but its residual squares past the double range:
        scoring the one rule fails with a typed error that names the
        residual, before numpy warns, while the divergence, which never
        squares eta, stays finite."""
        Y = np.random.default_rng(73).standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 0.5), svd(Y)
        rule = Svlet(K=1, T=1.0, a=[1e200])
        for call in (
            lambda: sure(problem, factors, rule),
            lambda: svlet_clamp_gap(problem, factors, rule),
        ):
            with pytest.raises(ContractError, match="residual"):
                call()
        assert divergence(factors.S, rule, factors.shape) == 2.9999999999999986e201

    def test_divergence_does_not_form_residual(self):
        """Every y^2 is finite but their sum is not: the divergence, which
        never squares y, is finite and equals the value the same sums gave
        when the residual was still formed (and overflowed) beside it."""
        s = np.array([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154])
        shape = MatrixShape(6, 5)
        assert divergence(s, Zero(), shape) == 0.0
        assert divergence(s, Svst(1e154), shape) == 13.452677757025583

    def test_normal_system_checks(self):
        from svshrink.sure import _solve_normal_system

        c = np.array([1.0, 1.0])
        for bad in (np.inf, np.nan):
            with pytest.raises(SolverFailureError, match="non-finite entries"):
                _solve_normal_system(np.array([[bad, 0.0], [0.0, 1.0]]), c, 2)
            with pytest.raises(SolverFailureError, match="non-finite entries"):
                _solve_normal_system(np.eye(2), np.array([1.0, bad]), 2)
        # The solution overflows, and 0 * inf makes the residual NaN.
        with pytest.raises(SolverFailureError, match="residual nan"):
            _solve_normal_system(np.diag([1e-300, 1e-300]), np.array([1e100, 1.0]), 2)
