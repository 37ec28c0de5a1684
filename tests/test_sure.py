"""Unbiased risk estimation: divergence, SURE reports, the closed-form
expansion solve, and grid tuning.

Ground truth: a brute-force double-loop evaluation of the divergence

    div = sum_i eta'(y_i) + |n-m| sum_i eta(y_i)/y_i
        + 2 sum_{i != j} y_i eta(y_i) / (y_i^2 - y_j^2),

the algebraic identity div(Identity) = n*m (paired cross terms sum to 1,
so L + |n-m|L + L(L-1) = n*m), the closed-form K=1 solution
a_1 = 1 - n*m*sigma^2 / sum(y_i^2), and for grid tuning one oracle,
grid_oracle, that writes each grid out as the README defines it and
scores every candidate with sure() (the trace must equal it bit for bit
and the winner be its first minimum).  The
oracles that share no formula with the divergence, and SURE's
unbiasedness off the square, are in test_divergence_oracle.py.
"""

import gc
import importlib
import math
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
    tune_grid,
)
from svshrink.shrinkage import _logistic_weights
from svshrink.sure import (
    CONDITION_LIMIT,
    SIGMA_RATIO_LIMIT,
    SOLVE_RESIDUAL_RTOL,
    _divergences,
    _scores,
    _spectral_pieces,
    _svlt_weight_table,
)


# The module, not the function the package exports under the same name.
sure_module = importlib.import_module("svshrink.sure")


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
        _, _, s, _, rowsums = _spectral_pieces(svd(rng.standard_normal((n, m))).S, shape)
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
        _, _, s, _, rowsums = _spectral_pieces(svd(rng.standard_normal((n, m))).S, shape)
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
        """sure, solve_svlet, tune_grid and every asymptotic_denoise variant
        name both shapes."""
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
        for variant in ASYMPTOTIC_VARIANTS:
            with pytest.raises(ContractError, match=message):
                asymptotic_denoise(problem, other, variant)

    def test_svlet_residual_uses_unclamped_form(self):
        """The risk engine scores the raw expansion, not the clamped apply."""
        rng = np.random.default_rng(37)
        problem, factors = random_problem(rng, 6, 6, sigma=1.0)
        rule = Svlet(K=2, T=0.5, a=np.array([0.05, -3.0]))
        report = sure(problem, factors, rule)
        raw = dog_basis(factors.S, rule.K, rule.T) @ rule.a
        unclamped = float(np.sum((factors.S - raw) ** 2))
        clamped = float(np.sum((factors.S - apply(rule, factors.S)) ** 2))
        np.testing.assert_allclose(report.residual, unclamped, rtol=1e-12)
        # The clamp genuinely bites on this rule.
        assert np.any(raw < 0.0)
        assert clamped != unclamped


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
        # The fit runs on the scaled spectrum, sigma and width; M has the
        # units of y^2.
        _, e, y, _, rowsums = _spectral_pieces(factors.S, shape)
        sigma, T = math.ldexp(0.5, -e), math.ldexp(5.0, -e)
        M_full, M_top = (
            np.ldexp(_fit_expansion(y[:t], rowsums[:t], shape, sigma, 2, T)[2], 2 * e) for t in (12, 3)
        )
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


GRID_RULES = {"svst": Svst, "atn": Atn, "svlt": Svlt}


def grid_oracle(problem, factors, family, p1=100.0):
    """The family's grid as the README defines it, as the tuple of
    (params, sure()) pairs over its nested loops, last parameter fastest.
    Each axis is written with the code's operation order, 0.5 * y1 * k /
    count, so it has the trace's bits; every candidate's rule is scored by
    sure() once."""
    y1, L = float(factors.S[0]), len(factors.S)
    thresholds = [0.5 * y1 * k / 100 for k in range(1, 101)]
    axes = {
        "svst": (thresholds,),
        "atn": (thresholds, [float(g) for g in range(1, 21)]),
        "svlt": ([float(p1)], [float(p2) for p2 in range(1, L + 1)], [0.5 * y1 * k / 50 for k in range(1, 51)]),
    }[family]
    rule = GRID_RULES[family]
    return tuple((params, sure(problem, factors, rule(*params)).sure) for params in product(*axes))


def assert_same_trace(got, want):
    """The same parameter tuples in the same order, and SUREs with the same bits."""
    assert [params for params, _ in got] == [params for params, _ in want]
    assert np.array([value for _, value in got]).tobytes() == np.array([value for _, value in want]).tobytes()


class TestTuneGrid:
    """Exhaustive SURE minimization over parameter grids."""

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
        "family, options",
        [("svst", {}), ("atn", {}), ("svlt", {}), ("svlt", {"p1": 0.75})],
        ids=["svst", "atn", "svlt", "svlt-p1"],
    )
    @pytest.mark.parametrize(
        "n, m", [(120, 100), (100, 130), (100, 100), (9, 5), (5, 9), (7, 3), (3, 7), (1, 6), (41, 80)]
    )
    def test_trace_equals_sure_bitwise(self, n, m, family, options):
        """The trace reads as the oracle's tuple: the same axes, each value
        sure() of its candidate's rule bit for bit, a Python float.  The
        winner is the first minimum, ties going to the smallest tuple.  Its
        len, indexing, repeated iteration and equality are a tuple's, and
        a second call gives an equal trace."""
        rng = np.random.default_rng(61 + n + 2 * m)
        problem, factors = random_problem(rng, n, m, sigma=0.5)
        report = tune_grid(problem, factors, family, **options)
        eager = grid_oracle(problem, factors, family, **options)
        lazy = tuple(report.trace)
        assert len(eager) == {"svst": 100, "atn": 2000, "svlt": 50 * min(n, m)}[family]
        assert_same_trace(lazy, eager)
        assert all(type(p) is float for params, value in lazy for p in params + (value,))
        sures = [value for _, value in eager]
        first_min = sures.index(min(sures))
        assert report.rule == GRID_RULES[family](*eager[first_min][0])
        assert report.sure == sures[first_min]
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

    @pytest.mark.parametrize("L, p1", [(1, 100.0), (50, 100.0), (40, 0.75), (7, 0.0)])
    def test_svlt_weight_table_is_built_once_and_read_only(self, L, p1):
        """The svlt grid's weight table depends on (L, p1) alone: it is
        built once per pair, cannot be written, and holds the bits of a
        fresh build; a grid call leaves it as it was."""
        fresh = _logistic_weights(np.arange(1 - L, L, dtype=float), p1, 0.0)
        table = _svlt_weight_table(L, p1)
        assert table is _svlt_weight_table(L, p1)
        assert not table.flags.writeable
        assert table.tobytes() == fresh.tobytes()
        rng = np.random.default_rng([31, L])
        problem, factors = random_problem(rng, L, L + 3, sigma=0.3)
        tune_grid(problem, factors, "svlt", p1=p1)
        assert _svlt_weight_table(L, p1).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("n, m", [(6, 6), (9, 5), (5, 9), (1, 4), (4, 1), (2, 7), (7, 2), (201, 204)])
    def test_trace_does_not_depend_on_block_size(self, n, m, monkeypatch):
        """A block holds as many whole outer values (svlt p2 runs of 50
        offsets, atn gammas of 100 thresholds) as fit, and at least one.  In
        rows of L values: budgets of 1 value and of 37 rows hold one p2 run
        and one gamma per block, each larger than the budget; 70 rows, and
        100 rows less one value, one p2 run and one gamma; 100 rows exactly
        two p2 runs and one gamma; 130 rows, and 150 rows less one value,
        two p2 runs but not three; 300 rows six p2 runs and three gammas,
        with a short last block; and one block holds the whole grid.  At
        L = 201 one p2 run alone is 10,050 values, so every svlt block
        exceeds the default budget.  Each gives the default trace bit for
        bit, and that trace equals sure() of every candidate."""
        rng = np.random.default_rng(66 + n + 2 * m)
        problem, factors = random_problem(rng, n, m, sigma=0.5)
        L = min(n, m)
        budgets = [1, 37 * L, 70 * L, 100 * L - 1, 100 * L, 130 * L, 150 * L - 1, 300 * L, 10**9]
        for family in GRID_RULES:
            default = tune_grid(problem, factors, family)
            oracle = grid_oracle(problem, factors, family)
            assert_same_trace(default.trace, oracle)
            for budget in budgets:
                monkeypatch.setattr(sure_module, "BLOCK_ELEMENTS", budget)
                report = tune_grid(problem, factors, family)
                monkeypatch.undo()
                assert_same_trace(report.trace, oracle)
                assert report.rule == default.rule and report.sure == default.sure

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


def scaled_problem(problem, factors, k):
    """(2^k Y, 2^k sigma) with the factors of 2^k Y scaled exactly: LAPACK
    scales internally, so svd(2^k Y).S need not be ldexp(S, k)."""
    return (
        DenoiseProblem(np.ldexp(problem.Y, k), math.ldexp(problem.sigma, k)),
        SvdFactors(U=factors.U, S=np.ldexp(factors.S, k), V=factors.V),
    )


def times(x, k):
    """x * 2^k entrywise, inf past the double range."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.asarray(x, dtype=float), k)


def homogeneous_rules(y1, k):
    """Rules whose eta scales with the spectrum: each parameter with the
    units of y is a fraction of y1 scaled by 2^k."""
    u = lambda x: math.ldexp(x, k)  # noqa: E731
    return [
        Identity(),
        Zero(),
        Svst(u(0.3 * y1)),
        Svht(u(0.4 * y1)),
        Atn(tau=u(0.25 * y1), gamma=3.0),
        Svlt(p1=2.0, p2=2.0, p3=u(0.05 * y1)),
        Svlet(K=2, T=u(0.5 * y1), a=np.array([0.9, -0.3])),
    ]


# Which grid axes have the units of y.
GRID_UNITS = {"svst": (1,), "atn": (1, 0), "svlt": (0, 0, 1)}


def assert_report_scaled(got, ref, k):
    """got is ref on the data scaled by 2^k: SURE and residual times 2^2k,
    the divergence unchanged, bit for bit."""
    expected = [*times([ref.sure, ref.residual], 2 * k), ref.divergence]
    assert np.array([got.sure, got.residual, got.divergence]).tobytes() == np.array(expected).tobytes()


def assert_scale_law(problem, factors, k, rules=True, families=tuple(GRID_UNITS), Ks=(1, 2, 3)):
    """Every result on (2^k Y, 2^k sigma), with its factors and each rule's
    parameters scaled exactly, has the bits of the result on (Y, sigma):
    eta and grid thresholds times 2^k, SURE, residual, M, c and the ridge
    times 2^2k, and the divergence, a and the condition estimate unchanged.
    Where a SURE or residual times 2^2k leaves the double range, the call
    raises the one typed error instead."""
    big, big_factors = scaled_problem(problem, factors, k)
    shape, y1 = factors.shape, float(factors.S[0])

    def check(got_call, ref, compare):
        if np.isfinite(times([ref.sure, ref.residual], 2 * k)).all():
            compare(got_call())
        else:
            with pytest.raises(DegenerateSpectrumError, match="SURE leaves the double range"):
                got_call()

    for small_rule, big_rule in zip(homogeneous_rules(y1, 0), homogeneous_rules(y1, k)) if rules else ():
        got_div = divergence(big_factors.S, big_rule, shape)
        assert np.float64(got_div).tobytes() == np.float64(divergence(factors.S, small_rule, shape)).tobytes()
        ref = sure(problem, factors, small_rule)
        check(lambda: sure(big, big_factors, big_rule), ref, lambda got: assert_report_scaled(got, ref, k))
    for family in families:
        ref = tune_grid(problem, factors, family)
        ref_params = [params for params, _ in ref.trace]
        ref_sures = [value for _, value in ref.trace]
        params = [tuple(math.ldexp(v, k * unit) for v, unit in zip(p, GRID_UNITS[family])) for p in ref_params]
        best = int(np.argmin(ref_sures))
        assert ref.rule == type(ref.rule)(*ref_params[best])

        def compare(got):
            assert [p for p, _ in got.trace] == params
            assert np.array([v for _, v in got.trace]).tobytes() == times(ref_sures, 2 * k).tobytes()
            assert got.rule == type(ref.rule)(*params[best])
            assert_report_scaled(got, ref, k)

        check(lambda: tune_grid(big, big_factors, family), ref, compare)
    for K in Ks:
        ref = solve_svlet(problem, factors, K=K, C=10.0)

        def compare(got):
            assert got.a.tobytes() == ref.a.tobytes()
            assert got.rule.T == math.ldexp(ref.rule.T, k)
            assert got.M.tobytes() == times(ref.M, 2 * k).tobytes()
            assert got.c.tobytes() == times(ref.c, 2 * k).tobytes()
            assert np.float64(got.ridge_used).tobytes() == times(ref.ridge_used, 2 * k).tobytes()
            assert got.condition_estimate == ref.condition_estimate
            assert_report_scaled(got.report, ref.report, k)

        check(lambda: solve_svlet(big, big_factors, K=K, C=10.0), ref.report, compare)


class TestScaleLaw:
    """SURE is homogeneous: scaling Y, sigma and every parameter with the
    units of y by 2^k scales SURE by 2^2k and leaves the divergence and
    the expansion coefficients as they are.  The risk engine works on the
    spectrum scaled by a power of two, so the law holds bit for bit even
    where the raw squares would leave the double range."""

    @pytest.mark.parametrize("n, m", [(12, 7), (7, 12), (9, 9)])
    @pytest.mark.parametrize("k", [500, -500])
    def test_every_result_scales_exactly(self, n, m, k):
        rng = np.random.default_rng([2028, n, m])
        problem, factors = random_problem(rng, n, m, sigma=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_scale_law(problem, factors, k)

    @pytest.mark.parametrize("n, m", [(12, 7), (7, 12), (9, 9)])
    @pytest.mark.parametrize("k", [1000, -1000])
    def test_divergence_scales_exactly_to_the_range_ends(self, n, m, k):
        """At 2^1000 every y^2 overflows and at 2^-1000 every gap of the
        squares underflows, but the divergence keeps its bits.  The
        expansion is left out: its eta squares y."""
        rng = np.random.default_rng([2028, n, m])
        _, factors = random_problem(rng, n, m)
        y1 = float(factors.S[0])
        big = np.ldexp(factors.S, k)
        for small_rule, big_rule in zip(homogeneous_rules(y1, 0)[:-1], homogeneous_rules(y1, k)[:-1]):
            got, ref = divergence(big, big_rule, factors.shape), divergence(factors.S, small_rule, factors.shape)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestOverflow:
    """Scales at the ends of the double range.  The risk engine scales the
    spectrum by a power of two, so these inputs compute and follow the
    scale law; what still leaves the double range in the problem's units
    raises one typed error.  The suite turns any numpy RuntimeWarning into
    an error, so none may be emitted on the way."""

    def test_scaled_input_raises(self):
        """At 1e200 every SURE leaves the double range: the scoring entry
        points raise the one typed error, while the divergence, which has
        no unit, is finite."""
        rng = np.random.default_rng(70)
        Y = 1e200 * rng.standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 1e200), svd(Y)
        calls = (
            lambda: sure(problem, factors, Svst(1e200)),
            lambda: tune_grid(problem, factors, "svst"),
            lambda: tune_grid(problem, factors, "atn"),
            lambda: tune_grid(problem, factors, "svlt"),
            lambda: solve_svlet(problem, factors, K=2, C=10.0),
        )
        for call in calls:
            with pytest.raises(DegenerateSpectrumError, match="SURE leaves the double range"):
                call()
        assert np.isfinite(divergence(factors.S, Identity(), factors.shape))

    def test_huge_sigma_raises(self):
        """n*m*sigma^2 leaves the double range, and sigma is far more than
        SIGMA_RATIO_LIMIT times y_1: every entry point that takes sigma
        raises the one ContractError that names the limit.  divergence
        takes no sigma and is finite."""
        rng = np.random.default_rng(71)
        problem, factors = random_problem(rng, 6, 5, sigma=1e160)
        for call in (
            lambda: sure(problem, factors, Svst(1.0)),
            lambda: tune_grid(problem, factors, "svst"),
            lambda: solve_svlet(problem, factors, K=2, C=10.0),
        ):
            with pytest.raises(ContractError, match=r"is more than 2\^128 times y_1"):
                call()
        assert np.isfinite(divergence(factors.S, Svst(1.0), factors.shape))

    @pytest.mark.parametrize("j", [256, 512])
    def test_sigma_far_above_spectrum_raises_one_error(self, j):
        """A sigma 2^j times the top power of two of the spectrum (e the
        binary exponent of y_1) used to leak numpy's overflow warning from
        the normal system (j = 256) or fail as a SURE past the double range
        that in truth fits (j = 512).  Every entry point now raises one
        ContractError naming sigma, y_1 and the supported ratio, before
        numpy can warn; just below the limit every one computes."""
        Y = np.ldexp(np.random.default_rng(73).standard_normal((6, 5)), -100)
        factors = svd(Y)
        y1 = float(factors.S[0])
        e = math.frexp(y1)[1]
        assert e == -98

        def calls(problem):
            return (
                lambda: sure(problem, factors, Svst(y1 / 2)),
                lambda: tune_grid(problem, factors, "svst"),
                lambda: tune_grid(problem, factors, "atn"),
                lambda: tune_grid(problem, factors, "svlt"),
                lambda: solve_svlet(problem, factors, K=1, C=10.0),
            )

        sigma = math.ldexp(1.0, e + j)
        message = (
            f"sigma = {sigma!r} is more than 2^128 times y_1 = {y1!r}; "
            "the risk is computed for sigma <= 2^128 * y_1"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls(DenoiseProblem(Y, sigma)):
                with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                    call()
            for call in calls(DenoiseProblem(Y, SIGMA_RATIO_LIMIT * y1)):
                call()

    def test_tiny_spectrum_raises(self):
        """Squares near the subnormal range used to leave gaps whose
        reciprocals overflow, and every entry point refused the spectrum.
        On the scaled spectrum the divergence of the identity is n*m, and
        every result is the one of the same data scaled up by 2^512, scaled
        back."""
        Y = 3e-155 * np.random.default_rng(73).standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 3e-155), svd(Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(divergence(factors.S, Identity(), factors.shape), 30.0, rtol=1e-12)
            assert_scale_law(*scaled_problem(problem, factors, 512), -512)

    def test_overflowing_normal_system_raises(self):
        """Every y^2 is finite, but their sum in the normal matrix is not.
        The solve runs on the scaled spectrum and gives the bits of the
        same data scaled down by 2^512; M and c scaled back read inf
        where they leave the double range."""
        problem, factors = diagonal_problem([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154], 6, 1.0)
        small = scaled_problem(problem, factors, -512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_scale_law(*small, 512, rules=False, families=())
            assert not np.isfinite(solve_svlet(problem, factors, K=1, C=10.0).M).all()

    def test_residual_bound_overflow_raises(self):
        """Every y^2 is finite, but L * y_1^2, which bounds the residual
        sum of squares, is not.  Zeroing the spectrum has a residual past
        the double range, and scoring it raises the one typed error; the
        identity and the grid searches compute, with the bits of the same
        data scaled down by 2^512 scaled back."""
        problem, factors = diagonal_problem([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154], 6, 1.0)
        with pytest.raises(DegenerateSpectrumError, match="SURE leaves the double range"):
            sure(problem, factors, Zero())
        small = scaled_problem(problem, factors, -512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_scale_law(*small, 512, Ks=())
            assert np.isfinite(sure(problem, factors, Identity()).sure)

    @pytest.mark.parametrize("a", [[1e308], [1e308, -1e308], [-1e308]])
    def test_non_finite_eta_raises(self, a):
        """An eta that overflows (to inf, to -inf, or to inf - inf = NaN)
        has neither a clamped value nor a finite risk: sure() and
        divergence() fail as apply() and derivative() do, before numpy
        warns about the overflow.  A clamp applied first would turn -inf
        into 0."""
        Y = np.random.default_rng(73).standard_normal((6, 5))
        problem, factors = DenoiseProblem(Y, 0.5), svd(Y)
        rule = Svlet(K=len(a), T=1.0, a=a)
        for call in (
            lambda: sure(problem, factors, rule),
            lambda: divergence(factors.S, rule, factors.shape),
            lambda: apply(rule, factors.S),
            lambda: derivative(rule, factors.S[0]),
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
        with pytest.raises(ContractError, match="residual"):
            sure(problem, factors, rule)
        assert divergence(factors.S, rule, factors.shape) == 2.9999999999999986e201

    def test_non_finite_divergence_raises(self):
        """eta is finite but a divergence term is not: eta' overflows.
        divergence() and derivative() fail with a typed error before numpy
        warns; apply() still returns the rule's finite values, and sure()
        fails on the residual, which overflows first.  For a rule on 1e5
        times the data, y * eta overflows but its scaled form does not:
        the divergence has the bits of the data and width scaled down by
        2^17, and only sure() fails, on its residual."""
        draw = np.random.default_rng(73).standard_normal((6, 5))
        factors = svd(1e5 * draw)
        rule = Svlet(K=1, T=1e9, a=[1e300])
        small_rule = Svlet(K=1, T=math.ldexp(1e9, -17), a=[1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            div = divergence(factors.S, rule, factors.shape)
            small = divergence(np.ldexp(factors.S, -17), small_rule, factors.shape)
        assert np.isfinite(div) and np.float64(div).tobytes() == np.float64(small).tobytes()
        with pytest.raises(ContractError, match="residual"):
            sure(DenoiseProblem(1e5 * draw, 0.5), factors, rule)
        Y, rule = 0.1 * draw, Svlet(K=2, T=1.0, a=[1e308, 1e308])
        factors = svd(Y)
        with pytest.raises(ContractError, match="^the rule's divergence is not finite$"):
            divergence(factors.S, rule, factors.shape)
        with pytest.raises(ContractError, match="residual"):
            sure(DenoiseProblem(Y, 0.5), factors, rule)
        with pytest.raises(ContractError, match="^rule produced a non-finite derivative$"):
            derivative(rule, factors.S[0])
        assert np.isfinite(apply(rule, factors.S)).all()

    def test_square_residual_overflow_raises(self):
        """test_residual_overflow_raises on a 6x6 draw, where the |n - m|
        term of the divergence is not formed: sure() fails on the residual
        and the divergence is finite.  The rules, grids and expansion solves
        on the same data follow the scale law from 2^-500 to 2^500 times Y
        and sigma; at 2^1000 every grid's SURE leaves the double range and
        fails with the one typed error."""
        Y = np.random.default_rng(73).standard_normal((6, 6))
        problem, factors = DenoiseProblem(Y, 0.5), svd(Y)
        rule = Svlet(K=1, T=1.0, a=[1e200])
        with pytest.raises(ContractError, match="residual"):
            sure(problem, factors, rule)
        assert divergence(factors.S, rule, factors.shape) == 3.6e201
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-500, 17, 500):
                assert_scale_law(problem, factors, k, Ks=(1, 2))
            assert_scale_law(problem, factors, 1000, rules=False, Ks=(1, 2))

    def test_square_non_finite_divergence_raises(self):
        """test_non_finite_divergence_raises on a 6x6 draw: an eta' that
        overflows fails divergence() with the one typed error whether or
        not the |n - m| term is formed, sure() fails on the residual first,
        and a divergence on 1e5 times the data has the bits of its scaled
        form.  The grids on 1e5 times the data compute without a numpy
        warning."""
        draw = np.random.default_rng(73).standard_normal((6, 6))
        factors = svd(1e5 * draw)
        rule = Svlet(K=1, T=1e9, a=[1e300])
        small_rule = Svlet(K=1, T=math.ldexp(1e9, -17), a=[1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            div = divergence(factors.S, rule, factors.shape)
            small = divergence(np.ldexp(factors.S, -17), small_rule, factors.shape)
            for family in ("svst", "atn", "svlt"):
                assert math.isfinite(tune_grid(DenoiseProblem(1e5 * draw, 0.5), factors, family).sure)
        assert np.isfinite(div) and np.float64(div).tobytes() == np.float64(small).tobytes()
        with pytest.raises(ContractError, match="residual"):
            sure(DenoiseProblem(1e5 * draw, 0.5), factors, rule)
        Y, rule = 0.1 * draw, Svlet(K=2, T=1.0, a=[1e308, 1e308])
        factors = svd(Y)
        with pytest.raises(ContractError, match="^the rule's divergence is not finite$"):
            divergence(factors.S, rule, factors.shape)
        with pytest.raises(ContractError, match="residual"):
            sure(DenoiseProblem(Y, 0.5), factors, rule)
        with pytest.raises(ContractError, match="^rule produced a non-finite derivative$"):
            derivative(rule, factors.S[-1])
        assert np.isfinite(apply(rule, factors.S)).all()

    def test_square_divergence_leaves_out_overflowing_ratio_sum(self):
        """On a square matrix sum_i eta_i / y_i, the |n - m| term's sum,
        can overflow while the divergence does not; the term is zero and
        not formed, so divergence() returns the finite value.  Forming it
        gave 0 * -inf = NaN and failed as a divergence that is not
        finite.  sure() still fails, on the residual."""
        s = np.array([0.008592650889543115, 0.0052135062245616, 0.0040398619621624145,
                      0.0019680792524699457, 0.0012588838215299395, 0.0005128366278450354])
        rule = Svlet(K=3, T=0.0012078500526587746, a=[-1.3257237708414506e301, -1.1448144668592229e308,
                                                         3.668619685703201e305])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert divergence(s, rule, MatrixShape(6, 6)) == -1.4117737863911994e308
        with pytest.raises(ContractError, match="residual"):
            sure(DenoiseProblem(np.diag(s), 1.0), SvdFactors(np.eye(6), s, np.eye(6)), rule)

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
