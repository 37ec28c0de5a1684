"""Shrinkage rules: values, analytic derivatives, and family limits.

Ground truth: closed-form evaluations (soft threshold (y - lam)_+, hard
threshold y * 1(y > mu), trace-norm taper y(1 - (tau/y)^gamma)_+, logistic
index taper, derivative-of-Gaussian expansion, bulk shrinker
sqrt((y^2 - beta - 1)^2 - 4 beta)/y) and a central finite-difference
oracle for every analytic derivative.

Known values:
    Svst(lam=2) on [5, 1] -> [3, 0]
    RmtOptimal(beta=1) on [2.0] -> [0.0]     (bulk edge: (y^2-2)^2 - 4 = 0)
    Svlet K=1, a=[0.5] on [4, 2] -> [2, 1]   (first atom is the identity)
    Atn(gamma=1, tau=lam) == Svst(lam) on any spectrum
"""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from svshrink import (
    Atn,
    ContractError,
    DenoiseProblem,
    GAMMA_MAX,
    Identity,
    MatrixShape,
    RmtOptimal,
    Svht,
    Svlet,
    Svlt,
    Svst,
    SvdFactors,
    Zero,
    apply,
    derivative,
    divergence,
    dog_basis,
    dog_basis_deriv,
    reconstruct,
    sure,
    svd,
    tune_grid,
)
from svshrink.sure import _divergences, _scores, _spectral_pieces, _upper_half_grid


def finite_difference(rule, y, i=1, h_scale=1e-6):
    """Central difference with h = h_scale * max(1, y)."""
    h = h_scale * max(1.0, y)
    return (derivative_free_eval(rule, y + h, i) - derivative_free_eval(rule, y - h, i)) / (2.0 * h)


def derivative_free_eval(rule, y, i):
    """Evaluate eta(y) at one point via apply on a singleton spectrum."""
    out = apply(rule, np.array([float(y)]))
    del i  # the singleton always sits at index 1; callers arrange for that
    return float(out[0])


class TestApplyKnownValues:
    """Hand-computed outputs for each family."""

    def test_identity(self):
        s = np.array([4.0, 2.0, 0.5])
        np.testing.assert_allclose(apply(Identity(), s), s)

    def test_zero(self):
        s = np.array([4.0, 2.0, 0.5])
        np.testing.assert_allclose(apply(Zero(), s), np.zeros(3))

    def test_svst(self):
        np.testing.assert_allclose(apply(Svst(2.0), np.array([5.0, 1.0])), [3.0, 0.0])

    def test_svht(self):
        np.testing.assert_allclose(apply(Svht(2.0), np.array([5.0, 2.0, 1.0])), [5.0, 0.0, 0.0])

    def test_rmt_optimal_at_bulk_edge(self):
        np.testing.assert_allclose(apply(RmtOptimal(1.0), np.array([2.0])), [0.0])

    def test_rmt_optimal_above_edge(self):
        # (6.25 - 2)^2 - 4 = 14.0625, sqrt / 2.5 = 1.5
        np.testing.assert_allclose(apply(RmtOptimal(1.0), np.array([2.5])), [1.5])

    def test_svlet_identity_atom(self):
        rule = Svlet(K=1, T=1.0, a=np.array([0.5]))
        np.testing.assert_allclose(apply(rule, np.array([4.0, 2.0])), [2.0, 1.0])

    def test_atn_formula(self):
        rule = Atn(tau=2.0, gamma=3.0)
        y = np.array([4.0])
        expected = 4.0 * (1.0 - (2.0 / 4.0) ** 3)
        np.testing.assert_allclose(apply(rule, y), [expected])

    def test_atn_below_threshold_clamps(self):
        np.testing.assert_allclose(apply(Atn(tau=2.0, gamma=3.0), np.array([1.0])), [0.0])

    def test_atn_zero_input_gives_zero(self):
        np.testing.assert_allclose(apply(Atn(tau=1.0, gamma=2.0), np.array([1.5, 0.0])), [1.5 * (1 - (1 / 1.5) ** 2), 0.0])

    def test_svlt_logistic_weights(self):
        rule = Svlt(p1=2.0, p2=2.0, p3=0.1)
        s = np.array([5.0, 3.0, 1.0])
        w = expit(-2.0 * (np.arange(1, 4) - 2.0))
        np.testing.assert_allclose(apply(rule, s), np.maximum(s * w - 0.1, 0.0))


class TestFamilyLimits:
    """Coincidences between families at parameter extremes."""

    def test_atn_gamma_one_equals_svst(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = np.sort(rng.uniform(0.0, 10.0, size=8))[::-1]
            lam = float(rng.uniform(0.1, 5.0))
            np.testing.assert_allclose(
                apply(Atn(tau=lam, gamma=1.0), s), apply(Svst(lam), s), rtol=1e-12, atol=1e-12
            )

    def test_atn_gamma_max_approaches_svht_above(self):
        """At gamma = 64 the taper matches the hard threshold within 1e-6
        relative on entries at least 25% above tau; (tau/y)^64 <= 0.75^64."""
        rng = np.random.default_rng(22)
        tau = 2.0
        hard = Svht(tau)
        soft_limit = Atn(tau=tau, gamma=GAMMA_MAX)
        for _ in range(10):
            s = np.sort(rng.uniform(1.25 * tau, 8.0, size=6))[::-1]
            np.testing.assert_allclose(apply(soft_limit, s), apply(hard, s), rtol=1e-6)

    def test_atn_gamma_max_matches_svht_below(self):
        """Entries at least 5% below tau are zeroed by both rules exactly."""
        s = np.array([1.9, 1.0, 0.3])
        np.testing.assert_allclose(apply(Atn(tau=2.0, gamma=GAMMA_MAX), s), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(apply(Svht(2.0), s), [0.0, 0.0, 0.0])

    def test_rmt_optimal_continuous_at_edge(self):
        """eta(edge + eps) -> 0 monotonically as eps decreases."""
        rule = RmtOptimal(1.0)
        vals = [float(apply(rule, np.array([rule.edge + eps]))[0]) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-2


class TestOrderAndContinuityProperties:
    """Structural properties on random descending spectra."""

    def rules_preserving_order(self):
        return [Svht(1.5), Svst(1.0), Atn(tau=1.2, gamma=4.0), RmtOptimal(0.7)]

    def test_monotone_in_place(self):
        """Hard/soft/taper/bulk rules keep the spectrum descending."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = np.sort(rng.uniform(0.0, 6.0, size=10))[::-1]
            for rule in self.rules_preserving_order():
                out = apply(rule, s)
                assert np.all(np.diff(out) <= 1e-12), rule

    def test_svst_non_expansive(self):
        """|eta(y) - eta(y')| <= |y - y'| for the soft threshold."""
        rng = np.random.default_rng(24)
        rule = Svst(1.3)
        for _ in range(200):
            y1, y2 = rng.uniform(0.0, 5.0, size=2)
            e1 = derivative_free_eval(rule, y1, 1)
            e2 = derivative_free_eval(rule, y2, 1)
            assert abs(e1 - e2) <= abs(y1 - y2) + 1e-12

    def test_identity_then_reconstruct_reproduces_input(self):
        rng = np.random.default_rng(25)
        Y = rng.standard_normal((12, 9))
        factors = svd(Y)
        np.testing.assert_allclose(reconstruct(factors, apply(Identity(), factors.S)), Y, atol=1e-12)

    def test_svlet_output_may_ascend(self):
        """The expansion rule is not forced to preserve descending order."""
        rule = Svlet(K=2, T=1.0, a=np.array([0.0, 1.0]))
        out = apply(rule, np.array([3.0, 1.0]))
        assert out[1] > out[0]

    def test_outputs_non_negative(self):
        rng = np.random.default_rng(26)
        rules = self.rules_preserving_order() + [
            Svlt(p1=3.0, p2=2.0, p3=0.5),
            Svlet(K=2, T=2.0, a=np.array([0.7, -1.5])),
        ]
        for _ in range(30):
            s = np.sort(rng.uniform(0.0, 6.0, size=8))[::-1]
            for rule in rules:
                assert np.all(apply(rule, s) >= 0.0), rule


class TestDerivatives:
    """Analytic derivatives against closed forms and finite differences."""

    def test_svst_one_sided_values(self):
        assert derivative(Svst(2.0), 3.0) == 1.0
        assert derivative(Svst(2.0), 1.0) == 0.0

    def test_right_derivative_at_thresholds(self):
        """At the exact threshold the right-branch value is used."""
        assert derivative(Svst(2.0), 2.0) == 1.0
        assert derivative(Svht(2.0), 2.0) == 1.0
        # ATN right-derivative at tau: 1 + (gamma - 1) * 1 = gamma
        np.testing.assert_allclose(derivative(Atn(tau=2.0, gamma=5.0), 2.0), 5.0)

    def test_svlet_k1_constant_derivative(self):
        rule = Svlet(K=1, T=3.0, a=np.array([0.25]))
        for y in (0.5, 1.0, 7.0):
            np.testing.assert_allclose(derivative(rule, y), 0.25)

    def test_svlet_clamped_region_derivative_is_zero(self):
        """Where the raw expansion is negative the applied rule is flat 0."""
        rule = Svlet(K=2, T=1.0, a=np.array([0.1, -2.0]))
        y = 0.5  # raw = 0.5*(0.1 - 2*exp(-0.125)) < 0
        raw = dog_basis(np.array([y]), 2, 1.0) @ rule.a
        assert raw[0] < 0.0
        assert derivative(rule, y) == 0.0
        assert apply(rule, np.array([y]))[0] == 0.0

    def test_finite_difference_oracle(self):
        """Analytic derivative matches the central difference with
        h = 1e-6 * max(1, y) within 1e-4 relative, excluding points within
        1e-3 of any threshold/kink of the rule."""
        rng = np.random.default_rng(27)
        cases = [
            (Identity(), ()),
            (Zero(), ()),
            (Svht(1.7), (1.7,)),
            (Svst(0.9), (0.9,)),
            (Atn(tau=1.4, gamma=6.0), (1.4,)),
            (RmtOptimal(1.0), (2.0,)),
            (RmtOptimal(0.5), (1.0 + np.sqrt(0.5),)),
            (Svlet(K=2, T=1.5, a=np.array([0.8, 0.3])), ()),
            (Svlet(K=3, T=2.0, a=np.array([0.9, -0.4, 0.1])), None),
        ]
        for rule, kinks in cases:
            checked = 0
            while checked < 40:
                y = float(rng.uniform(0.05, 6.0))
                if kinks is None:
                    # expansion with sign changes: stay 1e-3 clear of the
                    # clamp boundary, located where the raw form crosses 0
                    raw = lambda t: float((dog_basis(np.array([t]), rule.K, rule.T) @ rule.a)[0])
                    if raw(y - 1e-3) * raw(y + 1e-3) <= 0.0:
                        continue
                elif any(abs(y - t) < 1e-3 for t in kinks):
                    continue
                ana = derivative(rule, y)
                num = finite_difference(rule, y)
                np.testing.assert_allclose(ana, num, rtol=1e-4, atol=1e-6)
                checked += 1

    def test_svlt_derivative_holds_index_fixed(self):
        rule = Svlt(p1=1.0, p2=2.0, p3=0.0)
        w2 = float(expit(0.0))  # index 2 sits at the logistic midpoint
        np.testing.assert_allclose(derivative(rule, 3.0, i=2), w2)

    def test_derivative_requires_positive_y(self):
        with pytest.raises(ContractError):
            derivative(Identity(), 0.0)
        with pytest.raises(ContractError):
            derivative(Identity(), -1.0)

    def test_derivative_requires_index_from_1(self):
        with pytest.raises(ContractError, match="^index must be an integer >= 1, got 0$"):
            derivative(Identity(), 1.0, i=0)


class TestDogBasis:
    """The derivative-of-Gaussian atom matrix."""

    def test_first_column_is_identity_map(self):
        y = np.array([3.0, 1.5, 0.2])
        phi = dog_basis(y, 3, 2.0)
        assert phi.shape == (3, 3)
        np.testing.assert_allclose(phi[:, 0], y)

    def test_columns_match_formula(self):
        y = np.array([2.0, 0.7])
        T = 1.5
        phi = dog_basis(y, 4, T)
        for k in range(4):
            np.testing.assert_allclose(phi[:, k], y * np.exp(-k * y**2 / (2 * T**2)))

    def test_deriv_matches_finite_difference(self):
        y = np.linspace(0.1, 5.0, 23)
        T = 1.8
        h = 1e-6
        num = (dog_basis(y + h, 5, T) - dog_basis(y - h, 5, T)) / (2 * h)
        np.testing.assert_allclose(dog_basis_deriv(y, 5, T), num, rtol=1e-5, atol=1e-8)


class TestRiskViews:
    """SURE scores each rule's formula: the unclamped expansion for Svlet,
    exactly what apply returns for every other rule."""

    def test_risk_values_unclamped_for_expansion(self):
        rule = Svlet(K=2, T=1.0, a=np.array([0.1, -2.0]))
        s = np.array([3.0, 0.5])
        problem = DenoiseProblem(np.diag(s), 1.0)
        raw = dog_basis(s, 2, 1.0) @ rule.a
        residual = sure(problem, svd(problem.Y), rule).residual
        np.testing.assert_allclose(residual, np.sum((s - raw) ** 2), rtol=1e-12)
        applied = apply(rule, s)
        assert applied[1] == 0.0 and raw[1] < 0.0

    def test_risk_derivatives_unclamped_for_expansion(self):
        rule = Svlet(K=2, T=1.0, a=np.array([0.1, -2.0]))
        s = np.array([3.0, 0.5])
        raw = dog_basis(s, 2, 1.0) @ rule.a
        raw_d = dog_basis_deriv(s, 2, 1.0) @ rule.a
        # Square 2x2: sum eta' + 2 (y_1 eta_1 - y_2 eta_2) / (y_1^2 - y_2^2).
        expected = raw_d.sum() + 2.0 * (s[0] * raw[0] - s[1] * raw[1]) / (s[0] ** 2 - s[1] ** 2)
        np.testing.assert_allclose(divergence(s, rule, MatrixShape(2, 2)), expected, rtol=1e-12)
        assert derivative(rule, s[1]) == 0.0 and raw_d[1] != 0.0

    def test_risk_views_match_apply_for_other_rules(self):
        s = np.array([4.0, 2.0, 1.0])
        problem = DenoiseProblem(np.diag(s), 1.0)
        factors = svd(problem.Y)
        rules = (
            Identity(),
            Zero(),
            Svht(1.5),
            Svst(1.5),
            Atn(tau=1.0, gamma=2.0),
            Svlt(p1=1.0, p2=2.0, p3=0.5),
            RmtOptimal(1.0),
        )
        for rule in rules:
            residual = sure(problem, factors, rule).residual
            expected = np.sum((factors.S - apply(rule, factors.S)) ** 2)
            np.testing.assert_allclose(residual, expected, rtol=1e-12, atol=1e-12)


class TestConstructionValidation:
    """Parameter ranges enforced at construction."""

    def test_svht_mu_positive(self):
        with pytest.raises(ContractError):
            Svht(0.0)
        with pytest.raises(ContractError):
            Svht(-1.0)

    def test_svst_lam_nonnegative(self):
        Svst(0.0)  # boundary allowed
        with pytest.raises(ContractError):
            Svst(-0.1)

    def test_atn_parameter_ranges(self):
        with pytest.raises(ContractError):
            Atn(tau=0.0, gamma=2.0)
        with pytest.raises(ContractError):
            Atn(tau=1.0, gamma=0.5)
        with pytest.raises(ContractError):
            Atn(tau=1.0, gamma=GAMMA_MAX + 1.0)
        Atn(tau=1.0, gamma=GAMMA_MAX)  # cap itself allowed

    def test_svlt_parameter_ranges(self):
        with pytest.raises(ContractError):
            Svlt(p1=-1.0, p2=1.0, p3=0.0)
        with pytest.raises(ContractError):
            Svlt(p1=1.0, p2=0.5, p3=0.0)
        with pytest.raises(ContractError):
            Svlt(p1=1.0, p2=1.0, p3=-0.1)

    def test_svlet_validation(self):
        with pytest.raises(ContractError):
            Svlet(K=0, T=1.0, a=np.array([]))
        with pytest.raises(ContractError, match="K must be an integer >= 1, got True"):
            Svlet(K=True, T=1.0, a=np.array([1.0]))
        with pytest.raises(ContractError):
            Svlet(K=1, T=0.0, a=np.array([1.0]))
        with pytest.raises(ContractError):
            Svlet(K=2, T=1.0, a=np.array([1.0]))  # length mismatch
        with pytest.raises(ContractError):
            Svlet(K=1, T=1.0, a=np.array([np.nan]))

    def test_rmt_optimal_beta_range(self):
        with pytest.raises(ContractError):
            RmtOptimal(0.0)
        with pytest.raises(ContractError):
            RmtOptimal(1.5)
        assert RmtOptimal(1.0).edge == 2.0
        np.testing.assert_allclose(RmtOptimal(0.25).edge, 1.5)

    def test_negative_coefficients_allowed(self):
        """Solved expansion coefficients are unconstrained in sign."""
        rule = Svlet(K=2, T=1.0, a=np.array([1.0, -3.0]))
        assert rule.a[1] == -3.0


class TestApplyValidation:
    """Spectrum preconditions for apply."""

    def test_rejects_ascending_spectrum(self):
        with pytest.raises(ContractError):
            apply(Identity(), np.array([1.0, 2.0]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ContractError):
            apply(Identity(), np.array([2.0, -1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            apply(Identity(), np.array([np.inf, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            apply(Identity(), np.array([]))

    def test_rejects_unknown_rule(self):
        s = np.array([2.0, 1.0])
        problem = DenoiseProblem(np.diag(s), 1.0)
        calls = (
            lambda rule: apply(rule, s),
            lambda rule: sure(problem, svd(problem.Y), rule),
            lambda rule: divergence(s, rule, MatrixShape(2, 2)),
            lambda rule: derivative(rule, 1.0),
        )
        for call in calls:
            with pytest.raises(ContractError, match="unknown shrinkage rule: object"):
                call(object())


def masked_atn(y, tau, gamma):
    """Atn's (eta, eta') as first written: tau / y and (tau / y)^gamma on
    every entry, then masks for y > tau and y >= tau, under errstate."""
    with np.errstate(divide="ignore", over="ignore"):
        quotient = tau / y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = quotient**gamma
        vals = np.where(y > tau, y * (1.0 - ratio), 0.0)
        ders = np.where(y >= tau, 1.0 + (gamma - 1.0) * ratio, 0.0)
    return vals, ders


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestAtnEdgeBits:
    """Atn against the masked formula, bit for bit and sign for sign, where
    y meets tau, at zeros, and far enough below tau that (tau/y)^gamma
    overflows.  With y_1 = 4 the grid thresholds are 2k/100, so 1.0 and 0.5
    are thresholds 50 and 25."""

    GAMMAS = (1.0, 1.5, 2.0, 3.0, 20.0, 64.0)
    # 1e-200 squares to 0 and puts tau / y near 1e198, so every gamma >= 2
    # overflows there.
    SPECTRUM = np.array([4.0, 2.7, 1.0, 0.77, 0.5, 1e-200])

    @staticmethod
    def pieces(factors, shape):
        """The checked spectrum and its gap sums in the problem's units: the
        gap sums of the scaled spectrum y = s * 2^-e, times 2^-2e.  Scores
        formed from them have the bits of the risk engine's scaled ones."""
        s, e, _, _, rowsums = _spectral_pieces(factors.S, shape)
        return s, np.ldexp(rowsums, -2 * e)

    @staticmethod
    def problem(n, m):
        rng = np.random.default_rng([64, n, m])
        S = TestAtnEdgeBits.SPECTRUM
        U, _ = np.linalg.qr(rng.standard_normal((n, S.shape[0])))
        V, _ = np.linalg.qr(rng.standard_normal((m, S.shape[0])))
        return DenoiseProblem((U * S) @ V.T, 0.5), SvdFactors(U=U, S=S, V=V)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.02, 4.0, 5.0])
    def test_apply_and_derivative(self, tau, gamma):
        s = np.concatenate([self.SPECTRUM, [0.0, 0.0]])
        rule = Atn(tau=tau, gamma=gamma)
        vals, ders = masked_atn(np.array([tau]), tau, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bits(apply(rule, s)) == bits(np.maximum(masked_atn(s, tau, gamma)[0], 0.0))
            assert bits(derivative(rule, tau)) == bits(0.0 if vals[0] < 0.0 else ders[0])
        assert derivative(rule, tau) == gamma

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.02])
    @pytest.mark.parametrize("n, m", [(6, 6), (9, 6), (6, 11)])
    def test_sure_and_divergence(self, n, m, tau, gamma):
        problem, factors = self.problem(n, m)
        s, rowsums = self.pieces(factors, problem.shape)
        vals, ders = masked_atn(s, tau, gamma)
        expected = _scores(vals, ders, s, rowsums, problem.shape, problem.sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sure(problem, factors, Atn(tau=tau, gamma=gamma))
            div = divergence(s, Atn(tau=tau, gamma=gamma), problem.shape)
        assert bits([report.sure, report.residual, report.divergence]) == bits(expected)
        assert bits(div) == bits(_divergences(vals, ders, s, rowsums, problem.shape))

    @pytest.mark.parametrize("n, m", [(6, 6), (9, 6), (6, 11)])
    def test_tune_grid_trace(self, n, m):
        problem, factors = self.problem(n, m)
        s, rowsums = self.pieces(factors, problem.shape)
        thresholds = _upper_half_grid(4.0, 100)
        assert thresholds[49] == 1.0 and thresholds[24] == 0.5
        expected = [
            _scores(*masked_atn(s, tau, float(g)), s, rowsums, problem.shape, problem.sigma)[0]
            for tau in thresholds.tolist()
            for g in range(1, 21)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = tune_grid(problem, factors, "atn")
        assert bits([value for _, value in report.trace]) == bits(expected)
