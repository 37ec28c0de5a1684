"""Factorization, reconstruction, truncation, and matrix I/O.

Ground truth: numpy.linalg.svd reconstruction (U diag(S) V^T must return
the input), the Eckart-Young residual identity (best rank-r error equals
the tail energy sqrt(sum_{i>=r} y_i^2)), and exact 17-significant-digit
decimal round-tripping of IEEE doubles.

Known values:
    svd(diag(3, 1)) -> S = [3, 1], U = V = I_2
    svd(zeros(3, 2)) -> S = [0, 0]
"""

import builtins
import decimal
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from svshrink import (
    Atn,
    ContractError,
    DenoiseProblem,
    FactorizationError,
    MatrixParseError,
    MatrixShape,
    RmtOptimal,
    Svht,
    Svlet,
    Svlt,
    Svst,
    SvdFactors,
    apply,
    calibration_scale,
    eym_truncate,
    read_matrix,
    reconstruct,
    solve_svlet,
    svd,
    write_matrix,
)
from svshrink import spectral
from svshrink.spectral import _FORMAT_BLOCK, _check_spectrum, _count, _parse_lines, _read_csv, truncated_spectrum

# A fixed example sequence and no example database, so every run on every
# machine tests the same inputs.
IO_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

TOL = 1e-10  # orthonormality and relative reconstruction bound for svd factors


def assert_valid_factors(factors, Y=None):
    """Descending non-negative S, orthonormal U and V columns, and (given Y)
    reconstruction of Y, each within TOL."""
    U, S, V = factors.U, factors.S, factors.V
    eye = np.eye(S.shape[0])
    assert np.all(S >= 0.0) and np.all(np.diff(S) <= 0.0)
    assert np.linalg.norm(U.T @ U - eye) <= TOL
    assert np.linalg.norm(V.T @ V - eye) <= TOL
    if Y is not None:
        assert np.linalg.norm(reconstruct(factors, S) - Y) / max(np.linalg.norm(Y), 1.0) <= TOL


def reference_csv(M):
    """The per-value 17-digit CSV that write_matrix must reproduce."""
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in M) + "\n"


def parse_outcome(parse, text):
    """Shape and bytes of the parsed array, or the MatrixParseError text."""
    try:
        M = parse(text)
    except MatrixParseError as exc:
        return ("error", str(exc))
    return ("array", M.shape, M.tobytes())


def read_text(text):
    return read_matrix(io.StringIO(text))


def line_parse(text):
    """The float()-per-token line parser alone, the reference for read_matrix."""
    return _parse_lines(text.splitlines(), "<stream>")


matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(width=64),
)

# Text near the CSV grammar: digits and float spellings, separators, every
# line break str.splitlines knows, whitespace numpy and float() strip, and
# characters only one of the two parsers accepts.
csv_like_text = st.lists(
    st.sampled_from(
        list("0123456789.,-+eE_ #\t\n\r\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000") + ["inf", "nan"]
    ),
    max_size=40,
).map("".join)


@st.composite
def formatted_matrices(draw):
    """Well-formed CSV text from a float matrix, with varied number spellings,
    padding and line endings."""
    M = draw(matrices)
    spell = draw(st.sampled_from([repr, lambda v: "%.17g" % v, lambda v: "%.3e" % v, str]))
    pad = st.sampled_from(["", " ", "\t", "\xa0"])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [
        ",".join(draw(pad) + spell(float(v)) + draw(pad) for v in row) for row in M
    ]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestMatrixShape:
    """Dimension bookkeeping and validation."""

    def test_L_is_min_dimension(self):
        assert MatrixShape(7, 3).L == 3
        assert MatrixShape(3, 7).L == 3
        assert MatrixShape(5, 5).L == 5

    def test_of_reads_array_shape(self):
        shape = MatrixShape.of(np.zeros((4, 9)))
        assert (shape.n, shape.m) == (4, 9)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ContractError):
            MatrixShape(0, 3)
        with pytest.raises(ContractError):
            MatrixShape(3, -1)

    def test_rejects_non_integer_dimensions(self):
        with pytest.raises(ContractError):
            MatrixShape(2.5, 3)

    def test_of_rejects_non_2d(self):
        with pytest.raises(ContractError):
            MatrixShape.of(np.zeros(5))


class TestDenoiseProblem:
    """Observed-matrix container: finite entries, sigma > 0."""

    def test_accepts_valid_problem(self):
        problem = DenoiseProblem(np.ones((3, 4)), 0.5)
        assert problem.sigma == 0.5
        assert (problem.shape.n, problem.shape.m) == (3, 4)

    def test_rejects_zero_sigma(self):
        with pytest.raises(ContractError):
            DenoiseProblem(np.ones((3, 3)), 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ContractError):
            DenoiseProblem(np.ones((3, 3)), -1.0)

    def test_rejects_nan_entries(self):
        Y = np.ones((3, 3))
        Y[1, 1] = np.nan
        with pytest.raises(ContractError):
            DenoiseProblem(Y, 1.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ContractError):
            DenoiseProblem(np.ones(4), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            DenoiseProblem(np.zeros((0, 3)), 1.0)


class TestSvd:
    """Thin SVD with the deterministic sign convention."""

    def test_diagonal_matrix(self):
        """diag(3, 1) is already in SVD form: S = [3, 1], U = V = I."""
        factors = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(factors.S, [3.0, 1.0])
        np.testing.assert_allclose(factors.U, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(factors.V, np.eye(2), atol=1e-15)

    def test_zero_matrix(self):
        """Zero 3x2 matrix: both singular values vanish, factors orthonormal."""
        factors = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(factors.S, [0.0, 0.0])
        assert_valid_factors(factors)

    def test_reconstruction_random_square(self):
        rng = np.random.default_rng(42)
        Y = rng.standard_normal((50, 50))
        factors = svd(Y)
        rel = np.linalg.norm(reconstruct(factors, factors.S) - Y) / np.linalg.norm(Y)
        assert rel < TOL

    def test_descending_spectrum(self):
        rng = np.random.default_rng(7)
        factors = svd(rng.standard_normal((20, 30)))
        assert np.all(np.diff(factors.S) <= 0.0)
        assert np.all(factors.S >= 0.0)

    def test_sign_convention_lead_entry_nonnegative(self):
        """Per column of U the largest-magnitude entry is non-negative."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            factors = svd(rng.standard_normal((12, 8)))
            lead = np.argmax(np.abs(factors.U), axis=0)
            cols = np.arange(factors.U.shape[1])
            assert np.all(factors.U[lead, cols] >= 0.0)

    @pytest.mark.parametrize(
        "Y",
        [np.random.default_rng([8, n, m]).standard_normal((n, m))
         for n, m in [(1, 6), (6, 1), (7, 3), (3, 7), (50, 50), (40, 80), (400, 200)]]
        + [
            # Rank 2 in a 9x6 matrix, and rank 1 in a wide one.
            np.random.default_rng(81).standard_normal((9, 2)) @ np.random.default_rng(82).standard_normal((2, 6)),
            np.outer(np.arange(1.0, 6.0), np.arange(-3.0, 5.0)),
            np.random.default_rng(83).integers(-3, 4, size=(12, 8)).astype(float),
            np.zeros((3, 2)),
            np.array([[3.0, 1.0], [-3.0, 1.0], [0.0, 0.0]]),
        ],
        ids=["1x6", "6x1", "7x3", "3x7", "50x50", "40x80", "400x200",
             "rank2", "rank1", "integers", "zero", "tied-lead"],
    )
    def test_signs_match_argmax_rule_bitwise(self, Y):
        """U, S and V are, bit for bit, LAPACK's factors with each column of
        U flipped where its first largest-magnitude entry is negative, and
        V's column with it; both factors are C-ordered."""
        U, S, Vh = np.linalg.svd(Y, full_matrices=False)
        V = Vh.T.copy()
        U = U.copy()
        lead = np.argmax(np.abs(U), axis=0)
        cols = np.arange(U.shape[1])
        flip = U[lead, cols] < 0.0
        U[:, flip] *= -1.0
        V[:, flip] *= -1.0
        factors = svd(Y)
        for got, want in [(factors.U, U), (factors.S, S), (factors.V, V)]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert factors.U.flags.c_contiguous and factors.V.flags.c_contiguous

    def test_tied_lead_case_has_both_signs_at_the_top(self):
        """The tied-lead case above tests the tie: LAPACK's first left vector
        holds +-1/sqrt(2) with the negative entry first, so its sign comes
        from the first largest-magnitude entry, not from max against -min."""
        U = np.linalg.svd(np.array([[3.0, 1.0], [-3.0, 1.0], [0.0, 0.0]]), full_matrices=False)[0]
        assert U[:, 0].max() == -U[:, 0].min()
        assert U[np.argmax(np.abs(U[:, 0])), 0] < 0.0

    def test_bitwise_deterministic(self):
        """Two calls on the same matrix return bitwise-identical factors."""
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((17, 23))
        f1 = svd(Y)
        f2 = svd(Y)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.S, f2.S)
        assert np.array_equal(f1.V, f2.V)

    def test_shape_property(self):
        factors = svd(np.ones((6, 4)))
        assert (factors.shape.n, factors.shape.m) == (6, 4)

    def test_factors_check_and_store_shape_once(self):
        """The shape is checked when the factors are built: a U or V that is
        not 2-D raises there.  Reading .shape then returns the one stored
        MatrixShape."""
        factors = svd(np.arange(24.0).reshape(6, 4))
        U, S, V = factors.U, factors.S, factors.V
        for bad in ({"U": U[:, 0]}, {"V": V[None]}, {"U": U[0, 0]}, {"V": [1.0, 2.0]}):
            parts = {"U": U, "S": S, "V": V, **bad}
            name = next(iter(bad))
            with pytest.raises(ContractError, match=rf"{name} must be a 2-D array, got ndim="):
                SvdFactors(**parts)
        with pytest.raises(ContractError, match="n must be an integer >= 1"):
            SvdFactors(U=U[:0], S=S, V=V)
        built = SvdFactors(U=U, S=S, V=V)
        assert built.shape is built.shape
        assert (built.shape.n, built.shape.m) == (6, 4)

    def test_rejects_non_finite(self):
        Y = np.ones((3, 3))
        Y[0, 0] = np.inf
        with pytest.raises(ContractError):
            svd(Y)

    def test_rejects_non_2d(self):
        with pytest.raises(ContractError):
            svd(np.ones(5))

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            svd(np.zeros((0, 3)))


class TestScaleLaw:
    """svd scales Y by 2^-e with one multiply where 2^-e is a double and
    with np.ldexp past that, and S back the same way; both round as
    np.ldexp does, so the scale law holds bit for bit at every magnitude."""

    # Small integers stay exact at every scale here, subnormal included.
    Y = np.random.default_rng(84).integers(-7, 8, size=(7, 5)).astype(float)

    @pytest.mark.parametrize("k", [500, -500, 1016, -1070], ids=["2^500", "2^-500", "near-max", "subnormal"])
    def test_scaled_input_scales_only_s(self, k):
        base, scaled = svd(self.Y), svd(np.ldexp(self.Y, k))
        assert scaled.U.tobytes() == base.U.tobytes()
        assert scaled.V.tobytes() == base.V.tobytes()
        assert scaled.S.tobytes() == np.ldexp(base.S, k).tobytes()

    def test_subnormal_entries_round_as_ldexp(self):
        """Entries 2^-1060 below max|Y| become subnormal when Y is scaled,
        and the multiply rounds them as np.ldexp does: the factors are
        LAPACK's on np.ldexp(Y, -e), with the sign rule applied."""
        Y = np.random.default_rng(85).standard_normal((6, 5)) * 2.0**-60
        Y[0, 0] = 2.0**1000
        e = math.frexp(float(np.abs(Y).max()))[1]
        U, S, Vh = np.linalg.svd(np.ldexp(Y, -e), full_matrices=False)
        flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0.0
        sign = np.where(flip, -1.0, 1.0)
        factors = svd(Y)
        assert factors.U.tobytes() == (U * sign).tobytes()
        assert factors.V.tobytes() == np.multiply(Vh.T, sign, order="C").tobytes()
        assert factors.S.tobytes() == np.ldexp(S, e).tobytes()

    @pytest.mark.parametrize("entry", [1.7e308, 0.9 * 2.0**1023], ids=["e=1024", "e=1023"])
    def test_singular_values_past_the_double_range_fail_typed(self, entry):
        """S * 2^e overflows: a typed error, and no numpy warning (warnings
        are errors in this suite)."""
        with pytest.raises(FactorizationError, match="^SVD produced non-finite factors$"):
            svd(np.full((3, 3), entry))


def check_spectrum_reference(s):
    """The message of the first of the three checks a spectrum fails, run
    alone as before the one-pass test, or None when it passes them all."""
    if not np.isfinite(s).all():
        return "spectrum contains non-finite entries"
    if (s < 0.0).any():
        return "spectrum contains negative entries"
    if (s[1:] > s[:-1]).any():
        return "spectrum must be sorted in descending order"
    return None


class TestCheckSpectrum:
    """_check_spectrum accepts a spectrum in one pass and runs its three
    checks only to choose the message: it accepts and rejects exactly as
    they do, with the same message."""

    @pytest.mark.parametrize(
        "values, message",
        [
            ([3.0, np.nan, 1.0], "spectrum contains non-finite entries"),
            ([np.inf, 2.0, 1.0], "spectrum contains non-finite entries"),
            ([3.0, 2.0, -np.inf], "spectrum contains non-finite entries"),
            ([np.nan], "spectrum contains non-finite entries"),
            ([3.0, 2.0, -1.0], "spectrum contains negative entries"),
            ([-1.0], "spectrum contains negative entries"),
            ([3.0, 1.0, 2.0], "spectrum must be sorted in descending order"),
            ([1.0, 2.0], "spectrum must be sorted in descending order"),
            ([2.0, 1.0, -0.0], None),
            ([-0.0], None),
            ([5.0], None),
            ([2.0, 2.0, 0.0, 0.0], None),
        ],
        ids=["nan-middle", "inf-first", "minus-inf-last", "nan-alone", "negative-last", "negative-alone",
             "ascending-pair-inside", "ascending-pair", "minus-zero-last", "minus-zero-alone", "single", "ties"],
    )
    def test_named_cases(self, values, message):
        s = np.array(values)
        assert check_spectrum_reference(s) == message
        if message is None:
            assert _check_spectrum(s).tobytes() == s.tobytes()
        else:
            with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                _check_spectrum(s)

    def test_random_spectra_decide_as_the_three_checks(self):
        """Seeded short spectra of special values, sorted or not."""
        rng = np.random.default_rng(86)
        pool = np.array([np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, 2.0, 3.0, 1.7e308])
        for _ in range(3000):
            s = rng.choice(pool, size=rng.integers(1, 6))
            if rng.random() < 0.5:
                s = -np.sort(-s)  # descending, NaN last
            message = check_spectrum_reference(s)
            if message is None:
                assert _check_spectrum(s).tobytes() == s.tobytes()
            else:
                with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                    _check_spectrum(s)


class TestCount:
    """_count takes its fast path for a Python int and keeps every other
    case as it was."""

    @pytest.mark.parametrize("x", [True, False, 2.0, "3", np.float64(3.0), np.bool_(True), None])
    def test_rejects_what_is_not_an_integer(self, x):
        with pytest.raises(ContractError, match=f"^k must be an integer >= 0, got {re.escape(repr(x))}$"):
            _count(x, "k", 0)

    @pytest.mark.parametrize("x", [3, np.int64(3), np.int8(3), np.uint16(3)])
    def test_accepts_integers_as_python_ints(self, x):
        got = _count(x, "k", 0, 3)
        assert got == 3 and type(got) is int

    def test_bounds(self):
        with pytest.raises(ContractError, match=r"^k must be an integer in \[0, 2\], got 3$"):
            _count(3, "k", 0, 2)
        with pytest.raises(ContractError, match=r"^k must be an integer >= 1, got np\.int64\(-1\)$"):
            _count(np.int64(-1), "k", 1)

    def test_shape_dimensions_are_python_ints(self):
        shape = MatrixShape(np.int64(6), 4)
        assert (shape.n, shape.m) == (6, 4) and type(shape.n) is int
        for n, m in [(0, 4), (True, 4), (6, 2.0)]:
            with pytest.raises(ContractError, match="must be an integer >= 1"):
                MatrixShape(n, m)


class TestReconstruct:
    """Synthesis from factors with replacement singular values."""

    @pytest.mark.parametrize(
        "n, m", [(50, 50), (40, 80), (30, 20), (400, 200), (200, 400), (33, 301), (411, 500)]
    )
    def test_equals_the_full_product_bitwise(self, n, m):
        """reconstruct leaves out zero columns only where the bits stay:
        it equals (U * s) @ V.T for the spectra of every rule family, an
        all-zero one, svlet expansions whose zeros lie at the top or the
        bottom, and tails zeroed from every kind of column, on square,
        tall and wide shapes.  With OpenBLAS 0.3.31, a product cut at an
        odd column moved the last bit at m >= 300 (33x301 here), and one cut
        past 200 columns did at L > 384 (411x500 here)."""
        rng = np.random.default_rng([30, n, m])
        L = min(n, m)
        X = rng.standard_normal((n, 5)) @ rng.standard_normal((5, m)) * (3.0 / math.sqrt(max(n, m)))
        sigma = 1.0 / math.sqrt(max(n, m))
        problem = DenoiseProblem(Y=X + sigma * rng.standard_normal((n, m)), sigma=sigma)
        factors = svd(problem.Y)
        S = factors.S
        scale = calibration_scale(problem.shape, problem.sigma)
        median = float(np.median(S))
        spectra = [
            scale * apply(RmtOptimal(beta=L / max(n, m)), S / scale),
            apply(Svht(mu=S[3]), S),
            apply(Svst(lam=median), S),
            apply(Atn(tau=median, gamma=3.0), S),
            apply(Svlt(p1=2.0, p2=4.0, p3=0.1 * median), S),
            apply(solve_svlet(problem, factors, K=2, C=10.0).rule, S),
            apply(Svlet(K=2, T=median, a=np.array([1.0, -1.5])), S),  # zeros at the bottom
            apply(Svlet(K=2, T=median, a=np.array([-0.1, 1.5])), S),  # zeros at the top
            np.zeros(L),
        ]
        cuts = (1, 2, 3, 5, 7, 8, 9, 17, 63, 128, 129, 211, 300, L - 1, L)
        spectra += [truncated_spectrum(S, k) for k in cuts if k <= L]
        for s_new in spectra:
            want = (factors.U * s_new) @ factors.V.T
            assert reconstruct(factors, s_new).tobytes() == want.tobytes()

    def test_identity_replacement_reproduces_input(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((9, 14))
        factors = svd(Y)
        np.testing.assert_allclose(reconstruct(factors, factors.S), Y, atol=1e-12)

    def test_zero_replacement_gives_zero_matrix(self):
        factors = svd(np.random.default_rng(6).standard_normal((8, 8)))
        np.testing.assert_allclose(reconstruct(factors, np.zeros(8)), np.zeros((8, 8)))

    def test_zeroed_tail_matches_eym_truncate(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((15, 10))
        factors = svd(Y)
        s_new = factors.S.copy()
        s_new[4:] = 0.0
        np.testing.assert_allclose(reconstruct(factors, s_new), eym_truncate(Y, 4), atol=1e-12)

    def test_rejects_wrong_length(self):
        factors = svd(np.ones((4, 4)))
        with pytest.raises(ContractError):
            reconstruct(factors, np.zeros(3))

    def test_rejects_negative_entries(self):
        factors = svd(np.eye(3))
        with pytest.raises(ContractError):
            reconstruct(factors, np.array([1.0, -0.5, 0.0]))

    def test_rejects_non_finite_entries(self):
        factors = svd(np.eye(3))
        with pytest.raises(ContractError):
            reconstruct(factors, np.array([1.0, np.nan, 0.0]))


class TestEymTruncate:
    """Hard rank-r truncation (best Frobenius rank-r approximation)."""

    def test_full_rank_returns_input(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((10, 10))
        np.testing.assert_allclose(eym_truncate(Y, 10), Y, atol=1e-10)

    def test_rank_zero_returns_zero(self):
        Y = np.random.default_rng(13).standard_normal((6, 9))
        np.testing.assert_allclose(eym_truncate(Y, 0), np.zeros((6, 9)))

    def test_residual_equals_tail_energy(self):
        """Frobenius error of the rank-3 truncation is sqrt(sum_{i>=3} y_i^2)."""
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((20, 20))
        S = svd(Y).S
        err = np.linalg.norm(Y - eym_truncate(Y, 3))
        expected = np.sqrt(np.sum(S[3:] ** 2))
        np.testing.assert_allclose(err, expected, rtol=1e-8)

    def test_tail_energy_property_random_shapes(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            r = int(rng.integers(0, min(n, m) + 1))
            Y = rng.standard_normal((n, m))
            S = svd(Y).S
            err = np.linalg.norm(Y - eym_truncate(Y, r))
            expected = np.sqrt(np.sum(S[r:] ** 2))
            np.testing.assert_allclose(err, expected, rtol=1e-8, atol=1e-12)

    def test_numerical_rank_at_most_r(self):
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((12, 12))
        truncated = eym_truncate(Y, 5)
        S = svd(truncated).S
        assert np.all(S[5:] <= 1e-10 * S[0])

    def test_rejects_rank_out_of_range(self):
        Y = np.ones((4, 6))
        with pytest.raises(ContractError):
            eym_truncate(Y, 5)
        with pytest.raises(ContractError):
            eym_truncate(Y, -1)

    def test_rejects_non_integer_rank(self):
        with pytest.raises(ContractError, match=r"^rank must be an integer in \[0, 3\], got 1\.5$"):
            truncated_spectrum(np.array([3.0, 2.0, 1.0]), 1.5)


class TestFactorProperties:
    """Orthonormality and reconstruction over many random shapes."""

    def test_random_matrices_validate(self):
        """1000 random matrices up to 200x200: orthonormal factors, exact
        reconstruction.  Shapes are drawn small-biased so the loop stays fast
        while still hitting the 200x200 corner."""
        rng = np.random.default_rng(2026)
        sizes = rng.integers(1, 41, size=(996, 2))
        corner = np.array([[200, 200], [200, 1], [1, 200], [199, 200]])
        for n, m in np.vstack([corner, sizes]):
            Y = rng.standard_normal((int(n), int(m)))
            factors = svd(Y)
            assert_valid_factors(factors, Y)


class TestMatrixIO:
    """CSV round trip at 17 significant digits."""

    def test_round_trip_exact(self):
        """write_matrix then read_matrix recovers a random 5x7 bit for bit."""
        rng = np.random.default_rng(18)
        M = rng.standard_normal((5, 7)) * np.exp(rng.uniform(-8, 8, size=(5, 7)))
        buf = io.StringIO()
        write_matrix(buf, M)
        buf.seek(0)
        back = read_matrix(buf)
        assert np.array_equal(back, M)

    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(19)
        M = rng.standard_normal((5, 7))
        buf = io.StringIO()
        write_matrix(buf, M)
        buf.seek(0)
        np.testing.assert_allclose(read_matrix(buf), M, rtol=1e-15)

    def test_file_round_trip(self, tmp_path):
        M = np.array([[1.25, -3.5], [0.0, 1e-300]])
        path = tmp_path / "m.csv"
        write_matrix(path, M)
        assert np.array_equal(read_matrix(path), M)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(MatrixParseError, match="line 2"):
            read_matrix(path)

    def test_bad_token_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(MatrixParseError, match="line 2, column 2"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "data, lineno, byte",
        [
            ("1,2\n3,4\r\n\n5,\u00e96\n".encode("utf-8"), 4, "0xc3"),
            (b"1,2\r3,4\x0c5,6\xff\n", 3, "0xff"),
            (b"\xe9", 1, "0xe9"),
        ],
    )
    def test_non_ascii_byte_names_line(self, tmp_path, data, lineno, byte):
        """Lines are counted as the parser splits them: CR LF, a lone CR and
        a form feed each end one."""
        path = tmp_path / "accent.csv"
        path.write_bytes(data)
        message = re.escape(f"{path}: line {lineno}: byte {byte} is not ASCII")
        with pytest.raises(MatrixParseError, match=message):
            read_matrix(path)

    def test_non_ascii_file_opened_once(self, tmp_path, monkeypatch):
        """The message comes from the decode error; the file is not read a
        second time to find the byte."""
        path = tmp_path / "accent.csv"
        path.write_bytes(b"1,2\n3,\xe94\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        with pytest.raises(MatrixParseError, match="line 2: byte 0xe9 is not ASCII"):
            read_matrix(path)
        assert opened == [path]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixParseError, match="empty matrix"):
            read_matrix(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("1,2\n\n3,4\n")
        np.testing.assert_allclose(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_write_rejects_empty(self):
        with pytest.raises(ContractError):
            write_matrix(io.StringIO(), np.zeros((0, 3)))

    @IO_SETTINGS
    @given(matrices)
    def test_write_matches_per_value_format(self, M):
        buf = io.StringIO()
        write_matrix(buf, M)
        assert buf.getvalue() == reference_csv(M)

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[-0.0, 0.0], [5e-324, -5e-324]]),
            np.array([[1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]]),
            np.arange(7.0).reshape(1, 7) / 3.0,
            np.arange(7.0).reshape(7, 1) / 3.0,
            np.array([[np.inf, -np.inf, np.nan]]),
        ],
        ids=["signed-zeros-subnormal", "extremes-1xm", "1x7", "7x1", "non-finite"],
    )
    def test_write_special_values_and_shapes(self, M):
        buf = io.StringIO()
        write_matrix(buf, M)
        assert buf.getvalue() == reference_csv(M)
        buf.seek(0)
        back = read_matrix(buf)
        assert back.shape == M.shape
        finite = np.isfinite(M)
        assert back[finite].tobytes() == M[finite].tobytes()
        assert np.array_equal(np.isnan(back), np.isnan(M))

    def test_write_random_bit_patterns(self):
        """Uniform bit patterns: every exponent, subnormals, inf and NaN."""
        rng = np.random.default_rng(20261018)
        M = rng.integers(0, 2**64, size=(800, 256), dtype=np.uint64, endpoint=False).view(np.float64)
        buf = io.StringIO()
        write_matrix(buf, M)
        assert buf.getvalue() == reference_csv(M)

    @pytest.mark.parametrize(
        "value, text",
        [
            (1234567890123456.75, "1234567890123456.8"),  # a tie, rounded to even
            (1234567890123457.25, "1234567890123457.2"),
            (9.9999999999999991e-05, "9.9999999999999991e-05"),  # the notation switch
            (1e-4, "0.0001"),
            (np.nextafter(1e17, 0.0), "99999999999999984"),  # decade edge
            (1e16, "10000000000000000"),
            (1e22, "1e+22"),
            (1e23, "9.9999999999999992e+22"),
            (5e-324, "4.9406564584124654e-324"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (-1.7976931348623157e308, "-1.7976931348623157e+308"),
            (np.copysign(np.nan, -1.0), "nan"),
            (-0.0, "-0"),
            (0.1, "0.10000000000000001"),
            (-2.5e-5, "-2.5000000000000001e-05"),
            (123.0, "123"),
        ],
    )
    def test_write_named_values(self, value, text):
        buf = io.StringIO()
        write_matrix(buf, np.array([[value, value], [1.0, value]]))
        assert format(value, ".17g") == text
        assert buf.getvalue() == f"{text},{text}\n1,{text}\n"

    @pytest.mark.parametrize(
        "shape",
        [(1, _FORMAT_BLOCK + 9), (_FORMAT_BLOCK + 9, 1), (3, _FORMAT_BLOCK // 2 + 7)],
        ids=["1xm-over-block", "nx1-over-block", "block-edge-mid-row"],
    )
    def test_write_across_blocks(self, shape):
        rng = np.random.default_rng(list(shape))
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 22, size=shape)
        buf = io.StringIO()
        write_matrix(buf, M)
        assert buf.getvalue() == reference_csv(M)

    def test_write_stream_and_path_same_bytes(self, tmp_path):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-30, 30, size=(40, 30))
        buf = io.StringIO()
        write_matrix(buf, M)
        path = tmp_path / "m.csv"
        write_matrix(path, M)
        assert path.read_bytes() == buf.getvalue().encode("ascii")

    @IO_SETTINGS
    @given(formatted_matrices())
    def test_read_matches_line_parser_on_csv(self, text):
        assert parse_outcome(read_text, text) == parse_outcome(line_parse, text)

    @IO_SETTINGS
    @given(csv_like_text)
    def test_read_matches_line_parser_on_any_text(self, text):
        """Equal arrays where the line parser accepts, and its own error
        message where it does not."""
        assert parse_outcome(read_text, text) == parse_outcome(line_parse, text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1_0,2\n", [[10.0, 2.0]]),
            ("1,2\x0c3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\r3,4", [[1.0, 2.0], [3.0, 4.0]]),
            ("#1,2\n", "<stream>: line 1, column 1: cannot parse '#1' as a float"),
            ("1,2,\n", "<stream>: line 1, column 3: cannot parse '' as a float"),
            ("1\x0c,2\n", "<stream>: line 2, column 1: cannot parse '' as a float"),
            ("1,2\x1f\n", "<stream>: line 1, column 2: cannot parse '2' as a float"),
            ("", "<stream>: empty matrix"),
            (" \n\t\n", "<stream>: empty matrix"),
        ],
    )
    def test_inputs_numpy_rejects_or_splits_differently(self, text, expected):
        """Whitespace-only lines, underscores, form feeds, comments and empty
        fields give the line parser's array or its error message."""
        if isinstance(expected, str):
            with pytest.raises(MatrixParseError) as excinfo:
                read_text(text)
            assert str(excinfo.value) == expected
        else:
            assert read_text(text).tobytes() == np.array(expected).tobytes()

    def test_read_round_trips_random_bit_patterns(self):
        """About 200k finite doubles: uniform bit patterns, random
        subnormals, every power of two and both zeros, read back bit for
        bit, by read_matrix and by the numpy reader alone."""
        rng = np.random.default_rng(20261019)
        subnormals = rng.integers(1, 2**52, size=2000, dtype=np.uint64) | (
            rng.integers(0, 2, size=2000, dtype=np.uint64) << np.uint64(63)
        )
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        patterns = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
        flat = np.concatenate([[0.0, -0.0], subnormals.view(np.float64), powers, -powers, patterns])
        flat = flat[np.isfinite(flat)]
        M = flat[: flat.size // 250 * 250].reshape(-1, 250)
        buf = io.BytesIO()
        write_matrix(buf, M)
        data = buf.getvalue()
        assert read_matrix(io.BytesIO(data)).tobytes() == M.tobytes()
        assert _read_csv(data).tobytes() == M.tobytes()

    @pytest.mark.parametrize(
        "token",
        [
            "9007199254740993",  # 2^53 + 1, a tie rounded to even
            "2.2250738585072011e-308",  # just below the least normal double
            "2.2250738585072012e-308",
            "4.9406564584124654e-324",
            "1.7976931348623157e308",
            "1.7976931348623159e308",  # rounds to infinity
            "0.1",
            "1234567890123456789",  # 19 digits
            "12345678901234567891",  # 20 digits
            "1000000000000000000000000",  # 25 digits, the last 24 zeros
            "1.00000000000000011102230246251565404236316680908203125",  # 1 + 2^-53, a tie
            "1.000000000000000111022302462515654042363166809082031251",
            "7.3177701707893310e+15",
            "5e-324",
            "1e-400",
            "1e400",
            "0.000000000000000000000000000000000000000000001e45",
        ],
    )
    def test_read_hard_strings_match_float(self, token):
        text = f"{token},-{token}\n{token},1\n"
        expected = np.array([[float(token), -float(token)], [float(token), 1.0]])
        assert read_text(text).tobytes() == expected.tobytes()

    def test_read_random_spellings_match_float(self):
        """Random literals of 1 to 26 digits, with or without a sign, a
        point and an exponent, and 17- and 18-digit roundings of the exact
        midpoints between neighbouring doubles: float()'s bits for each."""
        rng = np.random.default_rng(20261020)
        tokens = []
        for _ in range(20_000):
            digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 27)))))
            cut = int(rng.integers(0, len(digits) + 1))
            token = str(rng.choice(["", "-", "+"])) + digits[:cut] + str(rng.choice([".", ""])) + digits[cut:]
            if rng.random() < 0.5:
                token += str(rng.choice(["e", "E"])) + str(rng.choice(["", "-", "+"])) + str(rng.integers(0, 400))
            tokens.append(token)
        doubles = np.abs(rng.standard_normal(1000)) * 10.0 ** rng.integers(-300, 300, size=1000)
        with decimal.localcontext(decimal.Context(prec=800)):
            for a in doubles.tolist():
                midpoint = (decimal.Decimal(a) + decimal.Decimal(np.nextafter(a, np.inf))) / 2
                tokens += [f"{midpoint:.16e}", f"{midpoint:.17e}"]
        expected = np.array([float(token) for token in tokens])
        assert _read_csv("\n".join(tokens).encode("ascii")).reshape(-1).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text",
        [".5", "5.", "+1", "1e5", "1E5", "-0", "-0.0e7", "0e999", "1.e5", "-.5E-3", "1,2\n3,4", "1,2\r\n3,4\r\n"],
    )
    def test_plain_grammar_read_by_numpy(self, text):
        """Every spelling of the plain grammar, CR LF line breaks and a file
        with no final line break are read by the numpy reader itself, to
        float()'s bits."""
        expected = line_parse(text).tobytes()
        assert _read_csv(text.encode("ascii")).tobytes() == expected
        assert read_text(text).tobytes() == expected

    @pytest.mark.parametrize(
        "text",
        ["1-2", "1e", "e5", "1e+", "1.2.3", "1e5e5", "--1", "1e+-5", ".", "+", "1e5.0"]
        + ["1,,2", "1\n2,3", "1,2,3\n4\n5\n", "1,2\r3,4\n", "1 2,3\n", "1,-\t2\n", "1, ,2\n"]
        + [" 1, -2e5 \n\t3 ,4\t\n", "1 ,\t 2  \r\n", "\n\n1,2\n\n\n3,4\n\n", "\r\n1,2\r\n \t\r\n3,4"],
    )
    def test_tokens_outside_the_grammar_go_to_the_line_parser(self, text):
        """The numpy reader refuses what is not a float literal, an empty
        field, a blank, an empty line inside the text and ragged rows; the
        line parser then decides."""
        assert _read_csv(text.encode("ascii")) is None
        assert parse_outcome(read_text, text) == parse_outcome(line_parse, text)

    @pytest.mark.parametrize("shape", [(400, 200), (200, 400), (3, 10_000), (20_000, 1)])
    @pytest.mark.parametrize("writer", ["savetxt", "write_matrix"])
    def test_benchmark_files_read_by_numpy(self, shape, writer):
        """The files the cli-file benchmark reads, from numpy.savetxt at
        "%.17g", and those the CLI writes, from write_matrix, are read by
        the numpy reader itself, to the line parser's bits: at the
        benchmark's two shapes, with lines longer than several read blocks,
        and in one column."""
        M = np.random.default_rng([33, *shape]).standard_normal(shape)
        buf = io.BytesIO()
        if writer == "savetxt":
            np.savetxt(buf, M, fmt="%.17g", delimiter=",")
        else:
            write_matrix(buf, M)
        data = buf.getvalue()
        assert len(data) > 3 * spectral._READ_BLOCK
        M = _read_csv(data)
        assert M is not None
        expected = line_parse(data.decode("ascii"))
        assert (M.shape, M.tobytes()) == (expected.shape, expected.tobytes())

    @pytest.mark.parametrize("shape", [(1200, 7), (7, 1200), (1, _FORMAT_BLOCK + 9), (_FORMAT_BLOCK + 9, 1)])
    def test_write_does_not_depend_on_block_size(self, shape, monkeypatch):
        """Blocks of 1 and 7 values, the default, and one block for the
        whole array give the same bytes, those of "%.17g", on values from
        1e-320 to 1e300 with signed zeros, subnormals, exact ties at the
        18th digit and near-ties among them.  Ties and near-ties go to
        "%.17g" in whichever block holds them.  A near-tie is m * 2^-69 in
        [1e-5, 1.1e-5) with m * 5^21 = 2^47 + d (mod 2^48), 0 < |d| < 16:
        its x * 10^21 lies within 2^-44 of a half-integer, and is none."""
        rng = np.random.default_rng([29, *shape])
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        ties = np.floor(rng.uniform(2.0**50, 2.0**51, size=40)) + rng.choice([0.25, 0.75], size=40)
        inverse = pow(5**21, -1, 2**48)
        near = []
        for d in (rng.integers(1, 16, size=40) * rng.choice([-1, 1], size=40)).tolist():
            m = (2**47 + d) * inverse % 2**48
            near.append(math.ldexp(m + ((6 * 10**15 - m) // 2**48 + 1) * 2**48, -69))
        special = np.concatenate([[0.0, -0.0, 5e-324, -1e-320], ties, -ties, near, -np.array(near)])
        M.reshape(-1)[rng.choice(M.size, special.size, replace=False)] = special
        buf = io.BytesIO()
        write_matrix(buf, M)
        default = buf.getvalue()
        assert M.size > spectral._FORMAT_BLOCK
        assert default == reference_csv(M).encode("ascii")
        for block in (1, 7, M.size):
            monkeypatch.setattr(spectral, "_FORMAT_BLOCK", block)
            buf = io.BytesIO()
            write_matrix(buf, M)
            assert buf.getvalue() == default

    @pytest.mark.parametrize("shape", [(3000, 3), (3, 3000), (1, 4000), (4000, 1)])
    def test_read_does_not_depend_on_block_size(self, shape, monkeypatch):
        """One line per block, the default, and one block for the whole
        text give the same bits, float() fallbacks included."""
        rng = np.random.default_rng(list(shape))
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        buf = io.BytesIO()
        write_matrix(buf, M)
        data = buf.getvalue()
        assert len(data) > spectral._READ_BLOCK or shape[0] == 1
        default = read_matrix(io.BytesIO(data))
        assert default.tobytes() == M.tobytes()
        for block in (1, len(data) + 1):
            monkeypatch.setattr(spectral, "_READ_BLOCK", block)
            assert read_matrix(io.BytesIO(data)).tobytes() == default.tobytes()

    @IO_SETTINGS
    @given(formatted_matrices())
    def test_read_matches_line_parser_across_blocks(self, text):
        """Blocks of 16 bytes put the rows of every matrix in several."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_READ_BLOCK", 16)
            assert parse_outcome(read_text, text) == parse_outcome(line_parse, text)

    def test_binary_streams(self, tmp_path):
        """A binary stream is read as a file's bytes are, and receives the
        same bytes as a path; a text stream receives the same text."""
        assert read_matrix(io.BytesIO(b"1,2\n3,4\n")).tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
        with pytest.raises(MatrixParseError, match="<stream>: line 2: byte 0xe9 is not ASCII"):
            read_matrix(io.BytesIO(b"1,2\n3,\xe94\n"))
        rng = np.random.default_rng(22)
        M = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-30, 30, size=(40, 30))
        binary, text, path = io.BytesIO(), io.StringIO(), tmp_path / "m.csv"
        for target in (binary, text, path):
            write_matrix(target, M)
        assert binary.getvalue() == path.read_bytes() == text.getvalue().encode("ascii")
        assert read_matrix(io.BytesIO(binary.getvalue())).tobytes() == M.tobytes()
