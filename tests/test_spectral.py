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
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from svshrink import (
    ContractError,
    DenoiseProblem,
    MatrixParseError,
    MatrixShape,
    eym_truncate,
    read_matrix,
    reconstruct,
    svd,
    write_matrix,
)
from svshrink.spectral import _FORMAT_BLOCK, _parse_lines, truncated_spectrum

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


class TestReconstruct:
    """Synthesis from factors with replacement singular values."""

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
        with pytest.raises(ContractError, match="rank must be an integer, got 1.5"):
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
