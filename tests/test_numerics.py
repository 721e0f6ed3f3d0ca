from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from urprior.numerics import (
    _left_kernel_vector,
    _parse_literal,
    _rational_pair,
    _reduce,
    format_rational,
    matrix_rank,
    parse_rational,
)

from .dense_reference import (
    Matrix,
    _coprime_integers,
    columns,
    in_span,
    mat_mul,
    mat_vec,
    nullspace_basis,
    rank,
    rref,
)


def _f(x) -> Fraction:
    return Fraction(x)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("1/8") == Fraction(1, 8)
        assert parse_rational("-3/6") == Fraction(-1, 2)

    def test_decimal_string_is_exact(self):
        assert parse_rational("0.3") == Fraction(3, 10)
        assert parse_rational("0.125") == Fraction(1, 8)

    def test_integers(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational(0) == Fraction(0)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            parse_rational(0.3)
        with pytest.raises(TypeError):
            parse_rational(True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("three tenths")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_parse_beyond_the_int_to_str_digit_limit(self):
        big = "1" * 5000
        assert parse_rational("1/" + big) == Fraction(1, (10**5000 - 1) // 9)
        assert parse_rational(big) == (10**5000 - 1) // 9
        assert parse_rational("-" + big + "/3") == -Fraction((10**5000 - 1) // 9, 3)
        assert parse_rational("0." + "0" * 4999 + "7") == Fraction(7, 10**5000)
        assert parse_rational("1" + "0" * 5000 + "e-5000") == 1
        assert parse_rational("1_" + "0" * 4800 + "_0") == 10**4801

    def test_exponent_is_capped(self):
        assert parse_rational("1e10000") == 10**10000
        assert parse_rational("1e-10000") == Fraction(1, 10**10000)
        for text in ["1e-10001", "1e10001", "1e-10000000", "1e+10000000", "-0.5E1_000_000"]:
            start = time.perf_counter()
            with pytest.raises(ValueError) as caught:
                parse_rational(text)
            assert time.perf_counter() - start < 0.5
            assert str(caught.value) == f"decimal exponent beyond 10000 in absolute value: {text!r}"

    def test_long_exponents_are_judged_by_their_significant_digits(self):
        # an exponent is never converted whole, so its length alone can
        # neither trip the interpreter's 4,300-digit limit nor reject it
        too_far = "2.5e" + "9" * 5000
        start = time.perf_counter()
        with pytest.raises(ValueError) as caught:
            parse_rational(too_far)
        assert time.perf_counter() - start < 0.5
        assert str(caught.value) == (
            f"decimal exponent beyond 10000 in absolute value: {too_far[:40]!r}... (5004 characters)"
        )
        assert parse_rational("1e" + "0" * 5000 + "1") == 10
        assert parse_rational("1e-" + "0" * 5000 + "1") == Fraction(1, 10)
        assert parse_rational("-3E+" + "0_0" * 2000) == -3
        assert parse_rational("5e-0010000") == Fraction(5, 10**10000)
        for text in ["1e000010001", "1e-" + "0" * 5000 + "100000", "1e1_0000_0"]:
            with pytest.raises(ValueError, match="decimal exponent beyond 10000"):
                parse_rational(text)

    def test_parse_reads_back_what_format_writes(self):
        rng = random.Random(16)
        for _ in range(20):
            q = Fraction(rng.getrandbits(rng.randint(1, 40000)) - 2**20, rng.getrandbits(20000) | 1)
            assert parse_rational(format_rational(q)) == q

    def test_parse_matches_fraction_on_short_literals(self):
        # digit groups as Python 3.11 reads them (3.10's Fraction rejects them)
        assert parse_rational("1_000/3") == Fraction(1000, 3)
        assert parse_rational("1_0.0_5e-1_0") == Fraction(1005, 10**12)
        for text in ["1__0", "_1", "1_", "1_/2", "1._5", "1e_1"]:
            with pytest.raises(ValueError, match="not a rational literal"):
                parse_rational(text)
        rng = random.Random(17)
        digits = lambda low, high: "".join(rng.choices("0123456789", k=rng.randint(low, high)))
        for _ in range(2000):
            text = rng.choice(["", "-", "+"]) + digits(0, 5)
            text += rng.choice(["", "/" + digits(1, 4), "." + digits(0, 4)])
            if rng.random() < 0.4:
                text += rng.choice("eE") + rng.choice(["", "-", "+"]) + digits(1, 2)
            text = rng.choice(["", " "]) + text + rng.choice(["", "\t"])
            try:
                expected = Fraction(text)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(ValueError, match="not a rational literal"):
                    parse_rational(text)
            else:
                assert parse_rational(text) == expected

    def test_plain_fractions_read_as_the_literal_grammar_reads_them(self):
        # parse_rational and _rational_pair read plain "p/q" strings without
        # the grammar; every string must give the value or the exact error
        # the grammar gives, the pair coprime over a positive denominator
        def by_grammar(text):
            try:
                return _parse_literal(text)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                shown = repr(text)
                if len(text) > 40:
                    shown = f"{text[:40]!r}... ({len(text)} characters)"
                problem = exc.args[0] if isinstance(exc, OverflowError) else "not a rational literal"
                return ValueError, f"{problem}: {shown}"

        def ours(text):
            try:
                value = parse_rational(text)
            except ValueError as exc:
                return ValueError, str(exc)
            assert type(value) is Fraction
            return value

        def pair(text):
            try:
                p, q = _rational_pair(text)
            except ValueError as exc:
                return ValueError, str(exc)
            assert type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
            return Fraction(p, q)

        corpus = ["1/2", "00/05", "0/7", "1/0", "1/00", "0/0", " 1/2", "1/2 ", "+1/2", "-3/6"]
        corpus += ["1_0/3", "1/0_3", "٣/٤", "²/3", "1/", "/2", "/", "1//2", "1/2/3", "1.5/2"]
        corpus += ["1/2e3", "12", "", "1/-2", "1/+2", "0x1/2", "1 /2"]
        for length in (999, 1000, 1001):
            part = "7" * length
            corpus += [f"{part}/3", f"3/{part}", f"{part}/{part}", f"{part}/0", f"-{part}/3"]
        corpus += ["0" * 1001 + "/5", "5/" + "0" * 999 + "7", "5/" + "0" * 1001]
        rng = random.Random(18)
        for _ in range(500):
            corpus.append(f"{rng.getrandbits(rng.randint(0, 3400))}/{rng.getrandbits(rng.randint(0, 3400))}")
        values = 0
        for text in corpus:
            expected = by_grammar(text)
            assert ours(text) == expected, text[:80]
            assert pair(text) == expected, text[:80]
            values += isinstance(expected, Fraction)
        assert values > 400

    def test_error_message_shows_a_short_prefix_of_a_long_literal(self):
        for text in ["x" * 5000, "1/" + "1" * 4997 + "x", "1" * 4998 + "/0"]:
            with pytest.raises(ValueError) as caught:
                parse_rational(text)
            message = str(caught.value)
            assert len(message) < 120
            assert message.startswith("not a rational literal: " + repr(text[:40]))
            assert "5000 characters" in message
        with pytest.raises(ValueError, match=r"^not a rational literal: 'three tenths'$"):
            parse_rational("three tenths")

    def test_format_lowest_terms(self):
        assert format_rational(Fraction(3, 27)) == "1/9"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(2, 1)) == "2"

    def test_format_beyond_the_int_to_str_digit_limit(self):
        assert format_rational(Fraction(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7" + "/3"
        assert format_rational(-(10**5000)) == "-1" + "0" * 5000
        assert format_rational(Fraction(1, 7**9000)).startswith("1/")

    def test_format_huge_values_round_trip(self):
        # parse back in chunks, each far below the interpreter's digit limit
        rng = random.Random(15)
        for _ in range(5):
            n = rng.getrandbits(rng.randint(14000, 60000)) | 1
            text = format_rational(n)
            assert text[0] != "0"
            value = 0
            for start in range(0, len(text), 1000):
                chunk = text[start : start + 1000]
                value = value * 10 ** len(chunk) + int(chunk)
            assert value == n


class TestRref:
    def test_single_row_already_reduced(self):
        m = Matrix.from_rows([[1, -1, 1]])
        result = rref(m)
        assert result.matrix == m
        assert result.pivot_cols == (0,)
        assert result.rank == 1

    def test_three_edge_matrix(self):
        m = Matrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
        result = rref(m)
        assert result.matrix == Matrix.from_rows([[1, 0, -1], [0, 1, -1], [0, 0, 0]])
        assert result.rank == 2
        assert result.pivot_cols == (0, 1)

    def test_zero_matrix(self):
        m = Matrix.from_rows([[0, 0], [0, 0]])
        result = rref(m)
        assert result.matrix == m
        assert result.rank == 0

    def test_empty_rows(self):
        m = Matrix.from_rows([], cols=3)
        result = rref(m)
        assert result.rank == 0
        assert result.matrix.rows == 0

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(50):
            m = _random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
            once = rref(m)
            again = rref(once.matrix)
            assert once.matrix == again.matrix
            assert once.pivot_cols == again.pivot_cols

    def test_rank_plus_nullity(self):
        rng = random.Random(12)
        for _ in range(50):
            m = _random_matrix(rng, rng.randint(0, 5), rng.randint(1, 6))
            assert rank(m) + len(nullspace_basis(m)) == m.cols


class TestNullspace:
    def test_canonical_basis(self):
        basis = nullspace_basis(Matrix.from_rows([[1, -1, 1]]))
        assert basis == [
            (_f(1), _f(1), _f(0)),
            (_f(-1), _f(0), _f(1)),
        ]

    def test_full_rank_has_empty_kernel(self):
        assert nullspace_basis(Matrix.from_rows([[1, 0], [0, 1]])) == []

    def test_empty_matrix_kernel_is_everything(self):
        basis = nullspace_basis(Matrix.from_rows([], cols=3))
        assert basis == [
            (_f(1), _f(0), _f(0)),
            (_f(0), _f(1), _f(0)),
            (_f(0), _f(0), _f(1)),
        ]

    def test_members_are_killed_by_matrix(self):
        rng = random.Random(13)
        for _ in range(50):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            for v in nullspace_basis(m):
                assert all(x == 0 for x in mat_vec(m, v))


class TestInSpan:
    # Columns of the vertex-to-edge map on a triangle: targets in this
    # span are exactly the "difference" vectors (b-a, c-a, c-b).
    EDGE_COLUMNS = [
        (_f(-1), _f(-1), _f(0)),
        (_f(1), _f(0), _f(-1)),
        (_f(0), _f(1), _f(1)),
    ]

    def test_outside_span(self):
        assert in_span(self.EDGE_COLUMNS, (_f(1), _f(0), _f(0))) is None

    def test_inside_span_recombines(self):
        target = (_f(1), _f(2), _f(1))
        coeffs = in_span(self.EDGE_COLUMNS, target)
        assert coeffs is not None
        recombined = [
            sum((c * v[i] for c, v in zip(coeffs, self.EDGE_COLUMNS)), start=_f(0))
            for i in range(3)
        ]
        assert tuple(recombined) == target

    def test_zero_target_gets_zero_coeffs(self):
        assert in_span(self.EDGE_COLUMNS, (_f(0), _f(0), _f(0))) == (_f(0), _f(0), _f(0))

    def test_empty_basis(self):
        assert in_span([], (_f(0), _f(0))) == ()
        assert in_span([], (_f(1), _f(0))) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_span([(_f(1),)], (_f(1), _f(2)))

    def test_random_members_and_outsiders(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(1, 5)
            k = rng.randint(1, 4)
            basis = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)]
            mix = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            target = tuple(
                sum((c * v[i] for c, v in zip(mix, basis)), start=_f(0)) for i in range(n)
            )
            coeffs = in_span(basis, target)
            assert coeffs is not None
            rebuilt = tuple(
                sum((c * v[i] for c, v in zip(coeffs, basis)), start=_f(0)) for i in range(n)
            )
            assert rebuilt == target


class TestMatrixOps:
    def test_mat_vec(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert mat_vec(m, (_f(1), _f(1))) == (_f(3), _f(7))

    def test_mat_mul(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        assert mat_mul(a, b) == Matrix.from_rows([[2, 1], [4, 3]])

    def test_shape_errors(self):
        m = Matrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            mat_vec(m, (_f(1),))
        with pytest.raises(ValueError):
            mat_mul(m, m)

    def test_degenerate_shapes(self):
        empty = Matrix.from_rows([], cols=2)
        assert mat_vec(empty, (_f(1), _f(2))) == ()
        product = mat_mul(empty, Matrix.from_rows([[1], [2]]))
        assert product.rows == 0 and product.cols == 1


def _sparse_columns(m: Matrix) -> list[dict[int, int]]:
    return [{i: int(x) for i, x in enumerate(col) if x} for col in columns(m)]


def _transpose(m: Matrix) -> Matrix:
    return Matrix.from_rows(columns(m), cols=m.rows)


def _random_integer_matrix(rng: random.Random, rows: int, cols: int, density: float) -> Matrix:
    def entry() -> int:
        return rng.choice((-2, -1, 1, 1, 3)) if rng.random() < density else 0

    return Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestSparseKernel:
    """The sparse column reduction against the dense reference in tests/dense_reference.py."""

    def _matrices(self, seed: int, count: int = 120):
        rng = random.Random(seed)
        for _ in range(count):
            yield _random_integer_matrix(rng, rng.randint(0, 7), rng.randint(1, 8), rng.choice((0.2, 0.4, 0.7)))

    def test_rank_matches_reference(self):
        for m in self._matrices(41):
            assert matrix_rank(_sparse_columns(m), m.rows) == rank(m)

    def test_left_kernel_vector_is_the_first_rref_vector_of_the_transpose(self):
        solved = 0
        for m in self._matrices(42):
            basis = nullspace_basis(_transpose(m))
            z = _left_kernel_vector(_reduce(_sparse_columns(m), m.rows), m.rows)
            if not basis:
                assert z is None
                continue
            assert z is not None and 0 not in z.values()
            assert tuple(Fraction(z.get(i, 0)) for i in range(m.rows)) == _coprime_integers(basis[0])
            solved += len(z) > 1
        assert solved >= 10

    def test_rank_plus_nullity(self):
        # every row is a pivot or a free row of the transpose's kernel
        for m in self._matrices(43):
            cols = _sparse_columns(m)
            pivots = _reduce(cols, m.rows)
            assert matrix_rank(cols, m.rows) == len(pivots)
            assert len(pivots) + len(nullspace_basis(_transpose(m))) == m.rows
            assert all(min(column) == row for row, column in pivots.items())

    def test_rank_stops_at_the_row_count(self):
        read = []

        def columns(fourth_row):
            for j in range(10):
                read.append(j)
                yield {j % 3: 1, 3: j + 1} if fourth_row else {j % 3: 1}

        # the first three columns reach rank 3, column 3 reaches the fourth
        # row, and nothing after it is read
        assert matrix_rank(columns(True), 4) == 4
        assert read == [0, 1, 2, 3]
        # rank 3 of 3 rows is reached at column 2
        read.clear()
        assert matrix_rank(columns(False), 3) == 3
        assert read == [0, 1, 2]
        # rank 3 of 4 rows: every column is read
        read.clear()
        assert matrix_rank(columns(False), 4) == 3
        assert read == list(range(10))
        read.clear()
        assert matrix_rank(columns(True), 0) == 0
        assert read == []

    def test_degenerate_shapes(self):
        assert matrix_rank([], 0) == matrix_rank([], 3) == matrix_rank([{}, {}], 3) == 0
        assert _reduce([{}, {}], 3) == _reduce([{0: 1}], 0) == {}

    def test_left_kernel_vector_edge_cases(self):
        # no rows: the transpose has no columns, so no kernel vector
        assert _left_kernel_vector(_reduce([{}, {0: 1}], 0), 0) is None
        # full rank: every row is a pivot
        assert _left_kernel_vector(_reduce([{0: 2, 1: 1}, {1: 3}, {0: 1}], 2), 2) is None
        # no columns, or all-zero ones: the first row is free and nothing is solved
        assert _left_kernel_vector(_reduce([], 3), 3) == {0: 1}
        assert _left_kernel_vector(_reduce([{}, {}], 3), 3) == {0: 1}
        # z = (3, -2, 0): z[0] = -3/2 is made integral by scaling, then the sign flips
        assert _left_kernel_vector(_reduce([{0: 2, 1: 3}], 3), 3) == {0: 3, 1: -2}
        # the first free row is past a later pivot, which stays 0
        assert _left_kernel_vector(_reduce([{1: 1}, {0: 1, 2: 1}], 3), 3) == {0: 1, 2: -1}
