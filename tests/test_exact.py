import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czeta.errors import ParameterError
from czeta.exact import (
    ExactMatrix,
    det_exact,
    format_rational,
    leading_minors,
    parse_rational,
)

from oracles import leibniz_det


def rational_matrix(rng, n, span=9):
    return [
        [F(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]
        for _ in range(n)
    ]


def hankel_rows(moments, n):
    return [[moments[i + j] for j in range(n)] for i in range(n)]


def test_det_1x1_identity_case():
    assert det_exact(ExactMatrix([[F(5, 3)]])) == F(5, 3)


def test_det_2x2_diagonal():
    m = ExactMatrix([[F(1, 3), 0], [0, F(1, 45)]])
    assert det_exact(m) == F(1, 135)


def test_det_2x2_zeta_entries_cofactor():
    # entries zeta(2..4) at L = 0, eta = 0; cofactor expansion done by hand
    a, b, c = F(1, 3), F(0), F(1, 45)
    m = ExactMatrix([[a, b], [b, c]])
    assert det_exact(m) == a * c - b * b == F(1, 135)


def test_det_needs_pivoting():
    m = ExactMatrix([[0, 1], [1, 0]])
    assert det_exact(m) == -1


def test_det_singular():
    m = ExactMatrix([[1, 2], [2, 4]])
    assert det_exact(m) == 0
    # an all-zero column: the determinant is 0 before any elimination
    m = ExactMatrix([[F(1, 3), 0, 5], [F(-2, 7), 0, 1], [4, 0, F(9, 2)]])
    assert det_exact(m) == 0


def assert_det_and_minors_match_leibniz(rows):
    m = ExactMatrix(rows)
    minors = leading_minors(m)
    assert minors == [leibniz_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]
    assert det_exact(m) == leibniz_det(rows) == minors[-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_leibniz(n):
    rng = random.Random(1000 + n)
    for _ in range(6):
        assert_det_and_minors_match_leibniz(rational_matrix(rng, n))
    for _ in range(3):
        # columns with a common integer content, negative entries included
        contents = [rng.choice([-12, -3, 2, 6, 35]) for _ in range(n)]
        assert_det_and_minors_match_leibniz(
            [[c * rng.randint(-9, 9) for c in contents] for _ in range(n)]
        )
        # row denominators that differ by orders of magnitude
        assert_det_and_minors_match_leibniz(
            [
                [F(rng.randint(-9, 9), rng.randint(1, 9) * 10 ** (4 * i)) for _ in range(n)]
                for i in range(n)
            ]
        )
    for i in range(6):
        # Hankel matrices: zero and negative moments, and mu_0 = 0 in the first
        moments = [F(rng.choice([0, 1, 1]) * rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(2 * n - 1)]
        if i == 0:
            moments[0] = F(0)
        assert_det_and_minors_match_leibniz(hankel_rows(moments, n))


def test_leading_minors_1x1():
    assert leading_minors(ExactMatrix([[F(-5, 3)]])) == [F(-5, 3)]


def test_leading_minors_after_a_zero_pivot():
    # D_1 = 0 ends the elimination; D_2 comes from its own determinant
    assert leading_minors(ExactMatrix([[0, 1], [1, 0]])) == [0, -1]


def test_hankel_leading_minors_after_a_zero_minor_in_the_middle():
    # mu_0 mu_2 = mu_1^2 makes D_2 = 0; D_3 and D_4 come from their own determinants
    rows = hankel_rows([F(2), F(-2), F(2), F(5, 3), F(-1, 4), F(7), F(3, 2)], 4)
    minors = leading_minors(ExactMatrix(rows))
    assert minors[1] == 0 and all(minors[k] != 0 for k in (0, 2, 3))
    assert_det_and_minors_match_leibniz(rows)


def test_bareiss_runs_only_for_non_hankel_input_and_zero_minors(monkeypatch):
    import czeta.exact
    from czeta.hankel import build_coulomb_hankel, build_rayleigh_hankel
    from czeta.zeta import CoulombParams

    passes, bareiss = [], czeta.exact._bareiss_minors  # the size of each Bareiss pass
    chebyshev, hankel_minors = [], czeta.exact._hankel_minors  # one entry per call

    def counted(rows, swap):
        passes.append(len(rows))
        return bareiss(rows, swap)

    def counted_hankel(m):
        chebyshev.append(m.dim)
        return hankel_minors(m)

    monkeypatch.setattr(czeta.exact, "_bareiss_minors", counted)
    monkeypatch.setattr(czeta.exact, "_hankel_minors", counted_hankel)
    zeta_matrix = build_coulomb_hankel(CoulombParams(F(-185, 4), F(3, 2)), 12).matrix
    assert leading_minors(zeta_matrix)[-1] == det_exact(zeta_matrix)
    assert passes == []
    non_hankel = ExactMatrix([[F(1, 3), 2, 5], [F(-2, 7), 1, 1], [4, F(1, 2), F(9, 2)]])
    leading_minors(non_hankel)
    det_exact(non_hankel)
    assert passes == [3, 3]
    # at nu = -23/7, ell = 3 the 2 x 2 minor vanishes: every later minor takes
    # one Bareiss pass, after one Chebyshev pass that stops at that zero
    for n in (4, 12):
        passes.clear()
        chebyshev.clear()
        leading_minors(build_rayleigh_hankel(F(-23, 7), 3, n).matrix)
        assert passes == list(range(3, n + 1))
        assert chebyshev == [n]


def test_leading_minors_with_a_zero_column():
    # an all-zero third column: D_1, D_2 are unaffected, every later minor is 0
    rows = [[F(1, 3), 2, 0, 5], [F(-2, 7), 1, 0, 1], [4, F(1, 2), 0, F(9, 2)], [1, 1, 0, 1]]
    assert leading_minors(ExactMatrix(rows)) == [F(1, 3), F(19, 21), 0, 0]
    assert_det_and_minors_match_leibniz(rows)


def test_leading_minors_of_the_degenerate_rayleigh_matrix():
    # at nu = -23/7, ell = 3 the 2 x 2 minor vanishes and the 3 x 3 and 4 x 4 do not
    from czeta.hankel import build_rayleigh_hankel

    m = build_rayleigh_hankel(F(-23, 7), 3, 4).matrix
    minors = leading_minors(m)
    assert minors[1] == 0 and all(minors[k] != 0 for k in (0, 2, 3))
    assert_det_and_minors_match_leibniz([list(row) for row in m.entries])


def test_leading_minors_keep_their_row_scales_and_contents():
    # every minor below the last needs the row scales of its own rows only:
    # a dropped or full-matrix factor shows here
    rows = [[F(1, 2), 6, F(9, 5)], [F(3, 4), F(8, 3), 12], [F(5, 7), 10, F(3, 11)]]
    assert_det_and_minors_match_leibniz(rows)


def test_matrix_validation():
    with pytest.raises(ParameterError):
        ExactMatrix([])
    with pytest.raises(ParameterError):
        ExactMatrix([[1, 2], [3]])


@pytest.mark.parametrize("call,message", [
    (lambda: ExactMatrix([[float("nan")]]), "matrix entry must be a finite rational, got nan"),
    (lambda: ExactMatrix([[1, 2], [3, "x"]]), "matrix entry must be a finite rational, got 'x'"),
    (lambda: format_rational(float("nan")), "value must be a finite rational, got nan"),
    (lambda: format_rational(None), "value must be a finite rational, got None"),
    (lambda: parse_rational(None), "expected an exact rational 'p/q' or integer, got None"),
    (lambda: parse_rational(b"1/2"), "expected an exact rational 'p/q' or integer, got b'1/2'"),
    # a row, or the matrix, that is no sequence, and a list where an ExactMatrix is taken
    (lambda: ExactMatrix([1]), "matrix must be a sequence of rows of entries"),
    (lambda: ExactMatrix([[1, 2], 3]), "matrix must be a sequence of rows of entries"),
    (lambda: ExactMatrix(None), "matrix must be a sequence of rows of entries"),
    # text is no sequence of entries: a str or bytes row is not read character by character
    (lambda: ExactMatrix(["12", "34"]), "matrix must be a sequence of rows of entries"),
    (lambda: ExactMatrix([b"12", b"34"]), "matrix must be a sequence of rows of entries"),
    (lambda: ExactMatrix("1"), "matrix must be a sequence of rows of entries"),
    (lambda: det_exact([[1]]), "matrix must be an ExactMatrix, got list"),
    (lambda: leading_minors(None), "matrix must be an ExactMatrix, got NoneType"),
], ids=["entry-nan", "entry-string", "format-nan", "format-none", "parse-none", "parse-bytes",
        "row-int", "second-row-int", "matrix-none", "row-string", "row-bytes", "matrix-string",
        "det-list", "minors-none"])
def test_a_value_that_is_no_rational_is_refused_by_name(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert exc.type is ParameterError and str(exc.value) == message


@given(
    alpha=st.fractions(min_value=F(-6), max_value=F(6), max_denominator=8).filter(
        lambda a: a != 0
    ),
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_det_exact_under_diagonal_conjugation(alpha, seed, n):
    # conjugating by diag(alpha, ..., alpha^n) scales entry (i, j) by
    # alpha^(i+j+2) and the determinant by alpha^(n(n+1))
    rows = rational_matrix(random.Random(seed), n, span=6)
    scaled = [[alpha ** (i + j + 2) * e for j, e in enumerate(row)] for i, row in enumerate(rows)]
    assert det_exact(ExactMatrix(scaled)) == alpha ** (n * (n + 1)) * det_exact(ExactMatrix(rows))


@given(
    a=st.fractions(max_denominator=50),
    b=st.fractions(max_denominator=50),
    c=st.fractions(max_denominator=50),
)
@settings(max_examples=100, deadline=None)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    for value in (a + b, a * b, a - c):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1


def test_rational_round_trip():
    for text, value in [("5/3", F(5, 3)), ("-7/4", F(-7, 4)), ("12", F(12)), ("0", F(0))]:
        assert parse_rational(text) == value
        assert parse_rational(format_rational(value)) == value


def test_rational_rejects_decimals_and_garbage():
    for bad in ["0.5", "1e3", "3/0", "1/-2", "", "one"]:
        with pytest.raises(ParameterError):
            parse_rational(bad)
