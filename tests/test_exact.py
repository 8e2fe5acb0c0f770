import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czeta.errors import ParameterError
from czeta.exact import ExactMatrix, det_exact, diag_scale, format_rational, parse_rational

from oracles import leibniz_det


def rational_matrix(rng, n, span=9):
    return [
        [F(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]
        for _ in range(n)
    ]


def test_det_1x1_identity_case():
    assert det_exact(ExactMatrix.from_rows([[F(5, 3)]])) == F(5, 3)


def test_det_2x2_diagonal():
    m = ExactMatrix.from_rows([[F(1, 3), 0], [0, F(1, 45)]])
    assert det_exact(m) == F(1, 135)


def test_det_2x2_zeta_entries_cofactor():
    # entries zeta(2..4) at L = 0, eta = 0; cofactor expansion done by hand
    a, b, c = F(1, 3), F(0), F(1, 45)
    m = ExactMatrix.from_rows([[a, b], [b, c]])
    assert det_exact(m) == a * c - b * b == F(1, 135)


def test_det_needs_pivoting():
    m = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert det_exact(m) == -1


def test_det_singular():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert det_exact(m) == 0
    # an all-zero column: the determinant is 0 before any elimination
    m = ExactMatrix.from_rows([[F(1, 3), 0, 5], [F(-2, 7), 0, 1], [4, 0, F(9, 2)]])
    assert det_exact(m) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_leibniz(n):
    rng = random.Random(1000 + n)
    for _ in range(6):
        rows = rational_matrix(rng, n)
        assert det_exact(ExactMatrix.from_rows(rows)) == leibniz_det(rows)
    for _ in range(3):
        # columns with a common integer content, negative entries included
        contents = [rng.choice([-12, -3, 2, 6, 35]) for _ in range(n)]
        rows = [[c * rng.randint(-9, 9) for c in contents] for _ in range(n)]
        assert det_exact(ExactMatrix.from_rows(rows)) == leibniz_det(rows)
        # row denominators that differ by orders of magnitude
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 9) * 10 ** (4 * i)) for _ in range(n)]
            for i in range(n)
        ]
        assert det_exact(ExactMatrix.from_rows(rows)) == leibniz_det(rows)


def test_matrix_validation():
    with pytest.raises(ParameterError):
        ExactMatrix.from_rows([])
    with pytest.raises(ParameterError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_diag_scale_identity_2x2():
    scaled = diag_scale(ExactMatrix.identity(2), F(2))
    assert scaled.entries == ((F(4), F(0)), (F(0), F(16)))
    assert det_exact(scaled) == 2 ** (2 * 3) * det_exact(ExactMatrix.identity(2))


def test_diag_scale_1x1_forces_square():
    assert diag_scale(ExactMatrix.from_rows([[F(7, 5)]]), F(3)).entries == ((F(63, 5),),)


def test_diag_scale_rejects_zero():
    with pytest.raises(ParameterError):
        diag_scale(ExactMatrix.identity(2), 0)


def test_diag_scale_recovers_halved_hankel():
    # h_{i+j} = (1/2)^{i+j} g_{i+j}: scaling the g-matrix by 1/2 gives the
    # h-matrix, and the determinants differ by (1/2)^(n(n+1)); n = 3
    rng = random.Random(77)
    g = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * 3 + 1)]
    g_matrix = [[g[i + j + 2] for j in range(3)] for i in range(3)]
    h_matrix = [
        [F(1, 2) ** (i + j + 2) * g[i + j + 2] for j in range(3)] for i in range(3)
    ]
    assert diag_scale(ExactMatrix.from_rows(g_matrix), F(1, 2)).entries == tuple(
        tuple(row) for row in h_matrix
    )
    assert leibniz_det(h_matrix) == F(1, 2) ** (3 * 4) * leibniz_det(g_matrix)


@given(
    alpha=st.fractions(min_value=F(-6), max_value=F(6), max_denominator=8).filter(
        lambda a: a != 0
    ),
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_diag_scale_determinant_law(alpha, seed, n):
    rows = rational_matrix(random.Random(seed), n, span=6)
    m = ExactMatrix.from_rows(rows)
    assert det_exact(diag_scale(m, alpha)) == alpha ** (n * (n + 1)) * det_exact(m)


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
