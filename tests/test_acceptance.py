"""Acceptance suite: the release gates of this package, one test per
criterion with its tolerance pinned in the assertion (exact equality for the
algebraic families, fixed numeric tolerances for the zero computations).

Run with `pytest -v tests/test_acceptance.py` (or add `-s` for the explicit
PASS lines printed by each criterion).
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from czeta.classify import classify, hurwitz_counts
from czeta.exact import ExactMatrix, det_exact
from czeta.hankel import (
    bernoulli_hankel_det,
    build_coulomb_hankel,
    build_rayleigh_hankel,
    det_coulomb_closed,
    det_coulomb_via_moments,
    det_rayleigh_closed,
    det_rayleigh_dj,
    det_rayleigh_ell2,
    det_rayleigh_ell3,
    genocchi_hankel_det,
    _rayleigh_products,
)
from czeta.classify import dd_product_closed
from czeta.numeric import find_complex_zeros, phi
from czeta.zeta import CoulombParams

from oracles import bessel_normalized, leibniz_det

L_GRID = [F(-5, 4), F(-1, 2), F(0), F(1, 3), F(1), F(7, 2)]
ETA_GRID = [F(0), F(1, 2), F(1), F(2)]
NU_GRID = [F(1, 2), F(1), F(5, 2), F(4)]

REMARK_ZEROS = {
    F(-7, 4): [(0.1500, 0.2520)],
    F(-11, 4): [(-0.2147, 0.8230), (0.5887, 0.4090)],
    F(-15, 4): [(-0.8719, 1.2916), (0.3538, 1.2646), (1.1374, 0.5345)],
}


def _passed(num, name):
    print(f"acceptance criterion {num:2d} [{name}]: PASS")


def test_criterion_01_coulomb_hankel_three_routes():
    started = time.time()
    for L, eta in itertools.product(L_GRID, ETA_GRID):
        params = CoulombParams(L, eta)
        for n in range(1, 9):
            direct = det_exact(build_coulomb_hankel(params, n).matrix)
            assert direct == det_coulomb_closed(params, n), (L, eta, n)
            assert direct == det_coulomb_via_moments(params, n), (L, eta, n)
    assert time.time() - started < 60
    _passed(1, "zeta Hankel determinant: direct = closed = moment route")


def test_criterion_02_rayleigh_closed_forms():
    for nu in NU_GRID:
        for ell in (0, 1):
            for n in range(1, 7):
                direct = det_exact(build_rayleigh_hankel(nu, ell, n).matrix)
                assert direct == det_rayleigh_closed(nu, ell, n), (nu, ell, n)
    _passed(2, "Rayleigh Hankel closed form, ell in {0,1}")


def test_criterion_03_ell2_ell3_closed_forms_with_witness():
    for nu in NU_GRID:
        for n in range(1, 5):
            assert det_rayleigh_ell2(nu, n) == det_exact(
                build_rayleigh_hankel(nu, 2, n).matrix
            ), (nu, 2, n)
            assert det_rayleigh_ell3(nu, n) == det_exact(
                build_rayleigh_hankel(nu, 3, n).matrix
            ), (nu, 3, n)
    # witness: the {0,1}-shape product evaluated blindly at ell = 2 must differ
    blind = _rayleigh_products(F(1), 2, 1)[-1]
    direct = det_exact(build_rayleigh_hankel(F(1), 2, 1).matrix)
    assert blind != direct
    _passed(3, "ell = 2, 3 closed forms plus blind-extension witness")


def test_criterion_04_desnanot_jacobi_route():
    for nu in NU_GRID:
        for ell in range(7):
            for n in range(1, 5):
                direct = det_exact(build_rayleigh_hankel(nu, ell, n).matrix)
                assert det_rayleigh_dj(nu, ell, n) == direct, (nu, ell, n)
    _passed(4, "Desnanot-Jacobi recursion equals direct determinants")


def test_criterion_05_bernoulli_genocchi_hankel():
    for ell in (0, 1):
        for n in range(1, 7):
            b = bernoulli_hankel_det(ell, n)  # internally checks the closed form
            g = genocchi_hankel_det(ell, n)
            assert abs(b.numerator) == 1, (ell, n, b)
            assert abs(g.numerator) == 1, (ell, n, g)
    _passed(5, "Bernoulli/Genocchi determinants exact and reciprocal integers")


def test_criterion_06_sign_products():
    for L, eta in itertools.product(L_GRID, ETA_GRID):
        params = CoulombParams(L, eta)
        dets = {m: det_exact(build_coulomb_hankel(params, m).matrix) for m in range(1, 7)}
        for n in range(6):
            closed = dd_product_closed(params, n)
            direct = (dets[n] if n >= 1 else F(1)) * dets[n + 1]
            assert closed == direct, (L, eta, n)
            assert (closed > 0) == (2 * L + 2 * n + 3 > 0), (L, eta, n)
    _passed(6, "D-products match determinants and the sign of 2L+2n+3")


def test_criterion_07_zero_classification():
    for L in [F(-5, 4), F(-1, 2), F(0), F(2)]:
        for eta in [F(1, 2), F(1)]:
            assert classify(CoulombParams(L, eta)).pair_count == 0, (L, eta)
    for L, expected in [(F(-7, 4), 1), (F(-11, 4), 2), (F(-15, 4), 3)]:
        result = classify(CoulombParams(L, F(3, 2)))
        assert result.pair_count == expected == math.floor(-L - F(1, 2)), L
    _passed(7, "pair counts: 0 above -3/2 and floor(-L-1/2) below")


def test_criterion_08_reported_nonreal_zeros():
    started = time.time()
    for L, expected in REMARK_ZEROS.items():
        report = find_complex_zeros(float(L), 1.5)
        pairs = [z for z in report.zeros if z.imag > 1e-7]
        assert len(pairs) == len(expected), (L, report.counts)
        for re, im in expected:
            assert any(
                abs(z.real - re) <= 5e-4 and abs(z.imag - im) <= 5e-4 for z in pairs
            ), (L, re, im, pairs)
    assert time.time() - started < 60
    _passed(8, "all reported non-real zeros recovered within 5e-4")


def test_criterion_09_hurwitz_desk_check():
    report = find_complex_zeros(-2.0, 0.0)  # nu = -3/2
    assert report.counts["complex_pairs"] == 1
    assert report.counts["imaginary_pairs"] == 1
    (pair,) = [z for z in report.zeros if z.imag > 1e-7]
    assert abs(pair.real) < 1e-7

    report = find_complex_zeros(-3.0, 0.0)  # nu = -5/2
    assert report.counts["complex_pairs"] == 2
    assert report.counts["imaginary_pairs"] == 0

    report = find_complex_zeros(0.0, 0.0)  # nu = 1/2: sin(rho)/rho
    assert report.counts["complex_pairs"] == 0
    reals = [z for z in report.zeros if abs(z.imag) <= 1e-7]
    assert reals
    for z in reals:
        k = round(z.real / math.pi)
        assert k != 0 and abs(z.real - k * math.pi) <= 1e-8, z
    assert max(report.residuals) < 1e-9

    assert hurwitz_counts(F(-3, 2)) == (2, True)
    assert hurwitz_counts(F(-5, 2)) == (4, False)
    assert hurwitz_counts(F(1, 2)) == (0, False)
    _passed(9, "Bessel desk check: pair counts, imaginary axis, zeros at n*pi")


def test_criterion_10_property_suites():
    # conjugate symmetry of the evaluation, 100 random points
    tol = 1e-12
    rng = random.Random(424242)
    for _ in range(100):
        rho = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert abs(phi(-1.75, 1.5, rho.conjugate(), tol) - phi(-1.75, 1.5, rho, tol).conjugate()) < 10 * tol

    # Bessel reduction at 1e-10 relative, |rho| <= 10
    for nu in (0.5, 1.0, 2.5):
        for rho in (0.4, 3.3, 7.7, 10.0, 2 + 2j, -5 + 4j, 6 - 8j):
            if abs(rho) > 10:
                continue
            reference = bessel_normalized(nu, rho)
            assert abs(phi(nu - 0.5, 0.0, rho) - reference) <= 1e-10 * max(1.0, abs(reference))

    # fraction-free determinant against the Leibniz expansion, 5 x 5, exact
    rng = random.Random(99)
    for _ in range(4):
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(5)
        ]
        assert det_exact(ExactMatrix(rows)) == leibniz_det(rows)
    _passed(10, "property suites: symmetry, Bessel reduction, Leibniz check")
