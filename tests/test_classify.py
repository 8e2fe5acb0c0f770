import itertools
from fractions import Fraction as F

import pytest

from czeta.classify import ZeroClassification, classify, dd_product_closed, hurwitz_counts
from czeta.errors import BoundaryParameter, ExcludedParameter, VerificationError
from czeta.exact import det_exact
from czeta.hankel import build_coulomb_hankel
from czeta.zeta import CoulombParams, zeta_base

L_GRID = [F(-5, 4), F(-1, 2), F(0), F(1, 3), F(1), F(7, 2)]
ETA_GRID = [F(0), F(1, 2), F(1), F(2)]


def test_dd_product_n0_is_base_value():
    for L, eta in itertools.product(L_GRID, ETA_GRID):
        p = CoulombParams(L, eta)
        assert dd_product_closed(p, 0) == zeta_base(p)


def test_dd_product_frozen_values():
    assert dd_product_closed(CoulombParams(0, 0), 1) == F(1, 405)
    # L = -7/4, eta = 3/2: (1/(2L+3)) (1 + eta^2/(L+1)^2) = (-2)(5) = -10
    assert dd_product_closed(CoulombParams(F(-7, 4), F(3, 2)), 0) == -10


@pytest.mark.parametrize("L", L_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_dd_product_equals_determinant_product(L, eta):
    p = CoulombParams(L, eta)
    dets = {m: det_exact(build_coulomb_hankel(p, m).matrix) for m in range(1, 7)}
    for n in range(6):
        direct = (dets[n] if n >= 1 else F(1)) * dets[n + 1]
        assert dd_product_closed(p, n) == direct


@pytest.mark.parametrize("L", [F(-181, 4), F(-137, 3), F(-41, 4)])
@pytest.mark.parametrize("eta", [F(0), F(1, 2), F(11, 4)])
def test_classify_signs_match_the_closed_product(L, eta):
    # classify reads the signs off the factors without evaluating the product
    p = CoulombParams(L, eta)
    result = classify(p)
    closed = [dd_product_closed(p, n) for n in range(len(result.sign_sequence))]
    assert result.sign_sequence == tuple((v > 0) - (v < 0) for v in closed)


@pytest.mark.parametrize("L", L_GRID + [F(-7, 4), F(-11, 4), F(-15, 4)])
def test_dd_product_sign_law(L):
    for eta in ETA_GRID:
        p = CoulombParams(L, eta)
        for n in range(8):
            value = dd_product_closed(p, n)
            assert (value > 0) == (2 * L + 2 * n + 3 > 0)


def test_classify_all_real_cases():
    for L in [F(-5, 4), F(-1, 2), F(0), F(2)]:
        for eta in [F(1, 2), F(1)]:
            result = classify(CoulombParams(L, eta))
            assert result.pair_count == 0
            assert result.all_real
            assert all(s == 1 for s in result.sign_sequence)


def test_classify_complex_pair_counts():
    for L, expected in [(F(-7, 4), 1), (F(-11, 4), 2), (F(-15, 4), 3)]:
        result = classify(CoulombParams(L, F(3, 2)))
        assert result.pair_count == expected
        assert not result.all_real
        assert result.sign_sequence.count(-1) == expected
        # negatives occupy the front of the sequence, trailing signs positive
        assert result.sign_sequence[expected:] == (1,) * (
            len(result.sign_sequence) - expected
        )


def test_classify_bessel_negative_integer():
    assert classify(CoulombParams(-2, 0)).pair_count == 1
    assert classify(CoulombParams(-3, 0)).pair_count == 2


def test_classify_auto_window_size():
    import math

    for L in [F(-15, 4), F(1, 2)]:
        result = classify(CoulombParams(L, F(3, 2)))
        assert len(result.sign_sequence) == max(math.ceil(-L) + 2, 3) + 1


def test_classify_explicit_nmax():
    result = classify(CoulombParams(F(-7, 4), F(3, 2)), nmax=6)
    assert result.pair_count == 1
    assert len(result.sign_sequence) == 7


def test_classify_refuses_excluded_sets():
    for L, eta in [(-2, 1), (F(-3, 2), 1), (-1, F(1, 2)), (F(-3, 2), 0), (F(-5, 2), 0)]:
        with pytest.raises(ExcludedParameter):
            classify(CoulombParams(L, eta))


def test_floor_law_on_wider_grid():
    import math

    for L in [F(-7, 4), F(-9, 4), F(-11, 4), F(-13, 4), F(-15, 4), F(-17, 4), F(-8, 3)]:
        result = classify(CoulombParams(L, F(3, 2)))
        assert result.pair_count == math.floor(-L - F(1, 2))


def test_hurwitz_trichotomy():
    assert hurwitz_counts(F(1, 2)) == (0, False)
    assert hurwitz_counts(F(-3, 2)) == (2, True)
    assert hurwitz_counts(F(-5, 2)) == (4, False)
    assert hurwitz_counts(F(-7, 2)) == (6, True)
    assert hurwitz_counts(F(0)) == (0, False)


def test_hurwitz_agrees_with_classifier_on_grid():
    # nu scanned through (-4, 3) off the integer boundaries
    for numerator in range(-15, 12):
        nu = F(numerator, 4)
        if nu.denominator == 1 and nu.numerator <= -1:
            continue
        counts = hurwitz_counts(nu)
        pairs = classify(CoulombParams(nu - F(1, 2), 0)).pair_count
        assert counts.complex_zeros == 2 * pairs


def test_hurwitz_raises_when_the_classifier_disagrees(monkeypatch):
    import sys

    # the package re-exports the function under the module's name
    module = sys.modules[hurwitz_counts.__module__]
    real = module.classify

    def off_by_one(params, nmax="auto"):
        result = real(params, nmax)
        return ZeroClassification(result.params, result.pair_count + 1, result.sign_sequence,
                                  result.all_real)

    monkeypatch.setattr(module, "classify", off_by_one)
    with pytest.raises(VerificationError):
        hurwitz_counts(F(-5, 2))


def test_hurwitz_boundary_refusals():
    for nu in (-1, -2, F(-3)):
        with pytest.raises(BoundaryParameter):
            hurwitz_counts(nu)


def test_classifier_input_checks():
    params = CoulombParams(0, 1)
    with pytest.raises(ExcludedParameter, match=r"^n must be >= 0, got -1$"):
        dd_product_closed(params, -1)
    for nmax in ("x", -1):
        message = rf"^nmax must be a nonnegative integer or 'auto', got {nmax!r}$"
        with pytest.raises(ExcludedParameter, match=message):
            classify(params, nmax)
