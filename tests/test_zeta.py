import random
from fractions import Fraction as F

import pytest

from czeta.classify import classify
from czeta.errors import SingularParameter
from czeta.hankel import _coulomb_closed, recurrence_coeffs
from czeta.zeta import (
    CoulombParams,
    ZetaTable,
    bernoulli,
    genocchi,
    rayleigh,
    zeta_base,
    zeta_extend,
    zeta_table,
)

from oracles import bernoulli_classical, GENOCCHI_CLASSICAL, sigma2_closed, sigma4_closed, sigma6_from_convolution


def test_base_value_frozen_cases():
    assert zeta_base(CoulombParams(0, 0)) == F(1, 3)
    assert zeta_base(CoulombParams(0, 1)) == F(2, 3)
    # at L = 1/2, eta = 0 the base value is twice sigma_2(1) = 2/8
    assert zeta_base(CoulombParams(F(1, 2), 0)) == F(1, 4) == 2 * sigma2_closed(1)


def test_base_singular_parameters():
    with pytest.raises(SingularParameter):
        zeta_base(CoulombParams(F(-3, 2), 0))
    with pytest.raises(SingularParameter):
        zeta_base(CoulombParams(-1, 1))
    # eta = 0 allows negative integers
    assert zeta_base(CoulombParams(-1, 0)) == 1
    assert zeta_base(CoulombParams(-2, 0)) == -1


def test_recurrence_hand_unrolled():
    # empty convolution at the first step: zeta(3) = (1/4) * 2 * zeta(2)
    t = zeta_table(CoulombParams(0, 1), 5)
    assert t.value(3) == F(1, 3)
    assert t.value(4) == F(2, 9)
    assert t.value(5) == F(4, 27)
    # eta = 0: single convolution term, zeta(4) = zeta(2)^2 / 5
    t0 = zeta_table(CoulombParams(0, 0), 8)
    assert t0.values() == [F(1, 3), 0, F(1, 45), 0, F(2, 945), 0, F(1, 4725)]


@pytest.mark.parametrize("nu", [F(1, 2), F(1), F(5, 2), F(4), F(-1, 2), F(7, 3)])
def test_parity_odd_values_vanish(nu):
    t = zeta_table(CoulombParams(nu - F(1, 2), 0), 23)
    for k in range(1, 11):
        assert t.value(2 * k + 1) == 0


def test_negative_integer_orbital_on_bessel_branch():
    # the recurrence meets a 0/0 at one odd index; evenness fixes it to 0
    t = zeta_table(CoulombParams(-2, 0), 8)
    assert t.value(3) == 0 and t.value(5) == 0 and t.value(7) == 0
    assert t.value(2) == -1
    assert t.value(4) == 1  # zeta(2)^2 / (2L+5) = 1/1


def test_validate_rejects_every_closed_formula_pole():
    # CoulombParams.validate is the only check of the excluded set: each zero of
    # a factor of zeta_L(2), of the recurrence coefficients a_n, b_n, of the
    # closed product or of the classifier's signs must lie in it
    for m in range(1, 61):
        n = m - 1  # b_n and the classifier's sign index start at 0
        every_eta = {
            "2L+3 of zeta_L(2)": F(-3, 2),
            "2m+2L+1 of a_m and the closed product": F(-2 * m - 1, 2),
            "2m+2L+3 of a_m": F(-2 * m - 3, 2),
            "2L+2n+3 of the classifier": F(-2 * n - 3, 2),
        }
        eta_nonzero = {
            "L+1 of zeta_L(2)": F(-1),
            "n+L+1 of b_n": F(-n - 1),
            "n+L+2 of b_n": F(-n - 2),
            "m+L+1 of a_m": F(-m - 1),
            "L+m of the closed product": F(-m),
            "L+n+1 of the classifier": F(-n - 1),
        }
        for etas, poles in (((0, F(1, 2)), every_eta), ((F(1, 2),), eta_nonzero)):
            for factor, L in poles.items():
                for eta in etas:
                    try:
                        CoulombParams(L, eta).validate()
                    except SingularParameter:
                        continue
                    pytest.fail(f"{factor} vanishes at L = {L}, eta = {eta}; validate accepts it")
        # the eta = 0 branch keeps negative integer L, and the formulas answer there
        params = CoulombParams(-m, 0)
        params.validate()
        assert len(_coulomb_closed(params, 8)) == 8
        assert recurrence_coeffs(params, 8).nmax == 8
        assert classify(params).pair_count == m - 1


def test_table_is_memoized_and_monotone():
    t = zeta_table(CoulombParams(0, 1), 4)
    first = t.values()
    zeta_extend(t, 10)
    assert t.values()[: len(first)] == first
    assert t.kmax == 10


@pytest.mark.parametrize(
    "L, eta",
    [
        (0, 1),
        (-2, 0),  # at eta = 0 the negative integers pass the 0/0 branch
        (-5, 0),
        # eta != 0 pairs from the exact-deep grid L = -(m+q), |L| up to 46
        *(pytest.param(-(m + q), eta, id=f"{-(m + q)}-{eta}") for m, q, eta in [
            (10, F(1, 4), F(3, 4)),
            (23, F(2, 3), F(3, 2)),
            (31, F(1, 3), F(1, 4)),
            (38, F(3, 4), F(11, 4)),
            (45, F(2, 3), F(3)),
        ]),
    ],
)
def test_table_grown_in_steps_equals_one_call(L, eta):
    # the two scales of ZetaTable survive growth in any steps, through
    # zeta_extend and through .value(k) past kmax
    p = CoulombParams(L, eta)
    whole = zeta_table(p, 110).values()
    single = zeta_table(p, 2)
    for kmax in range(3, 111):
        zeta_extend(single, kmax)
    assert single.values() == whole
    rng = random.Random(f"{L} {eta}")
    uneven, by_value, kmax = zeta_table(p, 2), zeta_table(p, 2), 2
    while kmax < 110:
        kmax = min(110, kmax + rng.choice((1, 2, 3, 7, 13, 29)))
        zeta_extend(uneven, kmax)
        assert by_value.value(kmax) == whole[kmax - 2]
    assert uneven.values() == by_value.values() == whole
    assert uneven == by_value == single


def test_table_repr_and_equality_see_only_params_and_values(monkeypatch):
    p = CoulombParams(F(-1, 3), F(1, 2))
    table = zeta_table(p, 12)
    text = f"ZetaTable(params={p!r}, _values={table.values()!r})"
    assert repr(table) == text
    # other private scales and numerators change neither repr nor ==
    scaled = zeta_table(p, 12)
    scaled._den, scaled._half_den = 7 * scaled._den, 5 * scaled._half_den
    scaled._nums, scaled._half = [7 * x for x in scaled._nums], [5 * x for x in scaled._half]
    assert scaled == table and not scaled != table and repr(scaled) == text
    scaled._nums[0] += 1
    scaled._den = 0
    assert scaled == table and repr(scaled) == text
    # grown in other steps, the scales and numerators differ; the tables do not
    stepped = zeta_table(p, 3)
    for kmax in (5, 8, 12):
        zeta_extend(stepped, kmax)
    assert stepped == table and repr(stepped) == repr(table)
    assert stepped != zeta_table(p, 13)
    assert table != zeta_table(CoulombParams(F(-1, 3), F(1, 3)), 12)
    # the class takes a replacement method, as a tracer installs one
    grown = []
    extend_to = ZetaTable.extend_to

    def counted(self, kmax):
        grown.append(kmax)
        return extend_to(self, kmax)

    monkeypatch.setattr(ZetaTable, "extend_to", counted)
    assert table.value(14) == zeta_table(p, 14).value(14) and grown == [14, 14]


def test_rayleigh_against_closed_formulas():
    for nu in [F(1, 2), F(1), F(5, 2), F(4), F(-1, 2), F(7, 3), F(-4, 3)]:
        assert rayleigh(nu, 1) == sigma2_closed(nu)
        assert rayleigh(nu, 2) == sigma4_closed(nu)
        assert rayleigh(nu, 3) == sigma6_from_convolution(nu)


def test_rayleigh_frozen_values():
    assert rayleigh(1, 1) == F(1, 8)
    assert rayleigh(1, 2) == F(1, 192)
    assert rayleigh(1, 3) == F(1, 3072)
    assert rayleigh(F(1, 2), 3) == F(1, 945)


def test_rayleigh_rejects_negative_integers():
    for nu in (-1, -2, F(-3)):
        with pytest.raises(SingularParameter):
            rayleigh(nu, 1)


def test_positivity_of_base_value():
    for L in [F(-5, 4), F(-1, 2), 0, F(1, 3), 1, F(7, 2)]:
        for eta in [0, F(1, 2), 1, 2]:
            assert zeta_base(CoulombParams(L, eta)) > 0


def test_deep_tables_stay_exact_on_rational_grid():
    for L in [F(-5, 4), F(-1, 2), F(1, 3), F(7, 2), F(-9, 5)]:
        for eta in [0, F(1, 2), F(3, 2)]:
            table = zeta_table(CoulombParams(L, eta), 24)
            assert len(table.values()) == 23
            assert all(isinstance(v, F) for v in table.values())


def test_bernoulli_against_classical_recurrence():
    for n in range(1, 11):
        assert bernoulli(n) == bernoulli_classical(2 * n)


def test_genocchi_both_bridges_and_classical_values():
    # genocchi() already asserts the sigma(-1/2) route internally
    for n in range(1, 11):
        assert genocchi(n) == GENOCCHI_CLASSICAL[n - 1]


def test_bernoulli_frozen_small_cases():
    assert bernoulli(1) == F(1, 6)
    assert bernoulli(2) == F(-1, 30)
    assert bernoulli(3) == F(1, 42)
    assert genocchi(1) == -1
    assert genocchi(2) == 1
    assert genocchi(3) == -3


def test_zeta_input_checks_name_the_bad_index():
    params = CoulombParams(0, 1)
    table = zeta_table(params, 3)
    for call in (lambda: zeta_table(params, 1), lambda: zeta_extend(table, 1)):
        with pytest.raises(SingularParameter, match=r"^kmax must be >= 2, got 1$"):
            call()
    with pytest.raises(SingularParameter, match=r"^zeta_L\(k\) requires k >= 2, got 1$"):
        table.value(1)
    with pytest.raises(SingularParameter, match=r"^Rayleigh order requires k >= 1, got 0$"):
        rayleigh(1, 0)
    with pytest.raises(SingularParameter, match=r"^bernoulli\(n\) requires n >= 1, got 0$"):
        bernoulli(0)
    with pytest.raises(SingularParameter, match=r"^genocchi\(n\) requires n >= 1, got 0$"):
        genocchi(0)


def test_zeta_value_beyond_kmax_extends_the_table():
    params = CoulombParams(0, 1)
    table = zeta_table(params, 3)
    assert table.kmax == 3
    assert table.value(6) == zeta_table(params, 6).values()[-1]
    assert table.kmax == 6 and table.values() == zeta_table(params, 6).values()
