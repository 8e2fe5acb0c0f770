import itertools
from fractions import Fraction as F

import pytest

from czeta.classify import ZeroClassification, classify, dd_product_closed, hurwitz_counts
from czeta.errors import ParameterError, SingularParameter, VerificationError
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
        with pytest.raises(SingularParameter):
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


def test_a_negative_count_off_the_floor_raises(monkeypatch):
    import math
    import sys
    import types

    # the package re-exports the function under the module's name
    module = sys.modules["czeta.classify"]
    monkeypatch.setattr(module, "math", types.SimpleNamespace(
        ceil=math.ceil, floor=lambda x: math.floor(x) + 1))
    with pytest.raises(VerificationError, match=r"^negative count 4 != floor\(-L-1/2\) = 5$"):
        classify(CoulombParams(F(-19, 4), F(3, 2)))


def test_a_negative_sign_above_minus_three_halves_raises(monkeypatch):
    import sys

    module = sys.modules["czeta.classify"]
    # -3/2 read as -7/2: L = -9/4 falls on the all-positive side with one negative sign
    monkeypatch.setattr(module, "Fraction",
                        lambda *args: F(-7, 2) if args == (-3, 2) else F(*args))
    with pytest.raises(VerificationError,
                       match=r"^expected all-positive signs for L = -9/4 > -3/2, got m = 1$"):
        classify(CoulombParams(F(-9, 4), F(1)))


def test_hurwitz_boundary_refusals():
    for nu in (-1, -2, F(-3)):
        with pytest.raises(SingularParameter, match="on excluded set -N$"):
            hurwitz_counts(nu)


def test_classifier_input_checks():
    params = CoulombParams(0, 1)
    with pytest.raises(ParameterError, match=r"^n must be >= 0, got -1$") as exc:
        dd_product_closed(params, -1)
    assert exc.type is ParameterError
    for nmax, message in (("x", r"^nmax must be an integer, got 'x'$"),
                          (-1, r"^nmax must be >= 0, got -1$")):
        with pytest.raises(ParameterError, match=message) as exc:
            classify(params, nmax)
        assert exc.type is ParameterError


def test_every_entry_point_refuses_the_excluded_set_as_singular_parameter():
    # one refusal of the set in each of its three forms, no subclass of it
    import re
    from pathlib import Path

    import czeta
    import czeta.errors

    def refusal(call):
        try:
            call()
        except Exception as exc:  # the exact type is the check
            return type(exc)
        return None

    rational = {
        "zeta_base": czeta.zeta_base,
        "zeta_table": lambda p: czeta.zeta_table(p, 6),
        "recurrence_coeffs": lambda p: czeta.recurrence_coeffs(p, 3),
        "coulomb_routes": lambda p: czeta.coulomb_routes(p, 3),
        "det_coulomb_closed": lambda p: czeta.det_coulomb_closed(p, 3),
        "det_coulomb_via_moments": lambda p: czeta.det_coulomb_via_moments(p, 3),
        "build_coulomb_hankel": lambda p: czeta.build_coulomb_hankel(p, 3),
        "classify": czeta.classify,
        "dd_product_closed": lambda p: czeta.dd_product_closed(p, 2),
    }
    orders = {
        "rayleigh": lambda nu: czeta.rayleigh(nu, 2),
        "rayleigh_routes": lambda nu: czeta.rayleigh_routes(nu, 0, 2),
        "build_rayleigh_hankel": lambda nu: czeta.build_rayleigh_hankel(nu, 0, 2),
        "parity_split_check": lambda nu: czeta.parity_split_check(nu, 2),
        "hurwitz_counts": czeta.hurwitz_counts,
        "det_rayleigh_dj": lambda nu: czeta.det_rayleigh_dj(nu, 2, 2),
        "det_rayleigh_closed": lambda nu: czeta.det_rayleigh_closed(nu, 0, 2),
        "det_rayleigh_ell2": lambda nu: czeta.det_rayleigh_ell2(nu, 2),
        "det_rayleigh_ell3": lambda nu: czeta.det_rayleigh_ell3(nu, 2),
    }
    floats = {
        "phi": lambda L, eta: czeta.phi(L, eta, 0.5),
        "phi_derivative": lambda L, eta: czeta.phi_derivative(L, eta, 0.5),
        "count_zeros_region": lambda L, eta: czeta.count_zeros_region(L, eta, (-1, 1, -1, 1)),
        "find_complex_zeros": lambda L, eta: czeta.find_complex_zeros(L, eta),
    }
    raised = {}
    for L, eta in [(F(-3, 2), 1), (-2, F(1, 2)), (F(-5, 2), 0)]:
        for name, fn in rational.items():
            raised[name, L, eta] = refusal(lambda: fn(CoulombParams(L, eta)))
    for nu in (-1, -2):
        for name, fn in orders.items():
            raised[name, nu] = refusal(lambda: fn(nu))
    for L, eta in [(-1.5, 1.0), (-2.5, 0.0), (-2.0, 0.5)]:
        for name, fn in floats.items():
            raised[name, L, eta] = refusal(lambda: fn(L, eta))
    assert len(raised) == 3 * 9 + 2 * 9 + 3 * 4
    assert {key: kind for key, kind in raised.items() if kind is not SingularParameter} == {}

    # and every type left in czeta.errors is raised somewhere in the package
    source = "".join(path.read_text() for path in
                     (Path(__file__).resolve().parent.parent / "src" / "czeta").glob("*.py"))
    defined = [name for name, v in vars(czeta.errors).items()
               if isinstance(v, type) and v.__module__ == "czeta.errors"]
    assert len(defined) == 6
    assert [name for name in defined if not re.search(rf"\braise {name}\(", source)] == []


@pytest.mark.parametrize("params", [None, (0, 1), F(0)])
def test_every_params_entry_point_refuses_what_is_no_coulomb_params(params):
    import czeta

    calls = [
        lambda: czeta.classify(params),
        lambda: czeta.zeta_table(params, 4),
        lambda: czeta.zeta_base(params),
        lambda: czeta.coulomb_routes(params, 2),
        lambda: czeta.recurrence_coeffs(params, 2),
        lambda: czeta.det_coulomb_closed(params, 2),
        lambda: czeta.det_coulomb_via_moments(params, 2),
        lambda: czeta.build_coulomb_hankel(params, 2),
        lambda: czeta.dd_product_closed(params, 1),
    ]
    for call in calls:
        with pytest.raises(ParameterError) as exc:
            call()
        assert exc.type is ParameterError
        assert str(exc.value) == f"params must be a CoulombParams, got {params!r}"


def test_every_size_refusal_is_a_bare_parameter_error():
    # a size or index that is no integer or lies below its range is not a pole:
    # the base type, naming the parameter
    import ast
    from pathlib import Path

    import numpy as np

    import czeta

    p = CoulombParams(0, 1)
    table = czeta.zeta_table(p, 3)
    refusals = [
        (lambda: czeta.zeta_table(p, 1), "kmax must be >= 2, got 1"),
        (lambda: table.value(1), "k must be >= 2, got 1"),
        (lambda: czeta.rayleigh(1, 0), "k must be >= 1, got 0"),
        (lambda: czeta.bernoulli(0), "n must be >= 1, got 0"),
        (lambda: czeta.genocchi(0), "n must be >= 1, got 0"),
        (lambda: czeta.recurrence_coeffs(p, 0), "nmax must be >= 1, got 0"),
        (lambda: czeta.build_coulomb_hankel(p, 0), "n must be >= 1, got 0"),
        (lambda: czeta.coulomb_routes(p, 0), "n must be >= 1, got 0"),
        (lambda: czeta.det_coulomb_closed(p, 0), "n must be >= 1, got 0"),
        (lambda: czeta.det_coulomb_via_moments(p, 0), "n must be >= 1, got 0"),
        (lambda: czeta.build_rayleigh_hankel(1, 0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.build_rayleigh_hankel(1, -1, 2), "ell must be >= 0, got -1"),
        (lambda: czeta.rayleigh_routes(1, 0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.rayleigh_routes(1, -1, 1), "ell must be >= 0, got -1"),
        (lambda: czeta.det_rayleigh_closed(1, 0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.det_rayleigh_ell2(1, 0), "n must be >= 1, got 0"),
        (lambda: czeta.det_rayleigh_ell3(1, 0), "n must be >= 1, got 0"),
        (lambda: czeta.det_rayleigh_dj(1, 0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.parity_split_check(1, 0), "n must be >= 1, got 0"),
        (lambda: czeta.bernoulli_hankel_det(0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.genocchi_hankel_det(0, 0), "n must be >= 1, got 0"),
        (lambda: czeta.dd_product_closed(p, -1), "n must be >= 0, got -1"),
        (lambda: czeta.classify(p, -1), "nmax must be >= 0, got -1"),
        (lambda: czeta.classify(p, "x"), "nmax must be an integer, got 'x'"),
        (lambda: czeta.classify(CoulombParams(F(-19, 4), F(3, 2)), 2),
         "nmax = 2 too small: sign sequence still negative at its end"),
        # not an integer: a float, a Fraction or a bool
        (lambda: czeta.zeta_table(p, 4.0), "kmax must be an integer, got 4.0"),
        (lambda: czeta.zeta_table(p, True), "kmax must be an integer, got True"),
        (lambda: table.value(3.0), "k must be an integer, got 3.0"),
        (lambda: czeta.rayleigh(1, 2.0), "k must be an integer, got 2.0"),
        (lambda: czeta.bernoulli(F(3)), "n must be an integer, got Fraction(3, 1)"),
        (lambda: czeta.recurrence_coeffs(p, 2.0), "nmax must be an integer, got 2.0"),
        (lambda: czeta.coulomb_routes(p, 2.0), "n must be an integer, got 2.0"),
        (lambda: czeta.det_coulomb_closed(p, 2.5), "n must be an integer, got 2.5"),
        (lambda: czeta.rayleigh_routes(1, 1.0, 2), "ell must be an integer, got 1.0"),
        (lambda: czeta.dd_product_closed(p, 1.0), "n must be an integer, got 1.0"),
        (lambda: czeta.classify(p, True), "nmax must be an integer, got True"),
    ]
    for call, message in refusals:
        try:
            call()
        except Exception as exc:  # the exact type is the check
            assert type(exc) is ParameterError and str(exc) == message, (message, exc)
        else:
            pytest.fail(f"no refusal: {message}")
    # a numpy integer is an integer
    assert czeta.zeta_table(p, np.int64(3)) == table and table.value(np.int64(3)) == table.value(3)
    assert czeta.coulomb_routes(p, np.int64(2)) == czeta.coulomb_routes(p, 2)
    assert czeta.rayleigh(1, np.int32(2)) == czeta.rayleigh(1, 2)
    assert czeta.classify(p, np.int64(5)) == czeta.classify(p, 5)

    # and SingularParameter is raised by the two checks of the excluded set alone
    def raisers(node, name=""):
        for child in ast.iter_child_nodes(node):
            qual = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                qual = f"{name}.{child.name}".lstrip(".")
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "SingularParameter":
                yield qual
            yield from raisers(child, qual)

    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "czeta").glob("*.py"))
    source = "".join(path.read_text() for path in paths)
    assert source.count("raise SingularParameter(") == 3
    found = sorted(q for path in paths for q in raisers(ast.parse(path.read_text())))
    assert found == ["CoulombParams.__init__", "CoulombParams.__init__", "_check_nu"]
