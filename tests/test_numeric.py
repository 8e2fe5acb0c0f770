import cmath
import itertools
import math
import random
import re
import struct
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import mpmath as mp
import pytest

from czeta.classify import classify
from czeta.errors import (ContourTooClose, NoConvergence, ParameterError, SingularParameter,
                          UnsupportedEll, VerificationError)
from czeta.hankel import recurrence_coeffs
from czeta.numeric import (
    _REACH,
    _SERIES_CAP,
    Rect,
    _Evaluator,
    _first_stop,
    _floor_refusal,
    _jacobi,
    _newton,
    _phase_along_edge,
    _series,
    _series_radius,
    _ql_eigenvalues,
    _stops_at,
    _winding,
    count_zeros_region,
    default_search_region,
    find_complex_zeros,
    phi,
    phi_derivative,
)
from czeta.verify import load_grid
from czeta.zeta import CoulombParams, zeta_table

from oracles import (SeriesNoConvergence, bessel_normalized, phi_derivative_mpmath,
                     phi_hyp1f1, phi_mpmath, series_sum_reference)

mp.mp.dps = 35


def test_phi_at_origin_is_one():
    for L, eta in [(0.0, 0.0), (0.5, 1.0), (-1.75, 1.5), (-2.0, 0.0)]:
        assert phi(L, eta, 0) == 1


def test_phi_sinc_reduction():
    # nu = 1/2: the factor reduces to sin(rho)/rho
    assert abs(phi(0, 0, math.pi)) < 1e-12
    assert abs(phi(0, 0, math.pi / 2) - 2 / math.pi) < 1e-13
    z = 1.3 + 0.4j
    assert abs(phi(0, 0, z) - cmath.sin(z) / z) < 1e-13


def test_phi_cosine_reduction():
    # nu = -1/2 (integer orbital on the eta = 0 branch): cos(rho)
    for x in (0.25, 1.3, 2.9, 1 + 1j):
        assert abs(phi(-1, 0, x) - cmath.cos(x)) < 1e-12


@pytest.mark.parametrize("params", [(0.0, 0.0), (0.5, 1.0), (-1.75, 1.5), (-3.75, 1.5)])
def test_phi_against_confluent_product_route(params):
    # alternative evaluation: e^(-i rho) times the confluent series, summed in
    # complex arithmetic; trustworthy at moderate |rho|
    L, eta = params
    for rho in (0.3, 1.1, 2.7, 4.0, 0.5 + 0.9j, -2 + 1j, 1.5 - 2j):
        a = phi(L, eta, rho)
        b = phi_hyp1f1(L, eta, rho)
        assert abs(a - b) <= 1e-11 * (1 + abs(b))


@pytest.mark.parametrize(
    "L,eta,rho",
    [
        (0.0, 0.0, 3.7),
        (0.5, 1.0, 2 + 1j),
        (-1.75, 1.5, 0.15 + 0.25j),
        (-2.75, 1.5, -3 + 2j),
        (1.0, 2.0, 8.0),
        (-3.75, 1.5, 6 - 4j),
    ],
)
def test_phi_against_high_precision(L, eta, rho):
    reference = phi_mpmath(L, eta, rho)
    assert abs(phi(L, eta, rho) - reference) <= 1e-12 * (1 + abs(reference))


def test_phi_derivative_matches_high_precision():
    for L, eta, rho in [(0.0, 0.0, 2.3), (-1.75, 1.5, 0.4 + 0.3j)]:
        reference = complex(
            mp.diff(lambda r: mp.e ** (-1j * r) * mp.hyp1f1(
                mp.mpf(L) + 1 - 1j * mp.mpf(eta), 2 * mp.mpf(L) + 2, 2j * r
            ), mp.mpc(rho))
        )
        assert abs(phi_derivative(L, eta, rho) - reference) <= 1e-10 * (1 + abs(reference))


def test_phi_singular_parameters():
    # a float on the excluded set is refused by CoulombParams.validate, with its message
    for L, eta, message in [
        (-1, 1.0, r"^L = -1 on excluded set -\(N\+1\)/2 \(eta != 0\)$"),  # 2L+2 = 0
        (-1.5, 0.7, r"^L = -3/2 on excluded set -\(N\+1\)/2 \(eta != 0\)$"),  # 2L+2 = -1
        # eta = 0 but half-integer orbital: genuinely singular
        (-2.5, 0.0, r"^L = -5/2 on excluded set -N-1/2 \(eta = 0 branch\)$"),
    ]:
        with pytest.raises(SingularParameter, match=message) as info:
            phi(L, eta, 0.5)
        assert type(info.value) is SingularParameter
    # eta = 0 with integer orbital stays on the Bessel branch
    assert phi(-2.0, 0.0, 0.3) != 0
    # floats just off the set are evaluated at their exact values, however near it
    for L in (-1.5 + 1e-10, -1.5 - 1e-10, -1.4999999999999998, -2 + 3e-10, -1 + 1e-11,
              -2.5 + 1e-10):
        for eta in (0.0, 1.0):
            for rho in (0.7 + 0.2j, -1.3 + 0.5j, 2.5 - 0.1j):
                ref = phi_mpmath(L, eta, rho)
                assert abs(phi(L, eta, rho) - ref) <= 1e-12 * max(1, abs(ref)), (L, eta, rho)
                dref = complex(mp.diff(lambda r: mp.e ** (-1j * r) * mp.hyp1f1(
                    mp.mpf(L) + 1 - 1j * mp.mpf(eta), 2 * mp.mpf(L) + 2, 2j * r
                ), mp.mpc(rho)))
                assert abs(phi_derivative(L, eta, rho) - dref) <= 1e-12 * max(1, abs(dref)), (
                    L, eta, rho)
            try:
                find_complex_zeros(L, eta)
            except Exception as exc:
                assert type(exc).__module__ == "czeta.errors", (L, eta, exc)


def test_phi_no_convergence_far_out():
    with pytest.raises(NoConvergence):
        phi(0, 0, 400.0)  # term cap
    with pytest.raises(NoConvergence):
        phi(0, 0, 60.0)  # cancellation floor


def _floor_points(count: int) -> list[tuple[float, float, complex]]:
    """Seeded (L, eta, rho) at which the series sum's cancellation guard refuses it, with
    and without phi', and `_series_radius(L)` < |rho| <= _REACH: L = -(k + q), k in
    0..11, q in {1/4, 3/4}."""
    rng = random.Random(20261021)
    points = []
    while len(points) < count:
        L = -(rng.randrange(12) + rng.choice((0.25, 0.75)))
        eta = rng.choice((0.0, 0.5, 1.5, 3.0, 5.0, 8.0, 12.0, -3.0))
        rho = cmath.rect(rng.uniform(_series_radius(L), _REACH),
                         rng.uniform(-math.pi, math.pi))
        floors = 0
        for want_derivative in (False, True):
            try:
                f, _, floor = _Evaluator(L, eta, 1e-12)._sum(rho, 1e-12, want_derivative)
            except NoConvergence:  # the term cap
                continue
            floors += _floor_refusal(rho, f, floor, 1e-12) is not None
        if floors == 2:
            points.append((L, eta, rho))
    return points


def test_phi_past_the_cancellation_floor_matches_high_precision():
    # the series raises at every point; Taylor steps continue it from a radius below
    points = _floor_points(64)
    assert min(L for L, _, _ in points) < -10 and max(abs(rho) for _, _, rho in points) > 35
    for L, eta, rho in points:
        ref, dref = phi_mpmath(L, eta, rho), phi_derivative_mpmath(L, eta, rho)
        assert abs(phi(L, eta, rho) - ref) <= 1e-10 * (1 + abs(ref)), (L, eta, rho)
        assert abs(phi_derivative(L, eta, rho) - dref) <= 1e-10 * (1 + abs(dref)), (L, eta, rho)


def test_only_the_cancellation_floor_within_reach_is_continued(monkeypatch):
    # sin(rho)/rho: continued up to |rho| = _REACH, the floor's own raise past it
    assert abs(phi(0, 0, _REACH) - math.sin(_REACH) / _REACH) <= 1e-15
    beyond = math.nextafter(_REACH, math.inf)
    with pytest.raises(NoConvergence, match=rf"^cancellation floor .* at rho = \({beyond}\+0j\)"):
        phi(0, 0, beyond)
    # a continuation whose own sum raises too hands on the first sum's floor
    floor = r"^cancellation floor 3\.43e-16 exceeds the tolerance at rho = \(2\+1j\)"
    with pytest.raises(NoConvergence, match=floor):
        phi(0.5, 1.0, 2 + 1j, tol=1e-300)
    # the term cap is not continued: in reach, and at a nan |rho|
    for L, eta, rho in ((0, 3000.0, 25), (0, 0, complex(math.nan, 0))):
        with pytest.raises(NoConvergence, match=r"^series for phi did not reach tol = 1e-12 "):
            phi(L, eta, rho)
    # nor is any other raise: here one that the steps from radius 2 would step past
    plain = _Evaluator._sum

    def term_cap_at_20(self, rho, tol, want_derivative):
        if rho == 20:
            raise NoConvergence("series for phi did not reach tol at rho = (20+0j)")
        return plain(self, rho, tol, want_derivative)

    monkeypatch.setattr(_Evaluator, "_sum", term_cap_at_20)
    with pytest.raises(NoConvergence, match=r"^series for phi did not reach tol at rho = \(20"):
        phi(0, 0, 20)


def test_the_continuation_strides_grow_with_the_distance_from_the_origin(monkeypatch):
    # sin(rho)/rho from the series at radius 2 out to 40: each step at most
    # max(0.4, |w|/4) from its start w, 14 in all (95 pieces of 0.4 before)
    pieces = []
    plain = _Evaluator.step

    def spy_step(self, z, f, df, to):
        pieces.append((z, to))
        return plain(self, z, f, df, to)

    monkeypatch.setattr(_Evaluator, "step", spy_step)
    ev = _Evaluator(0.0, 0.0, 1e-12)
    value = ev._at(40.0, False)[0]
    assert abs(value - math.sin(40) / 40) <= 1e-15
    assert len(pieces) == ev.stats["contour_steps"] <= 16
    assert pieces[0][0] == 2 and pieces[-1][1] == 40
    assert all(abs(to - z) <= max(0.4, abs(z) / 4) * (1 + 1e-15) for z, to in pieces)
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))


def test_a_value_past_the_floor_walks_from_near_unless_that_walk_could_pass_the_radius():
    # sin(rho)/rho: the three outcomes of `_at` given a continued (z, phi, phi')
    ev = _Evaluator(0.0, 0.0, 1e-12)
    z = 25 + 5j
    start = z * (ev.radius / abs(z))
    near = (z, *ev.walk(start, *ev._at(start)[:2], z))
    # the series answers: the near given comes back as it is
    assert ev._at(3 + 1j, near=near)[2] is near
    # past the floor: walked from near, bit for bit, and near becomes the value's own
    f, df, after = ev._at(30, near=near)
    assert (f, df) == ev.walk(*near, 30) and after == (30, f, df)
    # a walk from -30 + 0.5i to 30 would cross the origin: afresh from the radius
    far = ev._at(-30 + 0.5j)[2]
    assert far[0] == -30 + 0.5j
    assert ev._at(30, near=far)[:2] == ev._at(30)[:2]


def test_conjugate_symmetry_100_points():
    tol = 1e-12
    rng = random.Random(20240817)
    for L, eta in [(0.0, 0.0), (0.5, 1.0), (-1.75, 1.5)]:
        for _ in range(100):
            rho = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            lhs = phi(L, eta, rho.conjugate(), tol)
            rhs = phi(L, eta, rho, tol).conjugate()
            assert abs(lhs - rhs) < 10 * tol


def _series_probe(rng: random.Random) -> tuple[float, float, complex, float, float]:
    """(L, eta, rho, sum tol, evaluator tol) of one seeded series sum; the
    evaluator's tol is the cancellation guard's."""
    tols = (1e-12, 2.0**-53, 1e-8)
    eta = 0.0 if rng.random() < 0.35 else rng.uniform(-4, 4)
    kind = rng.random()
    if kind < 0.5:  # beside the excluded set -(N+1)/2, on either side
        L = -(rng.randint(1, 40) + 1) / 2 + rng.choice([-1, 1]) * rng.choice(
            [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.25])
    elif kind < 0.65 and eta == 0.0:  # a negative integer L is outside the set at eta = 0
        L = -float(rng.randint(1, 20))
    else:
        L = rng.uniform(-20, 6)
    modulus = rng.choice([math.exp(rng.uniform(math.log(0.05), math.log(30))),
                          rng.uniform(0.05, 30)])
    rho = cmath.rect(modulus, rng.choice([0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)]))
    return L, eta, rho, rng.choice(tols), rng.choice(tols)


def test_each_series_sum_stops_where_the_term_by_term_test_stops():
    # the stop index found once per sum against a copy of the loop that tests
    # the shift at every term: the same bits of phi and phi', or the same raise,
    # the cancellation guard's refusal of the sum's floor at the evaluator's tol included
    rng = random.Random(30)
    probes = [_series_probe(rng) for _ in range(2000)]
    # the stop test first holds at j = 9 with equality, (j+1)(j+2L+2) = 2*swing = 5/8,
    # where the plain sum's tail is already below tol
    probes += [(-5.46875, 160 - 2.0**-11, rho * 2.0**-10, 1e-12, 1e-12) for rho in (1, -1, 1j)]
    # past the term cap, and a rho the sum never stops at
    probes += [(L, 0.5, rho, 1e-12, 1e-12) for L in (0.0, -3.25, -19.5 + 1e-9)
               for rho in (400.0, -1e5j, complex(math.inf, 0), complex(0, math.nan))]
    raised = []
    for L, eta, rho, tol, guard in probes:
        ev = _Evaluator(L, eta, guard)
        for want_derivative in (False, True):
            try:
                expected = series_sum_reference(ev.coeffs, ev.L, ev.eta, guard, rho, tol,
                                                want_derivative)
            except SeriesNoConvergence as exc:
                raised.append(str(exc).split()[0])
                if raised[-1] == "series":  # the term cap raises in the sum itself
                    with pytest.raises(NoConvergence) as info:
                        ev._sum(rho, tol, want_derivative)
                    assert str(info.value) == str(exc)
                    continue
                f, _, floor = ev._sum(rho, tol, want_derivative)
                assert str(_floor_refusal(rho, f, floor, guard)) == str(exc)
                continue
            f, df, floor = ev._sum(rho, tol, want_derivative)
            assert _floor_refusal(rho, f, floor, guard) is None, (L, eta, rho, tol)
            assert list(map(_bits, (f, df))) == list(map(_bits, expected)), (L, eta, rho, tol)
    assert raised.count("cancellation") > 100 and raised.count("series") == 24


def _first_stop_by_scan(two_l: float, twice_swing: float) -> int:
    return next((j for j in range(1, _SERIES_CAP + 1) if _stops_at(j, two_l, twice_swing)),
                _SERIES_CAP + 1)


def test_the_first_stop_steps_down_where_rounding_lifts_the_root():
    # the computed root lies one rounding above an integer j at which the stop test holds
    # with equality, so its ceiling is j + 1 and the search steps down to j
    for two_l, twice_swing, first in ((-2.999999999993983, 1763.0000000002588, 42),
                                      (-13.06941735297664, 1257.0844711749812, 41),
                                      (-11.004643268080153, 2183.758550059832, 51)):
        root = (math.sqrt((two_l + 1) ** 2 + 4 * twice_swing) - (two_l + 3)) / 2
        assert math.ceil(root) == first + 1
        assert _first_stop(two_l, twice_swing) == first == _first_stop_by_scan(two_l, twice_swing)
    # seeded roots within two ulps of 2*swing = (j+1)(j+2L+2), on either side of j
    rng = random.Random(40)
    probes = 0
    for _ in range(3000):
        two_l, j = rng.uniform(-40, 12), rng.randint(1, _SERIES_CAP - 50)
        if j + two_l + 2 > 0:
            twice_swing = (j + 1) * (j + two_l + 2)
            twice_swing += rng.randint(-2, 2) * math.ulp(twice_swing)
            assert _first_stop(two_l, twice_swing) == _first_stop_by_scan(two_l, twice_swing)
            probes += 1
    assert probes > 2500


def test_bessel_reduction_tenth_digit():
    rng = random.Random(5)
    for nu in (0.5, 1.0, 2.5):
        L = nu - 0.5
        points = [0.2, 1.7, 5.0, 9.9, 10.0, 1 + 0.5j, -4 + 3j, 6 + 8j, -7 - 2j]
        points += [
            complex(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(10)
        ]
        for rho in points:
            if abs(rho) > 10:
                continue
            reference = bessel_normalized(nu, rho)
            assert abs(phi(L, 0.0, rho) - reference) <= 1e-10 * max(1.0, abs(reference))


def test_count_zeros_single_real_zero():
    assert count_zeros_region(0, 0, (2.5, 3.5, -0.5, 0.5)) == 1


def test_count_zeros_complex_pair_member():
    assert count_zeros_region(-1.75, 1.5, (-1, 1, 0.05, 1)) == 1


def test_count_zeros_empty_region_when_all_real():
    assert count_zeros_region(0.5, 1.0, (-1, 1, 0.05, 2)) == 0


def test_count_zeros_two_real_zeros():
    # sin(rho)/rho has zeros at pi and 2 pi inside
    assert count_zeros_region(0, 0, (2.5, 6.5, -0.5, 0.5)) == 2


def test_count_zeros_rejects_zero_on_contour():
    with pytest.raises(ContourTooClose):
        count_zeros_region(0, 0, (2.8, 3.6, 0.0, 0.5))  # zero at pi on the bottom edge


def test_a_region_out_of_reach_raises_before_its_boundary_is_built():
    # the series cannot reach the first corner, rho = -1e5; the boundary holds
    # about a million points, and none past that corner may be built
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence, match=r"at rho = \(-100000\+0j\)$"):
            count_zeros_region(0.0, 0.0, (-1e5, 1e5, 0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("L,eta,n_real", [
    (-1.25, 12.0, 8), (-0.75, 8.0, 7), (0.0, 20.0, 9), (-0.25, 12.0, 7),
])
def test_a_large_eta_default_region_raises_or_counts_every_real_zero(L, eta, n_real):
    # n_real is the number of sign changes of the 35-digit phi on [-6, 6]; at
    # (-1.25, 12) a winding without the corner sums misses the zero near -4.712
    # and reports 7 real zeros, which classify's pair count cannot tell apart
    try:
        report = find_complex_zeros(L, eta)
    except NoConvergence:
        return
    assert report.counts["real"] == n_real


def test_the_default_region_at_eta_12_gives_all_eight_real_zeros_or_an_error():
    # the real zeros of phi(-0.75, 12, .) in the default region, by 30-digit
    # mpmath findroot; the lower edge at -0.01 passes 0.01 below each, and only
    # the phi'/phi test sees the fast phase turn beside the one at -5.386
    roots = [-5.3864410748, -4.1120534653, -2.9875340404, -2.0255932410,
             -1.2384266610, -0.6370597141, -0.2306301129, -0.0256984985]
    try:
        report = find_complex_zeros(-0.75, 12.0)
    except (ContourTooClose, NoConvergence, ParameterError, UnsupportedEll, VerificationError):
        return
    assert report.counts["real"] == len(roots)
    found = sorted(z.real for z in report.zeros if z.imag == 0)
    assert len(found) == len(roots)
    assert all(abs(x - root) < 1e-6 for x, root in zip(found, roots))


def test_default_search_region_scales_with_pair_count():
    assert default_search_region(0.0) == Rect(-6, 6, 0, 6)
    assert default_search_region(-1.75) == Rect(-8, 8, 0, 8)
    assert default_search_region(-3.75) == Rect(-12, 12, 0, 12)


def test_find_zeros_simple_pair():
    report = find_complex_zeros(-1.75, 1.5, search=(-1, 1, 0.05, 1))
    assert report.counts == {"real": 0, "complex_pairs": 1, "imaginary_pairs": 0}
    (z,) = report.zeros
    assert abs(z.real - 0.1500) < 5e-4 and abs(z.imag - 0.2520) < 5e-4
    assert report.residuals[0] < 1e-9
    assert report.unresolved == ()


def test_find_zeros_real_zeros_at_pi_multiples():
    report = find_complex_zeros(0.0, 0.0)
    assert report.counts["complex_pairs"] == 0
    assert report.counts["real"] == 2
    for z in report.zeros:
        k = round(z.real / math.pi)
        assert k != 0 and abs(z.real - k * math.pi) < 1e-8
        assert abs(z.imag) < 1e-10


def test_find_zeros_imaginary_pair_for_bessel_case():
    report = find_complex_zeros(-2.0, 0.0)  # nu = -3/2
    assert report.counts["complex_pairs"] == 1
    assert report.counts["imaginary_pairs"] == 1
    (z,) = [w for w in report.zeros if w.imag > 1e-7]
    assert abs(z.real) < 1e-7
    assert report.residuals[report.zeros.index(z)] < 1e-9


def test_find_zeros_sorted_and_counts_consistent():
    report = find_complex_zeros(-2.75, 1.5)
    assert list(report.zeros) == sorted(report.zeros, key=lambda z: (z.real, z.imag))
    pairs = [z for z in report.zeros if z.imag > 1e-7]
    assert len(pairs) == report.counts["complex_pairs"] == 2


@pytest.mark.parametrize(
    "L,eta",
    [(F(-7, 4), F(3, 2)), (F(-11, 4), F(3, 2)), (F(-15, 4), F(3, 2)), (F(1, 2), F(1))],
)
def test_pair_counts_match_classifier(L, eta):
    expected = classify(CoulombParams(L, eta)).pair_count
    report = find_complex_zeros(float(L), float(eta))
    assert report.counts["complex_pairs"] == expected


def test_total_count_in_region_matches_report():
    region = (2.5, 6.5, -0.4, 0.4)
    report = find_complex_zeros(0.0, 0.0, search=region)
    assert count_zeros_region(0.0, 0.0, region) == len(report.zeros) == 2


@pytest.mark.parametrize("L", [-1.75, -2.75, -3.75, -4.75])
def test_found_zeros_validate_against_high_precision(L):
    # every reported zero must annihilate the independently computed
    # high-precision function; |phi(z)| / |phi'(z)| bounds the distance to
    # the true zero, so this asserts locations good to 1e-10
    report = find_complex_zeros(L, 1.5)
    for z in report.zeros:
        slope = abs(phi_derivative(L, 1.5, z))
        assert abs(phi_mpmath(L, 1.5, z)) <= 1e-10 * (1 + slope), (L, z)


@pytest.mark.parametrize(
    "bounds", [(1, -1, 0, 1), (0, 1, 1, 1), (-1, math.inf, 0, 1), (math.nan, 1, 0, 1)]
)
def test_rect_rejects_degenerate_bounds_as_parameter_error(bounds):
    with pytest.raises(ParameterError, match="degenerate rectangle"):
        Rect(*bounds)
    with pytest.raises(ValueError):  # callers catching ValueError still work
        Rect(*bounds)


@pytest.mark.parametrize("bounds,message", [
    (("a", "b", "c", "d"), "re_min must be a real number, got 'a'"),
    ((-1, 1, 0j, 1), "im_min must be a real number, got 0j"),
    ((None, 1, 0, 1), "re_min must be a real number, got None"),
    # named, though the bounds before it are out of order
    ((1, 0, 0, "x"), "im_max must be a real number, got 'x'"),
], ids=["bounds0", "bounds1", "bounds2", "bounds3"])
def test_rect_refuses_a_bound_that_is_no_number(bounds, message):
    with pytest.raises(ParameterError) as exc:
        Rect(*bounds)
    assert exc.type is ParameterError and str(exc.value) == message


@pytest.mark.parametrize("bounds,message", [
    ((1, 2, 3), "a region is a Rect or four numbers, got (1, 2, 3)"),
    ((1, 2, 3, 4, 5), "a region is a Rect or four numbers, got (1, 2, 3, 4, 5)"),
    (7, "a region is a Rect or four numbers, got 7"),
    ((-1, 1, 0, "1"), "im_max must be a real number, got '1'"),
    ((-1, 1, 0j, 1), "im_min must be a real number, got 0j"),
], ids=["bounds0", "bounds1", "7", "bounds3", "bounds4"])
def test_a_region_of_other_than_four_numbers_is_a_parameter_error(bounds, message):
    # not iterable or the wrong count is refused as a region; a bound no number, by its name
    for call in (lambda: find_complex_zeros(-1.75, 1.5, search=bounds),
                 lambda: count_zeros_region(-1.75, 1.5, bounds)):
        with pytest.raises(ParameterError) as exc:
            call()
        assert exc.type is ParameterError and str(exc.value) == message


@pytest.mark.parametrize("L", [math.nan, -math.inf, math.inf])
def test_default_search_region_rejects_a_non_finite_L(L):
    with pytest.raises(ParameterError, match=r"^L must be finite, got "):
        default_search_region(L)


# the float layer takes no text, not even a number spelled as a str or bytes
@pytest.mark.parametrize("value", [None, "x", 1j, "1", b"-0.75"],
                         ids=["none", "string", "complex", "number-string", "bytes"])
@pytest.mark.parametrize("name,call", [
    ("L", lambda v: phi(v, 0, 1)),
    ("eta", lambda v: phi(0, v, 1)),
    ("rho", lambda v: phi(0, 0, v)),
    ("tol", lambda v: phi(0, 0, 1, tol=v)),
    ("eta", lambda v: phi_derivative(0, v, 1)),
    ("rho", lambda v: phi_derivative(0, 0, v)),
    ("L", lambda v: count_zeros_region(v, 0, (0, 1, 0, 1))),
    ("L", lambda v: find_complex_zeros(v, 0)),
    ("eta", lambda v: find_complex_zeros(0, v)),
    ("L", default_search_region),
], ids=["phi-L", "phi-eta", "phi-rho", "phi-tol", "phi_derivative-eta", "phi_derivative-rho",
        "count-L", "find-L", "find-eta", "default_search_region-L"])
def test_a_numeric_argument_that_is_no_number_is_refused_by_name(name, call, value):
    if name == "rho" and value == 1j:  # a complex rho is a point like any other
        assert isinstance(call(value), complex)
        return
    with pytest.raises(ParameterError, match=rf"^{name} must be a (real|complex) number, got ") as exc:
        call(value)
    assert exc.type is ParameterError


@pytest.mark.parametrize("L,eta", [(math.nan, 0.0), (math.inf, 0.0), (1e308, 0.0), (0.0, math.nan)])
def test_series_rejects_non_finite_parameters(L, eta):
    with pytest.raises(ParameterError, match="out of range"):
        phi(L, eta, 1.0)
    with pytest.raises(ParameterError):
        find_complex_zeros(L, eta)


def _bits(z: complex) -> bytes:
    # 0.0 == -0.0, also as complex numbers; their bytes differ
    return struct.pack("<2d", z.real, z.imag)


@pytest.mark.parametrize("L,eta,bounds", [
    (-4.75, 1.5, None),  # the finder's default region
    (-1.75, 1.5, (-1.0, 1.0, 0.05, 1.0)),
], ids=["default-region", "small-rectangle"])
def test_one_winding_sums_the_series_at_no_point_twice(monkeypatch, L, eta, bounds):
    if bounds is None:
        base = default_search_region(L)
        bounds = (base.re_min, base.re_max, -0.01, base.im_max)
    region = Rect(*bounds)
    corners = region.corners()[:4]
    summed, stepped = [], []
    plain_sum, plain_step = _Evaluator._sum, _Evaluator.step

    def spy_sum(self, rho, tol, want_derivative):
        summed.append(_bits(rho))
        return plain_sum(self, rho, tol, want_derivative)

    def spy_step(self, z, f, df, to):
        stepped.append(_bits(to))
        return plain_step(self, z, f, df, to)

    monkeypatch.setattr(_Evaluator, "_sum", spy_sum)
    monkeypatch.setattr(_Evaluator, "step", spy_step)
    ev = _Evaluator(L, eta, 1e-12)
    _winding(ev, region)
    assert len(set(summed)) == len(summed) == ev.stats["series_evals"]
    assert len(set(stepped)) == len(stepped) == ev.stats["contour_steps"]
    # only the corners whose term bound cannot clear the default tol's guard are
    # summed first, as the reach check; such a corner stepped to later is the only
    # point both summed and stepped to
    checked = [_bits(c) for c in corners
               if _floor_refusal(c, 0j, ev.floor_bound(c), 1e-12) is not None]
    assert summed[:len(checked)] == checked
    assert set(summed) & set(stepped) <= set(checked)
    if bounds[0] == -1.0:  # every point lies within 2 of the origin
        assert stepped == [] and checked == []
    else:  # the two upper corners; the lower two clear the bound and are stepped to
        assert set(summed) & set(stepped) == set(checked) and len(checked) == 2


def test_series_evals_on_the_default_region_stay_pinned():
    # the half contour over the box [-14, 14] x [-14, 14] has 72 boundary points
    # and 1 subdivision midpoint.  Its two ends on the axis are each walked in 9
    # steps from the series at +-2, the series radius; the top edge's point nearest
    # the origin, 0.4 + 14i, is summed, having no valued neighbour, and the other 70
    # points are stepped to: 88 steps.  The sums are those 3, the 2 upper corners,
    # whose term bound cannot clear the guard (the reach check), 29 Newton steps and
    # 9 residuals: 43
    stats = find_complex_zeros(-4.75, 1.5).stats
    assert stats["series_evals"] == 43
    assert stats["contour_steps"] == 88


def _default_contour(L: float) -> Rect:
    base = default_search_region(L)
    return Rect(base.re_min, base.re_max, -0.01, base.im_max)


@pytest.mark.parametrize("L,eta,bounds", [
    (-4.75, 1.5, None),
    (-1.75, 1.5, (-1.0, 1.0, 0.05, 1.0)),
    (-2.0, 0.0, None),  # the Bessel branch: the series meets its 0/0 odd index
    (-0.75, 12.0, None),  # a real zero 0.01 above the lower edge at -5.386
], ids=["default-region", "small-rectangle", "bessel-default-region", "eta-12-default-region"])
def test_every_accepted_piece_turns_little_and_is_short_beside_phi_prime_over_phi(
        monkeypatch, L, eta, bounds):
    # a piece is accepted when it is not halved: its phase step is at most pi/2
    # and |h| max|phi'/phi| over its two ends is at most 2, so every contour
    # point carries phi'
    import czeta.numeric

    region = _default_contour(L) if bounds is None else Rect(*bounds)
    calls, accepted = [], []
    plain = czeta.numeric._phase_along_edge

    def spy(ev, za, zb, va, vb, depth=42):
        calls.append(depth)
        before = len(calls)
        step = plain(ev, za, zb, va, vb, depth)
        if len(calls) == before:
            accepted.append((abs(zb - za), va, vb, step))
        return step

    monkeypatch.setattr(czeta.numeric, "_phase_along_edge", spy)
    count = _winding(_Evaluator(L, eta, 1e-12), region)
    assert len(calls) > len(accepted)  # some pieces were halved
    for h, va, vb, step in accepted:
        assert h <= 0.8 + 1e-12 and abs(step) <= math.pi / 2
        assert h * max(abs(va[1] / va[0]), abs(vb[1] / vb[0])) <= 2
    assert math.isclose(sum(step for *_, step in accepted), 2 * math.pi * count, abs_tol=1.0)


@pytest.mark.parametrize("L,eta,bounds", [
    (-33 / 4, 1 / 2, None), (-35 / 4, 1 / 4, None), (-35 / 4, 2.0, None), (-27 / 4, 3.0, None),
    (-31 / 4, 9 / 4, None), (-19 / 4, 3 / 2, None), (-23 / 4, 0.0, None), (-9 / 4, 11 / 4, None),
    # along the axis at strongly negative L the series runs out to radius 9.1;
    # steps from radius 2 are off by a factor 4e6 and the count raises
    (-16.25, 0.0, (-20.25, 20.25, -0.01, 2.0)),
])
def test_stepped_contour_values_match_high_precision(monkeypatch, L, eta, bounds):
    # every summed and every stepped point, corners and subdivision midpoints included
    region = _default_contour(L) if bounds is None else Rect(*bounds)
    summed, stepped = [], []
    plain_values, plain_step = _Evaluator.values, _Evaluator.step

    def spy_values(self, z):
        value = plain_values(self, z)
        summed.append((z, value[0]))
        return value

    def spy_step(self, z, f, df, to):
        value = plain_step(self, z, f, df, to)
        stepped.append((to, value[0]))
        return value

    monkeypatch.setattr(_Evaluator, "values", spy_values)
    monkeypatch.setattr(_Evaluator, "step", spy_step)
    ev = _Evaluator(L, eta, 1e-12)
    _winding(ev, region)
    assert len(stepped) == ev.stats["contour_steps"]
    assert len(summed) + len(stepped) >= 92
    for to, f in summed + stepped:
        ref = phi_mpmath(L, eta, to)
        assert abs(f - ref) <= 1e-6 * abs(ref), (to, f, ref)


def test_the_contour_and_the_continuation_share_one_series_radius(monkeypatch):
    # the contour sums inside the radius the continuation starts from, and steps
    # only beyond it; a contour that stepped from a smaller radius grows rounding
    # past the continuation's bound
    L, eta = -16.25, 0.0
    region = Rect(-20.25, 20.25, -0.01, 2.0)
    sums, targets = [], []
    plain_sum, plain_step = _Evaluator._sum, _Evaluator.step

    def spy_sum(self, rho, tol, want_derivative):
        sums.append(rho)
        return plain_sum(self, rho, tol, want_derivative)

    def spy_step(self, z, f, df, to):
        targets.append(to)
        return plain_step(self, z, f, df, to)

    monkeypatch.setattr(_Evaluator, "_sum", spy_sum)
    monkeypatch.setattr(_Evaluator, "step", spy_step)
    phi(L, eta, 30)
    assert len(sums) == 2  # refused at 30, then the continuation's start
    r = abs(sums[1])
    assert 9 < r < 10
    sums.clear()
    targets.clear()
    count_zeros_region(L, eta, region)
    corners = set(region.corners())
    inner = [abs(z) for z in sums if z not in corners]
    assert inner and targets
    assert max(inner) < r <= min(abs(z) for z in targets)


def _eigen_count(L: float, eta: float, region: Rect) -> int:
    """Eigenvalues lambda of the order-400 Jacobi matrix with 1/lambda in the region.

    Not an exact count at large |rho|: on the default region of (-18.75, 8) it
    gives 21 where a 60-digit argument-principle count gives 20.  It is used
    only on the inputs below, where it was checked.
    """
    import numpy as np

    diag, off = _jacobi(L, eta, 400)
    eigs = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return sum(1 for lam in eigs if abs(lam) > 1e-12 and region.contains(complex(1 / lam)))


@pytest.mark.parametrize("L,eta,bounds,count", [
    # the series cannot sum these boundaries above its cancellation floor, the
    # steps can; Newton's values are continued past that floor too
    (-27 / 4, 3.0, None, 12),
    (-35 / 4, 2.0, None, 15),
    # steps from radius 3 count 2 here, from radius 2 the count raises
    (-20.25, 2.0, (-22.25, -1.0, 0.6, 4.0), 1),
])
def test_stepped_windings_match_the_jacobi_eigenvalues(L, eta, bounds, count):
    region = _default_contour(L) if bounds is None else Rect(*bounds)
    assert count_zeros_region(L, eta, region) == count
    assert _eigen_count(L, eta, region) == count


@pytest.mark.parametrize("L,eta,bounds,count", [
    # default regions: a lower edge 0.01 below a real zero, whose fast phase
    # turn the phase test alone missed (6, 6 and 7)
    (-0.75, 8.0, None, 7),
    (-0.75, -8.0, None, 7),
    (-0.75, 12.0, None, 8),
    # an edge 0.01 from the zero 0.096658+0.156462i, and its neighbour (1 and 3)
    (-1.75, 2.5, (0.106658, 2.718637, -1.748831, 2.159342), 0),
    (-1.75, 2.5, (-3.047249, 0.126658, -0.912281, 3.665075), 4),
    # an edge 0.002 from the real zero 0.3021, and its neighbour (1 and 2)
    (-2.25, 2.5, (0.3041, 2.375822, -3.356089, 2.541548), 0),
    (-2.25, 2.5, (-1.112562, 0.3041, -3.626915, 0.918317), 3),
])
def test_a_boundary_beside_a_zero_counts_it_right(L, eta, bounds, count):
    region = _default_contour(L) if bounds is None else Rect(*bounds)
    assert _eigen_count(L, eta, region) == count
    assert count_zeros_region(L, eta, region) == count


@pytest.mark.parametrize("L,eta", [(-1.25, 12.0), (-1.25, 20.0), (-0.75, 20.0), (0.0, 20.0)])
def test_a_default_region_past_the_corner_floor_raises(L, eta):
    # true counts 8, 11, 10 and 9; the corners' sums cannot reach them
    with pytest.raises(NoConvergence, match=r"^cancellation floor .* at rho = \(-6-0\.01j\)"):
        count_zeros_region(L, eta, _default_contour(L))


@pytest.mark.parametrize("L,eta", [(-8.75, 1.5), (-7.75, 0.0), (-4.75, 2.75)])
def test_newton_past_the_series_floor_answers_the_default_region(L, eta):
    # Newton's iterates and the residuals lie past the series' cancellation floor,
    # where Taylor steps continue it; the winding's corners are still in its reach
    report = find_complex_zeros(L, eta)
    assert report.counts["complex_pairs"] == classify(CoulombParams(F(L), F(eta))).pair_count
    if (L, eta) == (-8.75, 1.5):
        assert (report.counts["real"], report.counts["complex_pairs"]) == (6, 8)
    for z in report.zeros:
        step = abs(phi_mpmath(L, eta, z) / phi_derivative_mpmath(L, eta, z))
        assert step <= 1e-10 * (1 + abs(z)), (L, eta, z)


def test_newton_walks_past_the_series_floor_from_its_last_iterate(monkeypatch):
    # a start whose value is continued takes every later value by a walk from its
    # last continued iterate: it continues from the series radius only once.  Outside
    # Newton only the residuals call `_at`
    import czeta.numeric

    at_calls, starts, in_newton = [], [], [False]
    plain_newton, plain_at, plain_walk = czeta.numeric._newton, _Evaluator._at, _Evaluator.walk

    def spy_newton(ev, z0):
        starts.append([])  # per start: whether each continued value began afresh
        in_newton[0] = True
        try:
            return plain_newton(ev, z0)
        finally:
            in_newton[0] = False

    def spy_at(self, z, want_derivative=True, near=None):
        if not in_newton[0]:
            at_calls.append(z)
        return plain_at(self, z, want_derivative, near)

    def spy_walk(self, z, f, df, to):
        if in_newton[0]:  # a fresh continuation walks from the series radius
            starts[-1].append(math.isclose(abs(z), self.radius, rel_tol=1e-12))
        return plain_walk(self, z, f, df, to)

    monkeypatch.setattr(czeta.numeric, "_newton", spy_newton)
    monkeypatch.setattr(_Evaluator, "_at", spy_at)
    monkeypatch.setattr(_Evaluator, "walk", spy_walk)
    report = find_complex_zeros(-8.75, 1.5)
    assert (report.counts["real"], report.counts["complex_pairs"]) == (6, 8)
    assert report.stats["contour_steps"] <= 300  # 673 with pieces of 0.4 and no walk
    assert at_calls == list(report.zeros)
    continued = [fresh for fresh in starts if fresh]
    assert len(continued) >= 3
    for fresh in continued:  # the first continued value from the radius, then walks
        assert len(fresh) >= 2 and fresh[0] and not any(fresh[1:]), fresh


@pytest.mark.parametrize("L,eta,tol,continued", [
    (-8.75, 1.5, 1e-12, 3), (-8.75, 1.5, 1e-8, 0), (-7.75, 0.0, 1e-12, 2),
    (-7.75, 0.0, 1e-8, 0), (-4.75, 1.5, 1e-12, 0), (-4.75, 1.5, 1e-8, 0),
])
def test_each_residual_is_phi_at_its_zero_bit_for_bit(L, eta, tol, continued):
    # a residual past the series' floor is continued afresh, as `phi` is, not walked
    # from Newton's last iterate, so find-zeros reports phi's own value there
    report = find_complex_zeros(L, eta, tol=tol)
    assert report.residuals == tuple(abs(phi(L, eta, z, tol)) for z in report.zeros)
    ev = _Evaluator(L, eta, tol)
    sums = [(z, ev._sum(z, tol, False)) for z in report.zeros]
    assert sum(_floor_refusal(z, f, floor, tol) is not None
               for z, (f, _, floor) in sums) == continued


@pytest.mark.parametrize("L,eta", [(-31 / 4, 2.0), (-33 / 4, 2.5), (-35 / 4, 1.75),
                                   (-35 / 4, 2.75), (-35 / 4, 3.0)])
def test_a_default_region_whose_corner_the_series_cannot_reach_raises(L, eta):
    # the winding's corner sums are never continued: their floor is the reach check
    with pytest.raises(NoConvergence, match=r"^cancellation floor .* at rho = \(-2[02]-0\.01j\)"):
        find_complex_zeros(L, eta)


_CORNER_FLOOR_RAISES = [
    # (L, eta, floor): the five zeros-default pairs, then the four strips of
    # test_a_default_region_past_the_corner_floor_raises, each at its first corner
    (-31 / 4, 2.0, "8.47e-03"), (-33 / 4, 2.5, "4.05e-02"), (-35 / 4, 1.75, "6.66e-02"),
    (-35 / 4, 2.75, "1.17e+00"), (-35 / 4, 3.0, "2.53e+00"),
    (-1.25, 12.0, "5.42e-06"), (-1.25, 20.0, "7.51e-03"), (-0.75, 20.0, "2.50e-04"),
    (0.0, 20.0, "2.25e-06"),
]


@pytest.mark.parametrize("L,eta,floor", _CORNER_FLOOR_RAISES)
def test_the_corner_term_bound_refuses_every_corner_the_sum_refuses(L, eta, floor):
    # a corner is summed only where 2.3e-16 max |B_j z^j| up to the first stop could
    # exceed the guard; that bound is never below the sum's floor, so every refused
    # corner is still summed, and raises before any contour step
    region = _default_contour(L)
    ev = _Evaluator(L, eta, 1e-12)
    refused = 0
    for corner in region.corners()[:4]:
        f, _, sum_floor = ev._sum(corner, 2.0**-53, True)
        assert ev.floor_bound(corner) >= sum_floor
        if _floor_refusal(corner, f, sum_floor, 1e-12) is not None:
            refused += 1
            assert _floor_refusal(corner, 0j, ev.floor_bound(corner), 1e-12) is not None
    assert refused >= 1
    corner = -region.re_max - 0.01j
    message = (f"cancellation floor {floor} exceeds the tolerance at rho = {corner}; "
               f"|rho| too large for double precision")
    with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
        find_complex_zeros(L, eta)
    ev = _Evaluator(L, eta, 1e-12)
    with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
        _winding(ev, region)
    assert ev.stats["contour_steps"] == 0


def test_the_corner_term_bound_is_never_below_the_sums_floor():
    rng = random.Random(20261021)
    cleared = 0
    for _ in range(300):
        L = -(rng.randrange(12) + rng.choice((0.25, 0.75)))
        eta = rng.choice((0.0, 0.5, 1.5, 3.0, 5.0, 8.0, 12.0, -3.0))
        ev = _Evaluator(L, eta, 1e-12)
        z = cmath.rect(rng.uniform(0, 45), rng.uniform(-math.pi, math.pi))
        bound = ev.floor_bound(z)
        for tol in (2.0**-53, 1e-12):
            for want_derivative in (False, True):
                assert bound >= ev._sum(z, tol, want_derivative)[2], (L, eta, z)
        cleared += _floor_refusal(z, 0j, bound, 1e-12) is None
    assert 50 < cleared < 250


@pytest.mark.parametrize("L,eta,bounds,checked,sums", [
    (-4.75, 1.5, None, 2, 8),
    (-8.75, 1.5, None, 4, 13),
    # every corner is checked, and the contour sums the first corner it values
    (0.0, 0.0, (0.5, 1.0, 30.0, 31.0), 4, 5),
], ids=["default-4.75", "default-8.75", "off-axis"])
def test_the_reach_check_only_checks(monkeypatch, L, eta, bounds, checked, sums):
    # with the term bound clearing every corner no corner is summed first; the count,
    # the steps and every contour value stay, and only the checks' sums go
    import czeta.numeric

    region = _default_contour(L) if bounds is None else Rect(*bounds)
    plain = czeta.numeric._contour_value

    def run():
        values = []

        def spy(ev, z, *rest):
            value = plain(ev, z, *rest)
            values.append((_bits(z), _bits(value[0]), _bits(value[1])))
            return value

        monkeypatch.setattr(czeta.numeric, "_contour_value", spy)
        ev = _Evaluator(L, eta, 1e-12)
        count = _winding(ev, region)
        return count, ev.stats["contour_steps"], ev.stats["series_evals"], values

    ev = _Evaluator(L, eta, 1e-12)
    assert sum(_floor_refusal(c, 0j, ev.floor_bound(c), 1e-12) is not None
               for c in region.corners()[:4]) == checked
    count, steps, evals, values = run()
    monkeypatch.setattr(_Evaluator, "floor_bound", lambda self, z: 0.0)
    assert run() == (count, steps, sums - checked, values)
    assert evals == sums


def test_the_report_keeps_every_zero_the_count_accepted(monkeypatch):
    # two zeros 5e-7 apart are two zeros to the count's test, 1e-9 (1 + |z|), and so
    # to the report's: a looser test there listed one zero for a count of two
    import czeta.numeric

    limits = iter([1.0, 1.0 + 5e-7])
    monkeypatch.setattr(czeta.numeric, "_winding", lambda ev, region, box=None: 2)
    monkeypatch.setattr(czeta.numeric, "_newton", lambda ev, z0: next(limits, None))
    report = find_complex_zeros(-4.75, 1.5)
    assert report.zeros == (1.0, 1.0 + 5e-7)
    assert report.counts["real"] == 2


@pytest.mark.parametrize("L,eta,bounds", [
    (-4.75, 1.5, None),
    (-8.75, 1.5, None),
    (-2.0, 0.0, None),
    (-0.75, 8.0, None),
    (-16.25, 0.0, (-20.25, 20.25, -0.01, 2.0)),  # the CI axis strip
], ids=["default-4.75", "default-8.75", "bessel-default", "eta-8-default", "axis-strip"])
def test_the_half_count_is_the_count_over_the_box(monkeypatch, L, eta, bounds):
    # phi(conj z) = conj phi(z): the box's lower half turns the phase as much as its
    # upper half, so the finder's phase change over pi along the upper half is the
    # whole box's count, and it values no contour point below the real axis
    import czeta.numeric

    region = _default_contour(L) if bounds is None else Rect(*bounds)
    box = Rect(region.re_min, region.re_max, -region.im_max, region.im_max)
    assert region.box() == box
    over_box = count_zeros_region(L, eta, box)
    plain_winding, plain_sum, plain_step = czeta.numeric._winding, _Evaluator._sum, _Evaluator.step
    wound, summed, stepped, inside = [], [], [], []

    def spy_winding(ev, rect, given=None):
        inside.append(ev)
        count = plain_winding(ev, rect, given)
        inside.pop()
        wound.append((rect, given, count))
        return count

    def spy_sum(self, rho, tol, want_derivative):
        if inside:
            summed.append(rho)
        return plain_sum(self, rho, tol, want_derivative)

    def spy_step(self, z, f, df, to):
        if inside:
            stepped.append(to)
        return plain_step(self, z, f, df, to)

    monkeypatch.setattr(czeta.numeric, "_winding", spy_winding)
    monkeypatch.setattr(_Evaluator, "_sum", spy_sum)
    monkeypatch.setattr(_Evaluator, "step", spy_step)
    report = find_complex_zeros(L, eta, bounds)
    assert wound == [(region, box, over_box)]
    assert over_box == report.counts["real"] + 2 * report.counts["complex_pairs"]
    # only the reach check, on the rectangle's corners, sums below the axis
    ev = _Evaluator(L, eta, 1e-12)
    checked = [c for c in region.corners()[:4]
               if _floor_refusal(c, 0j, ev.floor_bound(c), 1e-12) is not None]
    assert summed[:len(checked)] == checked
    assert stepped and min(z.imag for z in summed[len(checked):] + stepped) >= 0


def _missing(plain, missed):
    """`_newton` that gives up every start whose limit is the zero missed."""
    def newton(ev, z0):
        z = plain(ev, z0)
        return None if z is not None and abs(z - missed) <= 1e-9 * (1 + abs(z)) else z
    return newton


@pytest.mark.parametrize("kind,reached", [("real", 12), ("pair", 11)])
def test_a_half_count_refuses_a_missed_real_zero_or_pair(monkeypatch, kind, reached):
    # (-4.75, 1.5) has 5 real zeros and 4 pairs in its default box: a half count of
    # 13.  Missing a real zero leaves 12, and missing the upper member of a pair, the
    # only one in the strip, leaves 11: the matrix grows twice and the finder raises
    import czeta.numeric

    report = find_complex_zeros(-4.75, 1.5)
    assert report.counts == {"real": 5, "complex_pairs": 4, "imaginary_pairs": 0}
    missed = next(z for z in report.zeros if (abs(z.imag) <= 1e-7) == (kind == "real"))
    monkeypatch.setattr(czeta.numeric, "_newton", _missing(czeta.numeric._newton, missed))
    box = re.escape(repr(Rect(-14, 14, -14, 14)))
    with pytest.raises(NoConvergence,
                       match=rf"^Newton reached {reached} distinct zeros .* over {box} is 13$"):
        find_complex_zeros(-4.75, 1.5)


@pytest.mark.parametrize("limits,total,zeros", [
    ((1 + 0.005j, 1 - 0.005j), 2, (1 + 0.005j,)),  # both members: one pair
    ((1 + 0.005j,), 2, (1 + 0.005j,)),  # one member stands for the pair
    ((1 + 0.005j, 1 - 0.005j), 3, None),  # the pair weighs 2, not 3
], ids=["both-members", "one-member", "short"])
def test_a_pair_inside_the_strip_counts_once_with_weight_two(monkeypatch, limits, total, zeros):
    # a pair at Im = +-0.005 lies wholly inside the default strip, whose lower edge is
    # at -0.01: both members fold to one pair, which a half count holds twice
    import czeta.numeric

    monkeypatch.setattr(czeta.numeric, "_winding", lambda ev, region, box=None: total)
    scripted = itertools.cycle(limits)
    monkeypatch.setattr(czeta.numeric, "_newton", lambda ev, z0: next(scripted))
    if zeros is None:
        with pytest.raises(NoConvergence, match=r"^Newton reached 2 distinct zeros .* is 3$"):
            find_complex_zeros(-4.75, 1.5)
        return
    report = find_complex_zeros(-4.75, 1.5)
    assert report.zeros == zeros
    assert report.counts == {"real": 0, "complex_pairs": 1, "imaginary_pairs": 0}


def _windings(monkeypatch) -> list:
    """Record each (rectangle, box, count or error) the finder winds."""
    import czeta.numeric

    plain, wound = czeta.numeric._winding, []

    def winding(ev, region, box=None):
        try:
            count = plain(ev, region, box)
        except ContourTooClose as exc:
            wound.append((region, box, exc))
            raise
        wound.append((region, box, count))
        return count

    monkeypatch.setattr(czeta.numeric, "_winding", winding)
    return wound


def test_a_rectangle_deeper_below_the_axis_winds_its_box(monkeypatch):
    # [-6, 6] x [-3, 1] at (-4.75, 1.5) winds the upper half of [-6, 6] x [-3, 3]:
    # three pairs' upper members lie above 1, so Newton finds their lower members, and
    # the report lists their conjugates: the default region's zeros in the box
    wound = _windings(monkeypatch)
    region = Rect(-6, 6, -3, 1)
    report = find_complex_zeros(-4.75, 1.5, region)
    assert wound == [(region, Rect(-6, 6, -3, 3), 9)]
    assert report.region == region
    assert report.counts == {"real": 1, "complex_pairs": 4, "imaginary_pairs": 0}
    assert sum(z.imag > 1 for z in report.zeros) == 3
    default = [z for z in find_complex_zeros(-4.75, 1.5).zeros if abs(z.real) <= 6 and z.imag <= 3]
    assert len(default) == len(report.zeros)
    assert all(abs(z - w) <= 1e-9 * (1 + abs(z)) for z, w in zip(default, report.zeros))


def test_a_lower_edge_on_the_axis_winds_the_whole_rectangle_then_the_nudged_box(monkeypatch):
    # [0, 15] x [0, 15] at (-0.25, -3) does not cross the axis: the whole boundary is
    # wound, and its real zero 0.4035 on the lower edge refuses it; the nudged copy
    # crosses the axis and winds its box's upper half, counting the 8 real zeros
    wound = _windings(monkeypatch)
    region = Rect(0, 15, 0, 15)
    nudged = region.expand(1.3e-3)
    report = find_complex_zeros(-0.25, -3.0, region)
    assert [(r, box) for r, box, _ in wound] == [(region, None), (nudged, nudged.box())]
    assert isinstance(wound[0][2], ContourTooClose) and wound[1][2] == 8
    assert nudged.box() == Rect(nudged.re_min, nudged.re_max, -nudged.im_max, nudged.im_max)
    assert report.region == nudged and report.stats["nudge_retries"] == 1
    assert report.counts == {"real": 8, "complex_pairs": 0, "imaginary_pairs": 0}
    assert abs(report.zeros[0] - 0.4035417425791821) <= 1e-12


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-14])
def test_the_winding_count_reads_no_tol(tol):
    # the true count is 11; a cancellation guard read from a looser tol let the
    # corners' reach check pass, and the steps then counted 10 without raising
    floor = r"^cancellation floor .* at rho = \(-6-0\.01j\)"
    with pytest.raises(NoConvergence, match=floor):
        count_zeros_region(-1.25, 20.0, _default_contour(-1.25))
    with pytest.raises(NoConvergence, match=floor):
        find_complex_zeros(-1.25, 20.0, tol=tol)


def test_a_loose_tolerance_leaves_the_stepped_winding_alone():
    # the contour's sums run to double precision whatever tol is; chains of
    # steps from sums cut off at tol = 1e-3 counted 15 zeros here
    steps = find_complex_zeros(-8.25, 0.0).stats["contour_steps"]
    assert find_complex_zeros(-8.25, 0.0, tol=1e-3).stats["contour_steps"] == steps


def test_zeta_values_are_power_sums_of_minus_the_zeros():
    # zeta_L(k) = sum_j (-rho_j)^(-k) over the zeros of phi: at (-19/4, 3/2) the
    # default region's zeros and their conjugates give it to 2e-6, and
    # sum_j rho_j^(-k) has the opposite sign
    L, eta = F(-19, 4), F(3, 2)
    table = zeta_table(CoulombParams(L, eta), 11)
    report = find_complex_zeros(float(L), float(eta))
    zeros = [*report.zeros, *(z.conjugate() for z in report.zeros if z.imag > 1e-7)]
    for k, rounded in ((7, -3.6124e-3), (9, 1.79332e-2), (11, -2.43695e-5)):
        value = float(table.value(k))
        assert abs(value - rounded) <= 1e-5 * abs(rounded)
        assert abs(sum((-z) ** -k for z in zeros) - value) <= 1e-5 * abs(value)
        assert sum(z ** -k for z in zeros).real * value < 0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tol_must_be_positive_and_finite(tol):
    # checked before any series work: these used to sum all 500 terms and
    # then raise NoConvergence
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        phi(0.0, 0.0, 1.0, tol=tol)
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        phi_derivative(0.0, 0.0, 1.0, tol=tol)
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        find_complex_zeros(0.0, 0.0, tol=tol)


def test_zero_report_stats_count_the_work():
    report = find_complex_zeros(-2.75, 1.5)
    stats = report.stats
    assert set(stats) == {
        "series_evals", "contour_steps", "newton_starts", "newton_steps",
        "nudge_retries", "jacobi_n", "ql_sweeps",
    }
    assert all(type(v) is int and v >= 0 for v in stats.values())
    # the contour is mostly stepped: its series sums are few
    assert stats["contour_steps"] > stats["series_evals"] - stats["newton_steps"]
    # one start per located zero at least, each start at least two steps
    assert stats["newton_starts"] >= len(report.zeros)
    assert stats["newton_steps"] >= 2 * stats["newton_starts"]
    assert stats["series_evals"] > stats["newton_steps"]
    # one Jacobi matrix of order 10 + ceil(2|L| + max|corner|/2), at least one sweep per seed
    assert stats["jacobi_n"] == 10 + math.ceil(2 * 2.75 + abs(report.region.corners()[2]) / 2)
    assert stats["ql_sweeps"] >= stats["newton_starts"]
    # the counters describe the call, not the result
    again = find_complex_zeros(-2.75, 1.5)
    assert again == report and again.stats == stats


def _first_jacobi_order(L: float, region: Rect) -> int:
    return 10 + math.ceil(2 * abs(L) + max(abs(c) for c in region.corners()) / 2)


def _region_calls():
    """(L, eta, search) of the verify grid's zeros and hurwitz finder calls, of
    (-0.25, -3) on 0..15 x 0..15 and of default regions across the zeros-default
    L and eta range."""
    grid = load_grid()
    calls = [(c["L"], c["eta"], tuple(c["region"])) for c in grid["zeros"]["cases"]]
    calls += [(float(c["nu"]) - 0.5, 0.0, None) for c in grid["hurwitz"]["cases"]]
    calls.append((-0.25, -3.0, (0, 15, 0, 15)))
    # (-4.75, 3) is left out: the series cannot reach its default region, and
    # the finder raises NoConvergence there at any order
    calls += [(L, eta, None) for L in (-0.25, -1.75, -3.25, -4.75) for eta in (0.0, 1.5, 3.0)
              if (L, eta) != (-4.75, 3.0)]
    return calls


@pytest.mark.parametrize("L,eta,search", _region_calls())
def test_the_first_jacobi_order_suffices(L, eta, search):
    # growth by 3/2 is only the fallback: the order sized by the rectangle
    # already seeds every zero the winding count certifies
    report = find_complex_zeros(L, eta, search=search)
    first = _first_jacobi_order(L, report.region) if report.zeros else 0
    assert report.stats["jacobi_n"] == first
    assert report.stats["newton_starts"] == len(report.zeros)


def test_a_small_rectangle_far_out_forms_a_small_matrix():
    # one zero at |rho| ~ 12 and L = -20.25: the order follows the rectangle
    # (58, no growth), not a bound for the whole plane
    report = find_complex_zeros(-20.25, 1.5, search=(1, 3, 11, 13))
    assert report.zeros == (complex(1.8685063924949643, 11.86785960098524),)
    assert report.stats["jacobi_n"] == 58 == _first_jacobi_order(-20.25, report.region)
    assert report.stats["newton_starts"] == 1


def test_a_polishing_step_out_of_reach_fails_only_its_start(monkeypatch):
    # the only zero here is pi; its first start's last (polishing) step raises,
    # so that start fails, the matrix grows once and the next start finds pi
    search = (2, 4, -0.5, 0.5)
    clean = find_complex_zeros(0, 0, search=search)
    assert clean.stats["newton_starts"] == 1
    polish_call = clean.stats["newton_steps"]
    calls = []
    plain = _Evaluator._sum

    def spy_sum(self, rho, tol, want_derivative):
        # Newton's sums are the value-and-derivative ones at the evaluator's tol;
        # the contour sums to double precision
        if want_derivative and tol == self.tol:
            calls.append(rho)
            if len(calls) == polish_call:
                raise NoConvergence("polishing step out of reach")
        return plain(self, rho, tol, want_derivative)

    monkeypatch.setattr(_Evaluator, "_sum", spy_sum)
    report = find_complex_zeros(0, 0, search=search)
    assert report.zeros == clean.zeros
    assert report.stats["newton_starts"] == 2
    assert report.stats["jacobi_n"] == clean.stats["jacobi_n"] * 3 // 2


def test_a_taylor_step_that_does_not_converge_raises():
    # a step of 9 from rho = 1 is far outside the local series' radius
    ev = _Evaluator(-0.5, 1.0, 1e-12)
    with pytest.raises(NoConvergence, match=r"^Taylor step from 1 to 10 did not converge$"):
        ev.step(1, *ev.values(1), 10)


def test_an_exact_zero_on_the_contour_raises():
    ev = _Evaluator(0.0, 0.0, 1e-12)
    with pytest.raises(ContourTooClose, match=r"^zero on the contour near 0j \.\. \(1\+0j\)$"):
        _phase_along_edge(ev, 0j, 1 + 0j, (0j, 1j), (1 + 0j, 0j))


def test_a_contour_through_a_zero_names_the_test_that_failed():
    # the left edge runs through the zero at pi; pieces beside it turn by less
    # than pi/2 but are long beside phi'/phi, down to the last subdivision
    with pytest.raises(ContourTooClose) as info:
        count_zeros_region(0.0, 0.0, (math.pi, 4, -1, 1))
    found = re.fullmatch(r"\|h\| max\|phi'/phi\| above 2 after maximal subdivision near "
                         r"\(3\.14159\S*j\) \.\. \(3\.14159\S*j\): "
                         r"phase step (\S+), \|h\| max\|phi'/phi\| (\S+)", str(info.value))
    assert found, str(info.value)
    assert float(found[1]) <= math.pi / 2 < 2 < float(found[2])


@pytest.mark.parametrize("vb,message", [
    ((-1 + 0.1j, 0j), r"phase step above pi/2 after maximal subdivision near 0j \.\. \(1\+0j\): "
                      r"phase step 3\.042, \|h\| max\|phi'/phi\| 0$"),
    ((1 + 0j, 3 + 0j), r"\|h\| max\|phi'/phi\| above 2 after maximal subdivision near 0j \.\. "
                       r"\(1\+0j\): phase step 0, \|h\| max\|phi'/phi\| 3$"),
    ((-1 + 0j, 3 + 0j), r"phase step above pi/2 and \|h\| max\|phi'/phi\| above 2 after "
                        r"maximal subdivision near 0j \.\. \(1\+0j\): phase step 3\.142, "
                        r"\|h\| max\|phi'/phi\| 3$"),
], ids=["phase", "phi-prime-over-phi", "both"])
def test_a_piece_refused_at_maximal_subdivision_gives_both_numbers(vb, message):
    ev = _Evaluator(0.0, 0.0, 1e-12)
    with pytest.raises(ContourTooClose, match="^" + message):
        _phase_along_edge(ev, 0j, 1 + 0j, (1 + 0j, 0j), vb, depth=0)


def test_a_winding_that_is_not_integral_raises(monkeypatch):
    import czeta.numeric

    # one edge turns the phase by pi and the rest by nothing: half a turn in all
    steps = iter([math.pi])
    monkeypatch.setattr(czeta.numeric, "_phase_along_edge", lambda *args: next(steps, 0.0))
    with pytest.raises(ContourTooClose, match=r"^winding number 0\.5000 not integral over "):
        _winding(_Evaluator(0.0, 0.0, 1e-12), Rect(-1, 1, -1, 1))


def test_a_ql_rotation_that_breaks_down_raises():
    # [[1, i], [i, -1]] is nilpotent: f = +-ig at its first rotation, so r = 0
    with pytest.raises(NoConvergence, match=r"^QL rotation broke down at eigenvalue 0 of 2$"):
        _ql_eigenvalues([1 + 0j, -1 + 0j], [1j])


def test_newton_gives_up_a_start_where_the_derivative_vanishes():
    # phi'(0) = eta/(L+1) = 0 for sin(rho)/rho
    ev = _Evaluator(0.0, 0.0, 1e-12)
    assert _newton(ev, 0j) is None
    assert ev.stats["newton_steps"] == 1


@pytest.mark.parametrize("L", [-4.75, -2.75])
def test_one_newton_start_per_zero_on_the_default_region(L):
    # each eigenvalue seed in the region polishes to its own zero; the old
    # subdivision restarted Newton from a grid (51 starts for 9 zeros at -4.75)
    report = find_complex_zeros(L, 1.5)
    assert report.stats["newton_starts"] == len(report.zeros)
    assert report.stats["newton_steps"] < 60 and report.stats["series_evals"] < 400
    assert report.unresolved == ()


def test_a_region_without_zeros_forms_no_jacobi_matrix():
    report = find_complex_zeros(0.5, 1.0, search=(-1, 1, 0.05, 2))
    assert report.zeros == () and report.stats["newton_starts"] == 0
    assert report.stats["jacobi_n"] == report.stats["ql_sweeps"] == 0


def test_jacobi_entries_match_the_exact_recurrence_coefficients():
    # every entry is the exact layer's a_n or b_n at the floats' binary values,
    # rounded once; -0.1 and 0.3 have long binary fractions, and at (-3, 0) u = 0
    for L, eta in [(-4.75, 1.5), (1 / 3, 0.5), (-2.0, 0.0), (-45.75, 2.75), (-7 / 3, -1.25),
                   (0.0, 0.0), (-0.1, 0.3), (-3.0, 0.0)]:
        coeffs = recurrence_coeffs(CoulombParams(F(L), F(eta)), 39)
        b = [complex(float(coeffs.b(n))) for n in range(40)]
        a = [cmath.sqrt(float(coeffs.a(n))) for n in range(1, 40)]
        diag, off = _jacobi(L, eta, 40)
        assert list(map(_bits, diag)) == list(map(_bits, b)), (L, eta)
        assert list(map(_bits, off)) == list(map(_bits, a)), (L, eta)


def _eigen_pairs(L, eta) -> int:
    """Non-real conjugate pairs among the eigenvalues at N = 30 + ceil(3|L|)."""
    eigs, _ = _ql_eigenvalues(*_jacobi(float(L), float(eta), 30 + math.ceil(3 * abs(L))))
    # rounding is relative to the spectrum's scale; at eta = 0 and odd N one
    # eigenvalue is 0 and comes out as a few ulps in any direction
    scale = max(abs(x) for x in eigs)
    return sum(1 for x in eigs if x.imag > 1e-9 * scale)


def test_eigen_pair_counts_equal_classify_on_the_zeros_default_pairs():
    # L = -(k+q), k in 0..8, q in {1/4, 3/4}, eta in quarter steps over [0, 3]:
    # including the 79 pairs where the series cannot reach the default region
    for k in range(9):
        for q in (F(1, 4), F(3, 4)):
            for i in range(13):
                L, eta = -(k + q), F(i, 4)
                assert _eigen_pairs(L, eta) == classify(CoulombParams(L, eta)).pair_count, (L, eta)


def test_eigen_pair_counts_equal_classify_on_deep_pairs():
    # every exact-deep L = -(m+q), m in 10..45, q in {1/4, 3/4, 1/3, 2/3}, with
    # eta cycling through the 13 quarter steps over [0, 3]
    Ls = [-(m + q) for m in range(10, 46) for q in (F(1, 4), F(3, 4), F(1, 3), F(2, 3))]
    assert len(Ls) == 144
    for i, L in enumerate(Ls):
        eta = F(i % 13, 4)
        assert _eigen_pairs(L, eta) == classify(CoulombParams(L, eta)).pair_count, (L, eta)


def test_seed_count_mismatch_grows_the_matrix_twice_then_raises(monkeypatch):
    # a winding total one above the zeros there: N grows 15 -> 22 -> 33, then NoConvergence
    import czeta.numeric

    sizes = []
    real_jacobi = czeta.numeric._jacobi
    monkeypatch.setattr(czeta.numeric, "_winding", lambda ev, region, box=None: 3)
    monkeypatch.setattr(czeta.numeric, "_jacobi",
                        lambda L, eta, size: sizes.append(size) or real_jacobi(L, eta, size))
    with pytest.raises(NoConvergence, match=r"^Newton reached 2 distinct zeros .* is 3$"):
        find_complex_zeros(0.0, 0.0)
    assert sizes == [15, 22, 33]


@pytest.mark.parametrize("L,eta,search,sizes,n_real", [
    (0.5, 20.0, (-3, 3, -0.5, 3), (14, 21), 6),
])
def test_the_matrix_grows_once_where_the_first_order_misses_a_zero(L, eta, search, sizes, n_real):
    # real inputs whose first order seeds too few of the certified zeros: the
    # order grows by 3/2 once, and every zero matches a 40-digit root
    report = find_complex_zeros(L, eta, search=search)
    assert _first_jacobi_order(L, report.region) == sizes[0]
    assert report.stats["jacobi_n"] == sizes[1]
    assert report.counts == {"real": n_real, "complex_pairs": 0, "imaginary_pairs": 0}
    with mp.workdps(40):
        a, b = mp.mpf(L) + 1 - 1j * mp.mpf(eta), 2 * mp.mpf(L) + 2

        def f(x):
            return mp.e ** (-1j * x) * mp.hyp1f1(a, b, 2j * x)

        for z in report.zeros:
            assert abs(mp.findroot(f, mp.mpc(z)) - z) <= 1e-7, z


def test_one_parameter_pair_shares_one_coefficient_list():
    _series.cache_clear()
    report = find_complex_zeros(-3.75, 1.5)
    coeffs = _Evaluator(-3.75, 1.5, 1e-12).coeffs
    # one immutable table of every coefficient up to the cap, built once
    assert isinstance(coeffs, tuple)
    assert len(coeffs) == _SERIES_CAP + 1
    count_zeros_region(-3.75, 1.5, report.region)
    for z in report.zeros:
        phi(-3.75, 1.5, z)
        phi_derivative(-3.75, 1.5, z)
    assert _Evaluator(-3.75, 1.5, 1e-8).coeffs is coeffs
    assert _series.cache_info().misses == 1
    # a signed zero keys the pair as +0.0, whichever sign was built first
    for first, second in (((0.0, 0.0), (-0.0, -0.0)), ((-0.0, -0.0), (0.0, 0.0))):
        _series.cache_clear()
        phi(*first, 2 + 1j)
        ev = _Evaluator(*second, 1e-12)
        assert math.copysign(1.0, ev.L) == math.copysign(1.0, ev.eta) == 1.0
        assert ev.coeffs is _Evaluator(*first, 1e-12).coeffs


def test_concurrent_calls_on_fresh_pairs_match_single_threaded_ones():
    # six threads call phi and phi' at once on each of 200 pairs no call has
    # built yet, the interpreter switching threads every microsecond; a table
    # that the calls grew in place gave 14-64 of these 2400 values wrong in
    # five runs, and kept a duplicated coefficient for later calls
    threads = 6
    pairs = [(-3.756 + k / 997, 1.5 - k / 1009) for k in range(200)]
    calls = [(fn, rho) for rho in (11 + 0.5j, 9 - 2j, -7 + 3j, 5 + 1j, -10 - 0.5j, 8j)
             for fn in (phi, phi_derivative)]
    _series.cache_clear()
    expected = {(p, i): fn(*p, rho) for p in pairs for i, (fn, rho) in enumerate(calls)}
    _series.cache_clear()
    got, fresh = {}, {}
    barrier = threading.Barrier(threads, timeout=60)

    def worker(t):
        for p in pairs:
            barrier.wait()
            for i in range(t, len(calls), threads):
                fn, rho = calls[i]
                got[p, i] = fn(*p, rho)
            barrier.wait()
            if t == 0:
                ev = _Evaluator(*p, 1e-12)
                fresh[p] = (ev.coeffs, ev.factors) == _series.__wrapped__(*p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    assert [k for k in expected if repr(got.get(k)) != repr(expected[k])] == []
    assert fresh == dict.fromkeys(pairs, True)


def _signed_zero_calls() -> list[tuple]:
    """(fn, L, eta, rho): phi and phi' at pairs with L or eta = -0.0, at seeded
    points with a signed-zero part; the first result has a zero real part."""
    rng = random.Random(20261020)
    calls = [(phi_derivative, 0.0, -0.0, complex(0.0, -0.3437734562189467))]
    for L, eta in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 1.5), (-2.0, -0.0), (2.5, -0.0)):
        for _ in range(4):
            x, y = rng.uniform(-6, 6), rng.uniform(-6, 6)
            for rho in (complex(x, 0.0), complex(x, -0.0), complex(0.0, y), complex(-0.0, y)):
                calls += [(phi, L, eta, rho), (phi_derivative, L, eta, rho)]
    return calls


def test_signed_zero_results_do_not_depend_on_call_order():
    calls = _signed_zero_calls()

    def reprs(twin_first):
        _series.cache_clear()
        out = []
        for fn, L, eta, rho in calls:
            if twin_first:
                phi(L + 0.0, eta + 0.0, 1j)  # the pair's +0.0 twin
            out.append(repr(fn(L, eta, rho)))
            if not twin_first:
                phi(L + 0.0, eta + 0.0, 1j)
        return out

    assert reprs(twin_first=False) == reprs(twin_first=True)
    assert repr(phi_derivative(0.0, -0.0, complex(0.0, -0.3437734562189467))) == (
        "0.11595112087334501j"
    )


def test_outer_contour_through_a_zero_is_nudged():
    # sin(rho)/rho has the zero pi on the lower edge of this region
    region = Rect(2, 4, 0, 0.5)
    with pytest.raises(ContourTooClose):
        count_zeros_region(0, 0, region)
    report = find_complex_zeros(0, 0, search=region)
    assert report.region == region.expand(1.3e-3)
    assert report.stats["nudge_retries"] == 1
    (z,) = report.zeros
    assert abs(z - math.pi) < 1e-12


def _scripted_winding(monkeypatch, script):
    """Replace the finder's winding count: call k answers script(k, region), which
    returns a count or raises.  Returns the list of (region, evaluator) asked."""
    import czeta.numeric

    asked = []

    def winding(ev, region, box=None):
        asked.append((region, ev))
        return script(len(asked) - 1, region)

    monkeypatch.setattr(czeta.numeric, "_winding", winding)
    return asked


def test_outer_contour_nudges_give_up_after_every_candidate(monkeypatch):
    def too_close(k, region):
        raise ContourTooClose(f"candidate {k}")

    asked = _scripted_winding(monkeypatch, too_close)
    region = Rect(-1, 1, 0, 1)
    with pytest.raises(ContourTooClose, match=r"^candidate 7$"):
        find_complex_zeros(0, 0, search=region)
    factors = (0.0, 1.3e-3, -1.7e-3, 2.9e-3, -3.7e-3, 5.1e-3, -6.3e-3, 8.7e-3)
    assert [r for r, _ in asked] == [region.expand(f) if f else region for f in factors]
    assert asked[0][1].stats["nudge_retries"] == 8
    # no count, so no Jacobi matrix
    assert asked[0][1].stats["jacobi_n"] == asked[0][1].stats["ql_sweeps"] == 0
