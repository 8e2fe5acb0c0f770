import cmath
import math
import random
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
    _SERIES_CAP,
    Rect,
    _Evaluator,
    _jacobi,
    _newton,
    _phase_along_edge,
    _series,
    _ql_eigenvalues,
    _winding,
    count_zeros_region,
    default_search_region,
    find_complex_zeros,
    phi,
    phi_derivative,
)
from czeta.verify import load_grid
from czeta.zeta import CoulombParams, zeta_table

from oracles import bessel_normalized, phi_hyp1f1, phi_mpmath

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


def test_conjugate_symmetry_100_points():
    tol = 1e-12
    rng = random.Random(20240817)
    for L, eta in [(0.0, 0.0), (0.5, 1.0), (-1.75, 1.5)]:
        for _ in range(100):
            rho = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            lhs = phi(L, eta, rho.conjugate(), tol)
            rhs = phi(L, eta, rho, tol).conjugate()
            assert abs(lhs - rhs) < 10 * tol


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


@pytest.mark.xfail(strict=True, reason="the winding count skips the real zero at -5.386 "
                   "and the finder returns the other seven without an error")
def test_the_default_region_at_eta_12_gives_all_eight_real_zeros_or_an_error():
    # the real zeros of phi(-0.75, 12, .) in the default region, by 30-digit
    # mpmath findroot; the lower edge at -0.01 passes 0.01 below each, and the
    # contour's 0.4 pieces miss the fast phase turn beside the one at -5.386
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


@pytest.mark.parametrize("bounds", [(1, 2, 3), (1, 2, 3, 4, 5), 7, (-1, 1, 0, "1"), (-1, 1, 0j, 1)])
def test_a_region_of_other_than_four_numbers_is_a_parameter_error(bounds):
    # not iterable, the wrong count, or a bound that does not compare as a number
    with pytest.raises(ParameterError, match=r"^a region is a Rect or four numbers, got "):
        find_complex_zeros(-1.75, 1.5, search=bounds)
    with pytest.raises(ParameterError, match=r"^a region is a Rect or four numbers, got "):
        count_zeros_region(-1.75, 1.5, bounds)


@pytest.mark.parametrize("L", [math.nan, -math.inf, math.inf])
def test_default_search_region_rejects_a_non_finite_L(L):
    with pytest.raises(ParameterError, match=r"^L must be finite, got "):
        default_search_region(L)


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
    # the corners are summed first, as the reach check; a corner stepped to
    # later is the only point both summed and stepped to
    assert summed[:4] == [_bits(c) for c in corners]
    assert set(summed) & set(stepped) <= set(summed[:4])
    if bounds[0] == -1.0:  # every point lies within 2 of the origin
        assert stepped == []
    else:
        assert set(summed) & set(stepped) == set(summed[:4])


def test_series_evals_on_the_default_region_stay_pinned():
    # the contour has 212 boundary points and 21 subdivision midpoints; the 10
    # within |rho| < 2 are summed and the other 223 stepped to.  The sums are
    # those 10, the 4 corners (the reach check), 29 Newton steps and 9
    # residuals: 52
    stats = find_complex_zeros(-4.75, 1.5).stats
    assert stats["series_evals"] == 52
    assert stats["contour_steps"] == 223


def _default_contour(L: float) -> Rect:
    base = default_search_region(L)
    return Rect(base.re_min, base.re_max, -0.01, base.im_max)


@pytest.mark.parametrize("L,eta,bounds", [
    (-33 / 4, 1 / 2, None), (-35 / 4, 1 / 4, None), (-35 / 4, 2.0, None), (-27 / 4, 3.0, None),
    (-31 / 4, 9 / 4, None), (-19 / 4, 3 / 2, None), (-23 / 4, 0.0, None), (-9 / 4, 11 / 4, None),
    # along the axis at strongly negative L the series runs out to radius 7.9;
    # steps from radius 2 are off by a factor 4e6 and the count raises
    (-16.25, 0.0, (-20.25, 20.25, -0.01, 2.0)),
])
def test_stepped_contour_values_match_high_precision(monkeypatch, L, eta, bounds):
    # every third stepped point, subdivision midpoints included
    region = _default_contour(L) if bounds is None else Rect(*bounds)
    stepped = []
    plain_step = _Evaluator.step

    def spy_step(self, z, f, df, to):
        value = plain_step(self, z, f, df, to)
        stepped.append((to, value[0]))
        return value

    monkeypatch.setattr(_Evaluator, "step", spy_step)
    _winding(_Evaluator(L, eta, 1e-12), region)
    assert len(stepped) > 100
    for to, f in stepped[::3]:
        ref = phi_mpmath(L, eta, to)
        assert abs(f - ref) <= 1e-6 * abs(ref), (to, f, ref)


def _eigen_count(L: float, eta: float, region: Rect) -> int:
    """Eigenvalues lambda of the order-400 Jacobi matrix with 1/lambda in the region.

    Not an exact count at large |rho|: on the default region of (-18.75, 8) it
    gives 21 where a 60-digit argument-principle count gives 20.  It is used
    only on the three inputs below, where it was checked.
    """
    import numpy as np

    diag, off = _jacobi(L, eta, 400)
    eigs = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return sum(1 for lam in eigs if abs(lam) > 1e-12 and region.contains(complex(1 / lam)))


@pytest.mark.parametrize("L,eta,bounds,count", [
    # the series cannot sum these boundaries above its cancellation floor, the
    # steps can; the finder then fails only at Newton's seed count
    (-27 / 4, 3.0, None, 12),
    (-35 / 4, 2.0, None, 15),
    # steps from radius 3 count 2 here, from radius 2 the count raises
    (-20.25, 2.0, (-22.25, -1.0, 0.6, 4.0), 1),
])
def test_stepped_windings_match_the_jacobi_eigenvalues(L, eta, bounds, count):
    region = _default_contour(L) if bounds is None else Rect(*bounds)
    assert count_zeros_region(L, eta, region) == count
    assert _eigen_count(L, eta, region) == count


def test_a_loose_tolerance_leaves_the_stepped_winding_alone():
    # the contour's sums run to double precision whatever tol is; chains of
    # steps from sums cut off at tol = 1e-3 counted 15 zeros here
    region = _default_contour(-8.25)
    assert count_zeros_region(-8.25, 0.0, region, tol=1e-3) == 13
    assert count_zeros_region(-8.25, 0.0, region) == 13


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
        count_zeros_region(0.0, 0.0, (2.5, 3.5, -0.5, 0.5), tol=tol)
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
    plain = _Evaluator.newton_values

    def newton_values(self, z):
        calls.append(z)
        if len(calls) == polish_call:
            raise NoConvergence("polishing step out of reach")
        return plain(self, z)

    monkeypatch.setattr(_Evaluator, "newton_values", newton_values)
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
        _phase_along_edge(ev, 0j, 1 + 0j, (0j, 1j), (1 + 0j, 0j), 2.0)


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
    monkeypatch.setattr(czeta.numeric, "_winding", lambda ev, region: 3)
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
                fresh[p] = _Evaluator(*p, 1e-12).coeffs == _series.__wrapped__(*p)

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

    def winding(ev, region):
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
