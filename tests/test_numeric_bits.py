"""Bit-level pins of the numeric layer.

Every float the numeric layer returns is hashed through its ``repr``, which
tells apart values that compare equal (``0.0`` and ``-0.0``) and shows every
bit of a double.  A change to how values are computed (caching, loop shape,
evaluation order) must leave these digests unchanged; a change that means to
alter the numbers must re-pin them and say why.
"""

import cmath
import hashlib
import math
import random

import pytest

from czeta.errors import NoConvergence
from czeta.numeric import Rect, find_complex_zeros, phi, phi_derivative
from czeta.verify import load_grid

from oracles import phi_mpmath

PARAMS = [
    (0.0, 0.0), (0.5, 1.0), (-1.75, 1.5), (-2.75, 1.5), (-3.75, 1.5),
    (-2.0, 0.0), (1.0, 2.0), (-0.25, -0.5), (2.5, 0.0),
]
TOLS = (1e-12, 1e-8, 1e-14, 1e-3)


def _points() -> list[tuple[float, float, complex, float]]:
    rng = random.Random(20261018)
    points = []
    for L, eta in PARAMS:
        for _ in range(12):
            rho = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            points.append((L, eta, rho, rng.choice(TOLS)))
        x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
        # both signed zeros in each part, and the origin in all four signs
        for rho in (complex(x, 0.0), complex(x, -0.0), complex(0.0, y), complex(-0.0, y),
                    complex(0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)):
            points.append((L, eta, rho, 1e-12))
        # beyond double precision: the term cap and the cancellation floor
        points.append((L, eta, complex(400.0, 0.0), 1e-12))
        points.append((L, eta, complex(60.0, 0.0), 1e-12))
        points.append((L, eta, complex(30.0, -30.0), 1e-12))
        points.append((L, eta, complex(2.0, 1.0), 1e-300))
    return points


def _far_points() -> list[tuple[float, float, complex, float]]:
    """Points where the series sums many terms before its tail test can hold:
    |rho| in [8, 30] at zeros-default (L, eta) pairs (L = -(k+q), k in 0..8,
    q in {1/4, 3/4}, eta in quarter steps over [0, 3])."""
    rng = random.Random(20261019)
    points = []
    for _ in range(200):
        L = -(rng.randrange(9) + rng.choice((0.25, 0.75)))
        eta = rng.randrange(13) / 4
        rho = cmath.rect(rng.uniform(8, 30), rng.uniform(-math.pi, math.pi))
        points.append((L, eta, rho, rng.choice((1e-12, 1e-8))))
    return points


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except NoConvergence as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report_fields(report) -> str:
    return repr((report.region, report.zeros, report.residuals, report.counts, report.unresolved))


def _finder_cases() -> list[tuple[str, float, float, object]]:
    """(label, L, eta, report) for every finder call the digest pins."""
    full = load_grid()
    out = []
    for case in full["zeros"]["cases"]:
        report = find_complex_zeros(case["L"], case["eta"], search=Rect(*case["region"]))
        out.append((f"zeros {case['L']!r} {case['eta']!r}", case["L"], case["eta"], report))
    for case in full["hurwitz"]["cases"]:
        L = float(case["nu"]) - 0.5
        out.append((f"hurwitz {L!r}", L, 0.0, find_complex_zeros(L, 0.0)))
    for L in (-1.75, -2.75, -3.75, -4.75):
        out.append((f"default {L!r}", L, 1.5, find_complex_zeros(L, 1.5)))
    return out


def _finder_reports() -> list[str]:
    return [f"{label} {_report_fields(report)}" for label, _, _, report in _finder_cases()]


def test_points_cover_signed_zeros_and_failures():
    points = _points()
    outcomes = [_outcome(phi, *p) for p in points]
    assert sum(o.startswith("NoConvergence") for o in outcomes) >= 3 * len(PARAMS)
    assert any("-0j" in o or "-0.0" in o for o in outcomes)


def test_phi_values_are_pinned():
    lines = [f"{p!r} {_outcome(phi, *p)}" for p in _points()]
    assert _digest(lines) == "3d7cab18d6bc2a874610debf4751c2ffec5def9e5288585d002c30fb5e7735f6"


def test_phi_derivative_values_are_pinned():
    lines = [f"{p!r} {_outcome(phi_derivative, *p)}" for p in _points()]
    assert _digest(lines) == "a8d19d7c5dd3e191baa71acde9dc9872a20e17da5bda7f931dcbfe137b9b9ada"


@pytest.mark.parametrize("fn,digest", [
    (phi, "51ea0b14111df88e8554cf2a589b34dcaba1c5025f971563798341803c05a7ce"),
    (phi_derivative, "c9dc21ec4f927b676b3c1414c5c31be88ae6cc33047060e5f863a9a894d563cb"),
], ids=["phi", "phi_derivative"])
def test_long_sums_are_pinned(fn, digest):
    lines = [f"{p!r} {_outcome(fn, *p)}" for p in _far_points()]
    assert _digest(lines) == digest


def test_pinned_zeros_validate_against_high_precision():
    # |phi(z)| / |phi'(z)| bounds the distance to the true zero, so every pinned
    # zero lies within 1e-10 (relative to 1 + |phi'|) of one of mpmath's
    checked = 0
    for label, L, eta, report in _finder_cases():
        for z in report.zeros:
            slope = abs(phi_derivative(L, eta, z))
            assert abs(phi_mpmath(L, eta, z)) <= 1e-10 * (1 + slope), (label, z)
            checked += 1
    assert checked >= 40


def test_zero_reports_are_pinned():
    assert _digest(_finder_reports()) == "0399d93943c9614672b99ef33111ad2e4e8e170b6c718bfacb38fe50dda68683"


def test_stop_index_keeps_the_shift_association():
    # at this rho, (j+1)*shift reaches 2*swing at j = 4 exactly when the shift
    # is rounded as (j + 2L) + 2, and misses it as j + (2L + 2); so loose a
    # tol stops the sum at the first j that passes, and the value shows which
    assert repr(phi(1 / 3, 0.5, 3.612987559751022, tol=10.0)) == "(0.08551576547493606+0j)"
