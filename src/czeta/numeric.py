"""Floating-point evaluation of the entire Coulomb factor and zero localization.

The entire factor phi(L, eta, .) with phi(0) = 1 is evaluated from its power
series sum_j B_j rho^j, whose coefficients are real and satisfy

    B_0 = 1,  B_1 = eta/(L+1),  j (j + 2L + 1) B_j = 2 eta B_{j-1} - B_{j-2}.

Summing this single real-coefficient series (with compensated accumulation)
loses far less precision to cancellation than multiplying e^(-i rho) against
the confluent hypergeometric series, which matters for |rho| up to ~10 in
double precision.  Real coefficients also make conjugate symmetry of the
evaluation exact.

`find_complex_zeros` takes the number of zeros in a rectangle from the
argument principle: the phase of phi along a contour of pieces at most 0.8
long, each halved until its phase step is at most pi/2 and |h| max|phi'/phi|
over its two ends is at most 2.  Every contour point carries (phi, phi'): within
one series radius the series sums both, and every other point takes them from one
Taylor step of rho phi'' + (2L+2) phi' + (rho - 2 eta) phi = 0 from a
neighbour no farther from the real axis (about 15 recurrence terms, none
cancelling).  A corner is summed first, once, as a reach check, unless a bound
on its largest term clears the guard below; the check only checks, and the
contour values the corner like any other point.  One guard judges each sum's
rounding floor: every contour sum at the default tol, so a count rests on
(L, eta, region) alone, and one it refuses raises, the reach check.  Elsewhere
(`phi`, `phi_derivative`, Newton and the residuals) a sum refused at tol
(|rho| >~ 12) at |rho| <= 40 is continued by the same Taylor steps from the
series at that radius, below the floor, along the ray outward to rho in strides
of at most max(0.4, |w|/4) from each start w, as a step's series converges
within |w| of w; a Newton start walks every later refused iterate from its last
continued one.  For both, the radius keeps the steps' rounding growth below
1e6.  The finder's candidates come from the exact recurrence: the Hankel determinants of zeta_L(k)
are moment determinants, so the eigenvalues of the truncated Jacobi matrix of
their recurrence coefficients converge to 1/rho_j, the smallest |rho_j| first
(Y. Ikebe, Math. Comp. 29 (1975) 878-887; F. Stampach & P. Stovicek, J. Math.
Anal. Appl. 419 (2014)).  A complex QL iteration finds them, Newton iteration
on the term-wise differentiated series polishes each seed 1/lambda in the
rectangle, and the distinct limits must be as many as the winding count.
phi(0) = 1, so the origin never contributes a zero.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from ._record import Frozen
from .errors import ContourTooClose, NoConvergence, ParameterError, _number
from .hankel import _recurrence_terms
from .zeta import CoulombParams

_SERIES_CAP = 500
_IMAG_AXIS_TOL = 1e-7  # |re| below this flags a purely imaginary zero
_REAL_AXIS_TOL = 1e-7  # |im| below this flags a real zero
_NEWTON_STEPS = 60  # Newton steps per start before it is given up
_STEP_CAP = 60  # terms of one Taylor step before it is given up
_ROUNDING = 2.0**-53  # tail tolerance of the contour's series sums
_CONTOUR_TOL = 1e-12  # the default tol: its cancellation guard holds every winding's sums
# farthest |rho| to which `_Evaluator._at` continues past the series' cancellation floor.
# Against 35-digit mpmath at 800 seeded floor points (L = -0.25 .. -11.75, eta in {0, 0.5,
# 1.5, 3, 5, 8, 12, -3}, |rho| up to 60) the continued (phi, phi') were at most 4.2e-11
# (1 + |value|) off within 40 and 5.5e-11 past it, where 17 points with eta 8 or 12 and
# |rho| > 51 ran past _STEP_CAP.  40 covers every default region's corners down to
# L = -35/4 (|rho| <= 31.2) and leaves phi(0, 0, 60) and |rho| = 30 sqrt 2 refused.
_REACH = 40.0
# shortest stride of `_Evaluator.walk`, which strides |w|/4 from |w| = 1.6 on: the 262 of
# those points within 40 took 6,092 steps for phi and phi', against 37,682 in pieces of 0.4
_CONTINUE_PIECE = 0.4


class Rect(Frozen):
    """Axis-aligned rectangle in the complex plane; its bounds are held as floats."""

    __slots__ = ("re_min", "re_max", "im_min", "im_max")

    def __init__(self, re_min: float, re_max: float, im_min: float, im_max: float):
        self._set_fields(*[_number(name, bound, float) for name, bound
                           in zip(self.__slots__, (re_min, re_max, im_min, im_max))])
        # finite and ordered; a nan bound fails every comparison
        if not (-math.inf < self.re_min < self.re_max < math.inf
                and -math.inf < self.im_min < self.im_max < math.inf):
            raise ParameterError(f"degenerate rectangle {self}")

    def corners(self) -> list[complex]:
        """Counterclockwise boundary corners, closed."""
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
            complex(self.re_min, self.im_min),
        ]

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max

    def expand(self, factor: float) -> "Rect":
        dw = factor * (self.re_max - self.re_min)
        dh = factor * (self.im_max - self.im_min)
        return Rect(self.re_min - dw, self.re_max + dw, self.im_min - dh, self.im_max + dh)


def _as_rect(region: Rect | tuple) -> Rect:
    """A Rect, or four numbers (re_min, re_max, im_min, im_max) made one."""
    try:
        return region if isinstance(region, Rect) else Rect(*region)
    except TypeError:  # not iterable, or not four bounds; Rect names a bound it refuses
        raise ParameterError(f"a region is a Rect or four numbers, got {region!r}") from None


# callers reuse a pair only within one case (a finder call, then phi and phi' at its
# zeros); a full verify-all builds 6 tables, 25 KB each: 16 KB of coefficients, 9 of factors
@lru_cache(maxsize=16)
def _series(L: float,
            eta: float) -> tuple[tuple[float, ...], tuple[tuple[float, float, int], ...]]:
    """(B_0 .. B_{_SERIES_CAP}, a Taylor step's factors ((m+b)/(m+2), 1/((m+2)(m+1)), m+2),
    m < _STEP_CAP, b = 2L+2) of a pair that the `CoulombParams` constructor accepts at its
    exact values: one immutable table, built once and shared by every evaluator of the pair,
    from any thread; the evaluator keys it with signed zeros folded to +0.0."""
    if not (math.isfinite(2 * L + 2) and math.isfinite(eta)):
        raise ParameterError(f"series parameters out of range: L = {L}, eta = {eta}")
    CoulombParams(L, eta)  # the exact values `_jacobi` reads too
    c = [1.0]
    two_l, two_eta = 2 * L, 2 * eta
    prev2, prev = 0.0, 1.0
    for j in range(1, _SERIES_CAP + 1):
        denom = j * (j + two_l + 1)
        # off the excluded set a zero denom is eta = 0 with negative integer L: the 0/0
        # index is odd and the coefficient vanishes by evenness of the function
        prev2, prev = prev, 0.0 if denom == 0 else (two_eta * prev - prev2) / denom
        c.append(prev)
    b = 2 * L + 2
    return tuple(c), tuple(((m + b) / (m + 2), 1 / ((m + 2) * (m + 1)), m + 2)
                           for m in range(_STEP_CAP))


# the keys of ZeroReport.stats, described there
_STAT_NAMES = (
    "series_evals", "contour_steps", "newton_starts", "newton_steps",
    "nudge_retries", "jacobi_n", "ql_sweeps",
)


class _Evaluator:
    """One call's access to the series of one (L, eta): its tolerance, its series radius
    and its counters."""

    __slots__ = ("L", "eta", "coeffs", "factors", "radius", "tol", "stats")

    def __init__(self, L: float, eta: float, tol: float):
        # a nan or non-positive tolerance would run the whole series and only
        # then fail as NoConvergence
        self.tol = _number("tol", tol, float)
        if not 0 < self.tol < math.inf:
            raise ParameterError(f"tol must be positive and finite, got {tol}")
        # -0.0 + 0.0 is 0.0: one cache key per pair, whatever sign an earlier call passed
        self.L, self.eta = _number("L", L, float) + 0.0, _number("eta", eta, float) + 0.0
        self.coeffs, self.factors = _series(self.L, self.eta)
        self.radius = _series_radius(self.L)
        self.stats = dict.fromkeys(_STAT_NAMES, 0)

    def values(self, z: complex) -> tuple[complex, complex]:
        """(phi, phi') for the contour, summed to double precision; the winding's reach
        check: a sum whose rounding floor the default tol does not cover raises."""
        f, df, floor = self._sum(z, _ROUNDING, True)
        if (refused := _floor_refusal(z, f, floor, _CONTOUR_TOL)) is not None:
            raise refused
        return f, df

    def step(self, z: complex, f: complex, df: complex, to: complex) -> tuple[complex, complex]:
        """(phi, phi') at `to` from (f, df) at z by the Taylor series in w = rho - z of
        rho phi'' + (2L+2) phi' + (rho - 2 eta) phi = 0: z (m+2)(m+1) a_{m+2} = -[(m+1)
        (m+2L+2) a_{m+1} + (z - 2 eta) a_m + a_{m-1}], summed in t_m = a_m h^m until two
        terms in a row are below rounding; away from the origin no term cancels."""
        self.stats["contour_steps"] += 1
        h = to - z
        u = h / z
        p = (z - 2 * self.eta) * h * u
        q = h * h * u
        t0, t1, t2 = 0j, f, df * h  # t_{m-1}, t_m, t_{m+1} at m = 0
        s, sd = f + t2, t2  # sums of t_m and of m t_m
        bound = 1e-17 * (abs(f) + abs(t2))
        a2 = abs(t2)
        for k1, k2, k3 in self.factors:
            t = -(k1 * u * t2 + k2 * (p * t1 + q * t0))
            s += t
            sd += k3 * t
            a = abs(t)
            if a + a2 <= bound:
                return s, sd / h
            t0, t1, t2, a2 = t1, t2, t, a
        raise NoConvergence(f"Taylor step from {z} to {to} did not converge")

    def walk(self, z: complex, f: complex, df: complex, to: complex) -> tuple[complex, complex]:
        """(phi, phi') at `to` from (f, df) at z by `step`s along the segment, each at most
        max(_CONTINUE_PIECE, |w|/4) long from its start w, the last landing on `to`: the
        equation is singular only at 0, so a step's series converges within |w| of w and
        the strides grow with the distance from the origin.  A walk to z takes no step."""
        if to == z:
            return f, df
        while (length := abs(to - z)) > (piece := max(_CONTINUE_PIECE, abs(z) / 4)):
            w = z + (to - z) * (piece / length)
            f, df = self.step(z, f, df, w)
            z = w
        return self.step(z, f, df, to)

    def _at(self, z: complex, want_derivative: bool = True,
            near: tuple | None = None) -> tuple[complex, complex, tuple | None]:
        """(phi, phi', near) at z for `phi`, `phi_derivative`, each Newton iterate and each
        residual: `_sum` at tol, phi' 0j unless wanted, with the `near` given.  Where tol
        does not cover that sum's rounding floor and radius < |z| <= _REACH, the value is
        `walk`ed instead: from `near`, a continued (z, phi, phi'), or afresh from the series
        summed at the radius on the ray to z where near is None or the walk could pass
        inside the radius; near becomes z's.  A sum is never walked from: next to its floor
        it carries up to 1e6 tol of rounding.  A continued value has no tail bound at tol.
        The refusal is raised out of reach and wherever the continuation fails, as the sum
        does at tol = 1e-300."""
        f, df, floor = self._sum(z, self.tol, want_derivative)
        if (refused := _floor_refusal(z, f, floor, self.tol)) is None:
            return f, df, near
        if not self.radius < abs(z) <= _REACH:
            raise refused
        try:
            if near is None or abs(z - near[0]) > abs(near[0]) - self.radius:
                start = z * (self.radius / abs(z))
                f, df, floor = self._sum(start, self.tol, True)
                if _floor_refusal(start, f, floor, self.tol) is not None:
                    raise refused
                near = start, f, df
            f, df = self.walk(*near, z)
        except NoConvergence:
            raise refused from None
        return f, df, (z, f, df)

    def floor_bound(self, z: complex) -> float:
        """2.3e-16 max |B_j z^j| over j up to `_first_stop` at z, each term as `_sum` forms
        it: every later term of a sum at z is smaller, so no sum's floor there exceeds it."""
        c = self.coeffs
        power, top = complex(1.0), 1.0
        for j in range(1, min(self._first(abs(z)), _SERIES_CAP) + 1):
            power *= z
            t = abs(c[j] * power)
            if t > top:
                top = t
        return 2.3e-16 * top

    def _first(self, abs_rho: float) -> int:
        """`_first_stop` of a sum at |rho| = abs_rho."""
        swing = 2 * abs(self.eta) * abs_rho + abs_rho * abs_rho
        return _first_stop(2 * self.L, 2 * swing)

    def _sum(self, rho: complex, tol: float,
             want_derivative: bool) -> tuple[complex, complex, float]:
        """(phi, phi', floor) at rho, phi' 0j unless wanted, tails below tol: the one
        series sum, for the public functions, Newton and the contour alike, counted here.
        floor, epsilon times the largest term, is its rounding floor, which the caller
        judges by `_floor_refusal`; the term cap raises NoConvergence."""
        self.stats["series_evals"] += 1
        rho = complex(rho)
        c = self.coeffs
        if rho == 0:
            return complex(1.0), complex(c[1]), 0.0
        s = complex(1.0)  # j = 0 term
        comp = 0j
        s1 = complex(c[1]) if want_derivative else 0j
        comp1 = 0j
        power = complex(1.0)
        abs_rho = abs(rho)
        first = self._first(abs_rho)
        t_prev = 1.0
        t_max = 1.0
        for j in range(1, _SERIES_CAP + 1):
            power *= rho
            term = c[j] * power
            y = term - comp
            t = s + y
            comp = (t - s) - y
            s = t
            if want_derivative and j >= 2:
                dterm = (j * c[j]) * power / rho
                y1 = dterm - comp1
                t1 = s1 + y1
                comp1 = (t1 - s1) - y1
                s1 = t1
            t_cur = abs(term)
            if t_cur > t_max:
                t_max = t_cur
            # from `first` on every later term ratio stays <= 1/2 and the tail
            # is <= 2*max of the last two
            if j >= first:
                last_two = t_prev if t_prev > t_cur else t_cur
                tail = 2 * last_two
                ok = tail <= tol * (1 + abs(s))
                if ok and want_derivative:
                    dtail = 8 * last_two * (j + 2) / max(abs_rho, 1e-300)
                    ok = dtail <= tol * (1 + abs(s1))
                if ok:
                    return s, s1, 2.3e-16 * t_max
            t_prev = t_cur
        raise NoConvergence(
            f"series for phi did not reach tol = {tol} within {_SERIES_CAP} terms "
            f"at rho = {rho}"
        )


def _floor_refusal(rho: complex, f: complex, floor: float, tol: float) -> NoConvergence | None:
    """The cancellation guard: None where the rounding floor of the sum f at rho stays
    far below tol, also where its tail was cut at a tighter one, else its refusal."""
    if floor > 1e6 * tol * (1 + abs(f)):
        return NoConvergence(f"cancellation floor {floor:.2e} exceeds the tolerance at "
                             f"rho = {rho}; |rho| too large for double precision")
    return None


def _stops_at(j: int, two_l: float, twice_swing: float) -> bool:
    """Whether the shift j + 2L + 2 is positive and (j+1)(j+2L+2) >= 2*swing; the
    shift keeps its association ((j + 2L) + 2), which decides where a sum stops."""
    shift = j + two_l + 2
    return shift > 0 and (j + 1) * shift >= twice_swing


def _first_stop(two_l: float, twice_swing: float) -> int:
    """The first j >= 1 at which `_stops_at` holds, or _SERIES_CAP + 1 if none does:
    where a series sum may stop.  Both sides of its test grow with j, so it holds
    for every later j.  The larger root of (j+1)(j+2L+2) = 2*swing places the
    search and the test itself settles it, also where rounding moves the root."""
    root = (math.sqrt((two_l + 1) * (two_l + 1) + 4 * twice_swing) - (two_l + 3)) / 2
    # a nan or infinite root (rho or L far out of range) starts at the cap
    j = math.ceil(root) if 1 <= root < _SERIES_CAP else 1 if root < 1 else _SERIES_CAP + 1
    while j > 1 and _stops_at(j - 1, two_l, twice_swing):
        j -= 1
    while j <= _SERIES_CAP and not _stops_at(j, two_l, twice_swing):
        j += 1
    return j


def phi(L: float, eta: float, rho: complex, tol: float = 1e-12) -> complex:
    """Truncated-series value of the entire Coulomb factor.

    The truncation tail is bounded below tol*(1+|result|).  Where the sum meets
    its cancellation floor, when 2.3e-16 times the largest term exceeds
    1e6*tol*(1+|result|), and |rho| is at most 40, the value is continued by
    Taylor steps of the Coulomb equation from the series at a radius below the
    floor, along the ray to rho, each at most max(0.4, |w|/4) long from its
    start w (14 to phi(0, 0, 40)).  Such a value has no tail bound at tol: against
    35-digit mpmath it was within 1e-10*(1+|phi|) at every seeded floor point of
    the tests (L down to -11.75, eta from -3 to 12).  A signed zero in
    L or eta is taken as +0.0.  Raises ParameterError naming L, eta, rho or tol
    where float() (complex() for rho) refuses it, or unless tol is positive
    and finite, SingularParameter from the `CoulombParams` constructor on the excluded
    set at the exact values of L and eta (so L = -1.5 + 1e-10 is evaluated), and
    NoConvergence when the term cap is exhausted, or on the cancellation floor
    at |rho| beyond 40 or where the continuation fails too: these
    mean |rho| far beyond desk scale, e.g. `phi(0.0, 0.0, 60)` raises
    "cancellation floor 2.25e+07 exceeds the tolerance at rho = (60+0j) ...".
    Every call on one pair reads the same immutable coefficient table, so
    calls from several threads at once are safe.
    """
    ev = _Evaluator(L, eta, tol)
    return ev._at(_number("rho", rho, complex), False)[0]


def phi_derivative(L: float, eta: float, rho: complex, tol: float = 1e-12) -> complex:
    """d/drho of the entire factor, by term-wise differentiation of the series or,
    past its cancellation floor, by the same continuation as `phi`, in the same
    strides; its tail bound, its error bound there and its errors, NoConvergence
    included, are `phi`'s."""
    ev = _Evaluator(L, eta, tol)
    return ev._at(_number("rho", rho, complex), True)[1]


def default_search_region(L: float) -> Rect:
    """[-R, R] x [0, R] with R = 6 + 2*floor(-L-1/2) (clamped at 0 pairs).

    Covers the non-real zeros with ample margin at desk scale; the lower edge
    is nudged below the axis by the zero finder so real zeros are interior.
    An L that is no real number or not finite raises ParameterError.
    """
    L = _number("L", L, float)
    if not math.isfinite(L):
        raise ParameterError(f"L must be finite, got {L}")
    pairs = max(0, math.floor(-L - 0.5))
    radius = 6.0 + 2.0 * pairs
    return Rect(-radius, radius, 0.0, radius)


def _series_radius(L: float) -> float:
    """Radius inside which the series is summed, by the contour and by the values
    `_Evaluator._at` continues from alike; each evaluator holds it as `radius`.  It is
    at least 2, as a step divides by rho.  For L < -1 the solution vanishing like
    rho^(-2L-1) at the origin outgrows phi out to about lam = sqrt(L(L+1)), and steps
    outward from radius r amplify rounding by about (0.9 lam / r)^(2 lam) (fitted on the
    axis, L = -8.75 .. -20.25, eta = 0, +-2); this radius keeps that below 1e6.  From the
    radius that allows 1e8, 33 of 800 seeded floor points with |rho| <= 40 and L down to
    -11.75 came out more than 1e-10 (1 + |phi|) off 35-digit mpmath, up to 2.0e-9; from
    this one none did, the worst 5.2e-11."""
    if L >= -1:
        return 2.0
    lam = math.sqrt(L * (L + 1))
    return max(2.0, 0.9 * lam * 10 ** (-6 / (2 * lam)))


def _contour_value(ev: _Evaluator, z: complex, near: complex,
                   vnear: tuple | None) -> tuple[complex, complex]:
    """(phi, phi') at the contour point z.  Outside the radius a Taylor step gives
    them from `near`, a neighbour no farther from the real axis valued as `vnear`:
    phi grows away from the axis, so a step toward it loses the subdominant
    solution.  Inside, or with `vnear` None, the series sums both."""
    if vnear is not None and abs(z) >= ev.radius:
        return ev.step(near, *vnear, z)
    return ev.values(z)


def _phase_along_edge(ev: _Evaluator, za, zb, va, vb, depth=42) -> float:
    """Phase change of phi from za to zb.  A piece is accepted when its phase step
    is at most pi/2 and |h| max|phi'/phi| over its two ends, h = zb - za, is at
    most 2, so that no fast turn beside a zero near the piece goes unseen; any
    other piece is halved."""
    if va[0] == 0 or vb[0] == 0:
        raise ContourTooClose(f"zero on the contour near {za} .. {zb}")
    step = cmath.phase(vb[0] / va[0])
    turn = abs(zb - za) * max(abs(va[1] / va[0]), abs(vb[1] / vb[0]))
    if abs(step) <= math.pi / 2 and turn <= 2:
        return step
    if depth == 0:
        failed = " and ".join(name for name, bad in (
            ("phase step above pi/2", abs(step) > math.pi / 2),
            ("|h| max|phi'/phi| above 2", turn > 2)) if bad)
        raise ContourTooClose(
            f"{failed} after maximal subdivision near {za} .. {zb}: "
            f"phase step {abs(step):.4g}, |h| max|phi'/phi| {turn:.4g}"
        )
    zm = (za + zb) / 2
    # the piece's ends are the midpoint's neighbours
    near, vnear = (za, va) if abs(za.imag) <= abs(zb.imag) else (zb, vb)
    vm = _contour_value(ev, zm, near, vnear)
    return _phase_along_edge(ev, za, zm, va, vm, depth - 1) + _phase_along_edge(
        ev, zm, zb, vm, vb, depth - 1
    )


def _winding(ev: _Evaluator, region: Rect) -> int:
    corners = region.corners()
    edges = [(ca, cb, max(4, math.ceil(abs(cb - ca) / 0.8)))
             for ca, cb in zip(corners, corners[1:])]
    n = sum(pieces for _, _, pieces in edges)
    # a corner is summed first, as the reach check, unless its term bound clears the
    # default tol's guard, so a region out of the series' reach raises before the rest
    # of the boundary exists; their cancellation floor also refuses boundaries the
    # steps count wrong: without it the default region of (-1.25, 20) counts 10 zeros
    # for 11.  The sums only check: the contour values each corner by its one rule
    for c in corners[:4]:
        if _floor_refusal(c, 0j, ev.floor_bound(c), _CONTOUR_TOL) is not None:
            ev.values(c)
    zs = [ca + (cb - ca) * i / pieces for ca, cb, pieces in edges for i in range(pieces)]
    moduli = [abs(z) for z in zs]
    # value the points nearest the real axis first, each by `_contour_value` from
    # a neighbour valued before it, if any; then those nearest the origin.  Ties go
    # to the point first on the boundary: two stable sorts on floats
    by_order = sorted(sorted(range(n), key=moduli.__getitem__),
                      key=[abs(z.imag) for z in zs].__getitem__)
    vals = [None] * n
    for i in by_order:
        j = i - 1 if vals[i - 1] is not None else (i + 1) % n
        vals[i] = _contour_value(ev, zs[i], zs[j], vals[j])
    total = sum(_phase_along_edge(ev, zs[i - 1], zs[i], vals[i - 1], vals[i]) for i in range(n))
    turns = total / (2 * math.pi)
    count = round(turns)
    if abs(turns - count) > 0.2:
        raise ContourTooClose(
            f"winding number {turns:.4f} not integral over {region}"
        )
    return count


def count_zeros_region(L: float, eta: float, region: Rect | tuple) -> int:
    """Number of zeros inside the rectangle, by the argument principle.

    Counted with multiplicity from the winding number of the boundary image,
    whose phase is tracked over pieces at most 0.8 long, each halved until its
    phase step is at most pi/2 and |h| max|phi'/phi| over its two ends is at
    most 2.  The corners whose term bound cannot clear the guard are summed
    first, as a check only; the contour's series sums (its points near the
    origin) and the Taylor steps that value the other points are cut off at
    double precision; a sum whose rounding floor the default tol, 1e-12, does
    not cover raises NoConvergence, so the count depends on (L, eta, region)
    alone.
    Raises ContourTooClose when a zero sits (numerically) on the boundary, so
    that a piece beside it fails a test after 42 halvings (the message names
    the test and gives both numbers), and ParameterError unless region is a
    Rect or four numbers.
    """
    return _winding(_Evaluator(L, eta, _CONTOUR_TOL), _as_rect(region))


_NUDGE_FACTORS = (0.0, 1.3e-3, -1.7e-3, 2.9e-3, -3.7e-3, 5.1e-3, -6.3e-3, 8.7e-3)


def _nudged_winding(ev: _Evaluator, region: Rect) -> tuple[Rect, int]:
    """(rectangle, count) for the first of the region and its nudged copies that
    winds without ContourTooClose; after the last, its ContourTooClose is raised."""
    for factor in _NUDGE_FACTORS:
        rect = region if factor == 0.0 else region.expand(factor)
        try:
            return rect, _winding(ev, rect)
        except ContourTooClose as exc:
            last = exc
            ev.stats["nudge_retries"] += 1
    raise last


def _newton(ev: _Evaluator, z0: complex) -> complex | None:
    ev.stats["newton_starts"] += 1
    z, prev, near = z0, math.inf, None
    # a value the series cannot reach, the polishing step's included, fails the start
    try:
        for _ in range(_NEWTON_STEPS):
            ev.stats["newton_steps"] += 1
            f, df, near = ev._at(z, near=near)
            if not (cmath.isfinite(f) and cmath.isfinite(df)) or df == 0:
                return None
            dz = f / df
            z = z - dz
            step = abs(dz)
            # converged, or a small step that no longer halves: phi's rounding floor at |z| >~ 10
            if step <= 1e-14 * (1 + abs(z)) or prev / 2 <= step <= 1e-10 * (1 + abs(z)):
                ev.stats["newton_steps"] += 1
                f, df, _ = ev._at(z, near=near)
                if df != 0:
                    z = z - f / df
                return z
            prev = step
    except NoConvergence:
        return None
    return None


def _jacobi(L: float, eta: float, size: int) -> tuple[list[complex], list[complex]]:
    """Diagonal b_0..b_{size-1} and off-diagonal sqrt(a_1)..sqrt(a_{size-1}) of the
    Jacobi matrix whose eigenvalues are 1/rho_j (see `RecurrenceCoeffs`): the exact
    coefficients at the binary values of L and eta, each rounded once.  a_n < 0
    makes it complex symmetric."""
    a, b = _recurrence_terms(CoulombParams(L, eta), size - 1)
    return [complex(n / d) for n, d in b], [cmath.sqrt(n / d) for n, d in a]


def _ql_eigenvalues(diag: list[complex], off: list[complex]) -> tuple[list[complex], int]:
    """Eigenvalues of a complex-symmetric tridiagonal matrix and the QL sweeps taken:
    Numerical Recipes' `tqli` (sec. 11.4) without eigenvectors, its rotations
    complex orthogonal (c^2 + s^2 = 1, r = sqrt(f^2 + g^2) with no modulus)."""
    d, e = list(diag), [*off, 0j]
    n, sweeps = len(d), 0
    for l in range(n):
        for tries in range(31):
            m = l
            while m < n - 1 and abs(e[m]) > 2.2e-16 * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if tries == 30:
                raise NoConvergence(f"QL iteration did not converge for eigenvalue {l} of {n}")
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2 * e[l])
            r = cmath.sqrt(g * g + 1)
            g = d[m] - d[l] + e[l] / (g + r if abs(g + r) >= abs(g - r) else g - r)
            s = c = 1 + 0j
            p = 0j
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = cmath.sqrt(f * f + g * g)
                if r == 0:  # f = +-ig: no complex orthogonal rotation exists
                    raise NoConvergence(f"QL rotation broke down at eigenvalue {l} of {n}")
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[l] -= p
            e[l], e[m] = g, 0j
    return d, sweeps


class ZeroReport(Frozen):
    """Zeros located in a search rectangle.

    `zeros` holds one representative per zero: real zeros as found, and the
    upper half-plane member of each conjugate pair (the mirror partner is
    implied by the real Taylor coefficients, never listed).  `residuals` holds
    |phi| at each zero, not its distance to the root: at (-0.25, -3) the zero
    14.964485479198789 has |phi| = 2.5e-10 but lies 5.3e-9 off.  `counts` carries
    the totals: {"real", "complex_pairs", "imaginary_pairs"}.  `unresolved` is
    always empty (the finder accounts for the whole winding count or raises); only the
    benchmark harness reads it, and the CLI does not report it.
    `stats` counts the work the call did: "series_evals" (sums of the series,
    plain and value-with-derivative), "contour_steps" (Taylor steps that
    value the winding contours' points away from the origin, those that
    continue a Newton or residual value past the series' cancellation
    floor, and those that walk a Newton start's later values from its last
    continued iterate), "newton_starts" (one per eigenvalue seed in the region), "newton_steps" (the final
    polishing step included), "nudge_retries" (contours given up for a
    nudged copy), "jacobi_n" (the order of the last Jacobi matrix, 0 if none
    was formed) and "ql_sweeps" (QL iterations over every matrix formed).
    """

    __slots__ = ("region", "zeros", "residuals", "counts", "unresolved", "stats")
    _compared = 5  # stats is shown only

    def __init__(self, region: Rect, zeros: tuple[complex, ...], residuals: tuple[float, ...],
                 counts: dict[str, int], unresolved: tuple[Rect, ...] = (),
                 stats: dict[str, int] | None = None):
        stats = {} if stats is None else stats
        self._set_fields(region, zeros, residuals, counts, unresolved, stats)


def find_complex_zeros(
    L: float,
    eta: float,
    search: Rect | tuple | None = None,
    tol: float = 1e-12,
) -> ZeroReport:
    """Locate and classify all zeros in a rectangle.

    Newton iteration from the eigenvalue seeds of the N x N Jacobi matrix,
    N = 10 + ceil(2|L| + reach/2) with reach = max|corner|, must reach as many
    distinct zeros inside the rectangle as its winding count; otherwise N
    grows by 3/2, at most twice, and then NoConvergence is raised.  The
    default rectangle is `default_search_region` with its lower edge dropped
    slightly below the real axis, so that real zeros are interior points of
    the contour.  search is a Rect or four numbers, and tol, positive and
    finite, the series tolerance of every Newton step and residual, which are
    continued past the series' cancellation floor as in `phi`; anything
    else raises ParameterError.  The winding count reads no tol: it is
    `count_zeros_region`'s, whatever tol is.
    """
    ev = _Evaluator(L, eta, tol)
    if search is None:
        base = default_search_region(ev.L)
        region = Rect(base.re_min, base.re_max, -0.01, base.im_max)
    else:
        region = _as_rect(search)

    region, total = _nudged_winding(ev, region)
    reach = max(abs(c) for c in region.corners())
    first = 10 + math.ceil(2 * abs(ev.L) + reach / 2)
    found: list[complex] = []
    for size in (first, first * 3 // 2, first * 3 // 2 * 3 // 2):
        if len(found) == total:
            break
        eigs, sweeps = _ql_eigenvalues(*_jacobi(ev.L, ev.eta, size))
        ev.stats["jacobi_n"] = size
        ev.stats["ql_sweeps"] += sweeps
        found = []
        # |1/lambda| <= reach is needed to lie in the region, and skips lambda = 0
        for z0 in (1 / lam for lam in eigs if abs(lam) * reach >= 1):
            z = _newton(ev, z0) if region.contains(z0) else None
            if z is not None and region.contains(z) and all(
                    abs(z - w) > 1e-9 * (1 + abs(z)) for w in found):
                found.append(z)
    if len(found) != total:
        raise NoConvergence(f"Newton reached {len(found)} distinct zeros from the Jacobi "
                            f"seeds, but the winding count over {region} is {total}")

    # fold lower half-plane finds onto their conjugates, one zero by the count's test
    folded = [z.conjugate() if z.imag < -_REAL_AXIS_TOL else z for z in found]
    zeros: list[complex] = []
    for z in sorted(folded, key=lambda w: (w.real, w.imag)):
        if all(abs(z - w) > 1e-9 * (1 + abs(z)) for w in zeros):
            zeros.append(z)

    residuals = tuple(abs(ev._at(z, False)[0]) for z in zeros)
    n_real = sum(1 for z in zeros if abs(z.imag) <= _REAL_AXIS_TOL)
    pairs = [z for z in zeros if z.imag > _REAL_AXIS_TOL]
    counts = {
        "real": n_real,
        "complex_pairs": len(pairs),
        "imaginary_pairs": sum(1 for z in pairs if abs(z.real) < _IMAG_AXIS_TOL),
    }
    return ZeroReport(region, tuple(zeros), residuals, counts, stats=ev.stats)
