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
argument principle: the phase of phi along a contour whose points near the
origin are summed from the series and whose other points each take (phi,
phi') from one Taylor step of rho phi'' + (2L+2) phi' + (rho - 2 eta) phi = 0
from a neighbour no farther from the real axis (about 15 recurrence terms,
none cancelling).  The corners are summed first, as a reach check that is a plain
sum unless the contour reads the corner's value, and phi' is summed only
where a step may start.  Its candidates come from the exact recurrence: the Hankel
determinants of zeta_L(k) are moment determinants, so the eigenvalues of the
truncated Jacobi matrix of their recurrence coefficients converge to
1/rho_j, the smallest |rho_j| first (Y. Ikebe, Math. Comp. 29 (1975)
878-887; F. Stampach & P. Stovicek, J. Math. Anal. Appl. 419 (2014)).  A
complex QL iteration finds them, Newton iteration on the term-wise
differentiated series polishes each seed 1/lambda in the rectangle, and the
distinct limits must be as many as the winding count.  phi(0) = 1, so the
origin never contributes a zero.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from ._record import Frozen
from .errors import ContourTooClose, NoConvergence, ParameterError
from .hankel import _recurrence_terms
from .zeta import CoulombParams

_SERIES_CAP = 500
_IMAG_AXIS_TOL = 1e-7  # |re| below this flags a purely imaginary zero
_REAL_AXIS_TOL = 1e-7  # |im| below this flags a real zero
_NEWTON_STEPS = 60  # Newton steps per start before it is given up
_STEP_CAP = 60  # terms of one Taylor step before it is given up
_ROUNDING = 2.0**-53  # tail tolerance of the contour's series sums


class Rect(Frozen):
    """Axis-aligned rectangle in the complex plane."""

    __slots__ = ("re_min", "re_max", "im_min", "im_max")

    def __init__(self, re_min: float, re_max: float, im_min: float, im_max: float):
        self._set_fields(re_min, re_max, im_min, im_max)
        # finite and ordered; a nan bound fails every comparison
        if not (-math.inf < re_min < re_max < math.inf and -math.inf < im_min < im_max < math.inf):
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
    except TypeError:  # not iterable, not four bounds, or a bound no number compares with
        raise ParameterError(f"a region is a Rect or four numbers, got {region!r}") from None


# callers reuse a pair only within one case (a finder call, then phi and phi'
# at its zeros); a full verify-all builds 6 tables, about 16 KB each
@lru_cache(maxsize=16)
def _series(L: float, eta: float) -> tuple[float, ...]:
    """B_0 .. B_{_SERIES_CAP} of a pair that the `CoulombParams` constructor accepts at its
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
    return tuple(c)


@lru_cache(maxsize=128)
def _step_ratios(b: float) -> tuple[tuple[float, float, int], ...]:
    """((m+b)/(m+2), 1/((m+2)(m+1)), m+2), m < _STEP_CAP: a Taylor step's factors, b = 2L+2."""
    return tuple(((m + b) / (m + 2), 1 / ((m + 2) * (m + 1)), m + 2) for m in range(_STEP_CAP))


# the keys of ZeroReport.stats, described there
_STAT_NAMES = (
    "series_evals", "contour_steps", "newton_starts", "newton_steps",
    "nudge_retries", "jacobi_n", "ql_sweeps",
)


class _Evaluator:
    """One call's access to the series of one (L, eta): its tolerance and counters."""

    __slots__ = ("L", "eta", "coeffs", "tol", "stats")

    def __init__(self, L: float, eta: float, tol: float):
        # a nan or non-positive tolerance would run the whole series and only
        # then fail as NoConvergence
        if not 0 < tol < math.inf:
            raise ParameterError(f"tol must be positive and finite, got {tol}")
        # -0.0 + 0.0 is 0.0: one cache key per pair, whatever sign an earlier call passed
        self.L, self.eta = float(L) + 0.0, float(eta) + 0.0
        self.coeffs = _series(self.L, self.eta)
        self.tol = tol
        self.stats = dict.fromkeys(_STAT_NAMES, 0)

    def phi(self, z: complex) -> complex:
        self.stats["series_evals"] += 1
        return self._sum(z, self.tol, want_derivative=False)[0]

    def newton_values(self, z: complex) -> tuple[complex, complex]:
        """Value and derivative for one Newton step."""
        self.stats["series_evals"] += 1
        self.stats["newton_steps"] += 1
        return self._sum(z, self.tol, want_derivative=True)

    def values(self, z: complex, derivative: bool = True) -> tuple[complex, complex | None]:
        """Value, and derivative or None, for the contour, summed to double precision;
        a sum whose rounding floor tol does not cover still raises NoConvergence."""
        self.stats["series_evals"] += 1
        f, df = self._sum(z, _ROUNDING, derivative)
        return f, df if derivative else None

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
        for k1, k2, k3 in _step_ratios(2 * self.L + 2):
            t = -(k1 * u * t2 + k2 * (p * t1 + q * t0))
            s += t
            sd += k3 * t
            a = abs(t)
            if a + a2 <= bound:
                return s, sd / h
            t0, t1, t2, a2 = t1, t2, t, a
        raise NoConvergence(f"Taylor step from {z} to {to} did not converge")

    def _sum(self, rho: complex, tol: float, want_derivative: bool) -> tuple[complex, complex]:
        rho = complex(rho)
        c = self.coeffs
        if rho == 0:
            return complex(1.0), complex(c[1])
        s = complex(1.0)  # j = 0 term
        comp = 0j
        s1 = complex(c[1]) if want_derivative else 0j
        comp1 = 0j
        power = complex(1.0)
        abs_rho = abs(rho)
        swing = 2 * abs(self.eta) * abs_rho + abs_rho * abs_rho
        first = _first_stop(2 * self.L, 2 * swing)
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
                    # cancellation guard: the rounding floor (epsilon times the
                    # largest term) must stay far below the evaluator's tol,
                    # also where the tail is cut off at a tighter one
                    if 2.3e-16 * t_max > 1e6 * self.tol * (1 + abs(s)):
                        raise NoConvergence(
                            f"cancellation floor {2.3e-16 * t_max:.2e} exceeds "
                            f"the tolerance at rho = {rho}; |rho| too large for "
                            "double precision"
                        )
                    return s, s1
            t_prev = t_cur
        raise NoConvergence(
            f"series for phi did not reach tol = {tol} within {_SERIES_CAP} terms "
            f"at rho = {rho}"
        )


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

    The truncation tail is bounded below tol*(1+|result|).  A signed zero in
    L or eta is taken as +0.0.  Raises ParameterError unless tol is positive
    and finite, SingularParameter from the `CoulombParams` constructor on the excluded
    set at the exact values of L and eta (so L = -1.5 + 1e-10 is evaluated), and
    NoConvergence when the term cap is exhausted or on the cancellation floor,
    when 2.3e-16 times the largest term exceeds 1e6*tol*(1+|result|): both
    mean |rho| far beyond desk scale, e.g. `phi(0.0, 0.0, 60)` raises
    "cancellation floor 2.25e+07 exceeds the tolerance at rho = (60+0j) ...".
    Every call on one pair reads the same immutable coefficient table, so
    calls from several threads at once are safe.
    """
    return _Evaluator(L, eta, tol).phi(rho)


def phi_derivative(L: float, eta: float, rho: complex, tol: float = 1e-12) -> complex:
    """d/drho of the entire factor, by term-wise differentiation of the series; its
    tail bound and its errors, NoConvergence on the cancellation floor too, are `phi`'s."""
    return _Evaluator(L, eta, tol).newton_values(rho)[1]


def default_search_region(L: float) -> Rect:
    """[-R, R] x [0, R] with R = 6 + 2*floor(-L-1/2) (clamped at 0 pairs).

    Covers the non-real zeros with ample margin at desk scale; the lower edge
    is nudged below the axis by the zero finder so real zeros are interior.
    A non-finite L raises ParameterError.
    """
    if not math.isfinite(L):
        raise ParameterError(f"L must be finite, got {L}")
    pairs = max(0, math.floor(-L - 0.5))
    radius = 6.0 + 2.0 * pairs
    return Rect(-radius, radius, 0.0, radius)


def _series_radius(L: float) -> float:
    """Radius inside which the contour sums the series: at least 2, as a step
    divides by rho.  For L < -1 the solution vanishing like rho^(-2L-1) at the
    origin outgrows phi out to about lam = sqrt(L(L+1)), and steps outward from
    radius r amplify rounding by about (0.9 lam / r)^(2 lam) (fitted on the axis,
    L = -8.75 .. -20.25, eta = 0, +-2); this radius keeps that below 1e8."""
    if L >= -1:
        return 2.0
    lam = math.sqrt(L * (L + 1))
    return max(2.0, 0.9 * lam * 10 ** (-4 / lam))


def _phase_along_edge(ev: _Evaluator, za, zb, va, vb, radius, depth=42) -> float:
    if va[0] == 0 or vb[0] == 0:
        raise ContourTooClose(f"zero on the contour near {za} .. {zb}")
    step = cmath.phase(vb[0] / va[0])
    if abs(step) <= math.pi / 2:
        return step
    if depth == 0:
        raise ContourTooClose(
            f"phase step above pi/2 after maximal subdivision near {za} .. {zb}"
        )
    zm = (za + zb) / 2
    # stepped from the end nearer the real axis, as on the contour; summed inside
    # the radius, with phi' only if an end lies outside, where a later midpoint
    # may be stepped from it.  The edges are axis-parallel, so a midpoint lies
    # between its ends in each coordinate: a piece with both ends inside, the
    # only kind beside an end summed without phi', stays inside
    if abs(zm) < radius:
        vm = ev.values(zm, abs(za) >= radius or abs(zb) >= radius)
    else:
        near, vnear = (za, va) if abs(za.imag) <= abs(zb.imag) else (zb, vb)
        vm = ev.step(near, *vnear, zm)
    return _phase_along_edge(ev, za, zm, va, vm, radius, depth - 1) + _phase_along_edge(
        ev, zm, zb, vm, vb, radius, depth - 1
    )


def _winding(ev: _Evaluator, region: Rect) -> int:
    corners = region.corners()
    edges = [(ca, cb, max(4, math.ceil(abs(cb - ca) / 0.4)))
             for ca, cb in zip(corners, corners[1:])]
    n = sum(pieces for _, _, pieces in edges)
    radius = _series_radius(ev.L)

    def point(edge, i):
        ca, cb, pieces = edge
        return ca + (cb - ca) * i / pieces

    # value the points nearest the real axis first: each is stepped to from a
    # valued neighbour no farther from the axis (phi grows away from it, so a
    # step toward it loses the subdominant solution); the series sums the points
    # inside the radius and any without a valued neighbour, first the one
    # nearest the origin.  Ties go to the point first on the boundary
    def order(i, z):
        return abs(z.imag), abs(z), i

    # the series sums the corners first, so a region out of its reach raises
    # before the rest of the boundary exists; their cancellation floor also
    # refuses boundaries the steps count wrong: without it the default region
    # of (-1.25, 12) reports 7 real zeros for 8, missing the one near -4.712.
    # A corner the contour steps to (outside the radius, with a neighbour earlier
    # in `order`) takes a plain sum; the others keep theirs.
    # A summed point needs phi' only if a step may start there: to a neighbour
    # outside the radius, or to a midpoint of the piece between them
    summed, start = {}, 0
    for k, edge in enumerate(edges):
        c = edge[0]
        before, after = point(edges[k - 1], edges[k - 1][2] - 1), point(edge, 1)
        if abs(c) >= radius and order(start, c) > min(
                order((start - 1) % n, before), order(start + 1, after)):
            ev.values(c, derivative=False)
        else:
            summed[c] = ev.values(c, max(abs(before), abs(after)) >= radius)
        start += edge[2]
    zs = [point(edge, i) for edge in edges for i in range(edge[2])]
    moduli = [abs(z) for z in zs]
    # `order` by two stable sorts on floats, cheaper than one on tuples
    by_order = sorted(sorted(range(n), key=moduli.__getitem__),
                      key=[abs(z.imag) for z in zs].__getitem__)
    vals = [None] * n
    for i in by_order:
        z = zs[i]
        j = i - 1 if vals[i - 1] is not None else (i + 1) % n
        if vals[j] is not None and moduli[i] >= radius:
            vals[i] = ev.step(zs[j], *vals[j], z)
        else:
            vals[i] = summed[z] if z in summed else ev.values(
                z, max(moduli[i - 1], moduli[(i + 1) % n]) >= radius)
    total = sum(_phase_along_edge(ev, zs[i - 1], zs[i], vals[i - 1], vals[i], radius)
                for i in range(n))
    turns = total / (2 * math.pi)
    count = round(turns)
    if abs(turns - count) > 0.2:
        raise ContourTooClose(
            f"winding number {turns:.4f} not integral over {region}"
        )
    return count


def count_zeros_region(
    L: float, eta: float, region: Rect | tuple, tol: float = 1e-12
) -> int:
    """Number of zeros inside the rectangle, by the argument principle.

    Counted with multiplicity from the winding number of the boundary image.
    tol governs the contour's series sums (its corners, summed first, and its
    points near the origin): one whose rounding floor tol does not cover
    raises NoConvergence.  Those sums and the Taylor steps that value the
    other points are cut off at double precision, whatever tol is.
    Raises ContourTooClose when a zero sits (numerically) on the boundary,
    and ParameterError unless region is a Rect or four numbers and tol is
    positive and finite.
    """
    return _winding(_Evaluator(L, eta, tol), _as_rect(region))


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
    z, prev = z0, math.inf
    # a value the series cannot reach, the polishing step's included, fails the start
    try:
        for _ in range(_NEWTON_STEPS):
            f, df = ev.newton_values(z)
            if not (cmath.isfinite(f) and cmath.isfinite(df)) or df == 0:
                return None
            dz = f / df
            z = z - dz
            step = abs(dz)
            # converged, or a small step that no longer halves: phi's rounding floor at |z| >~ 10
            if step <= 1e-14 * (1 + abs(z)) or prev / 2 <= step <= 1e-10 * (1 + abs(z)):
                f, df = ev.newton_values(z)
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
    always empty (the finder accounts for the whole winding count or raises).
    `stats` counts the work the call did: "series_evals" (sums of the series,
    plain and value-with-derivative), "contour_steps" (Taylor steps that
    value the winding contours' points away from the origin), "newton_starts"
    (one per eigenvalue seed in the region), "newton_steps" (the final
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
    the contour.  search is a Rect or four numbers, and tol the series
    tolerance of every Newton step and residual, and of the winding count's
    sums as `count_zeros_region` says, positive and finite; anything else
    raises ParameterError.
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

    # fold lower half-plane finds onto their conjugate representatives
    folded = [z.conjugate() if z.imag < -_REAL_AXIS_TOL else z for z in found]
    zeros: list[complex] = []
    for z in sorted(folded, key=lambda w: (w.real, w.imag)):
        if all(abs(z - w) > 1e-6 for w in zeros):
            zeros.append(z)

    residuals = tuple(abs(ev.phi(z)) for z in zeros)
    n_real = sum(1 for z in zeros if abs(z.imag) <= _REAL_AXIS_TOL)
    pairs = [z for z in zeros if z.imag > _REAL_AXIS_TOL]
    counts = {
        "real": n_real,
        "complex_pairs": len(pairs),
        "imaginary_pairs": sum(1 for z in pairs if abs(z.real) < _IMAG_AXIS_TOL),
    }
    return ZeroReport(region, tuple(zeros), residuals, counts, stats=ev.stats)
