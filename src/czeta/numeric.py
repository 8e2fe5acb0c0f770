"""Floating-point evaluation of the entire Coulomb factor and zero localization.

The entire factor phi(L, eta, .) with phi(0) = 1 is evaluated from its power
series sum_j B_j rho^j, whose coefficients are real and satisfy

    B_0 = 1,  B_1 = eta/(L+1),  j (j + 2L + 1) B_j = 2 eta B_{j-1} - B_{j-2}.

Summing this single real-coefficient series (with compensated accumulation)
loses far less precision to cancellation than multiplying e^(-i rho) against
the confluent hypergeometric series, which matters for |rho| up to ~10 in
double precision.  Real coefficients also make conjugate symmetry of the
evaluation exact.

Zero localization runs the argument principle on rectangles: adaptive phase
tracking along the boundary yields certified-by-subdivision winding numbers,
rectangles are split until each holds at most one zero, and Newton iteration
with the term-wise differentiated series polishes each zero.  phi(0) = 1, so
the origin never contributes a zero.

Each call of `find_complex_zeros` or `count_zeros_region` evaluates through
its own memo of plain phi values, dropped when the call returns.  Sibling
cells share their cut edge, a child's edges lie on its parent's, and every
winding revisits its corners, so more than half of the points a call asks for
were already summed in that call.  The memo is keyed by the bytes of the two
doubles of rho, not by the complex number: 0.0 == -0.0 as floats and as dict
keys, yet the series' arithmetic carries the sign (the derivative sum differs
between -0j and +0j at some points), and the default region is cut at
re = 0.0.  A served value is therefore the one the series returns at that
exact point, and every result is unchanged to the bit.
Newton's value-and-derivative evaluations are not memoized: their points
repeat far less often.
"""

from __future__ import annotations

import cmath
import math
import struct
from functools import lru_cache

from ._record import Frozen, Record
from .errors import ContourTooClose, NoConvergence, ParameterError, SingularB, VerificationError

_SERIES_CAP = 500
_COEFF_CHUNK = 16  # coefficients computed per growth step of a series' table
_IMAG_AXIS_TOL = 1e-7  # |re| below this flags a purely imaginary zero
_REAL_AXIS_TOL = 1e-7  # |im| below this flags a real zero
_NEWTON_STEPS = 60  # Newton steps per start before it is given up


class Rect(Frozen):
    """Axis-aligned rectangle in the complex plane."""

    __slots__ = ("re_min", "re_max", "im_min", "im_max")

    def __init__(self, re_min: float, re_max: float, im_min: float, im_max: float):
        self._set_fields(re_min, re_max, im_min, im_max)
        # finite and ordered; a nan bound fails every comparison
        if not (-math.inf < re_min < re_max < math.inf and -math.inf < im_min < im_max < math.inf):
            raise ParameterError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

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

    def split(self, ratio: float = 0.5) -> tuple["Rect", "Rect"]:
        """Cut across the longer side at the given ratio."""
        if self.width >= self.height:
            cut = self.re_min + ratio * self.width
            return (
                Rect(self.re_min, cut, self.im_min, self.im_max),
                Rect(cut, self.re_max, self.im_min, self.im_max),
            )
        cut = self.im_min + ratio * self.height
        return (
            Rect(self.re_min, self.re_max, self.im_min, cut),
            Rect(self.re_min, self.re_max, cut, self.im_max),
        )

    def expand(self, factor: float) -> "Rect":
        dw = factor * self.width
        dh = factor * self.height
        return Rect(self.re_min - dw, self.re_max + dw, self.im_min - dh, self.im_max + dh)


class _PhiSeries(Record):
    """Lazily extended coefficient table for one (L, eta) parameter pair."""

    __slots__ = ("L", "eta", "coeffs")

    def __init__(self, L: float, eta: float):
        b = 2 * L + 2
        if not (math.isfinite(b) and math.isfinite(eta)):
            raise ParameterError(f"series parameters out of range: L = {L}, eta = {eta}")
        b_round = round(b)
        if abs(b - b_round) < 1e-9 and b_round <= 0:
            # nonpositive integer series parameter; only the eta = 0 even
            # (Bessel-type) branch with integer L stays meaningful
            if not (eta == 0 and b_round % 2 == 0):
                raise SingularB(
                    f"2L+2 = {b_round} is a nonpositive integer at L = {L}"
                )
        self.L, self.eta, self.coeffs = L, eta, [1.0]

    def _ensure(self, n: int) -> None:
        c = self.coeffs
        while len(c) <= n:
            j = len(c)
            denom = j * (j + 2 * self.L + 1)
            if abs(denom) < 1e-12 * j:
                # eta = 0 with negative integer L: the 0/0 index is odd and
                # the coefficient vanishes by evenness of the function
                c.append(0.0)
                continue
            prev2 = c[j - 2] if j >= 2 else 0.0
            c.append((2 * self.eta * c[j - 1] - prev2) / denom)

    def eval(self, rho: complex, tol: float) -> complex:
        return self._sum(rho, tol, want_derivative=False)[0]

    def eval_with_derivative(self, rho: complex, tol: float) -> tuple[complex, complex]:
        return self._sum(rho, tol, want_derivative=True)

    def _sum(self, rho: complex, tol: float, want_derivative: bool) -> tuple[complex, complex]:
        rho = complex(rho)
        self._ensure(1)
        c = self.coeffs
        if rho == 0:
            return complex(1.0), complex(c[1])
        L = self.L
        s = complex(1.0)  # j = 0 term
        comp = 0j
        s1 = complex(c[1]) if want_derivative else 0j
        comp1 = 0j
        power = complex(1.0)
        abs_rho = abs(rho)
        swing = 2 * abs(self.eta) * abs_rho + abs_rho * abs_rho
        twice_swing = 2 * swing
        t_prev = 1.0
        t_max = 1.0
        known = len(c)
        for j in range(1, _SERIES_CAP + 1):
            if j >= known:
                self._ensure(min(j + _COEFF_CHUNK - 1, _SERIES_CAP))
                known = len(c)
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
            # once (j+1)(j+2L+2) >= 2*swing with a positive shift, every later
            # term ratio stays <= 1/2 and the tail is <= 2*max of the last two;
            # the shift keeps its association ((j + 2L) + 2), which decides
            # the index where the sum stops
            shift = j + 2 * L + 2
            if shift > 0 and (j + 1) * shift >= twice_swing:
                last_two = t_prev if t_prev > t_cur else t_cur
                tail = 2 * last_two
                ok = tail <= tol * (1 + abs(s))
                if ok and want_derivative:
                    dtail = 8 * last_two * (j + 2) / max(abs_rho, 1e-300)
                    ok = dtail <= tol * (1 + abs(s1))
                if ok:
                    # cancellation guard: the rounding floor (epsilon times the
                    # largest term) must stay far below the promised bound
                    if 2.3e-16 * t_max > 1e6 * tol * (1 + abs(s)):
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


@lru_cache(maxsize=128)
def _series(L: float, eta: float) -> _PhiSeries:
    return _PhiSeries(L, eta)


def _check_tol(tol: float) -> None:
    # a nan or non-positive tolerance would run the whole series and only
    # then fail as NoConvergence
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")


def phi(L: float, eta: float, rho: complex, tol: float = 1e-12) -> complex:
    """Truncated-series value of the entire Coulomb factor.

    The truncation tail is bounded below tol*(1+|result|).  Raises
    ParameterError unless tol is positive and finite, SingularB for
    parameters where the series is undefined and NoConvergence when the term
    cap is exhausted (practically, |rho| far beyond desk scale).
    """
    _check_tol(tol)
    return _series(float(L), float(eta)).eval(complex(rho), tol)


def phi_derivative(L: float, eta: float, rho: complex, tol: float = 1e-12) -> complex:
    """d/drho of the entire factor, by term-wise differentiation of the series."""
    _check_tol(tol)
    return _series(float(L), float(eta)).eval_with_derivative(complex(rho), tol)[1]


_point_bits = struct.Struct("<2d").pack

# the keys of ZeroReport.stats, described there
_STAT_NAMES = (
    "series_evals", "memo_hits", "newton_starts", "newton_steps",
    "nudge_retries", "split_retries",
)


class _Evaluator:
    """One finder or counting call's access to a series: memo and counters.

    The memo lives as long as the evaluator, i.e. one call; its keys are the
    bytes of the two doubles of rho, so x+0j and x-0j are separate entries.
    """

    __slots__ = ("series", "tol", "values", "stats")

    def __init__(self, L: float, eta: float, tol: float):
        _check_tol(tol)
        self.series = _series(float(L), float(eta))
        self.tol = tol
        self.values: dict[bytes, complex] = {}
        self.stats = dict.fromkeys(_STAT_NAMES, 0)

    def phi(self, z: complex) -> complex:
        key = _point_bits(z.real, z.imag)
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = self.series.eval(z, self.tol)
            self.stats["series_evals"] += 1
        else:
            self.stats["memo_hits"] += 1
        return value

    def newton_values(self, z: complex) -> tuple[complex, complex]:
        """Value and derivative for one Newton step; never memoized."""
        self.stats["series_evals"] += 1
        self.stats["newton_steps"] += 1
        return self.series.eval_with_derivative(z, self.tol)


def default_search_region(L: float) -> Rect:
    """[-R, R] x [0, R] with R = 6 + 2*floor(-L-1/2) (clamped at 0 pairs).

    Covers the non-real zeros with ample margin at desk scale; the lower edge
    is nudged below the axis by the zero finder so real zeros are interior.
    """
    pairs = max(0, math.floor(-L - 0.5))
    radius = 6.0 + 2.0 * pairs
    return Rect(-radius, radius, 0.0, radius)


def _phase_along_edge(ev: _Evaluator, za, zb, fa, fb, depth=42) -> float:
    if fa == 0 or fb == 0:
        raise ContourTooClose(f"zero on the contour near {za} .. {zb}")
    step = cmath.phase(fb / fa)
    if abs(step) <= math.pi / 2:
        return step
    if depth == 0:
        raise ContourTooClose(
            f"phase step above pi/2 after maximal subdivision near {za} .. {zb}"
        )
    zm = (za + zb) / 2
    fm = ev.phi(zm)
    return _phase_along_edge(ev, za, zm, fa, fm, depth - 1) + _phase_along_edge(
        ev, zm, zb, fm, fb, depth - 1
    )


def _winding(ev: _Evaluator, region: Rect) -> int:
    corners = region.corners()
    total = 0.0
    for ca, cb in zip(corners, corners[1:]):
        pieces = max(4, math.ceil(abs(cb - ca) / 0.4))
        pts = [ca + (cb - ca) * i / pieces for i in range(pieces + 1)]
        vals = [ev.phi(p) for p in pts]
        for (za, zb, fa, fb) in zip(pts, pts[1:], vals, vals[1:]):
            total += _phase_along_edge(ev, za, zb, fa, fb)
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
    Raises ContourTooClose when a zero sits (numerically) on the boundary,
    and ParameterError unless tol is positive and finite.
    """
    region = region if isinstance(region, Rect) else Rect(*region)
    return _winding(_Evaluator(L, eta, tol), region)


_NUDGE_FACTORS = (0.0, 1.3e-3, -1.7e-3, 2.9e-3, -3.7e-3, 5.1e-3, -6.3e-3, 8.7e-3)


def _count_outer(ev: _Evaluator, region: Rect) -> tuple[Rect, int]:
    last: Exception | None = None
    for f in _NUDGE_FACTORS:
        candidate = region if f == 0.0 else region.expand(f)
        try:
            return candidate, _winding(ev, candidate)
        except ContourTooClose as exc:
            last = exc
            ev.stats["nudge_retries"] += 1
    raise last  # type: ignore[misc]


_SPLIT_RATIOS = (0.5, 0.47, 0.55, 0.41, 0.61, 0.37, 0.65, 0.53)


def _split_cell(ev: _Evaluator, cell: Rect, count: int) -> list[tuple[Rect, int]]:
    last: Exception | None = None
    for ratio in _SPLIT_RATIOS:
        a, b = cell.split(ratio)
        try:
            na = _winding(ev, a)
            nb = _winding(ev, b)
        except ContourTooClose as exc:
            last = exc
            ev.stats["split_retries"] += 1
            continue
        if na + nb == count:
            return [(a, na), (b, nb)]
        ev.stats["split_retries"] += 1
    if last is None:
        last = ContourTooClose(f"child counts never matched parent over {cell}")
    raise last


def _newton(ev: _Evaluator, z0: complex) -> complex | None:
    ev.stats["newton_starts"] += 1
    z = z0
    for _ in range(_NEWTON_STEPS):
        try:
            f, df = ev.newton_values(z)
        except NoConvergence:
            return None
        if not (cmath.isfinite(f) and cmath.isfinite(df)) or df == 0:
            return None
        dz = f / df
        z = z - dz
        if abs(dz) <= 1e-14 * (1 + abs(z)):
            f, df = ev.newton_values(z)
            if df != 0:
                z = z - f / df
            return z
    return None


def _refine_cell(ev: _Evaluator, cell: Rect) -> complex | None:
    # the cell holds exactly one zero by winding count, so only accept a
    # Newton limit strictly inside it; an iterate that escapes to a
    # neighboring zero is rejected and the cell is subdivided instead
    # starts keyed by their bits: the grid's middle point is often the centre
    # itself, and a second run from the same bits would only repeat the first
    center = cell.center
    starts = {_point_bits(center.real, center.imag): center}
    for fx in (0.25, 0.5, 0.75):
        for fy in (0.25, 0.5, 0.75):
            z0 = complex(cell.re_min + fx * cell.width, cell.im_min + fy * cell.height)
            starts.setdefault(_point_bits(z0.real, z0.imag), z0)
    for z0 in starts.values():
        z = _newton(ev, z0)
        if z is not None and cell.contains(z):
            return z
    return None


class ZeroReport(Frozen):
    """Zeros located in a search rectangle.

    `zeros` holds one representative per zero: real zeros as found, and the
    upper half-plane member of each conjugate pair (the mirror partner is
    implied by the real Taylor coefficients, never listed).  `counts` carries
    the totals: {"real", "complex_pairs", "imaginary_pairs"}.  `unresolved`
    lists cells whose single zero resisted Newton refinement (normally empty).
    `stats` counts the work the call did: "series_evals" (sums of the series,
    plain and value-with-derivative), "memo_hits" (plain values served by the
    call's memo instead), "newton_starts", "newton_steps" (the final polishing
    step included), "nudge_retries" (outer contours given up for a nudged
    one) and "split_retries" (cell cuts given up for another ratio).
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

    Rectangles are subdivided until each holds at most one zero by winding
    count, then each zero is polished by Newton iteration.  Without an
    explicit search rectangle the default is [-R, R] x [0, R] from
    `default_search_region`, with the lower edge dropped slightly below the
    real axis so that real zeros are interior points of the contour.  tol
    is the series tolerance of every evaluation; it must be positive and
    finite (else ParameterError).
    """
    ev = _Evaluator(L, eta, tol)
    if search is None:
        base = default_search_region(float(L))
        region = Rect(base.re_min, base.re_max, -0.01, base.im_max)
    else:
        region = search if isinstance(search, Rect) else Rect(*search)

    region, total = _count_outer(ev, region)
    found: list[complex] = []
    unresolved: list[Rect] = []
    stack: list[tuple[Rect, int]] = [(region, total)]
    while stack:
        cell, count = stack.pop()
        if count <= 0:
            continue
        if count == 1:
            z = _refine_cell(ev, cell)
            if z is not None:
                found.append(z)
                continue
            if max(cell.width, cell.height) < 1e-9:
                unresolved.append(cell)
                continue
        stack.extend(_split_cell(ev, cell, count))

    if len(found) + len(unresolved) != total:
        raise VerificationError(
            f"isolated {len(found)} zeros (+{len(unresolved)} unresolved) but the "
            f"winding count over {region} is {total}"
        )

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
    return ZeroReport(
        region=region,
        zeros=tuple(zeros),
        residuals=residuals,
        counts=counts,
        unresolved=tuple(unresolved),
        stats=ev.stats,
    )
