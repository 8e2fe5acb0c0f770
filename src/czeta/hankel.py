"""Hankel matrices of spectral zeta / Rayleigh values and their closed determinants.

Each family's routes are named once, in `coulomb_routes` and `rayleigh_routes`,
the public way to evaluate a determinant: the direct fraction-free minors
first, then every other route, so a caller checks an identity by comparing the
routes' values, as the CLI and `verify-all` do.  Formulas never silently
replace computation.  A route answers every n = 1..nmax in one evaluation
(direct: the leading minors of the nmax matrix; closed: one running product
over n, which also gives `czeta.classify` its D_{n-1} D_n; Desnanot-Jacobi: one
row table of the recursion, with one direct pass for the degenerate n), and a
single-n consumer reads the last entry.  So do the Bernoulli and Genocchi
determinants; `det_coulomb_closed` and `det_coulomb_via_moments` pass `first = n`
instead, so that only det H_n becomes a Fraction.  On the 1872 (L, eta, n) of
perfbench's exact-deep the two take 185 us a triple this way and 575 us with first = 1
(CPython 3.11, Xeon), about 3 % of a mean 6.7 ms case.  The Rayleigh, Bernoulli
and Genocchi closed forms all come from one running Rayleigh product per
(nu, ell), the latter two at nu = 1/2 and -1/2, rescaled.  `leading_minors` is
the only determinant entry point (it takes the Chebyshev algorithm for these
Hankel matrices, and Bareiss only when a leading minor below the last vanishes),
and every sigma_{2k}(nu) comes from one helper, `czeta.zeta._sigmas`, which
reads a prefix of the pair's held table.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from ._record import Frozen
from .errors import ParameterError, UnsupportedEll, VerificationError, _check_size
from .exact import ExactMatrix, leading_minors
from .zeta import (CoulombParams, _bernoulli_numbers, _check_nu, _genocchi_numbers, _sigmas,
                   zeta_base, zeta_table)


class CoulombHankel(Frozen):
    """n x n Hankel matrix with entry (i, j) = zeta_L(i+j+2)."""

    __slots__ = ("params", "n", "matrix")

    def __init__(self, params: CoulombParams, n: int, matrix: ExactMatrix):
        self._set_fields(params, n, matrix)


class RayleighHankel(Frozen):
    """n x n Hankel matrix with entry (i, j) = sigma_{2*ell+2+2*(i+j)}(nu)."""

    __slots__ = ("nu", "ell", "n", "matrix")

    def __init__(self, nu: Fraction, ell: int, n: int, matrix: ExactMatrix):
        self._set_fields(nu, ell, n, matrix)


class RecurrenceCoeffs(Frozen):
    """Three-term recurrence coefficients of the associated orthogonal polynomials.

    a_n = ((n+L+1)^2 + eta^2) / ((n+L+1)^2 (2n+2L+1)(2n+2L+3)),  n >= 1
    b_n = -eta / ((n+L+1)(n+L+2)),                               n >= 0

    At eta = 0 the (n+L+1)^2 factor cancels, so negative integer L stays
    usable on the Bessel branch.  The Hankel moments zeta_L(k+2) have the
    nodes -1/rho_j (see `czeta.zeta`), and b_n = -alpha_n is minus their
    recurrence coefficient: the Jacobi matrix with diagonal b_n and
    off-diagonal sqrt(a_n) has the eigenvalues 1/rho_j.  The zero finder
    forms that matrix from these exact values, each rounded once.
    """

    __slots__ = ("params", "_a", "_b")  # _a[i] = a_{i+1}, _b[i] = b_i

    def __init__(self, params: CoulombParams, _a: tuple[Fraction, ...], _b: tuple[Fraction, ...]):
        self._set_fields(params, _a, _b)

    @property
    def nmax(self) -> int:
        return len(self._a)

    def a(self, n: int) -> Fraction:
        if not 1 <= n <= len(self._a):
            raise IndexError(f"a_n available for 1 <= n <= {len(self._a)}, got {n}")
        return self._a[n - 1]

    def b(self, n: int) -> Fraction:
        if not 0 <= n <= len(self._b) - 1:
            raise IndexError(f"b_n available for 0 <= n <= {len(self._b) - 1}, got {n}")
        return self._b[n]


def _check_n(n: int, ell: int = 0) -> None:
    _check_size("n", n, 1)
    _check_size("ell", ell, 0)


def _hankel(moments: list[Fraction], n: int) -> ExactMatrix:
    """The n x n Hankel matrix with entry (i, j) = moments[i + j]."""
    return ExactMatrix([[moments[i + j] for j in range(n)] for i in range(n)])


def build_coulomb_hankel(params: CoulombParams, n: int) -> CoulombHankel:
    """Fill the matrix from zeta_L(2..2n), a prefix of the pair's held zeta table."""
    _check_n(n)
    return CoulombHankel(params, n, _hankel(zeta_table(params, 2 * n).values(), n))


def _recurrence_terms(params: CoulombParams, nmax: int) -> tuple[list, list]:
    """a_1..a_nmax and b_0..b_nmax as unreduced integer (numerator, denominator)
    pairs: with L = p/q, eta = r/s and u = (n+L+1) q, a_n = (u^2 s^2 + r^2 q^2) q^2 /
    (u^2 s^2 d) with d = (2n+2L+1)(2n+2L+3) q^2, or q^2 / d at eta = 0, and
    b_n = -r q^2 / (s u (u+q)), or 0 at eta = 0, where u = 0 at integer L."""
    p, q = params.L.numerator, params.L.denominator
    r, s = params.eta.numerator, params.eta.denominator
    q2, rq2 = q * q, (r * q) ** 2
    a, b = [], []
    for n in range(0, nmax + 1):
        u = p + (n + 1) * q
        b.append((-r * q2, s * u * (u + q)) if r else (0, 1))
        if n >= 1:
            d = (2 * p + (2 * n + 1) * q) * (2 * p + (2 * n + 3) * q)
            us2 = (u * s) ** 2
            a.append(((us2 + rq2) * q2, us2 * d) if r else (q2, d))
    return a, b


def recurrence_coeffs(params: CoulombParams, nmax: int) -> RecurrenceCoeffs:
    """Coefficients a_1..a_nmax and b_0..b_nmax, exactly."""
    _check_size("nmax", nmax, 1)
    a, b = _recurrence_terms(params, nmax)
    return RecurrenceCoeffs(params, tuple(Fraction(*t) for t in a), tuple(Fraction(*t) for t in b))


def _coulomb_closed(params: CoulombParams, nmax: int, first: int = 1) -> list[Fraction]:
    """The closed product for n = first..nmax from one running product; with m = n - k,

    det H_n / det H_{n-1} = prod_{m<n} (2L+2m+1)^-2 * prod_{m<=n} (1 + eta^2/(L+m)^2) / (2L+2n+1),

    the eta factors dropped when eta = 0.  The product runs over integers: with
    L = p/q and eta = r/s, 2L+2m+1 = (2p+(2m+1)q)/q and 1 + eta^2/(L+m)^2 =
    (t^2+r^2q^2)/t^2 with t = (p+mq)s, so det H_n = q^(n^2) num_n / den_n, and
    only the n >= first become Fractions.  Every pole lies in the excluded set.
    """
    p, q = params.L.numerator, params.L.denominator
    r, s = params.eta.numerator, params.eta.denominator
    rq2 = (r * q) ** 2
    # num/den: det H_n without its q^(n^2); ratio_num/ratio_den: prod_{m<=n} shift_m / base_m^2
    dets, num, den, ratio_num, ratio_den = [], 1, 1, 1, 1
    for m in range(1, nmax + 1):
        base = 2 * p + (2 * m + 1) * q
        ratio_den *= base * base
        if r:
            t2 = ((p + m * q) * s) ** 2
            ratio_num *= t2 + rq2
            ratio_den *= t2
        num *= ratio_num * base
        den *= ratio_den
        if m >= first:
            dets.append(Fraction(num * q ** (m * m), den))
    return dets


def det_coulomb_closed(params: CoulombParams, n: int) -> Fraction:
    """Closed product for the determinant of the zeta Hankel matrix:

    prod_{k=0}^{n-1} (2L+2n-2k+1)^-(2k+1) * (1 + eta^2/(L+n-k)^2)^(k+1)
    """
    _check_n(n)
    return _coulomb_closed(params, n, n)[0]


def _coulomb_moments(params: CoulombParams, nmax: int, first: int = 1) -> list[Fraction]:
    """The moment route for n = first..nmax: one zeta_L(2), the a_j as unreduced integer
    pairs, and the running product D_{n+1} = D_n zeta_L(2) prod_{j<=n} a_j, kept as
    integer numerator and denominator; only the n >= first become Fractions."""
    z2 = zeta_base(params)
    dets = [z2] if first == 1 else []
    z_num, z_den = z2.numerator, z2.denominator
    num, den, a_num, a_den = z_num, z_den, 1, 1
    for n, (top, bottom) in enumerate(_recurrence_terms(params, nmax - 1)[0], 1):
        a_num *= top
        a_den *= bottom
        num *= z_num * a_num
        den *= z_den * a_den
        if n >= first - 1:
            dets.append(Fraction(num, den))
    return dets


def det_coulomb_via_moments(params: CoulombParams, n: int) -> Fraction:
    """Moment route: zeta_L(2)^n * prod_{m=1}^{n-1} prod_{j=1}^{m} a_j.

    The double product is empty at n = 1.
    """
    _check_n(n)
    return _coulomb_moments(params, n, n)[0]


def build_rayleigh_hankel(nu: Fraction | int, ell: int, n: int) -> RayleighHankel:
    """Hankel matrix of Rayleigh values sigma_{2*ell+2}(nu) .. sigma_{4n+2*ell-2}(nu)."""
    nu = _check_nu(nu)
    _check_n(n, ell)
    return RayleighHankel(nu, ell, n, _hankel(_sigmas(nu, 2 * n + ell - 1)[ell:], n))


def _rayleigh_products(nu: Fraction, ell: int, nmax: int) -> list[Fraction]:
    """P_n = 2^(-2n(n+ell)) prod_{k=1}^{2n+ell-1} (nu+k)^(k-2n-ell), the ell in {0,1} shape,
    for n = 1..nmax as one running product from P_0 = prod_{k=1}^{ell-1} (nu+k)^(k-ell):

    P_n = P_{n-1} / (4^(2n+ell-1) S^2 (nu+2n+ell-1)),  S = prod_{k=1}^{2n+ell-2} (nu+k),

    with S kept as the integer s = S b^(2n+ell-2) over nu = a/b.
    """
    a, b = nu.numerator, nu.denominator
    out, p, s = [], Fraction(1), 1
    for k in range(1, ell):
        p *= (nu + k) ** (k - ell)
        if k < ell - 1:
            s *= a + k * b
    for n in range(1, nmax + 1):
        top = 2 * n + ell - 1
        for k in range(max(1, top - 2), top):
            s *= a + k * b
        p *= Fraction(b ** (2 * top - 1), 4**top * s * s * (a + top * b))
        out.append(p)
    return out


# the polynomial factor of the closed form at each ell that has one
_RAYLEIGH_POLY = {
    0: lambda nu, n: 1,
    1: lambda nu, n: 1,
    2: lambda nu, n: (n + 1) * (n + nu + 1),
    3: lambda nu, n: (
        Fraction(1, 6) * (n + 1) * (n + 2) * (n + nu + 1) * (n + nu + 2)
        * (2 * n**2 + 6 * n + 3 + nu * (2 * n + 3))
    ),
}


def _rayleigh_closed(nu: Fraction, ell: int, nmax: int) -> list[Fraction]:
    """Closed form for n = 1..nmax, an ell in _RAYLEIGH_POLY: one running product,
    times the ell's polynomial at each n."""
    poly = _RAYLEIGH_POLY[ell]
    return [p * poly(nu, n) for n, p in enumerate(_rayleigh_products(nu, ell, nmax), 1)]


def det_rayleigh_closed(nu: Fraction | int, ell: int, n: int) -> Fraction:
    """Closed form of the Rayleigh Hankel determinant; valid only for ell in {0, 1}."""
    if ell not in (0, 1):
        raise UnsupportedEll(f"closed form holds only for ell in {{0, 1}}, got {ell}")
    return rayleigh_routes(nu, ell, n, ("closed",))["closed"][-1]


def det_rayleigh_ell2(nu: Fraction | int, n: int) -> Fraction:
    """ell = 2 family: 2^(-2n(n+2)) (n+1)(n+nu+1) prod_{k=1}^{2n+1} (nu+k)^(k-2n-2)."""
    return rayleigh_routes(nu, 2, n, ("closed",))["closed"][-1]


def det_rayleigh_ell3(nu: Fraction | int, n: int) -> Fraction:
    """ell = 3 family, with the polynomial factor

    (1/6)(n+1)(n+2)(n+nu+1)(n+nu+2) [2n^2 + 6n + 3 + nu(2n+3)]
    """
    return rayleigh_routes(nu, 3, n, ("closed",))["closed"][-1]


def _desnanot_jacobi(nu: Fraction, ell: int, nmax: int) -> list[Fraction]:
    """det_rayleigh_dj for n = 1..nmax from one table of the recursion, and at
    most one direct leading-minor pass for the degenerate n.

    Row l holds d_0^(l) = 1 .. d_{nmax+(ell-l)//2}^(l); an entry whose divisor
    vanishes, or that depends on such an entry, is None.
    """
    rows = [[Fraction(1), *_rayleigh_products(nu, l, nmax + (ell - l) // 2)]
            for l in range(min(ell, 1) + 1)]  # row 1 only when ell >= 1 reads it
    for l in range(2, ell + 1):
        up2, up1, row = rows[l - 2], rows[l - 1], [Fraction(1)]
        for m in range(1, nmax + (ell - l) // 2 + 1):
            div = up2[m]
            if None in (div, up2[m + 1], row[m - 1], up1[m]) or div == 0:
                row.append(None)
            else:
                row.append((up2[m + 1] * row[m - 1] + up1[m] ** 2) / div)
        rows.append(row)
    dets = rows[ell][1:]
    if None in dets:  # one direct pass serves every degenerate n
        direct = leading_minors(build_rayleigh_hankel(nu, ell, nmax).matrix)
        dets = [direct[i] if d is None else d for i, d in enumerate(dets)]
    return dets


def det_rayleigh_dj(nu: Fraction | int, ell: int, n: int) -> Fraction:
    """Determinant for arbitrary ell by the Desnanot-Jacobi recursion

        d_n^(l) = ( d_{n+1}^(l-2) d_{n-1}^(l) + (d_n^(l-1))^2 ) / d_n^(l-2),

    with d_0^(l) = 1, seeded by the ell in {0, 1} closed forms alone.  When a
    divisor determinant vanishes the recursion is degenerate and the direct
    fraction-free determinant is returned instead.
    """
    return rayleigh_routes(nu, ell, n, ("desnanot-jacobi",))["desnanot-jacobi"][-1]


# The named routes of each family, direct first; each gives the determinants
# for n = 1..nmax.  Each looks its evaluator up by name when it runs, so a
# replaced module attribute reaches every consumer.
_COULOMB_ROUTES = {
    "direct": lambda params, nmax: leading_minors(build_coulomb_hankel(params, nmax).matrix),
    "closed": lambda params, nmax: _coulomb_closed(params, nmax),
    "moments": lambda params, nmax: _coulomb_moments(params, nmax),
}
_RAYLEIGH_ROUTES = {
    "direct": lambda nu, ell, nmax: leading_minors(build_rayleigh_hankel(nu, ell, nmax).matrix),
    "desnanot-jacobi": lambda nu, ell, nmax: _desnanot_jacobi(nu, ell, nmax),
    "closed": lambda nu, ell, nmax: _rayleigh_closed(nu, ell, nmax),
}


def _route_names(names, routes: dict) -> tuple:
    """`names`, or every route when empty; a string or an unknown name raises ParameterError."""
    if isinstance(names, str):
        raise ParameterError(f"names is a sequence of route names, got the string {names!r}")
    names = tuple(names or routes)  # read once: `names` may be an iterator
    unknown = [name for name in names if name not in routes]
    if unknown:
        raise ParameterError(f"unknown route {unknown[0]!r}; the routes are {', '.join(routes)}")
    return names


def coulomb_routes(params: CoulombParams, nmax: int, names=None) -> dict[str, list[Fraction]]:
    """The zeta Hankel determinants for n = 1..nmax by each route in `names`
    (default all), in that order: one evaluation per route for all n."""
    _check_n(nmax)
    return {name: _COULOMB_ROUTES[name](params, nmax)
            for name in _route_names(names, _COULOMB_ROUTES)}


def rayleigh_routes(
    nu: Fraction | int, ell: int, nmax: int, names=None
) -> dict[str, list[Fraction]]:
    """The Rayleigh Hankel determinants for n = 1..nmax by each route in `names`
    (default all), in that order.  An ell without a closed form (ell > 3)
    leaves "closed" out of the default and raises UnsupportedEll when named."""
    nu = _check_nu(nu)
    _check_n(nmax, ell)
    chosen = _route_names(names, _RAYLEIGH_ROUTES)
    if "closed" in chosen and ell not in _RAYLEIGH_POLY:
        if names:
            raise UnsupportedEll(f"no closed form for ell = {ell}; the closed route "
                                 f"covers ell = 0..{max(_RAYLEIGH_POLY)}")
        chosen = tuple(name for name in chosen if name != "closed")
    return {name: _RAYLEIGH_ROUTES[name](nu, ell, nmax) for name in chosen}


def _factorial_hankel_det(g: int, ell: int, nmax: int) -> list[Fraction]:
    """Direct determinants for n = 1..nmax of entries X_{2m}/(2m)!, each checked against

    (-1)^(n(ell+g)) 2^(-n(4n+4ell-1-g)) prod_{k=1}^{2n+ell-1} (k+1/2-g)^(k-2n-ell),

    g = 0 for the Bernoulli and 1 for the Genocchi numbers X_{2m}.
    """
    if ell not in (0, 1):
        raise UnsupportedEll(f"ell must be 0 or 1, got {ell}")
    _check_n(nmax)
    label, numbers = ("Genocchi", _genocchi_numbers) if g else ("Bernoulli", _bernoulli_numbers)
    # entry (i, j) (1-based) is X_{2m}/(2m)! with m = i+j+ell-1, so m runs ell+1..2nmax+ell-1
    xs = numbers(2 * nmax + ell - 1)
    entries = [xs[m - 1] / factorial(2 * m) for m in range(ell + 1, 2 * nmax + ell)]
    dets = leading_minors(_hankel(entries, nmax))
    # the Rayleigh products at nu = 1/2 - g, whose factors are the (k+1/2-g)
    products = _rayleigh_products(Fraction(1, 2) - g, ell, nmax)
    for n, (direct, product) in enumerate(zip(dets, products), 1):
        closed = Fraction((-1) ** (n * (ell + g)), 2 ** (n * (2 * n + 2 * ell - 1 - g))) * product
        if direct != closed:
            raise VerificationError(
                f"{label} Hankel determinant (ell={ell}, n={n}): "
                f"direct {direct} != closed {closed}"
            )
    return dets


def bernoulli_hankel_det(ell: int, n: int) -> Fraction:
    """Determinant of the Hankel matrix with entries B_{2i+2j+2ell-2}/(2i+2j+2ell-2)!.

    Direct determinant and closed form

        (-1)^(n*ell) 2^(-n(4n+4ell-1)) prod_{k=1}^{2n+ell-1} (k+1/2)^(k-2n-ell)

    are both evaluated; a mismatch raises VerificationError.  Returns the
    direct value.
    """
    return _factorial_hankel_det(0, ell, n)[-1]


def genocchi_hankel_det(ell: int, n: int) -> Fraction:
    """Determinant of the Hankel matrix with entries G_{2i+2j+2ell-2}/(2i+2j+2ell-2)!.

    Closed form: (-1)^(n(ell+1)) 2^(-n(4n+4ell-2)) prod_{k=1}^{2n+ell-1} (k-1/2)^(k-2n-ell).
    """
    return _factorial_hankel_det(1, ell, n)[-1]


class ParitySplit(NamedTuple):
    """Both sides of the odd and even parity splitting identities."""

    odd: tuple[Fraction, Fraction]
    even: tuple[Fraction, Fraction]


def parity_split_check(nu: Fraction | int, n: int) -> ParitySplit:
    """Evaluate both sides of the eta = 0 parity factorizations, exactly:

        det H_{2n+1}(nu-1/2, 0) = 2^(2n+1) det H_{n+1}^(0)(nu) det H_n^(1)(nu)
        det H_{2n}(nu-1/2, 0)   = 2^(2n)   det H_n^(0)(nu)     det H_n^(1)(nu)

    All four determinants are computed directly, each pair of sizes from one
    matrix's leading minors; callers assert equality.
    """
    nu = _check_nu(nu)
    _check_n(n)
    params = CoulombParams(nu - Fraction(1, 2), Fraction(0))
    d_zeta = coulomb_routes(params, 2 * n + 1, ("direct",))["direct"]
    d_ray0 = rayleigh_routes(nu, 0, n + 1, ("direct",))["direct"]
    d_ray1 = rayleigh_routes(nu, 1, n, ("direct",))["direct"][-1]
    odd = (d_zeta[2 * n], Fraction(2 ** (2 * n + 1)) * d_ray0[n] * d_ray1)
    even = (d_zeta[2 * n - 1], Fraction(2 ** (2 * n)) * d_ray0[n - 1] * d_ray1)
    return ParitySplit(odd=odd, even=even)
