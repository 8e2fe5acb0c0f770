"""Spectral zeta values of the regular Coulomb wave function, exactly.

zeta_L(k) = sum_j (-rho_j)^(-k) over the zeros rho_j of the entire factor
phi(L, eta, .) of the Coulomb wave function, the one `czeta.numeric`
evaluates (k >= 2): the k-th power sum of the numbers -1/rho_j, so
sum_j rho_j^(-k) = (-1)^k zeta_L(k) and the odd values change sign.  At
(L, eta) = (-19/4, 3/2) and k = 7, 9, 11 the exact values -3.6124e-3,
1.79332e-2 and -2.43695e-5 agree to 2e-6 with sum_j (-rho_j)^(-k) over the
zeros `find_complex_zeros` locates on its default region and their
conjugates.  zeta_L obeys a quadratic recurrence in k that stays inside the
rationals whenever L and eta are rational:

    zeta_L(2)   = (1 + eta^2/(L+1)^2) / (2L+3)
    zeta_L(k+1) = ( (2 eta/(L+1)) zeta_L(k)
                    + sum_{l=1}^{k-2} zeta_L(l+1) zeta_L(k-l) ) / (2L+k+2)

The recurrence is singular exactly on L in -(N+1)/2 = {-1, -3/2, -2, ...}.
For eta = 0 the function reduces to a normalized Bessel function of order
nu = L + 1/2 and only half-integers L in -N - 1/2 must be excluded: negative
integer L stays meaningful, with every odd value zeta_L(2k+1) = 0 by the
evenness of the eta = 0 function.

The Rayleigh function sigma_{2k}(nu) (power sums over the positive zeros of
the Bessel function J_nu) is zeta_{nu-1/2}(2k) / 2, and Bernoulli/Genocchi
numbers are recovered from sigma_{2n}(1/2) and sigma_{2n}(-1/2).  Every value
comes from `zeta_table`, which holds one immutable table for each of the last
16 pairs and serves a shorter request as a prefix of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from ._record import Frozen
from .errors import ParameterError, SingularParameter, VerificationError, _check_size, _rational


class CoulombParams(Frozen):
    """The parameter pair (L, eta), exact rationals, off the excluded set.

    The constructor refuses L in -(N+1)/2, or only -N-1/2 when eta = 0, as
    SingularParameter.  Every pole of the closed formulas (zeta_L(2), the
    recurrence coefficients, the closed product, the classifier's signs) and of
    the numeric series lies in this set, so this is the only check of it; a
    float pair is tested at its exact binary value.
    """

    __slots__ = ("L", "eta")

    def __init__(self, L: Fraction, eta: Fraction):
        self._set_fields(_rational("L", L), _rational("eta", eta))
        twice = 2 * self.L
        if twice.denominator != 1 or twice.numerator > -2:
            return
        if self.eta != 0:
            raise SingularParameter(f"L = {self.L} on excluded set -(N+1)/2 (eta != 0)")
        if twice.numerator % 2:
            raise SingularParameter(f"L = {self.L} on excluded set -N-1/2 (eta = 0 branch)")


def _check_params(params: CoulombParams) -> None:
    """Refuse as ParameterError a `params` that is no CoulombParams."""
    if not isinstance(params, CoulombParams):
        raise ParameterError(f"params must be a CoulombParams, got {params!r}")


def zeta_base(params: CoulombParams) -> Fraction:
    """zeta_L(2) = (1 + eta^2/(L+1)^2) / (2L+3)."""
    _check_params(params)
    L, eta = params.L, params.eta
    value = Fraction(1, 1)
    if eta != 0:
        value += (eta / (L + 1)) ** 2
    return value / (2 * L + 3)


class ZetaTable(Frozen):
    """zeta_L(2..kmax) for fixed (L, eta); immutable, so `zeta_table` holds one per pair."""

    __slots__ = ("params", "_values")  # _values[i] = zeta_L(i+2)

    def __init__(self, params: CoulombParams, _values: tuple[Fraction, ...]):
        self._set_fields(params, _values)

    @property
    def kmax(self) -> int:
        return len(self._values) + 1

    def value(self, k: int) -> Fraction:
        _check_size("k", k, 2)
        if k > self.kmax:
            raise IndexError(f"zeta_L(k) available for 2 <= k <= {self.kmax}, got {k}")
        return self._values[k - 2]

    def values(self) -> list[Fraction]:
        return list(self._values)

    def extend_to(self, kmax: int) -> "ZetaTable":
        """This table if it reaches zeta_L(kmax), else `zeta_table(params,
        kmax)`; the receiver never changes."""
        return self if kmax <= self.kmax else zeta_table(self.params, kmax)


def _rescale(nums: list[int], start: int, scale: int, d: int) -> int:
    """lcm(scale, d), with nums[start:] rescaled to it in place."""
    if scale % d:
        grow = d // gcd(scale, d)
        nums[start:] = [x * grow for x in nums[start:]]
        scale *= grow
    return scale


# the longest table asked for of each of the last _HELD pairs, oldest first;
# only atomic dict operations touch it, so threads at worst build one twice
_HELD = 16
_tables: dict[CoulombParams, ZetaTable] = {}


def zeta_table(params: CoulombParams, kmax: int) -> ZetaTable:
    """zeta_L(2), ..., zeta_L(kmax): the pair's held table or a prefix of it.

    The last 16 pairs hold one immutable table each, the longest asked for; a
    longer request builds the pair's table through kmax and holds it instead.
    """
    _check_params(params)
    _check_size("kmax", kmax, 2)
    held = _tables.get(params)
    if held is None or held.kmax < kmax:
        held = _build_table(params, kmax)
        _tables.pop(params, None)  # so the rebuilt pair is the newest
        _tables[params] = held
        for stale in list(_tables)[:-_HELD]:
            _tables.pop(stale, None)
    return held if held.kmax == kmax else ZetaTable(params, held._values[:kmax - 1])


def _build_table(params: CoulombParams, kmax: int) -> ZetaTable:
    """The table of zeta_L(2), ..., zeta_L(kmax), from the recurrence.

    Beside the values the recurrence keeps their integer numerators on two
    scales, so the convolution sums integer products and each new value costs
    one reduction instead of one per term.  With z_i = zeta_L(i+2), every pair
    of the sum for zeta(k+1) has one index at most h = (k-3)//2:

    - N_i = z_i M, where M is the lcm of every denominator so far; every
      later pair takes its larger index at or above h, so an N_i below h is
      not rescaled again;
    - P_i = z_i M_h for i <= h only, where M_h is the lcm of the denominators of
      z_0..z_h; it grows (and P is rescaled) only when h advances.

    Each product P_i N_j is then S_h x S_k bits instead of S_k x S_k, and the
    sum and the drift term share the denominator b M_h M.  The pole factor
    2L+k+2 is the integer 2p+(k+2)q over q, with L = p/q, so a step builds
    no Fraction but its value.
    """
    base = zeta_base(params)
    L, eta = params.L, params.eta
    p, q = L.numerator, L.denominator
    # z[i] = zeta(i+2); M, nums[i] = N_i (i >= h); Mh, half[i] = P_i
    z, M, nums, Mh, half = [base], base.denominator, [base.numerator], 1, []
    # zeta(k+1) = (drift * zeta(k) + conv) / (2L+k+2), drift = 2 eta/(L+1) = a/b;
    # over the common denominator b M_h M this is one integer numerator
    drift = 2 * eta / (L + 1) if eta != 0 else Fraction(0)
    a, b = drift.numerator, drift.denominator
    for k in range(2, kmax):  # producing zeta(k+1)
        last = k - 3  # the convolution runs over i + j = last
        h = max(last, 0) // 2
        while len(half) <= h:
            zi = z[len(half)]
            Mh = _rescale(half, 0, Mh, zi.denominator)
            half.append(zi.numerator * (Mh // zi.denominator))
        # the sum is symmetric: twice the half plus the middle term when
        # last is even
        conv = 0
        for i in range((last + 1) // 2):
            conv += half[i] * nums[last - i]
        conv *= 2
        if last >= 0 and last % 2 == 0:
            conv += half[h] * nums[h]
        num = b * conv + a * nums[k - 2] * Mh
        pole = 2 * p + (k + 2) * q  # (2L+k+2) q
        if pole == 0:
            # off the excluded set only eta = 0 with negative integer L, where the
            # target index k+1 is odd and the value is 0 by evenness
            if num != 0:
                raise VerificationError(f"odd zeta_L({k + 1}) != 0 at the pole 2L+k+2 = 0, L = {L}")
            z.append(Fraction(0))
            nums.append(0)
            continue
        value = Fraction(num * q, b * Mh * M * pole)
        M = _rescale(nums, h, M, value.denominator)
        z.append(value)
        nums.append(value.numerator * (M // value.denominator))
    return ZetaTable(params, tuple(z))


def _check_nu(nu: Fraction | int) -> Fraction:
    nu = _rational("nu", nu)
    if nu.denominator == 1 and nu.numerator <= -1:
        raise SingularParameter(f"nu = {nu} on excluded set -N")
    return nu


def rayleigh(nu: Fraction | int, k: int) -> Fraction:
    """Rayleigh function sigma_{2k}(nu) = zeta_{nu-1/2}(2k) / 2."""
    nu = _check_nu(nu)
    _check_size("k", k, 1)
    return _sigmas(nu, k)[-1]


def _sigmas(nu: Fraction, kmax: int) -> list[Fraction]:
    """sigma_2(nu), ..., sigma_{2 kmax}(nu), from a prefix of the pair's zeta table."""
    table = zeta_table(CoulombParams(nu - Fraction(1, 2), Fraction(0)), 2 * kmax)
    return [value / 2 for value in table.values()[::2]]


def _bernoulli_numbers(nmax: int) -> list[Fraction]:
    """B_2, B_4, ..., B_{2 nmax} (see `bernoulli`), from one zeta table."""
    _check_size("n", nmax, 1)
    return [
        (-1) ** (n + 1) * factorial(2 * n) * Fraction(2) ** (1 - 2 * n) * sigma
        for n, sigma in enumerate(_sigmas(Fraction(1, 2), nmax), 1)
    ]


def _genocchi_numbers(nmax: int) -> list[Fraction]:
    """G_2, G_4, ..., G_{2 nmax}, each cross-checked as in `genocchi`, from one
    zeta table per route; `_bernoulli_numbers` refuses an nmax below 1."""
    out = []
    for n, (b, sigma) in enumerate(
        zip(_bernoulli_numbers(nmax), _sigmas(Fraction(-1, 2), nmax)), 1
    ):
        g = 2 * (1 - 2 ** (2 * n)) * b
        alt = (-1) ** n * factorial(2 * n) * Fraction(2) ** (2 - 2 * n) * sigma
        if g != alt:
            raise VerificationError(f"Genocchi bridge mismatch at n = {n}: {g} != {alt}")
        out.append(g)
    return out


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_{2n}, via B_{2n} = (-1)^(n+1) (2n)! 2^(1-2n) sigma_{2n}(1/2)."""
    return _bernoulli_numbers(n)[-1]


def genocchi(n: int) -> Fraction:
    """Genocchi number G_{2n} = 2(1 - 2^(2n)) B_{2n}.

    The value is cross-checked on every call against the second route
    G_{2n} = (-1)^n (2n)! 2^(2-2n) sigma_{2n}(-1/2); a mismatch would mean the
    zeta recurrence and the Bernoulli bridge disagree.
    """
    return _genocchi_numbers(n)[-1]
