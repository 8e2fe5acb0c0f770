"""Algebraic zero classification via signs of consecutive Hankel determinants.

Indexing convention, used everywhere in this module:

    D_n := det H_{n+1}(L, eta)  for n >= 0,   D_{-1} := 1,

so D_n is the determinant of the (n+1) x (n+1) zeta Hankel matrix.  An
off-by-one here silently breaks the sign counting, hence the explicit note.

The product D_{n-1} D_n has a closed form whose sign equals the sign of
2L+2n+3, so the classifier never needs to evaluate a determinant: the count
of negative members of {D_{n-1} D_n} equals the number of complex-conjugate
zero pairs of the Coulomb wave function (and twice that count is the complex
zero count of the corresponding Bessel function when eta = 0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._record import Frozen
from .errors import ParameterError, VerificationError, _check_size
from .hankel import coulomb_routes
from .zeta import CoulombParams, _check_nu


class ZeroClassification(Frozen):
    """Predicted conjugate-pair count plus the sign data that produced it."""

    __slots__ = ("params", "pair_count", "sign_sequence", "all_real")

    def __init__(self, params: CoulombParams, pair_count: int,
                 sign_sequence: tuple[int, ...], all_real: bool):
        # sign_sequence: the sign of D_{n-1} D_n for n = 0..nmax
        self._set_fields(params, pair_count, sign_sequence, all_real)


class HurwitzCount(NamedTuple):
    complex_zeros: int
    imaginary_pair: bool


def dd_product_closed(params: CoulombParams, n: int) -> Fraction:
    """Closed form of D_{n-1} D_n (n >= 0; D_{-1} = 1, empty product = 1):

        1/(2L+2n+3) * (1 + eta^2/(L+n+1)^2)
          * prod_{k=0}^{n-1} (2L+2n-2k+1)^-(4k+4) * (1 + eta^2/(L+n-k)^2)^(2k+3)

    with every eta factor dropped when eta = 0 (that branch also admits
    negative integer L), evaluated as det H_n det H_{n+1} from one running
    closed product.
    """
    _check_size("n", n, 0)
    dets = coulomb_routes(params, n + 1, ("closed",))["closed"]  # det H_1 .. det H_{n+1}
    return (dets[n - 1] if n else 1) * dets[n]


def classify(params: CoulombParams, nmax: int | str = "auto") -> ZeroClassification:
    """Count the complex-conjugate zero pairs of the Coulomb wave function.

    The sign of D_{n-1} D_n for n = 0..nmax is read off the factors of its
    closed product (see ``dd_product_closed``), which is never evaluated:
    every power base^(4k+4) and (1 + eta^2/shift^2)^(2k+3) is positive, so
    the sign is that of 2L+2n+3.  No factor vanishes off the excluded set,
    which the CoulombParams constructor refuses as SingularParameter.  In auto
    mode nmax = max(ceil(-L) + 2, 3), which covers every possible negative
    sign (they require 2L+2n+3 < 0) with a margin of at least two; the
    trailing margin must be positive (else, as for a bad nmax, ParameterError),
    and the negative count is checked against floor(-L-1/2).
    """
    L = params.L
    if nmax == "auto":
        nmax = max(math.ceil(-L) + 2, 3)
    if type(nmax) is not int or nmax < 0:
        raise ParameterError(f"nmax must be a nonnegative integer or 'auto', got {nmax!r}")

    # 2L+2n+3 times the denominator q > 0 of L: an integer with the same sign
    p, q = L.numerator, L.denominator
    signs = [1 if 2 * p + (2 * n + 3) * q > 0 else -1 for n in range(nmax + 1)]
    m = signs.count(-1)

    # the negatives all sit at the front: n < -L - 3/2
    if signs and signs[-1] != 1:
        raise ParameterError(f"nmax = {nmax} too small: sign sequence still negative at its end")
    if L < Fraction(-3, 2):
        expected = math.floor(-L - Fraction(1, 2))
        if m != expected:
            raise VerificationError(f"negative count {m} != floor(-L-1/2) = {expected}")
    elif L > Fraction(-3, 2) and m != 0:
        raise VerificationError(f"expected all-positive signs for L = {L} > -3/2, got m = {m}")
    return ZeroClassification(
        params=params, pair_count=m, sign_sequence=tuple(signs), all_real=(m == 0)
    )


def hurwitz_counts(nu: Fraction | int) -> HurwitzCount:
    """Complex-zero count of the Bessel function J_nu by the order trichotomy:

    - nu > -1: no complex zeros;
    - -2s-2 < nu < -2s-1 (s >= 0): 4s+2 complex zeros, two purely imaginary;
    - -2s-1 < nu < -2s (s >= 1): 4s complex zeros, none imaginary.

    Negative integer nu, a trichotomy boundary and the excluded set -N of the
    eta = 0 classifier, raises SingularParameter from czeta.zeta._check_nu.
    The count is checked against twice the classifier's pair count on every call.
    """
    nu = _check_nu(nu)
    if nu > -1:
        count, imaginary = 0, False
    else:
        m = math.floor(-nu)  # nu in (-m-1, -m), m >= 1
        count, imaginary = 2 * m, m % 2 == 1
    pairs = classify(CoulombParams(nu - Fraction(1, 2), Fraction(0))).pair_count
    if count != 2 * pairs:
        raise VerificationError(
            f"trichotomy count {count} != 2 * classifier pairs {2 * pairs} at nu = {nu}"
        )
    return HurwitzCount(complex_zeros=count, imaginary_pair=imaginary)
