"""Exact rational scalars and fraction-free determinant evaluation.

Rational values are ``fractions.Fraction`` throughout: the stdlib type already
guarantees a positive denominator and full reduction after every operation,
which is the normalization every identity check in this package relies on.

`leading_minors` is the one determinant entry point, and `det_exact` is its
last minor.  It picks its engine from the matrix itself: a Hankel matrix goes
through the Chebyshev algorithm on integer rows (`_hankel_minors`), and every
other matrix, or a Hankel matrix with a zero leading minor below the last,
through Bareiss elimination of its rows, each scaled to integers by the lcm of
its own denominators.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Frozen
from .errors import ParameterError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string; reject anything else (notably decimals)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParameterError(
            f"expected an exact rational 'p/q' or integer, got {text!r}"
        )
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" string, "p" alone when the denominator is 1."""
    return str(Fraction(value))


class ExactMatrix(Frozen):
    """Immutable square matrix of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Sequence[Fraction | int]]):
        # tuples are built from lists, not generators: CPython grows a tuple from
        # a generator by resizing, and keeps each resized tuple in its free list
        # for that length, so repeated calls hold more memory every time.  An
        # entry that is already a Fraction is kept as it is, not copied.
        rows = tuple([tuple([e if type(e) is Fraction else Fraction(e) for e in row])
                      for row in entries])
        if not rows:
            raise ParameterError("matrix must have dimension >= 1")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ParameterError("matrix must be square")
        self._set_fields(rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]


def _bareiss_minors(rows: Sequence[Sequence[Fraction]], swap: bool) -> list[Fraction]:
    """Pivot k of an integer-exact Bareiss elimination over its first k+1 row scales.

    Each row is scaled to integers by the lcm of its own denominators, and each
    pivot is signed by the row swaps so far.  Without `swap`, entry k is the
    (k+1) x (k+1) leading minor; with it, a zero pivot is swapped for a nonzero
    entry below it and the last entry is the determinant.  A pivot that stays
    zero is recorded and ends the pass.
    """
    scales = [math.lcm(*[e.denominator for e in row]) for row in rows]
    a = [[e.numerator * (scale // e.denominator) for e in row] for scale, row in zip(scales, rows)]
    n = len(a)
    minors, sign, prev, scale = [], 1, 1, 1
    for k in range(n):
        if a[k][k] == 0 and swap:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
        pivot = a[k][k]
        scale *= scales[k]
        minors.append(Fraction(sign * pivot, scale))
        if pivot == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Bareiss' identity: prev divides the cross term
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return minors


def _hankel_minors(m: ExactMatrix) -> list[Fraction] | None:
    """D_1, D_2, ... of a Hankel matrix by the Chebyshev algorithm; None for any other matrix.

    The moments mu_0..mu_{2n-2} are m's first row and last column.  Row k of
    the algorithm holds sigma_{k,l} = T_k[l] / R_k for l = k..2n-2-k, as
    integers over one denominator: row 0 is the moments over their lcm, and
    with p = T_{k-1}[k-1], q = T_{k-2}[k-2] (q = 1 and T_{-1} = 0 at k = 1),

        T_k[l] = p q T_{k-1}[l+1] - (q T_{k-1}[k] - p T_{k-2}[k-1]) T_{k-1}[l] - p^2 T_{k-2}[l],
        R_k = R_{k-1} p q,

    each row then divided with R_k by their gcd.  sigma_{k,k} = D_{k+1} / D_k.
    A zero minor D_k with k < n ends the list there, at that 0 (W. Gautschi,
    Orthogonal Polynomials: Computation and Approximation, OUP 2004, sec. 2.1).
    """
    rows = m.entries
    n = len(rows)
    for upper, lower in zip(rows, rows[1:]):
        if upper[1:] != lower[:-1]:
            return None
    moments = [*rows[0], *[row[-1] for row in rows[1:]]]
    r = math.lcm(*[e.denominator for e in moments])
    t = [e.numerator * (r // e.denominator) for e in moments]
    prev, q = [0] * len(t), 1
    minors = [Fraction(t[0], r)]
    for k in range(1, n):
        p = t[k - 1]
        if p == 0:
            return minors
        pq, c, p2 = p * q, q * t[k] - p * prev[k - 1], p * p
        row = [0] * k + [pq * t[l + 1] - c * t[l] - p2 * prev[l] for l in range(k, 2 * n - 1 - k)]
        r *= pq
        g = math.gcd(r, *row)
        if g > 1:
            row = [x // g for x in row]
            r //= g
        prev, q, t = t, p, row
        minors.append(minors[-1] * Fraction(t[k], r))
    return minors


def leading_minors(m: ExactMatrix) -> list[Fraction]:
    """D_1, ..., D_n: the determinants of the k x k leading submatrices of m.

    A Hankel matrix takes them from `_hankel_minors`, any other matrix from one
    `_bareiss_minors` pass without row swaps.  Either way a zero minor below the
    last ends the pass; each later minor then comes from one pivoting pass over
    its own leading submatrix.
    """
    minors = _hankel_minors(m)
    if minors is None:
        minors = _bareiss_minors(m.entries, swap=False)
    for k in range(len(minors) + 1, m.dim + 1):
        minors.append(_bareiss_minors([row[:k] for row in m.entries[:k]], swap=True)[-1])
    return minors


def det_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant: the last of `leading_minors`."""
    return leading_minors(m)[-1]

