"""Exact rational scalars and fraction-free determinant evaluation.

Rational values are ``fractions.Fraction`` throughout: the stdlib type already
guarantees a positive denominator and full reduction after every operation,
which is the normalization every identity check in this package relies on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError

ExactRational = Fraction

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


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable square matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # tuples are built from lists, not generators: CPython grows a tuple from
        # a generator by resizing, and keeps each resized tuple in its free list
        # for that length, so repeated calls hold more memory every time
        rows = tuple([tuple([Fraction(e) for e in row]) for row in self.entries])
        if not rows:
            raise ParameterError("matrix must have dimension >= 1")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ParameterError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Fraction | int]]) -> "ExactMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )


def _integer_rows(m: ExactMatrix) -> tuple[list[list[int]], list[int], list[int]]:
    """The integer matrix det_exact eliminates, with its row scales and column contents.

    Each row is scaled to integers by the lcm of its own denominators, and
    each column of the result is divided by the gcd of its integers (its
    content).  An all-zero column keeps content 0 and is left as it is.  No
    entry is widened to the worst denominator of the whole matrix.
    """
    a = []
    scales = []
    for row in m.entries:
        scale = math.lcm(*[e.denominator for e in row])
        scales.append(scale)
        a.append([e.numerator * (scale // e.denominator) for e in row])
    contents = []
    for j in range(m.dim):
        g = math.gcd(*[row[j] for row in a])
        contents.append(g)
        if g > 1:
            for row in a:
                row[j] //= g
    return a, scales, contents


def _bareiss(a: list[list[int]], swap: bool) -> Iterator[int]:
    """Integer-exact Bareiss elimination of `a` in place, one pivot per step.

    Step k yields its pivot, signed by the row swaps so far.  Before any swap
    the pivot of step k is the (k+1) x (k+1) leading minor of `a`, and the
    last one is det(a).  A zero pivot is swapped for a nonzero entry below it
    when `swap` is set; a pivot that stays zero is yielded and ends the pass.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0 and swap:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
        pivot = a[k][k]
        yield sign * pivot
        if pivot == 0:
            return
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Bareiss' identity: prev divides the cross term
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot


def det_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination with row pivoting.

    The determinant is the last pivot of the integer matrix from
    `_integer_rows`, times the column contents over the row scales; an
    all-zero column gives 0 at once.  Intermediate entries stay integral.
    """
    a, scales, contents = _integer_rows(m)
    if 0 in contents:
        return Fraction(0)
    for pivot in _bareiss(a, swap=True):
        pass
    return Fraction(pivot * math.prod(contents), math.prod(scales))


def leading_minors(m: ExactMatrix) -> list[Fraction]:
    """D_1, ..., D_n: the determinants of the k x k leading submatrices of m.

    One pass of det_exact's elimination without row swaps gives them all:
    pivot k is the (k+1) x (k+1) leading minor of the integer matrix, times
    the first k+1 column contents over the first k+1 row scales.  A zero
    pivot makes that minor 0 and ends the pass; each later minor is then
    det_exact of its own leading submatrix.  The last entry equals det_exact(m).
    """
    a, scales, contents = _integer_rows(m)
    minors = []
    scale = content = 1
    for k, pivot in enumerate(_bareiss(a, swap=False)):
        scale *= scales[k]
        content *= contents[k]
        minors.append(Fraction(pivot * content, scale))
    for k in range(len(minors) + 1, m.dim + 1):
        minors.append(det_exact(ExactMatrix.from_rows([row[:k] for row in m.entries[:k]])))
    return minors


def diag_scale(m: ExactMatrix, alpha: Fraction | int) -> ExactMatrix:
    """Conjugate by diag(alpha, alpha^2, ..., alpha^n).

    The (i, j) entry picks up a factor alpha^(i+j+2) (0-based indices), so the
    determinant of the result is alpha^(n(n+1)) times the original.  For a
    Hankel matrix this rescales the generating sequence h_m into alpha^m h_m.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ParameterError("diagonal scaling requires alpha != 0")
    n = m.dim
    powers = [alpha ** (i + 1) for i in range(n)]
    return ExactMatrix.from_rows(
        [[powers[i] * m[i, j] * powers[j] for j in range(n)] for i in range(n)]
    )
