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
from typing import Iterable, Sequence

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


def det_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination.

    Each row is scaled to integers by the lcm of its own denominators, and
    each column of the result is divided by the gcd of its integers (its
    content); an all-zero column gives 0 at once.  Integer-exact Bareiss
    pivoting reduces that matrix, and the determinant is its last pivot times
    the column contents over the row scales.  No entry is widened to the
    worst denominator of the whole matrix, and intermediate entries stay
    integral.
    """
    n = m.dim
    a = []
    row_scales = 1
    for row in m.entries:
        scale = math.lcm(*[e.denominator for e in row])
        row_scales *= scale
        a.append([e.numerator * (scale // e.denominator) for e in row])
    contents = 1
    for j in range(n):
        g = math.gcd(*[row[j] for row in a])
        if g == 0:
            return Fraction(0)
        if g != 1:
            contents *= g
            for row in a:
                row[j] //= g

    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Bareiss' identity: prev divides the cross term
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1] * contents, row_scales)


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
