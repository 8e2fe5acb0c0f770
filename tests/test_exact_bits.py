"""Bit-level pins of the exact layer's domain behaviour.

Each probe call is recorded as its value's ``repr``, or as the type and message
of the ``czeta`` error it raised, and the records are hashed.  Where the
parameters sit decides which check rejects them and with which message, so a
change that moves or merges domain checks must leave these digests unchanged;
a change that means to alter a value or a message must re-pin them and say why.
"""

import hashlib
import random
from fractions import Fraction as F

from czeta.classify import classify, dd_product_closed
from czeta.errors import ParameterError, VerificationError
from czeta.exact import ExactMatrix, det_exact, leading_minors
from czeta.hankel import (
    coulomb_routes,
    det_coulomb_closed,
    det_coulomb_via_moments,
    det_rayleigh_dj,
    rayleigh_routes,
    recurrence_coeffs,
)
from czeta.zeta import CoulombParams, zeta_base, zeta_table

from oracles import leibniz_det

# L = p/q over every small denominator: integers, half-integers and the rest,
# on and off the excluded set, for the Bessel branch and two eta != 0
LS = [F(p, q) for q in (1, 2, 3, 4, 7) for p in range(-30, 9)]
ETAS = (F(0), F(1, 2), F(-3, 2))
NUS = (F(0), F(1, 2), F(-1, 2), F(1, 3), F(5, 2), F(-3, 2), F(-23, 7), F(-1))


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ParameterError, VerificationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _coulomb_records() -> list[str]:
    calls = [
        ("validate", lambda p: p.validate()),
        ("zeta_base", zeta_base),
        ("zeta_table", lambda p: zeta_table(p, 12).values()),
        ("recurrence_coeffs", lambda p: recurrence_coeffs(p, 6)),
        ("det_coulomb_closed", lambda p: det_coulomb_closed(p, 6)),
        ("det_coulomb_via_moments", lambda p: det_coulomb_via_moments(p, 6)),
        ("coulomb_routes", lambda p: coulomb_routes(p, 5)),
        ("classify", classify),
        ("classify2", lambda p: classify(p, 2)),
        *((f"dd_product_closed{n}", lambda p, n=n: dd_product_closed(p, n)) for n in range(5)),
    ]
    return [
        f"{L} {eta} {name} {_outcome(fn, CoulombParams(L, eta))}"
        for L in LS
        for eta in ETAS
        for name, fn in calls
    ]


def _rayleigh_records() -> list[str]:
    return [
        f"{nu} {ell} {n} {name} {_outcome(fn, nu, ell, n)}"
        for nu in NUS
        for ell in range(-1, 8)
        for n in range(7)
        for name, fn in (("dj", det_rayleigh_dj), ("routes", rayleigh_routes))
    ]


def _fallback_matrices():
    """Seeded n = 7..12 matrices that reach the Bareiss fallback, two of each kind per n.

    Entries of row i (moment i for a Hankel matrix) have denominators near
    10^(3i), so the row scales differ by orders of magnitude.  "zero-minor"
    makes row k-1 start as a combination of the rows above it, and
    "hankel-zero-minor" moves one moment so that D_k = 0 (mu_0 = 0 at k = 1);
    the later minors are nonzero.
    """
    rng = random.Random(1968)

    def entry(i):
        return F(rng.randint(-99, 99), rng.randint(1, 9) * 10 ** (3 * i))

    for n in [n for n in range(7, 13) for _ in range(2)]:
        rows = [[entry(i) for _ in range(n)] for i in range(n)]
        yield n, "non-hankel", rows
        zero = rng.randrange(n)
        yield n, "zero-column", [[F(0) if j == zero else e for j, e in enumerate(row)]
                                 for row in rows]
        k = rng.randint(2, n - 2)
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(k - 1)]
        start = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(k)]
        yield n, "zero-minor", [*rows[:k - 1], start + rows[k - 1][k:], *rows[k:]]
        moments = [entry(i % n) for i in range(2 * n - 1)]
        k = rng.randint(1, 6)
        hankel = [[moments[i + j] for j in range(k)] for i in range(k)]
        below = leibniz_det([row[:-1] for row in hankel[:-1]]) if k > 1 else 1
        moments[2 * k - 2] -= leibniz_det(hankel) / below  # D_k is affine in it, slope D_{k-1}
        yield n, "hankel-zero-minor", [[moments[i + j] for j in range(n)] for i in range(n)]


def _fallback_records() -> list[str]:
    records = []
    for n, kind, rows in _fallback_matrices():
        m = ExactMatrix(rows)
        records.append(f"{n} {kind} {det_exact(m)!r} {leading_minors(m)!r}")
    return records


def _deep_table_pairs():
    """24 exact-deep-sized pairs L = -(m+q) at their own kmax in 50..110, eta = 0
    among them, and (1/3, 1/2) at kmax 200."""
    qs = (F(1, 4), F(3, 4), F(1, 3), F(2, 3))
    for i in range(24):
        m = 10 + (11 * i) % 36
        yield -(m + qs[i % 4]), F(i % 13, 4), 50 + 5 * ((5 * m) % 13)
    yield F(1, 3), F(1, 2), 200


def _deep_table_records() -> list[str]:
    return [
        f"{L} {eta} {kmax} {zeta_table(CoulombParams(L, eta), kmax).values()!r}"
        for L, eta, kmax in _deep_table_pairs()
    ]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_probe_covers_every_rejection():
    records = _coulomb_records()
    assert len(records) >= 6435
    # values, both excluded-set messages and the classifier's own refusals
    for needle in ("Fraction(", "(eta = 0 branch)", "(eta != 0)", " classify SingularParameter: ",
                   "too small"):
        assert any(needle in r for r in records), needle


def test_coulomb_domain_behaviour_is_pinned():
    assert _digest(_coulomb_records()) == (
        "e683166d541d8dd83dd6d53c87ec672f090261d61204a10f9168bf7a37fb4397"
    )


def test_rayleigh_domain_behaviour_is_pinned():
    assert _digest(_rayleigh_records()) == (
        "87ab86bc454de7d317d418f3ad6acebcab3409072ceb2211f42e45890aef4c48"
    )


def test_fallback_probe_covers_zero_columns_and_zero_minors():
    for n, kind, rows in _fallback_matrices():
        minors = leading_minors(ExactMatrix(rows))
        zeros = [k for k, d in enumerate(minors) if d == 0]
        if kind == "non-hankel":
            assert zeros == [], n
        elif kind == "zero-column":
            assert zeros == list(range(zeros[0], n)), n
        else:
            assert len(zeros) == 1 and zeros[0] < n - 1, (n, kind)


def test_bareiss_fallback_is_pinned():
    assert _digest(_fallback_records()) == (
        "fc6a8eccff32d6fc2c8d0941d5f30d0d26bff4477f51d0ac9bbb99734ae2a755"
    )


def test_deep_tables_are_pinned():
    pairs = list(_deep_table_pairs())
    assert sum(eta == 0 for _, eta, _ in pairs) >= 2
    assert {kmax for _, _, kmax in pairs[:-1]} <= set(range(50, 111))
    assert _digest(_deep_table_records()) == (
        "b305c2c562898eaeb09f279c40517c5d573192b103f126aa84b38cf66a8d99fc"
    )
