"""One-shot verification suite: every identity family over a pinned grid.

The grids live in ``verify_grid.json`` next to this module (a versioned data
file, so runs are reproducible); ``quick`` selects the trimmed variant.  The
families are one table, ``_FAMILIES``; the routes they compare come from ``czeta.hankel``
through one route table per run, which evaluates each parameter pair once.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, NamedTuple

from ._record import Frozen
from .classify import classify, hurwitz_counts
from .exact import parse_rational
from .hankel import _factorial_hankel_det, _rayleigh_products, coulomb_routes, rayleigh_routes
from .numeric import _REAL_AXIS_TOL, Rect, find_complex_zeros
from .zeta import CoulombParams


class FamilyResult(Frozen):
    __slots__ = ("name", "passed", "cases", "detail", "seconds")
    _compared = 4  # seconds, the wall time of the family's run, is shown only

    def __init__(self, name: str, passed: bool, cases: int, detail: str, seconds: float = 0.0):
        self._set_fields(name, passed, cases, detail, seconds)


def load_grid(quick: bool = False) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "verify_grid.json"), encoding="utf-8") as f:
        data = json.load(f)
    return data["quick" if quick else "full"]


def _param_grid(cfg) -> list[CoulombParams]:
    return [
        CoulombParams(parse_rational(ls), parse_rational(es))
        for ls in cfg["L"]
        for es in cfg["eta"]
    ]


def _read_routes(evaluated: dict, route_set, *pair, nmax: int) -> dict[str, list[Fraction]]:
    """The first nmax values of each route of `route_set` at `pair`; every route is
    evaluated once, at the largest nmax asked so far, since its n-th value does not
    depend on nmax.  `evaluated` is one run's route table."""
    key = (route_set, *pair)
    if key not in evaluated or len(evaluated[key]["direct"]) < nmax:
        evaluated[key] = route_set(*pair, nmax)
    return {name: dets[:nmax] for name, dets in evaluated[key].items()}


# Each runner takes its grid section and the run's route table, and yields (inputs,
# ok) once per case; what it returns fills the placeholders of its family's pass detail.


def _run_coulomb_hankel(cfg, table):
    for params in _param_grid(cfg):
        routes = table(coulomb_routes, params, nmax=cfg["n_max"])
        # compared with ==: hashing a big Fraction costs a modular inverse of its denominator
        for n, (first, *others) in enumerate(zip(*routes.values()), 1):
            yield (params.L, params.eta, n), all(value == first for value in others)


def _run_rayleigh(cfg, table, route, ells):
    """The named Rayleigh route against the direct determinant, over the nu grid."""
    for ns in cfg["nu"]:
        nu = parse_rational(ns)
        for ell in ells:
            routes = table(rayleigh_routes, nu, ell, nmax=cfg["n_max"])
            for n, (direct, value) in enumerate(zip(routes["direct"], routes[route]), 1):
                yield (nu, ell, n), value == direct


def _run_rayleigh_ell23(cfg, table):
    yield from _run_rayleigh(cfg, table, "closed", (2, 3))
    # witness: the ell in {0,1} product evaluated blindly at ell = 2 must fail
    blind = _rayleigh_products(Fraction(1), 2, 1)[-1]
    direct = table(rayleigh_routes, Fraction(1), 2, nmax=1)["direct"][0]
    yield ("blind ell = 2", blind, direct), blind != direct
    return {"blind": blind, "direct": direct}


def _run_bernoulli_genocchi(cfg, _table):
    for ell in (0, 1):
        # one leading-minor pass per g; a closed-form mismatch at any n raises VerificationError
        dets = [_factorial_hankel_det(g, ell, cfg["n_max"]) for g in (0, 1)]
        for n, values in enumerate(zip(*dets), 1):
            for label, value in zip(("bernoulli", "genocchi"), values):
                yield (label, ell, n, value), abs(value.numerator) == 1


def _run_sign_products(cfg, table):
    for params in _param_grid(cfg):
        # both routes with det H_0 = 1 in front, so D_{n-1} D_n = dets[n] * dets[n + 1]
        routes = table(coulomb_routes, params, nmax=cfg["n_max"] + 1)
        direct, closed = ([Fraction(1), *routes[name]] for name in ("direct", "closed"))
        # each closed D_{n-1} D_n against the direct one, and its sign against classify's
        for n, sign in enumerate(classify(params, cfg["n_max"]).sign_sequence):
            product = closed[n] * closed[n + 1]
            ok = product == direct[n] * direct[n + 1] and (product > 0) == (sign > 0)
            yield (params.L, params.eta, n), ok


def _run_classification(cfg, _table):
    for ls in cfg["all_real"]["L"]:
        for es in cfg["all_real"]["eta"]:
            result = classify(CoulombParams(parse_rational(ls), parse_rational(es)))
            yield (ls, es, result.pair_count), result.pair_count == 0 and result.all_real
    for case in cfg["complex_pairs"]:
        result = classify(CoulombParams(parse_rational(case["L"]), parse_rational(case["eta"])))
        ok = result.pair_count == case["pairs"] and not result.all_real
        yield (case["L"], case["eta"], result.pair_count), ok


def _match_expected_zeros(report, expected, tol) -> bool:
    """True when the found upper-half-plane zeros and the expected ones pair off
    one to one, each pair within tol in both coordinates (augmenting paths)."""
    found = [z for z in report.zeros if z.imag > _REAL_AXIS_TOL]
    if len(found) != len(expected):
        return False
    near = [
        [i for i, z in enumerate(found) if abs(z.real - ere) <= tol and abs(z.imag - eim) <= tol]
        for ere, eim in expected
    ]
    owner: dict[int, int] = {}  # found index -> the expected zero it is matched to

    def claim(e: int, seen: set) -> bool:
        for i in near[e]:
            if i not in seen:
                seen.add(i)
                if i not in owner or claim(owner[i], seen):
                    owner[i] = e
                    return True
        return False

    return all(claim(e, set()) for e in range(len(expected)))


def _run_zeros(cfg, _table):
    for case in cfg["cases"]:
        report = find_complex_zeros(case["L"], case["eta"], search=Rect(*case["region"]))
        ok = _match_expected_zeros(report, case["expected"], cfg["tol_abs"])
        yield (case["L"], [(z.real, z.imag) for z in report.zeros]), ok
    return {"tol": cfg["tol_abs"]}


def _run_hurwitz(cfg, _table):
    for case in cfg["cases"]:
        nu = Fraction(case["nu"])
        counts = hurwitz_counts(nu)
        L = float(nu) - 0.5
        report = find_complex_zeros(L, 0.0)
        pairs_ok = report.counts["complex_pairs"] == case["pairs"] == counts.complex_zeros // 2
        imag_ok = report.counts["imaginary_pairs"] == case.get("imaginary_pairs", 0)
        real_ok = True
        if case.get("real_at_pi_multiples"):
            reals = [z for z in report.zeros if abs(z.imag) <= _REAL_AXIS_TOL]
            real_ok = bool(reals) and all(
                abs(z.real - round(z.real / math.pi) * math.pi) <= cfg["real_zero_tol"]
                and round(z.real / math.pi) != 0
                for z in reals
            )
        yield (case["nu"], report.counts), pairs_ok and imag_ok and real_ok


def _tally(checks) -> tuple[int, list, dict]:
    """(cases, bad inputs, pass-detail fields) of one runner's checks."""
    cases, bad = 0, []
    while True:
        try:
            inputs, ok = next(checks)
        except StopIteration as done:
            return cases, bad, done.value or {}
        cases += 1
        if not ok:
            bad.append(inputs)


class _Family(NamedTuple):
    name: str
    key: str  # section of verify_grid.json
    run: Callable[[dict, Callable], Iterator[tuple[tuple, bool]]]
    passed: str  # detail when no input is bad, formatted with the runner's fields
    failed: str = "mismatches at {bad}"  # detail otherwise, with the first `shown` bad inputs
    shown: int = 3


_FAMILIES = (
    _Family("coulomb-hankel", "coulomb_hankel", _run_coulomb_hankel,
            "direct = closed product = moment route, exactly"),
    _Family("rayleigh-closed", "rayleigh_closed",
            lambda cfg, table: _run_rayleigh(cfg, table, "closed", (0, 1)),
            "closed form matches direct determinants for ell in {{0,1}}"),
    _Family("rayleigh-ell23", "rayleigh_ell23", _run_rayleigh_ell23,
            "ell = 2, 3 closed forms hold; blind ell = 2 use of the {{0,1}} form "
            "differs as expected ({blind} vs {direct})"),
    _Family("desnanot-jacobi", "desnanot_jacobi",
            lambda cfg, table: _run_rayleigh(cfg, table, "desnanot-jacobi",
                                             range(cfg["ell_max"] + 1)),
            "recursion route equals direct determinants"),
    _Family("bernoulli-genocchi", "bernoulli_genocchi", _run_bernoulli_genocchi,
            "closed forms hold and every value is a reciprocal integer", "non-reciprocal values {bad}"),
    _Family("sign-products", "sign_products", _run_sign_products,
            "closed D-products equal determinant products; signs follow 2L+2n+3"),
    _Family("classification", "classification", _run_classification,
            "pair counts match the floor(-L-1/2) law", "wrong counts at {bad}"),
    _Family("zeros", "zeros", _run_zeros,
            "all listed non-real zeros recovered within {tol:g}", "unmatched zero sets {bad}", 2),
    _Family("hurwitz", "hurwitz", _run_hurwitz,
            "numeric pair counts and axis flags match the order trichotomy", shown=2),
)


def run_verification(quick: bool = False) -> list[FamilyResult]:
    grid = load_grid(quick)
    table = partial(_read_routes, {})  # one evaluation per parameter pair and route set
    results = []
    for family in _FAMILIES:
        start = time.perf_counter()
        try:
            cases, bad, fields = _tally(family.run(grid[family.key], table))
        except Exception as exc:  # a raised check is a failure, not a crash
            passed, cases, detail = False, 0, f"{type(exc).__name__}: {exc}"
        else:
            passed = not bad
            detail = (family.failed.format(bad=bad[: family.shown]) if bad
                      else family.passed.format(**fields))
        results.append(FamilyResult(family.name, passed, cases, detail, time.perf_counter() - start))
    return results
