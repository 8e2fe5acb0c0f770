"""The three benchmark workloads: seeded case lists, each case's work, its checks.

A case ends in one of three ways:

- it passes: every check holds and its exact outputs match the pinned digest;
- it fails: czeta raised one of its own error types, left unresolved cells,
  or ran past the workload's per-case limit.  A failure is *expected* when
  the case is pinned as failing at the pinned code (the ``NoConvergence``
  range of ``zeros-default``) and did not run past the limit;
- it gives a wrong answer: two routes disagree, a count differs from
  ``classify``, or an exact digest differs from the pinned one.  The check
  raises ``WrongAnswer`` and the whole run is refused.

Only the calls into czeta are timed; checks and digests run afterwards.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import czeta
import czeta.errors

from reference import reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Charged in place of the wall time of a failed case; BENCHMARK.json repeats them.
# Each is over 3x the slowest passing case seen, so a slow spell of the host
# does not turn a pass into a timeout.
LIMIT_S = {"certify-grid": 20.0, "exact-deep": 5.0, "zeros-default": 5.0}

# The reference task (see reference.py) that slows like each workload's own work.
REFERENCE = {"certify-grid": "interpreted", "exact-deep": "bigint", "zeros-default": "interpreted"}

# A scaled Newton step |phi/phi'| / (1+|z|) above this means a reported zero is not one.
NEWTON_STEP_MAX = 1e-8

ETAS = tuple(Fraction(i, 4) for i in range(13))  # quarter steps over [0, 3]
EXACT_M = range(10, 46)
EXACT_Q = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 3), Fraction(2, 3))
ZEROS_K = range(9)
ZEROS_Q = (Fraction(1, 4), Fraction(3, 4))

CZETA_ERRORS = tuple(
    v
    for v in vars(czeta.errors).values()
    if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == "czeta.errors"
)


class WrongAnswer(Exception):
    """A cross-route check or a pinned digest disagrees: the run must not report."""


class CaseTimeout(BaseException):
    """The case ran past its limit (a BaseException, so czeta cannot swallow it)."""


@dataclass(frozen=True)
class Case:
    key: str
    round: int  # a run stops only between rounds
    L: Fraction = Fraction(0)
    eta: Fraction = Fraction(0)
    n: int = 0
    kmax: int = 0


def exact_sizes(m: int) -> tuple[int, int]:
    """Matrix size n in 10..20 and table length kmax in 50..110 for L = -(m+q).

    Fixed per m, so that every round of every seed does the same amount of work.
    """
    return 10 + (7 * m) % 11, 50 + 5 * ((5 * m) % 13)


def _spread(values: list, mirrored: bool) -> list:
    """The values in van der Corput order, or in its mirror image.

    Every prefix then samples the whole list evenly, so a run that stops after
    any number of rounds measures nearly the same mix of values on every seed.
    """
    order = sorted(range(len(values)), key=lambda i: f"{i:08b}"[::-1])
    if mirrored:
        order = [len(values) - 1 - i for i in order]
    return [values[i] for i in order]


def _rounds(strata: dict, rng: random.Random) -> list:
    """(round, stratum, value): round r takes the r-th value of every stratum.

    The seed picks which half of the strata take the mirrored order, so every
    round holds the same values on every seed, and the order within a round.
    Each value of a stratum is used once, so no (L, eta) pair repeats.
    """
    names = list(strata)
    mirrored = set(rng.sample(names, len(names) // 2))
    orders = {s: _spread(values, s in mirrored) for s, values in strata.items()}
    out = []
    for r in range(max(len(v) for v in orders.values())):
        rng.shuffle(names)
        out.extend((r, s, orders[s][r]) for s in names if r < len(orders[s]))
    return out


def cases(workload: str, seed: int) -> list[Case]:
    """Every case of one run, in order; the run stops at the first round end after its time."""
    if workload == "certify-grid":
        return [Case("verify-all", r) for r in range(10_000)]  # the seed is not used
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-deep":
        combos = [(q, eta) for q in EXACT_Q for eta in ETAS]
        out = []
        for r, m, (q, eta) in _rounds({m: combos for m in EXACT_M}, rng):
            n, kmax = exact_sizes(m)
            L = -(m + q)
            out.append(Case(f"L={L},eta={eta},n={n},kmax={kmax}", r, L, eta, n, kmax))
        return out
    if workload == "zeros-default":
        strata = {-(k + q): list(ETAS) for k in ZEROS_K for q in ZEROS_Q}
        return [Case(f"L={L},eta={eta}", r, L, eta) for r, L, eta in _rounds(strata, rng)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _match_pin(pins: dict, key: str, answer: str) -> str:
    d = digest(answer)
    pinned = pins.get(key)
    if pinned is not None and pinned != d:
        raise WrongAnswer(f"{key}: exact-output digest {d} differs from pinned {pinned}")
    return d


# -- exact-deep ---------------------------------------------------------------


def _compute_exact(case: Case, tracer) -> tuple:
    p = czeta.CoulombParams(case.L, case.eta)
    table = czeta.zeta_table(p, case.kmax)
    direct = czeta.det_exact(czeta.build_coulomb_hankel(p, case.n).matrix)
    closed = czeta.det_coulomb_closed(p, case.n)
    moments = czeta.det_coulomb_via_moments(p, case.n)
    cls = czeta.classify(p)
    return table.values(), direct, closed, moments, cls


def _check_exact(case: Case, raw, pins) -> tuple[bool, str]:
    zetas, direct, closed, moments, cls = raw
    if not direct == closed == moments:
        raise WrongAnswer(f"{case.key}: det_exact, closed product and moment route disagree")
    expected = math.floor(-case.L - Fraction(1, 2))
    if cls.pair_count != expected:
        raise WrongAnswer(f"{case.key}: classify gives {cls.pair_count} pairs, not {expected}")
    fmt = czeta.format_rational
    answer = "\n".join(
        [case.key, *map(fmt, zetas), fmt(direct), ",".join(map(str, cls.sign_sequence))]
    )
    return True, _match_pin(pins, case.key, answer)


# -- zeros-default ------------------------------------------------------------


def _compute_zeros(case: Case, tracer) -> tuple:
    L, eta = float(case.L), float(case.eta)
    pairs = czeta.classify(czeta.CoulombParams(case.L, case.eta)).pair_count
    base = czeta.default_search_region(L)
    # the region find_complex_zeros searches: lower edge just below the axis
    region = czeta.Rect(base.re_min, base.re_max, -0.01, base.im_max)
    winding = czeta.count_zeros_region(L, eta, region)
    report = czeta.find_complex_zeros(L, eta, search=None)
    at_zeros = [(czeta.phi(L, eta, z), czeta.phi_derivative(L, eta, z)) for z in report.zeros]
    return pairs, winding, report, at_zeros


def _check_zeros(case: Case, raw, pins) -> tuple[bool, str]:
    pairs, winding, report, at_zeros = raw
    if report.unresolved:
        return False, "unresolved cells"
    if report.counts["complex_pairs"] != pairs:
        raise WrongAnswer(
            f"{case.key}: find_complex_zeros gives {report.counts['complex_pairs']} "
            f"pairs, classify {pairs}"
        )
    for z, (f, df) in zip(report.zeros, at_zeros):
        step = abs(f / df) / (1 + abs(z)) if df else math.inf
        if not step <= NEWTON_STEP_MAX:
            raise WrongAnswer(f"{case.key}: scaled Newton step {step:.3g} at reported zero {z}")
    c = report.counts
    answer = (
        f"{case.key} classify={pairs} winding={winding} real={c['real']} "
        f"complex_pairs={c['complex_pairs']} imaginary_pairs={c['imaginary_pairs']}"
    )
    return True, _match_pin(pins, case.key, answer)


# -- certify-grid -------------------------------------------------------------


def _compute_certify(case: Case, tracer) -> subprocess.CompletedProcess:
    # a fresh interpreter per case: users pay every cache fill on every run
    argv = [sys.executable, "-m", "czeta.cli"]
    if tracer is not None:
        argv = [sys.executable, str(BENCH / "tracing.py"), str(tracer.child_spans)]
    # on CaseTimeout, run() kills and reaps the child before re-raising
    return subprocess.run(
        [*argv, "--format", "json", "verify-all"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )


def _check_certify(case: Case, proc, pins) -> tuple[bool, str]:
    if proc.returncode == 1:  # the CLI's exit code for a czeta error
        return False, f"exit 1: {proc.stderr.strip()[-200:]}"
    if proc.returncode != 0:
        raise WrongAnswer(f"verify-all exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    payload = json.loads(proc.stdout)
    if payload["verification"]["all_passed"] is not True:
        raise WrongAnswer("verify-all did not report all_passed")
    families = payload["results"]["families"]
    current = family_pins(families)
    for name, pin in pins["families"].items():
        if current.get(name) != pin:
            raise WrongAnswer(f"family {name}: {current.get(name)} differs from pinned {pin}")
    return True, digest(json.dumps(families, sort_keys=True))


def family_pins(families: list[dict]) -> dict:
    """Case count and record digest of each family in verify-all's JSON output."""
    return {
        f["name"]: {"cases": f["cases"], "digest": digest(json.dumps(f, sort_keys=True))}
        for f in families
    }


COMPUTE = {"certify-grid": _compute_certify, "exact-deep": _compute_exact, "zeros-default": _compute_zeros}
CHECK = {"certify-grid": _check_certify, "exact-deep": _check_exact, "zeros-default": _check_zeros}
# whose peak resident memory counts: the process that does the work
RSS_OF = {
    "certify-grid": resource.RUSAGE_CHILDREN,
    "exact-deep": resource.RUSAGE_SELF,
    "zeros-default": resource.RUSAGE_SELF,
}


@contextmanager
def _deadline(seconds: float):
    def fire(signum, frame):
        raise CaseTimeout

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_case(workload: str, case: Case, pins: dict, tracer=None) -> dict:
    """Time one case, check it, and return its record; raises WrongAnswer."""
    limit = LIMIT_S[workload]
    error = None
    ref = reference_s(REFERENCE[workload])  # outside the timed interval
    t0 = time.perf_counter()
    try:
        with _deadline(limit):
            raw = COMPUTE[workload](case, tracer)
    except CZETA_ERRORS as exc:
        error = type(exc).__name__
    except CaseTimeout:
        error = "timeout"
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.collect_child()
    if error is None and wall >= limit:
        error = "timeout"
    ok, detail = (False, error) if error else CHECK[workload](case, raw, pins)
    return {
        "key": case.key,
        "wall": wall,
        "ref": ref,
        "ok": ok,
        "error": None if ok else detail,
        "expected": not ok and error != "timeout" and case.key in pins and pins[case.key] is None,
        "digest": detail if ok else None,
    }
