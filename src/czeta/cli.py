"""Command-line front end.

Exit codes: 0 on success, 1 on usage or parameter errors or when the reader
of stdout closes it early (no traceback), 2 when an identity verification
fails.  Exact commands accept rationals only as "p/q" or integer
strings (decimals would silently round); `find-zeros` takes floats.  Output
goes to stdout as text (default), json, or csv; diagnostics go to stderr, and
so does the DEBUG log of the "czeta" logger under -v (verify-all: one line per
family with its case count and wall time).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys

from .classify import classify
from .errors import ParameterError, VerificationError
from .exact import format_rational, parse_rational
from .hankel import bernoulli_hankel_det, coulomb_routes, genocchi_hankel_det, rayleigh_routes
from .zeta import CoulombParams, zeta_table


def _flatten(obj, prefix=""):
    """Depth-first (key, scalar) pairs with dotted paths; shared by csv and text."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}.{i}")
    else:
        yield prefix, obj


def _render(record: dict, fmt: str) -> str:
    """Render a result envelope: {"command", "parameters", "results"[, "verification"]}."""
    if fmt == "json":
        return json.dumps(record, indent=2)
    rows = list(_flatten(record))
    if fmt == "csv":
        import csv  # only here: the import costs every run about 1 ms

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["field", "value"])
        for key, value in rows:
            writer.writerow([key, json.dumps(value) if isinstance(value, bool) else value])
        return buf.getvalue().rstrip("\n")
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors and accepts -p/q values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -p/q for the exact commands; any float() spelling (-1e3, -inf,
        # -nan) for find-zeros, whose range checks then name the bad value
        self._negative_number_matcher = re.compile(
            r"^-(\d+(/\d+)?|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _complex_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _cmd_zeta(args) -> tuple[dict, int]:
    params = CoulombParams(parse_rational(args.L), parse_rational(args.eta))
    table = zeta_table(params, args.kmax)
    zeta = {str(k): format_rational(value) for k, value in enumerate(table.values(), 2)}
    return {
        "parameters": {"L": str(params.L), "eta": str(params.eta), "kmax": args.kmax},
        "results": {"zeta": zeta},
    }, 0


def _cmd_hankel_det(args) -> tuple[dict, int]:
    params = CoulombParams(parse_rational(args.L), parse_rational(args.eta))
    names = None if args.verify else ("direct",)
    routes = coulomb_routes(params, args.n, names)
    record = {
        "parameters": {"L": str(params.L), "eta": str(params.eta), "n": args.n},
        "results": {"det" if name == "direct" else name: format_rational(dets[-1])
                    for name, dets in routes.items()},
    }
    # the record is printed either way; a disagreement exits 2
    first, *others = (dets[-1] for dets in routes.values())
    equal = all(value == first for value in others)
    if args.verify:
        record["verification"] = {"routes_equal": equal}
    return record, 0 if equal else 2


def _cmd_rayleigh_det(args) -> tuple[dict, int]:
    nu = parse_rational(args.nu)
    route = {"dj": "desnanot-jacobi"}.get(args.method, args.method)
    values = rayleigh_routes(nu, args.ell, args.n, (route,))
    return {
        "parameters": {"nu": str(nu), "ell": args.ell, "n": args.n, "method": args.method},
        "results": {"det": format_rational(values[route][-1])},
    }, 0


def _cmd_factorial_det(args) -> tuple[dict, int]:
    fn = bernoulli_hankel_det if args.subcommand == "bernoulli-det" else genocchi_hankel_det
    value = fn(args.ell, args.n)  # VerificationError -> exit 2 in main()
    return {
        "parameters": {"ell": args.ell, "n": args.n},
        "results": {"det": format_rational(value)},
        "verification": {"closed_form_equal": True},
    }, 0


def _cmd_classify(args) -> tuple[dict, int]:
    params = CoulombParams(parse_rational(args.L), parse_rational(args.eta))
    nmax = args.nmax
    if nmax != "auto":
        try:
            nmax = int(nmax)
        except ValueError:
            raise ParameterError(f"--nmax must be an integer or 'auto', got {args.nmax!r}")
    result = classify(params, nmax)
    return {
        "parameters": {"L": str(params.L), "eta": str(params.eta), "nmax": nmax},
        "results": {
            "pair_count": result.pair_count,
            "all_real": result.all_real,
            "sign_sequence": list(result.sign_sequence),
        },
    }, 0


def _cmd_find_zeros(args) -> tuple[dict, int]:
    # only here, as verify below: the exact commands never load the float layer,
    # whose compile costs a process about 7 ms where bytecode is not cached
    from .numeric import Rect, find_complex_zeros

    bounds = (args.re_min, args.re_max, args.im_min, args.im_max)
    if any(b is not None for b in bounds):
        if any(b is None for b in bounds):
            raise ParameterError("pass all four of --re-min/--re-max/--im-min/--im-max or none")
        search = Rect(*bounds)
    else:
        search = None
    report = find_complex_zeros(args.L, args.eta, search=search, tol=args.tol)
    r = report.region
    region = {"re_min": r.re_min, "re_max": r.re_max, "im_min": r.im_min, "im_max": r.im_max}
    return {
        "parameters": {"L": args.L, "eta": args.eta, "tol": args.tol},
        "results": {
            "region": region,
            "zeros": [_complex_pair(z) for z in report.zeros],
            "residuals": list(report.residuals),
            "counts": dict(report.counts),
            "stats": dict(report.stats),
        },
    }, 0


def _cmd_verify_all(args) -> tuple[dict, int]:
    from .verify import run_verification  # only here: it loads the numeric layer

    results = run_verification(quick=args.quick)
    if args.verbose:
        import logging

        log = logging.getLogger("czeta")
        for r in results:
            log.debug("%s: %d cases in %.3f s", r.name, r.cases, r.seconds)
    families = [
        {"name": r.name, "passed": r.passed, "cases": r.cases, "detail": r.detail}
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    return {
        "parameters": {"quick": args.quick},
        "results": {"families": families},
        "verification": {"all_passed": all_passed},
    }, 0 if all_passed else 2


def _render_verify_text(record: dict) -> str:
    lines = []
    for fam in record["results"]["families"]:
        status = "PASS" if fam["passed"] else "FAIL"
        lines.append(f"{status} {fam['name']} ({fam['cases']} cases): {fam['detail']}")
    total = "PASS" if record["verification"]["all_passed"] else "FAIL"
    lines.append(f"{total} overall")
    return "\n".join(lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="czeta", description=__doc__)
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help='DEBUG log of the "czeta" logger on stderr'
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_parser(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand
        # --format from being clobbered by the subparser default
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS
        )
        p.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS)
        return p

    p = add_parser("zeta", _cmd_zeta, help="spectral zeta table zeta_L(2..kmax)")
    p.add_argument("--L", required=True, help="orbital parameter, rational p/q")
    p.add_argument("--eta", required=True, help="Coulomb strength, rational p/q")
    p.add_argument("--kmax", type=int, required=True)

    p = add_parser("hankel-det", _cmd_hankel_det, help="determinant of the zeta Hankel matrix")
    p.add_argument("--L", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="also evaluate closed and moment routes")

    p = add_parser("rayleigh-det", _cmd_rayleigh_det,
                   help="determinant of the Rayleigh Hankel matrix")
    p.add_argument("--nu", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("direct", "closed", "dj"), default="direct")

    for name in ("bernoulli-det", "genocchi-det"):
        p = add_parser(name, _cmd_factorial_det,
                       help=f"factorially normalized {name.split('-')[0]} Hankel determinant")
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p = add_parser("classify", _cmd_classify,
                   help="count complex-conjugate zero pairs algebraically")
    p.add_argument("--L", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--nmax", default="auto", help="largest index of the sign sequence, or 'auto'")

    p = add_parser("find-zeros", _cmd_find_zeros, help="locate zeros numerically in a rectangle")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--re-min", type=float, default=None)
    p.add_argument("--re-max", type=float, default=None)
    p.add_argument("--im-min", type=float, default=None)
    p.add_argument("--im-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add_parser("verify-all", _cmd_verify_all,
                   help="run the pinned identity grids, report per family")
    p.add_argument("--quick", action="store_true", help="trimmed grid, completes in seconds")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.verbose:
        return _run(args)
    import logging  # only under -v: the import costs about 5 ms, which every run would pay

    log = logging.getLogger("czeta")
    handler = logging.StreamHandler(sys.stderr)
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)


def _run(args) -> int:
    try:
        record, code = args.handler(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # numeric failure (contour through a zero, series out of range)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    record = {"command": args.subcommand, **record}
    if args.subcommand == "verify-all" and args.format == "text":
        print(_render_verify_text(record))
    else:
        print(_render(record, args.format))
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
