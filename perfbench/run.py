"""czeta benchmark: one workload per call, outputs checked, metrics printed last.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 36 --trace 0

Workloads: certify-grid, exact-deep, zeros-default (see perfbench/README.md).
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a traced
run over a fixed number of rounds (``--seconds`` is not used).  The result
line's ``failed`` counts only the cases that fail where the pinned code
answers; failures pinned in pinned.json count in ``fail_ratio``.  A wrong
answer prints no metrics and exits nonzero.  Results and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from reference import at_ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("certify-grid", "exact-deep", "zeros-default")
SETUP_PROBES = 10  # fresh interpreters timing `import czeta`, besides the worker itself
P90_MIN_CASES = 100  # so that at least ten samples lie beyond the 90th percentile
REF_WINDOW = 5  # reference timings around a case whose median scales its time
# Whole rounds of cases that a traced run measures, fixed so that the per-layer
# totals cover the same cases however fast the code is (about 10 s a pass).
TRACE_ROUNDS = {"certify-grid": 12, "exact-deep": 2, "zeros-default": 4}

# Units of the metrics BENCHMARK.json leaves out of the result line.
EXTRA_UNITS = {"case_s_p50": "s", "case_s_p90": "s", "cases_per_s": "1/s", "fail_ratio": "ratio",
               "reference_s": "s", "setup_wall_s": "s"}

# times `import czeta`, then the reference task, in a fresh interpreter
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); import czeta; "
         "s = time.perf_counter() - t; import reference as r; print(s, r.reference_s(r.SETUP_TASK))")


def summarize(walls: list[float], ok: list[bool], limit: float, refs: list[float]) -> dict:
    """Per-case metrics as {name: (value, samples)}; a failed case is charged the limit.

    A passing case is never slower than the limit, so turning a failure into an
    answer can only lower a percentile and raise a throughput.  The ``_at_ref``
    metrics scale each passing case by the median of the REF_WINDOW reference
    times around it (capped at the limit); a failure stays charged the limit.
    """
    charged = [w if good else limit for w, good in zip(walls, ok)]
    n = len(charged)
    passed = sum(ok)
    half = REF_WINDOW // 2
    local = [statistics.median(refs[max(0, i - half):i + half + 1]) for i in range(n)]
    scaled = [min(at_ref(w, r), limit) if good else limit for w, good, r in zip(walls, ok, local)]
    out = {
        "case_s_p50_at_ref": (statistics.median(scaled), n),
        "cases_per_s_at_ref": (passed / sum(scaled), n),
        "case_s_p50": (statistics.median(charged), n),
        "cases_per_s": (passed / sum(charged), n),
        "fail_ratio": ((n - passed) / n, n),
        "reference_s": (statistics.median(refs), n),
    }
    if n >= P90_MIN_CASES:
        out["case_s_p90"] = (statistics.quantiles(charged, n=10)[8], n)
    return out


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "czeta").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _worker(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_probe() -> tuple[float, float]:
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    setup_s, ref_s = map(float, out.split())
    return setup_s, ref_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: czeta's internal checks are asserts", file=sys.stderr)
        return 2
    if not (SRC / "czeta" / "__init__.py").is_file():
        print(f"no czeta sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer" if args.trace else "end_to_end"]
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    OUT.mkdir(exist_ok=True)
    w, seed = args.workload, str(args.seed)

    if args.trace:
        # the same fixed rounds untraced, then traced: the difference is the overhead
        rounds = str(TRACE_ROUNDS[w])
        plain = _worker(w, seed, "--rounds", rounds)
        spans = OUT / f"{w}-seed{seed}-spans.json"
        result = _worker(w, seed, "--rounds", rounds, "--spans", str(spans))
        plain_wall = sum(r["wall"] for r in plain["records"])
        metrics = {k: (v, len(result["records"])) for k, v in result["layers"].items()}
        metrics["trace.overhead_ratio"] = (metrics["trace.case_wall_s"][0] / plain_wall - 1, len(plain["records"]))
    else:
        # probes before and after the worker, so that the median spans the
        # host's slow and fast spells; the first import writes the bytecode cache
        _setup_probe()
        setup = [_setup_probe() for _ in range(SETUP_PROBES // 2)]
        result = _worker(w, seed, "--seconds", str(args.seconds))
        setup += [(result["setup_s"], result["setup_ref_s"])]
        setup += [_setup_probe() for _ in range(SETUP_PROBES // 2)]
        records = result["records"]
        metrics = summarize([r["wall"] for r in records], [r["ok"] for r in records],
                            result["limit_s"], [r["ref"] for r in records])
        metrics["setup_s"] = (statistics.median(at_ref(s, r) for s, r in setup), len(setup))
        metrics["setup_wall_s"] = (statistics.median(s for s, _ in setup), len(setup))
        metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024, 1)

    records = result["records"]
    # the result line's `failed` counts only failures the pinned code does not
    # have; the pinned ones stay in fail_ratio and are charged the limit
    failed = sum(not r["ok"] and not r["expected"] for r in records)
    stamp = {
        "workload": w,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": TRACE_ROUNDS[w] if args.trace else None,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "digest": result["digest"],
        "failures": dict(Counter(r["error"] for r in records if not r["ok"])),
        "unexpected_failures": failed,
    }
    print(f"czeta benchmark  {' '.join(f'{k}={v}' for k, v in stamp.items())}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]:<6} samples={samples}")
    (OUT / f"{w}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(
        {"stamp": stamp, "metrics": {k: {"value": v, "unit": units[k], "samples": s}
                                     for k, (v, s) in metrics.items()},
         "records": records}, indent=1))
    print(json.dumps({
        "correct": True,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
