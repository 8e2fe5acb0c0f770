"""Run one workload in this fresh interpreter and print its records as one JSON line.

run.py starts it once per measurement:

    python3 perfbench/worker.py WORKLOAD SEED (--seconds S | --rounds N) [--spans FILE]

With ``--spans`` the run is traced and the span file is written when it ends.
A wrong answer prints the reason on stderr and exits with code 3.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Every run completes at least this many cases; the printed digest covers them.
MIN_CASES = 10


def _import_czeta() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import czeta

    setup_s = time.perf_counter() - t0
    if Path(czeta.__file__).resolve().parent != SRC / "czeta":
        raise SystemExit(f"imported czeta from {czeta.__file__}, not from {SRC}")
    return setup_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--rounds", type=int)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if not __debug__:
        raise SystemExit("refusing to run under python -O: czeta's internal checks are asserts")

    setup_s = _import_czeta()
    import reference
    import tracing
    import workloads

    setup_ref_s = reference.reference_s(reference.SETUP_TASK)

    pins = json.loads((BENCH / "pinned.json").read_text())[args.workload]
    tracer = None
    if args.spans is not None:
        tracer = tracing.Tracer(args.spans.with_suffix(".child.json")).install()

    records = []
    start = time.perf_counter()
    last_round = None
    for i, case in enumerate(workloads.cases(args.workload, args.seed)):
        if args.rounds is not None and case.round >= args.rounds:
            break
        # whole rounds only, so that every run does the same mix of sizes
        if (args.seconds is not None and i >= MIN_CASES and case.round != last_round
                and time.perf_counter() - start >= args.seconds):
            break
        last_round = case.round
        if tracer is not None:
            tracer.case = i
        try:
            records.append(workloads.run_case(args.workload, case, pins, tracer))
        except workloads.WrongAnswer as exc:
            print(f"wrong answer: {exc}", file=sys.stderr)
            return 3

    prefix = [r["digest"] or r["error"] for r in records[:MIN_CASES]]
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "limit_s": workloads.LIMIT_S[args.workload],
        "records": records,
        "digest": workloads.digest("\n".join(prefix)),
        "peak_rss_kib": resource.getrusage(workloads.RSS_OF[args.workload]).ru_maxrss,
    }
    if tracer is not None:
        walls = [r["wall"] for r in records]
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, walls)
        args.spans.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
