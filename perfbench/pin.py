"""Recompute pinned.json: the exact-output digest of every case a seed can draw.

    python3 perfbench/pin.py [WORKLOAD ...]

Run it only when czeta's outputs are meant to change; a pinned digest that a
run does not reproduce is a wrong answer.  Failed cases are pinned as null.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def pins_for(workload: str) -> dict:
    if workload == "certify-grid":
        proc = workloads.COMPUTE[workload](workloads.Case("verify-all", 0), None)
        return {"families": workloads.family_pins(json.loads(proc.stdout)["results"]["families"])}
    # any one seed's list holds the whole space of the workload
    return {c.key: workloads.run_case(workload, c, {})["digest"] for c in workloads.cases(workload, 0)}


def main(names: list[str]) -> None:
    path = BENCH / "pinned.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(workloads.COMPUTE):
        pinned[name] = pins_for(name)
        path.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
