"""Tests of the benchmark itself: case lists, statistics, tracing and the correctness gate.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import czeta.errors  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload,size", [("exact-deep", 1872), ("zeros-default", 234)])
def test_seed_fixes_the_case_list_and_no_pair_repeats(workload, size):
    first = workloads.cases(workload, 7)
    assert first == workloads.cases(workload, 7)
    assert first != workloads.cases(workload, 8)
    assert len({(c.L, c.eta) for c in first}) == len(first) == size


def test_p90_needs_100_cases():
    assert "case_s_p90" not in run.summarize([0.1] * 99, [True] * 99, 1.0, [0.01] * 99)
    assert "case_s_p90" in run.summarize([0.1] * 100, [True] * 100, 1.0, [0.01] * 100)


def test_times_at_reference_speed_cancel_the_host_speed():
    walls, refs = [0.1, 0.2, 0.3] * 20, [reference.REF_S] * 60
    base = run.summarize(walls, [True] * 60, 1.0, refs)
    slow = run.summarize([1.5 * w for w in walls], [True] * 60, 1.0, [1.5 * r for r in refs])
    for name in ("case_s_p50_at_ref", "cases_per_s_at_ref"):
        assert slow[name][0] == pytest.approx(base[name][0])
    assert base["case_s_p50_at_ref"][0] == pytest.approx(base["case_s_p50"][0]) == pytest.approx(0.2)
    assert slow["case_s_p50"][0] == pytest.approx(1.5 * base["case_s_p50"][0])


def test_answering_a_failed_case_never_worsens_a_metric():
    rng = random.Random(1)
    limit = 2.0
    for _ in range(300):
        n = rng.choice((20, 120))
        walls = [rng.uniform(0, limit) for _ in range(n)]
        ok = [rng.random() < 0.6 for _ in range(n)]
        refs = [rng.uniform(0.01, 0.02) for _ in range(n)]
        if all(ok):
            continue
        before = run.summarize(walls, ok, limit, refs)
        i = rng.choice([j for j, good in enumerate(ok) if not good])
        ok[i], walls[i] = True, rng.uniform(0, limit)
        after = run.summarize(walls, ok, limit, refs)
        for name in ("case_s_p50", "case_s_p50_at_ref", "case_s_p90"):
            if name in before:
                assert after[name][0] <= before[name][0]
        for name in ("cases_per_s", "cases_per_s_at_ref"):
            assert after[name][0] > before[name][0]


def test_only_a_failure_the_pinned_code_lacks_is_unexpected(monkeypatch):
    def no_convergence(case, tracer):
        raise czeta.errors.NoConvergence("planted")

    monkeypatch.setitem(workloads.COMPUTE, "zeros-default", no_convergence)
    case = workloads.cases("zeros-default", 0)[0]
    for pin, expected in ((None, True), ("0" * 16, False)):
        record = workloads.run_case("zeros-default", case, {case.key: pin})
        assert not record["ok"] and record["error"] == "NoConvergence"
        assert record["expected"] is expected
    assert not workloads.run_case("zeros-default", case, {})["expected"]


def test_self_times_and_uncovered_time_add_up(tmp_path):
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "exact-deep", "3", "--rounds", "1",
         "--spans", str(spans)],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    layers = result["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    walls = sum(r["wall"] for r in result["records"])
    assert self_total + layers["trace.uncovered_s"] == pytest.approx(walls, abs=1e-9)
    assert layers["exact.det_exact.calls"] == len(result["records"]) == len(workloads.EXACT_M)
    assert layers["classify.sign_terms"] > 0
    assert len(json.loads(spans.read_text())["spans"]) > 0


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("out", "__pycache__", "tests")
    shutil.copytree(BENCH, root / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src" / "czeta", root / "src" / "czeta", ignore=skip)
    return root


def _bench(root: Path, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, *extra, "perfbench/run.py", "--workload", "exact-deep",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def _refused(proc: subprocess.CompletedProcess) -> bool:
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def test_planted_wrong_answer_is_refused(tmp_path):
    root = _checkout(tmp_path)
    with open(root / "src" / "czeta" / "hankel.py", "a") as f:
        f.write(
            "\n_closed = det_coulomb_closed\n\n\n"
            "def det_coulomb_closed(params, n):\n    return 2 * _closed(params, n)\n"
        )
    proc = _bench(root)
    assert _refused(proc) and "wrong answer" in proc.stderr


def test_digest_mismatch_is_refused(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "pinned.json"
    pinned = json.loads(path.read_text())
    pinned["exact-deep"] = dict.fromkeys(pinned["exact-deep"], "0" * 16)
    path.write_text(json.dumps(pinned))
    proc = _bench(root)
    assert _refused(proc) and "differs from pinned" in proc.stderr


def test_refuses_without_czeta_sources(tmp_path):
    assert _refused(_bench(_checkout(tmp_path, with_src=False)))


def test_refuses_under_python_O(tmp_path):
    proc = _bench(_checkout(tmp_path), "-O")
    assert _refused(proc) and "python -O" in proc.stderr
