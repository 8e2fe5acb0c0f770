import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from czeta.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_text(capsys):
    code, out, _ = run(capsys, ["zeta", "--L", "0", "--eta", "0", "--kmax", "4"])
    assert code == 0
    assert "1/3" in out and "1/45" in out


def test_zeta_json_round_trips(capsys):
    code, out, _ = run(capsys, ["--format", "json", "zeta", "--L", "0", "--eta", "0", "--kmax", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["zeta"] == {"2": "1/3", "3": "0", "4": "1/45"}
    assert json.loads(json.dumps(payload)) == payload


def test_zeta_csv_same_payload(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "zeta", "--L", "0", "--eta", "1", "--kmax", "5"])
    assert code == 0
    rows = dict(csv.reader(io.StringIO(out)))
    assert rows["results.zeta.2"] == "2/3"
    assert rows["results.zeta.5"] == "4/27"


def test_hankel_det_with_verification(capsys):
    code, out, _ = run(
        capsys,
        ["--format", "json", "hankel-det", "--L", "0", "--eta", "0", "--n", "2", "--verify"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["det"] == "1/135"
    assert payload["results"]["closed"] == "1/135"
    assert payload["results"]["moments"] == "1/135"
    assert payload["verification"]["routes_equal"] is True


def test_hankel_det_verification_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("czeta.cli.det_coulomb_closed", lambda p, n: F(999))
    code, out, _ = run(capsys, ["hankel-det", "--L", "0", "--eta", "0", "--n", "2", "--verify"])
    assert code == 2


def test_rayleigh_det_methods_agree(capsys):
    values = []
    for method in ("direct", "closed", "dj"):
        code, out, _ = run(
            capsys,
            ["--format", "json", "rayleigh-det", "--nu", "5/2", "--ell", "1", "--n", "3", "--method", method],
        )
        assert code == 0
        values.append(json.loads(out)["results"]["det"])
    assert len(set(values)) == 1


def test_rayleigh_det_closed_dispatches_ell_2_3(capsys):
    code, out, _ = run(
        capsys, ["--format", "json", "rayleigh-det", "--nu", "1", "--ell", "2", "--n", "1", "--method", "closed"]
    )
    assert code == 0 and json.loads(out)["results"]["det"] == "1/3072"
    code, _, err = run(
        capsys, ["rayleigh-det", "--nu", "1", "--ell", "4", "--n", "1", "--method", "closed"]
    )
    assert code == 1 and "no closed form" in err


def test_bernoulli_and_genocchi_dets(capsys):
    code, out, _ = run(capsys, ["--format", "json", "bernoulli-det", "--ell", "0", "--n", "1"])
    assert code == 0 and json.loads(out)["results"]["det"] == "1/12"
    code, out, _ = run(capsys, ["--format", "json", "genocchi-det", "--ell", "1", "--n", "1"])
    assert code == 0 and json.loads(out)["results"]["det"] == "1/24"


def test_classify_negative_fraction_flags(capsys):
    code, out, _ = run(capsys, ["--format", "json", "classify", "--L", "-7/4", "--eta", "3/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["pair_count"] == 1
    assert payload["results"]["all_real"] is False
    assert payload["results"]["sign_sequence"][0] == -1


def test_classify_rejects_excluded_set(capsys):
    code, _, err = run(capsys, ["classify", "--L", "-3/2", "--eta", "1"])
    assert code == 1
    assert "excluded set" in err


def test_exact_commands_reject_decimals(capsys):
    code, _, err = run(capsys, ["zeta", "--L", "0.5", "--eta", "0", "--kmax", "3"])
    assert code == 1
    assert "rational" in err


def test_find_zeros_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "--format", "json", "find-zeros", "--L", "-1.75", "--eta", "1.5",
            "--re-min", "-1", "--re-max", "1", "--im-min", "0.05", "--im-max", "1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["counts"]["complex_pairs"] == 1
    (zero,) = payload["results"]["zeros"]
    assert abs(zero["re"] - 0.1500) < 5e-4 and abs(zero["im"] - 0.2520) < 5e-4


def test_find_zeros_requires_full_region(capsys):
    code, _, err = run(capsys, ["find-zeros", "--L", "0", "--eta", "0", "--re-min", "-1"])
    assert code == 1
    assert "all four" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["zeta", "--L", "0", "--kmax", "3"])[0] == 1  # missing --eta
    assert run(capsys, ["no-such-command"])[0] == 1


def test_numeric_failure_reported_cleanly(capsys):
    # region far outside the series' double-precision range
    code, _, err = run(
        capsys,
        ["find-zeros", "--L", "0", "--eta", "0",
         "--re-min", "300", "--re-max", "310", "--im-min", "-1", "--im-max", "1"],
    )
    assert code == 1
    assert "NoConvergence" in err


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, ["verify-all", "--quick"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert "PASS overall" in lines[-1]


def test_verify_all_quick_json(capsys):
    code, out, _ = run(capsys, ["--format", "json", "verify-all", "--quick"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["all_passed"] is True
    names = {fam["name"] for fam in payload["results"]["families"]}
    assert {"coulomb-hankel", "zeros", "hurwitz"} <= names


def test_verify_all_quick_keeps_its_checks_under_python_O():
    # -O strips assert statements; every identity check must be a raise instead
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "czeta.cli", "--format", "json", "verify-all", "--quick"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verification"]["all_passed"] is True


def test_verify_all_failure_exits_2(capsys, monkeypatch):
    from czeta.verify import FamilyResult

    monkeypatch.setattr(
        "czeta.cli.run_verification",
        lambda quick: [FamilyResult("stub", False, 1, "injected failure")],
    )
    code, out, _ = run(capsys, ["verify-all", "--quick"])
    assert code == 2
    assert "FAIL" in out
