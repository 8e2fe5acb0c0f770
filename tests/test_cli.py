import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from czeta.cli import main
from czeta.exact import format_rational
from czeta.hankel import bernoulli_hankel_det, genocchi_hankel_det


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
    monkeypatch.setattr("czeta.hankel._coulomb_closed", lambda p, nmax: [F(999)] * nmax)
    code, out, _ = run(capsys, ["hankel-det", "--L", "0", "--eta", "0", "--n", "2", "--verify"])
    assert code == 2


def test_hankel_det_compares_the_routes_last_entries(capsys, monkeypatch):
    # the command prints what it compares: a moment route off at n = 1 only
    # still agrees at n = 2, and one off at n = 2 prints its record and exits 2
    import czeta.hankel

    real_moments = czeta.hankel._coulomb_moments
    argv = ["--format", "json", "hankel-det", "--L", "0", "--eta", "0", "--n", "2", "--verify"]
    for wrong, code_wanted in ((0, 0), (1, 2)):
        def moments(params, nmax, wrong=wrong):
            dets = real_moments(params, nmax)
            dets[wrong] *= 2
            return dets

        monkeypatch.setattr(czeta.hankel, "_coulomb_moments", moments)
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        assert code == code_wanted and payload["verification"]["routes_equal"] is (code == 0)
        assert payload["results"] == {"det": "1/135", "closed": "1/135",
                                      "moments": "2/135" if wrong else "1/135"}


def test_one_closed_product_reaches_api_cli_and_verify_all(capsys, monkeypatch):
    # every consumer of the Coulomb family evaluates the routes defined in czeta.hankel
    from czeta import CoulombParams, coulomb_routes

    monkeypatch.setattr("czeta.hankel._coulomb_closed", lambda p, nmax: [F(999)] * nmax)
    routes = coulomb_routes(CoulombParams(0, 0), 2)
    assert routes["closed"] == [999, 999] and routes["direct"][-1] == F(1, 135)
    code, out, _ = run(
        capsys, ["--format", "json", "hankel-det", "--L", "0", "--eta", "0", "--n", "2", "--verify"]
    )
    assert code == 2 and json.loads(out)["results"]["closed"] == "999"
    code, out, _ = run(capsys, ["verify-all", "--quick"])
    assert code == 2
    assert "FAIL coulomb-hankel (30 cases): mismatches at" in out
    assert "PASS rayleigh-closed" in out


def test_one_factorial_closed_form_reaches_api_cli_and_verify_all(capsys, monkeypatch):
    # the Genocchi closed form is the Rayleigh product at nu = -1/2; a wrong
    # product there must reach every consumer of the factorial family
    import czeta.hankel
    from czeta.errors import VerificationError
    from czeta.hankel import genocchi_hankel_det

    products = czeta.hankel._rayleigh_products

    def perturbed(nu, ell, nmax):
        values = products(nu, ell, nmax)
        if nu == F(-1, 2) and nmax >= 2:
            values[1] *= 2
        return values

    monkeypatch.setattr(czeta.hankel, "_rayleigh_products", perturbed)
    with pytest.raises(VerificationError, match=r"Genocchi Hankel determinant \(ell=0, n=2\)"):
        genocchi_hankel_det(0, 2)
    code, _, _ = run(capsys, ["genocchi-det", "--ell", "0", "--n", "2"])
    assert code == 2
    code, out, _ = run(capsys, ["verify-all", "--quick"])
    assert code == 2
    assert "FAIL bernoulli-genocchi" in out and "(ell=0, n=2)" in out
    assert "PASS rayleigh-closed" in out and "PASS desnanot-jacobi" in out


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
    # past the paper's ell in {0, 1}: the value each API call checks
    for command, fn in (("bernoulli-det", bernoulli_hankel_det),
                        ("genocchi-det", genocchi_hankel_det)):
        for ell in (2, 3):
            code, out, _ = run(capsys, ["--format", "json", command, "--ell", str(ell), "--n", "3"])
            record = json.loads(out)
            assert code == 0 and record["results"]["det"] == format_rational(fn(ell, 3))
            assert record["verification"] == {"closed_form_equal": True}


def test_classify_negative_fraction_flags(capsys):
    code, out, _ = run(capsys, ["--format", "json", "classify", "--L", "-7/4", "--eta", "3/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["pair_count"] == 1
    assert payload["results"]["all_real"] is False
    assert payload["results"]["sign_sequence"][0] == -1
    assert payload["parameters"]["nmax"] == "auto"


def test_classify_echoes_the_nmax_it_used(capsys):
    code, out, _ = run(capsys, ["--format", "json", "classify", "--L", "-7/4", "--eta", "3/2",
                                "--nmax", "007"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["nmax"] == 7
    assert len(payload["results"]["sign_sequence"]) == 8


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
    assert set(payload["results"]) == {"region", "zeros", "residuals", "counts", "stats"}
    assert payload["results"]["counts"]["complex_pairs"] == 1
    (zero,) = payload["results"]["zeros"]
    assert abs(zero["re"] - 0.1500) < 5e-4 and abs(zero["im"] - 0.2520) < 5e-4
    stats = payload["results"]["stats"]
    assert set(stats) == {
        "series_evals", "contour_steps", "newton_starts", "newton_steps",
        "nudge_retries", "jacobi_n", "ql_sweeps",
    }
    assert stats["series_evals"] > 0 and stats["newton_starts"] >= 1
    assert stats["jacobi_n"] > 0 and stats["ql_sweeps"] > 0


def test_find_zeros_requires_full_region(capsys):
    code, _, err = run(capsys, ["find-zeros", "--L", "0", "--eta", "0", "--re-min", "-1"])
    assert code == 1
    assert "all four" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--L", "0", "--eta", "0", "--re-min", "1", "--re-max", "-1", "--im-min", "0", "--im-max", "1"],
        ["--L", "0", "--eta", "0", "--re-min", "-1", "--re-max", "inf", "--im-min", "0", "--im-max", "1"],
        ["--L", "0", "--eta", "0", "--re-min", "nan", "--re-max", "1", "--im-min", "0", "--im-max", "1"],
        ["--L", "nan", "--eta", "0"],
        ["--L", "inf", "--eta", "0"],
        ["--L", "1e308", "--eta", "0"],
        ["--L", "0", "--eta", "nan"],
        ["--L", "0", "--eta", "inf"],
        ["--L", "0", "--eta", "0", "--tol", "nan"],
        ["--L", "0", "--eta", "0", "--tol", "inf"],
        ["--L", "0", "--eta", "0", "--tol", "0"],
        ["--L", "0", "--eta", "0", "--re-min", "-inf", "--re-max", "1", "--im-min", "0", "--im-max", "1"],
        ["--L", "0", "--eta", "0", "--re-min", "-1", "--re-max", "1", "--im-min", "-nan", "--im-max", "1"],
        ["--L", "-inf", "--eta", "0"],
        ["--L", "0", "--eta", "-Infinity"],
        ["--L", "0", "--eta", "0", "--tol", "-1e-3"],
    ],
)
def test_find_zeros_rejects_bad_input_as_parameter_error(capsys, argv):
    code, _, err = run(capsys, ["find-zeros", *argv])
    assert code == 1
    assert err.startswith("parameter error:"), err


@pytest.mark.parametrize(
    "flag,value,field",
    [("--re-min", "-inf", "re_min=-inf"), ("--im-min", "-nan", "im_min=nan"),
     ("--re-max", "-1e400", "re_max=-inf")],
)
def test_find_zeros_names_a_non_finite_negative_bound(capsys, flag, value, field):
    bounds = {"--re-min": "-1", "--re-max": "1", "--im-min": "0.05", "--im-max": "1"}
    bounds[flag] = value
    argv = ["find-zeros", "--L", "-1.75", "--eta", "1.5", *sum(bounds.items(), ())]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("parameter error:") and field in err, err


def test_find_zeros_takes_negative_exponents_and_decimals(capsys):
    code, out, _ = run(
        capsys,
        [
            "--format", "json", "find-zeros", "--L", "-175e-2", "--eta", "1.5",
            "--re-min", "-1e0", "--re-max", "1E0", "--im-min", "5e-2", "--im-max", "1.",
            "--tol", "1e-12",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["L"] == -1.75
    assert payload["results"]["region"]["re_min"] == -1.0
    assert payload["results"]["counts"]["complex_pairs"] == 1


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["zeta", "--L", "0", "--kmax", "3"])[0] == 1  # missing --eta
    assert run(capsys, ["no-such-command"])[0] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        # the library's own size checks, with its messages
        (["zeta", "--L", "0", "--eta", "0", "--kmax", "1"], "kmax must be >= 2, got 1"),
        (["hankel-det", "--L", "0", "--eta", "0", "--n", "0"], "n must be >= 1, got 0"),
        (["rayleigh-det", "--nu", "1", "--ell", "0", "--n", "0"], "n must be >= 1, got 0"),
        (["bernoulli-det", "--ell", "0", "--n", "0"], "n must be >= 1, got 0"),
        (["genocchi-det", "--ell", "0", "--n", "0"], "n must be >= 1, got 0"),
        (["rayleigh-det", "--nu", "1", "--ell", "-1", "--n", "1"], "ell must be >= 0, got -1"),
        # the one check the CLI keeps: --nmax must parse
        (["classify", "--L", "0", "--eta", "1", "--nmax", "x"],
         "--nmax must be an integer or 'auto', got 'x'"),
        (["classify", "--L", "-19/4", "--eta", "3/2", "--nmax", "2"],
         "nmax = 2 too small: sign sequence still negative at its end"),
        # the pole is checked before the size
        (["rayleigh-det", "--nu", "-1", "--ell", "0", "--n", "0"], "nu = -1 on excluded set -N"),
        (["bernoulli-det", "--ell", "-1", "--n", "1"], "ell must be >= 0, got -1"),
        (["genocchi-det", "--ell", "-1", "--n", "1"], "ell must be >= 0, got -1"),
        # the closed route's refusal: its table covers ell = 0..3
        (["bernoulli-det", "--ell", "4", "--n", "1"],
         "no closed form for ell = 4; the closed route covers ell = 0..3"),
        (["genocchi-det", "--ell", "4", "--n", "1"],
         "no closed form for ell = 4; the closed route covers ell = 0..3"),
    ],
)
def test_flag_checks_exit_1_naming_the_flag(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"parameter error: {message}\n"


def test_list_results_flatten_to_indexed_fields(capsys):
    argv = ["classify", "--L", "-7/4", "--eta", "3/2"]
    code, out, _ = run(capsys, ["--format", "csv", *argv])
    assert code == 0
    rows = dict(csv.reader(io.StringIO(out)))
    assert rows["results.sign_sequence.0"] == "-1"
    assert [rows[f"results.sign_sequence.{i}"] for i in range(5)] == ["-1", "1", "1", "1", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    fields = dict(line.split(None, 1) for line in out.splitlines())
    assert fields["results.sign_sequence.0"] == "-1" and fields["results.sign_sequence.4"] == "1"


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
        "czeta.verify.run_verification",  # the command imports it when it runs
        lambda quick: [FamilyResult("stub", False, 1, "injected failure")],
    )
    code, out, _ = run(capsys, ["verify-all", "--quick"])
    assert code == 2
    assert "FAIL" in out


# every family record of `verify-all --quick`, pinned; the full grid is pinned below
QUICK_FAMILIES = [
    ("coulomb-hankel", True, 30, "direct = closed product = moment route, exactly"),
    ("rayleigh-closed", True, 16, "closed form matches direct determinants for ell in {0,1}"),
    ("rayleigh-ell23", True, 13, "ell = 2, 3 closed forms hold; blind ell = 2 use of the {0,1} "
     "form differs as expected (1/18432 vs 1/3072)"),
    ("desnanot-jacobi", True, 30, "recursion route equals direct determinants"),
    ("bernoulli-genocchi", True, 16, "closed forms hold and every value is a reciprocal integer"),
    ("sign-products", True, 30,
     "closed D-products equal determinant products; signs follow 2L+2n+3"),
    ("classification", True, 5, "pair counts match the floor(-L-1/2) law"),
    ("zeros", True, 1, "all listed non-real zeros recovered within 0.0005"),
    ("hurwitz", True, 2, "numeric pair counts and axis flags match the order trichotomy"),
]


def test_verify_all_quick_json_records_are_pinned(capsys):
    code, out, _ = run(capsys, ["--format", "json", "verify-all", "--quick"])
    assert code == 0
    families = json.loads(out)["results"]["families"]
    assert [(f["name"], f["passed"], f["cases"], f["detail"]) for f in families] == QUICK_FAMILIES


FULL_FAMILIES = [
    ("coulomb-hankel", True, 192, "direct = closed product = moment route, exactly"),
    ("rayleigh-closed", True, 48, "closed form matches direct determinants for ell in {0,1}"),
    ("rayleigh-ell23", True, 33, "ell = 2, 3 closed forms hold; blind ell = 2 use of the {0,1} "
     "form differs as expected (1/18432 vs 1/3072)"),
    ("desnanot-jacobi", True, 112, "recursion route equals direct determinants"),
    ("bernoulli-genocchi", True, 24, "closed forms hold and every value is a reciprocal integer"),
    ("sign-products", True, 144,
     "closed D-products equal determinant products; signs follow 2L+2n+3"),
    ("classification", True, 11, "pair counts match the floor(-L-1/2) law"),
    ("zeros", True, 3, "all listed non-real zeros recovered within 0.0005"),
    ("hurwitz", True, 3, "numeric pair counts and axis flags match the order trichotomy"),
]


def test_verify_all_full_json_records_are_pinned(capsys):
    code, out, _ = run(capsys, ["--format", "json", "verify-all"])
    assert code == 0
    families = json.loads(out)["results"]["families"]
    assert [(f["name"], f["passed"], f["cases"], f["detail"]) for f in families] == FULL_FAMILIES


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verbose_logs_family_timings_to_stderr_only(capsys, fmt):
    code, quiet_out, quiet_err = run(capsys, ["--format", fmt, "verify-all", "--quick"])
    assert code == 0 and quiet_err == ""
    code, out, err = run(capsys, ["--format", fmt, "-v", "verify-all", "--quick"])
    assert code == 0 and out == quiet_out
    lines = err.splitlines()
    assert len(lines) == len(QUICK_FAMILIES)
    for line, (name, _, cases, _) in zip(lines, QUICK_FAMILIES):
        assert re.fullmatch(rf"{name}: {cases} cases in \d+\.\d{{3}} s", line)
    # accepted after the subcommand too
    code, out, err = run(capsys, ["--format", fmt, "verify-all", "--quick", "-v"])
    assert out == quiet_out and len(err.splitlines()) == len(QUICK_FAMILIES)


def test_logging_is_imported_only_under_verbose():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys; from czeta.cli import main; main(sys.argv[1:]); "
        "print('logging' in sys.modules, file=sys.stderr)"
    )
    for flags, imported in (([], "False"), (["-v"], "True")):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *flags, "zeta", "--L", "0", "--eta", "0", "--kmax", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr.strip() == imported


def test_a_reader_closing_stdout_early_gets_exit_1_without_a_traceback():
    # as in `czeta ... | head -c 100`: the output is far larger than a pipe holds
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["--format", "json", "zeta", "--L", "1/3", "--eta", "1/2", "--kmax", "300"]
    proc = subprocess.Popen([sys.executable, "-m", "czeta.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16) == b'{\n  "command": "'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_the_readme_command_lines_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("czeta ")]
    assert len(lines) >= 9
    for argv in lines:
        code, _, err = run(capsys, argv[1:])
        assert code == 0, (argv, err)
