"""End-to-end behaviour of the command-line front end."""

import json
import subprocess
import sys

import pytest

from qko import cli
from qko.cli import _kgroup_report, main, parse_character, render_json, UsageError
from qko.groups import GroupParams, VirtualCharacter, delta_power, theta
from qko.ktheory import ksp_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chartable_text(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--ell", "8")
    assert code == 0
    assert "gamma1" in out
    assert out.count("\n") > 5


def test_chartable_json_class_counts(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--ell", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "qko/1"
    assert len(report["results"]["classes"]) == 5
    assert [c["size"] for c in report["results"]["classes"]] == [1, 1, 2, 2, 2]
    code, out, _ = run_cli(capsys, "chartable", "--ell", "16", "--format", "json")
    report = json.loads(out)
    assert len(report["results"]["classes"]) == 7
    assert len(report["results"]["irreducibles"]) == 7


def test_chartable_invalid_order(capsys):
    code, _, err = run_cli(capsys, "chartable", "--ell", "12")
    assert code == 2
    assert "power of two" in err


def test_ksp_json(capsys):
    code, out, _ = run_cli(capsys, "ksp", "--ell", "8", "--nu", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["group"]["invariant_factors"] == [4, 4, 8]
    assert report["results"]["group"]["order"] == "128"
    assert report["results"]["ahss_bound"] == "128"
    assert report["results"]["matrix_a"]["entries"] == [["1/1", "1/2"], ["1/2", "1/1"]]
    assert report["results"]["matrix_b"]["entries"] == [["7/4"]]
    assert all(check["passed"] for check in report["checks"])


def test_failing_kgroup_row_reports_expected_and_got():
    report = ksp_group(2, GroupParams(8))._replace(ahss_bound=7)
    json_report, text, code = _kgroup_report(report, "ksp", {"ell": 8, "nu": 2})
    assert code == 1
    row = json_report["checks"][0]
    assert row == {"name": "ksp/order-vs-bound", "passed": False,
                   "expected": "7", "actual": str(report.order)}
    assert f"FAIL ksp/order-vs-bound: expected 7, got {report.order}\n" in text


@pytest.mark.parametrize("argv, name", [
    (("ksp", "--ell", "8", "--nu", "2"), "ksp_group"),
    (("ko", "--ell", "8", "--k", "1"), "ko_group"),
])
def test_failing_kgroup_row_sets_exit_code(capsys, monkeypatch, argv, name):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: real(*args)._replace(ahss_bound=7))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert f"FAIL {argv[0]}/order-vs-bound: expected 7, got 128\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert not json.loads(out)["checks"][0]["passed"]


def test_ko_json(capsys):
    code, out, _ = run_cli(capsys, "ko", "--ell", "8", "--k", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["group"]["invariant_factors"] == [4, 4, 8]
    code, out, _ = run_cli(capsys, "ko", "--ell", "16", "--k", "2", "--format", "json")
    report = json.loads(out)
    assert report["results"]["order"] == "4096"


def test_eta_command(capsys):
    code, out, _ = run_cli(capsys, "eta", "--ell", "8", "--nu", "2",
                           "--sigma", "Delta^2", "--bundle", "Delta^1",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    # c_1 = 2 exactly, which is 0 mod 2Z
    assert report["results"]["exact"] == "2/1"
    assert report["results"]["mod_2Z"] == "0/1"


def test_eta_zero_pairing(capsys):
    code, out, _ = run_cli(capsys, "eta", "--ell", "8", "--nu", "2",
                           "--sigma", "Theta1", "--bundle", "Delta^3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["exact"] == "0/1"


def test_eta_subgroup(capsys):
    code, out, _ = run_cli(capsys, "eta", "--ell", "8", "--nu", "2",
                           "--sigma", "Theta1", "--subgroup", "I", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["exact"] == "1/4"


def test_eta_rejects_nonzero_dimension(capsys):
    code, _, err = run_cli(capsys, "eta", "--ell", "8", "--nu", "2", "--sigma", "rho0")
    assert code == 2
    assert "dimension" in err


def test_eta_rejects_garbage_expression(capsys):
    code, _, err = run_cli(capsys, "eta", "--ell", "8", "--nu", "2", "--sigma", "Delta^^2")
    assert code == 2


def test_expression_parser():
    p = GroupParams(16)
    assert parse_character(p, "Theta1") == theta(1, p)
    assert parse_character(p, "2*Theta1 - Theta2") == 2 * theta(1, p) - theta(2, p)
    assert parse_character(p, "Delta") == delta_power(1, p)
    assert parse_character(p, "Delta^3") == delta_power(3, p)
    assert parse_character(p, "kappa1 + gamma_2") == \
        VirtualCharacter(p, {"kappa1": 1, "gamma2": 1})
    assert parse_character(p, "gamma3") == VirtualCharacter.irreducible(p, "gamma3")
    assert parse_character(p, "3 rho0 - 3rho0").dimension == 0
    with pytest.raises(UsageError):
        parse_character(p, "")
    with pytest.raises(UsageError):
        parse_character(p, "Theta3")
    with pytest.raises(UsageError):
        parse_character(p, "gamma_9")  # out of range for ell = 16
    with pytest.raises(UsageError):
        parse_character(p, "Delta^0")


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "8", "--max-nu", "2",
                           "--max-k", "1")
    assert code == 0
    assert "FAIL" not in out
    assert "ksp/order/ell8/nu2: 128 == 128" in out


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "8", "--max-nu", "2",
                           "--max-k", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    summary = report["results"]["summary"]
    assert summary["failed"] == 0
    assert summary["total"] == summary["passed"] == len(report["checks"])
    assert render_json(report) == out


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    from qko import cli
    from qko.verify import Check

    def fake(ells, max_nu, max_k):
        return [Check("stub/ok", True, "1", "1"), Check("stub/bad", False, "1", "2")]

    monkeypatch.setattr(cli, "run_verification", fake)
    code, out, _ = run_cli(capsys, "verify", "--ell", "8")
    assert code == 1
    assert "FAIL stub/bad" in out
    assert "1/2 checks passed" in out


def test_verify_empty_ell_list(capsys):
    code, _, err = run_cli(capsys, "verify", "--ell", "")
    assert code == 2


def test_verify_bad_ell(capsys):
    code, _, _ = run_cli(capsys, "verify", "--ell", "8,12")
    assert code == 2


def test_verify_rejects_a_repeated_order(capsys, monkeypatch):
    from qko import cli

    def no_work(*args, **kwargs):
        raise AssertionError("verification started on a repeated order")

    monkeypatch.setattr(cli, "run_verification", no_work)
    for ell_list in ("8,8,8", "8,16,8"):
        code, out, err = run_cli(capsys, "verify", "--ell", ell_list)
        assert code == 2 and out == ""
        assert "order 8 more than once" in err


def test_json_round_trip_is_byte_identical(capsys):
    for argv in (("ksp", "--ell", "8", "--nu", "2"),
                 ("ko", "--ell", "8", "--k", "1"),
                 ("chartable", "--ell", "8"),
                 ("eta", "--ell", "8", "--nu", "2", "--sigma", "Theta1")):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert render_json(json.loads(out)) == out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_out_of_range_indices_are_usage_errors(capsys):
    assert run_cli(capsys, "ksp", "--ell", "8", "--nu", "1")[0] == 2
    assert run_cli(capsys, "ko", "--ell", "8", "--k", "0")[0] == 2
    assert run_cli(capsys, "eta", "--ell", "8", "--nu", "0", "--sigma", "Theta1")[0] == 2
    assert run_cli(capsys, "verify", "--ell", "8", "--max-nu", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("chartable", "--ell", "1024"),
    ("ksp", "--ell", "8192", "--nu", "2"),
    ("ksp", "--ell", "8", "--nu", "17"),
    ("ko", "--ell", "8192", "--k", "1"),
    ("ko", "--ell", "8", "--k", "16"),
    ("eta", "--ell", "8192", "--nu", "2", "--sigma", "Theta1"),
    ("eta", "--ell", "8", "--nu", "17", "--sigma", "Theta1"),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "Delta^17"),
    ("verify", "--ell", "8,256"),
    ("verify", "--ell", "8", "--max-nu", "17"),
    ("verify", "--ell", "8", "--max-k", "16"),
])
def test_oversized_input_exits_2_before_any_work(argv, capsys, monkeypatch):
    from qko import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an oversized input")

    for name in ("quaternion_group", "conjugacy_classes", "ksp_group", "ko_group", "eta_pair",
                 "theta", "delta_power", "run_verification"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "up to" in err or "must be in" in err


@pytest.mark.parametrize("argv", [
    ("--sigma", "7" * 5000 + "*Theta1"),
    ("--sigma", "Delta^" + "7" * 5000),
    ("--sigma", "gamma" + "7" * 5000),
    # int() reads this coefficient, but the eta value would print too many digits
    ("--sigma", "rho0 - kappa1", "--bundle", "9" * 4300 + "*Theta2"),
])
def test_overlong_number_in_an_expression_exits_2(argv, capsys, monkeypatch):
    from qko import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an overlong number")

    for name in ("theta", "delta_power", "eta_pair"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, "eta", "--ell", "16", "--nu", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(" digits\n") and err.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qko", "ksp", "--ell", "8", "--nu", "2",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["group"]["invariant_factors"] == [4, 4, 8]
