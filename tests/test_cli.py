"""End-to-end behaviour of the command-line front end."""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qko import cli, cyclotomic
from qko.cli import _kgroup_report, main, parse_character, render_json, UsageError
from qko.groups import GroupParams, Subgroup, VirtualCharacter, delta_power, theta
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


def test_chartable_builds_no_cyclotomic_number(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chartable built a Cyclo")
    monkeypatch.setattr(cyclotomic, "_make", refuse)
    monkeypatch.setattr(cyclotomic.Cyclo, "__new__", refuse)
    code, out, _ = run_cli(capsys, "chartable", "--ell", "64", "--format", "json")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "chartable_ell64.json").read_text()


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
    assert f"FAIL ksp/order-vs-bound: expected 7, got {report.order}" in text()


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


def test_eta_negative_residue(capsys):
    # the exact value keeps its sign; the residue is its representative in [0, 2)
    argv = ("eta", "--ell", "64", "--nu", "2", "--sigma=-Theta1", "--bundle", "Theta1")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == {"exact": "-9/4", "mod_2Z": "7/4"}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "exact:  -9/4\nmod 2Z: 7/4\n" in out


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


@pytest.mark.parametrize("sigma", ["gamma\u0661 - gamma1", "Delta^\u0663"])
def test_expressions_read_ascii_digits_only(capsys, sigma):
    # an Arabic-Indic digit once parsed as its ASCII value and exited 0
    code, out, err = run_cli(capsys, "eta", "--ell", "16", "--nu", "2", "--sigma", sigma)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse character expression") and err.count("\n") == 1


@pytest.mark.parametrize("bundle, message", [("", "empty character expression"),
                                             ("  ", "empty character expression"),
                                             ("\t", "empty character expression")])
def test_eta_rejects_an_empty_bundle(capsys, bundle, message):
    # an empty --bundle once printed the untwisted invariant and exited 0, and a
    # blank one once said "cannot parse"
    code, out, err = run_cli(capsys, "eta", "--ell", "8", "--nu", "2", "--sigma", "Theta1",
                             "--bundle", bundle)
    assert (code, out) == (2, "")
    assert message in err


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
    render_json(report)
    assert capsys.readouterr().out == out


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
        render_json(json.loads(out))
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv, golden", [
    (("chartable", "--ell", "8"), "chartable_ell8.json"),
    (("ksp", "--ell", "8", "--nu", "2"), "ksp_ell8_nu2.json"),
    (("verify", "--ell", "8,16"), "verify_ell8-16.json"),
], ids=["chartable", "ksp", "verify"])
def test_json_reports_are_streamed_not_built_as_one_string(argv, golden, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report was built as one string")
    monkeypatch.setattr(cli.json, "dumps", refuse)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


# Runs one command the way the qko script does, so that its exit code and
# stderr are what a shell pipeline sees.
_ENTRYPOINT = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from qko.cli import entrypoint
entrypoint()
"""


@pytest.mark.parametrize("argv", [
    ("chartable", "--ell", "512", "--format", "json"),  # 547 KB, more than a pipe buffer holds
    ("verify", "--ell", "8,16", "--format", "json"),
    ("chartable", "--ell", "512"),  # the 301 KB text table, written line by line
], ids=["chartable", "verify", "chartable-text"])
def test_a_reader_that_closes_early_gets_a_quiet_exit(argv):
    """``qko ... | head -c 10``: the command keeps its own exit code and writes
    nothing to stderr when the reader leaves mid-report."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-I", "-c", _ENTRYPOINT, src, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("ksp", "--ell", "8", "--nu", "2", "--format", "json"),
    ("chartable", "--ell", "512"),
], ids=["json", "text"])
def test_a_full_device_is_an_output_error(argv):
    """``qko ... > /dev/full``: one ``error:`` line and exit 2, not a traceback
    and not verify's 1 for a failed check."""
    src = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-I", "-c", _ENTRYPOINT, src, *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write the report: ") and proc.stderr.count("\n") == 1


def test_a_closed_stdout_is_an_output_error():
    """``qko ... >&-``: the interpreter starts with no ``sys.stdout``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _ENTRYPOINT, src, "ksp", "--ell", "8", "--nu", "2"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write the report: standard output is closed\n"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI had before its flag table, kept as the reference."""
    parser = argparse.ArgumentParser(
        prog="qko",
        description="Exact quaternion-group eta invariants and K-group structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("chartable", help="character table, indicators and span summary")
    p.add_argument("--ell", type=int, required=True)
    add_common(p)

    p = sub.add_parser("ksp", help="KSp of the 4*nu-1 dimensional space form")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    add_common(p)

    p = sub.add_parser("ko", help="real connective K-theory in degree 4k-1")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("eta", help="a single (twisted) eta invariant")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--sigma", type=str, required=True)
    p.add_argument("--bundle", type=str, default=None)
    p.add_argument("--subgroup", choices=[s.value for s in Subgroup], default="full")
    add_common(p)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--ell", type=str, required=True,
                   help="comma-separated group orders, e.g. 8,16")
    p.add_argument("--max-nu", type=int, default=4)
    p.add_argument("--max-k", type=int, default=3)
    add_common(p)
    return parser


ACCEPTED = [
    ("chartable", "--ell", "8"),
    ("chartable", "--format", "json", "--ell", "16"),
    ("chartable", "--ell=8", "--format=json"),
    ("chartable", "--e", "8", "--f", "json"),
    ("chartable", "--ell", "8", "--ell", "16", "--format", "json", "--format", "text"),
    ("ksp", "--ell", "8", "--nu", "2"),
    ("ksp", "--nu=3", "--ell=16", "--format", "text"),
    ("ksp", "--el", "8", "--n", "2", "--fo=json"),
    ("ksp", "--ell", "8", "--nu", "2", "--nu", "5"),
    ("ksp", "--ell", " 8 ", "--nu", "+2"),  # int() strips blanks and reads a sign
    ("ksp", "--ell", "1_6", "--nu", "2"),
    ("ksp", "--ell", "\u0668", "--nu", "\u0662"),  # int() reads any Unicode decimal digit
    ("ksp", "--ell", "-8", "--nu", "2"),  # a negative number is a value, then exit 2 in cmd_ksp
    ("ko", "--ell", "8", "--k", "1"),
    ("ko", "--k=2", "--ell", "32", "--format=json"),
    ("ko", "--e", "8", "--k", "1", "--k", "3"),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "Theta1"),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "Delta^2", "--bundle", "Delta^1",
     "--subgroup", "I", "--format", "json"),
    ("eta", "--ell=16", "--nu=3", "--sigma=-Theta1", "--bundle=", "--subgroup=xiJ"),
    ("eta", "--ell", "8", "--nu", "2", "--si", "2*Theta1 - Delta^3", "--b", "Delta",
     "--su", "J"),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "-Theta1 + Delta", "--bundle", ""),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "Theta1", "--sigma", "Theta2",
     "--subgroup", "I", "--subgroup", "full"),
    ("verify", "--ell", "8,16"),
    ("verify", "--ell=8", "--max-nu", "3", "--max-k=2"),
    ("verify", "--e", "8,16,32", "--max-n", "5", "--max-k", "1", "--max-k", "2", "--f", "json"),
]

REJECTED = [
    (),  # no command
    ("kso", "--ell", "8", "--nu", "2"),  # an unknown command
    ("ks", "--ell", "8", "--nu", "2"),  # a command is never abbreviated
    ("ksp", "--ell", "8", "--nu", "2", "--bogus", "1"),  # an unknown flag
    ("--ell", "8", "ksp", "--nu", "2"),  # a command's flag before the command
    ("verify", "--ell", "8", "--max", "3"),  # ambiguous: --max-nu or --max-k
    ("eta", "--ell", "8", "--nu", "2", "--s", "Theta1"),  # ambiguous: --sigma or --subgroup
    ("ksp", "--ell", "8", "--nu"),  # a missing value
    ("ksp", "--ell", "8"),  # a missing required flag
    ("eta", "--ell", "8", "--nu", "2"),
    ("ksp", "--ell", "abc", "--nu", "2"),
    ("ksp", "--ell", "7" * 5000, "--nu", "2"),  # past int()'s limit on digits
    ("ksp", "--ell=", "--nu", "2"),
    ("ksp", "--ell", "8", "--nu", "2", "--format", "xml"),
    ("ksp", "--ell", "8", "--nu", "2", "--format="),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", "Theta1", "--subgroup", "K"),
    ("ksp", "--ell", "8", "--nu", "2", "extra"),  # a stray positional
    ("ksp", "extra", "--ell", "8", "--nu", "2"),
    ("ksp", "--ell", "8", "--nu", "2", "--"),
    ("ksp", "--help=x"),
    ("ksp", "-hx"),
]

# The one argv whose result differs from the reference: argparse took a value
# that starts with "-" for a flag and rejected it; now the token after a flag is
# always its value.
LEADING_DASH = ("eta", "--ell", "8", "--nu", "2", "--sigma", "-Theta1", "--bundle", "-Delta^3")


def _outcome(parse, argv) -> dict | str:
    """The fields an argv parses to, or "rejected"."""
    try:
        return vars(parse(list(argv)))
    except (SystemExit, UsageError):
        return "rejected"


@pytest.mark.parametrize("argv", ACCEPTED + REJECTED + [LEADING_DASH])
def test_the_flag_table_parses_as_argparse_did(argv, capsys):
    expected = _outcome(reference_parser().parse_args, argv)
    capsys.readouterr()
    assert (expected == "rejected") == (argv in REJECTED + [LEADING_DASH])
    got = _outcome(cli.parse_args, argv)
    if argv == LEADING_DASH:
        assert got == {"command": "eta", "ell": 8, "nu": 2, "sigma": "-Theta1",
                       "bundle": "-Delta^3", "subgroup": "full", "format": "text"}
    else:
        assert got == expected


@pytest.mark.parametrize("argv", REJECTED)
def test_a_parse_error_exits_2_with_one_error_line(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]


def test_an_expression_may_start_with_a_minus_sign(capsys):
    # argparse read "-Theta1" as an unknown flag and exited 2
    code, out, err = run_cli(capsys, "eta", "--ell", "8", "--nu", "2", "--sigma", "-Theta1",
                             "--subgroup", "I", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["exact"] == "-1/4"  # test_eta_subgroup's 1/4, negated
    assert run_cli(capsys, "eta", "--ell", "8", "--nu", "2", "--sigma=-Theta1",
                   "--subgroup", "I", "--format", "json")[1] == out


@pytest.mark.parametrize("command", [None, *cli.FLAGS])
def test_help_lists_every_flag(command, capsys):
    for flag in ("-h", "--help", "--he"):
        code, out, err = run_cli(capsys, *([command] if command else []), flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: qko ")
        for name in [command] if command else cli.FLAGS:
            assert f"usage: qko {name} [-h] " in out and cli.FLAGS[name][0] in out
            assert all(f" {f} " in out or f"[{f} " in out for f in cli.FLAGS[name][1])


_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
if len(sys.argv) > 2:
    from qko.cli import main
    main(sys.argv[2:])
print(" ".join(sys.modules), file=sys.stderr)
"""


def test_a_job_loads_no_argparse_gettext_or_locale():
    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-I", "-c", _MODULES, src, *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    src = str(Path(cli.__file__).resolve().parents[1])
    bare = loaded()
    job = loaded("ksp", "--ell", "8", "--nu", "2", "--format", "json")
    assert "qko.cli" in job
    assert not {"argparse", "gettext", "locale"} & (job - bare)


def test_out_of_range_indices_are_usage_errors(capsys):
    assert run_cli(capsys, "ksp", "--ell", "8", "--nu", "1")[0] == 2
    assert run_cli(capsys, "ko", "--ell", "8", "--k", "0")[0] == 2
    assert run_cli(capsys, "eta", "--ell", "8", "--nu", "0", "--sigma", "Theta1")[0] == 2
    assert run_cli(capsys, "verify", "--ell", "8", "--max-nu", "1")[0] == 2


def _over(command: str) -> str:
    """The first group order past the command's limit."""
    return str(2 * cli.MAX_ELL[command])


NU_OVER, K_OVER = str(cli.MAX_NU + 1), str(cli.MAX_NU)


@pytest.mark.parametrize("argv", [
    ("chartable", "--ell", _over("chartable")),
    ("ksp", "--ell", _over("ksp"), "--nu", "2"),
    ("ksp", "--ell", "8", "--nu", NU_OVER),
    ("ko", "--ell", _over("ko"), "--k", "1"),
    ("ko", "--ell", "8", "--k", K_OVER),
    ("eta", "--ell", _over("eta"), "--nu", "2", "--sigma", "Theta1"),
    ("eta", "--ell", "8", "--nu", NU_OVER, "--sigma", "Theta1"),
    ("eta", "--ell", "8", "--nu", "2", "--sigma", f"Delta^{NU_OVER}"),
    ("verify", "--ell", f"8,{_over('verify')}"),
    ("verify", "--ell", "8", "--max-nu", NU_OVER),
    ("verify", "--ell", "8", "--max-k", K_OVER),
])
def test_oversized_input_exits_2_before_any_work(argv, capsys, monkeypatch):
    from qko import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an oversized input")

    for name in ("conjugacy_classes", "ksp_group", "ko_group", "eta_pair",
                 "theta", "delta_power", "run_verification"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "up to" in err or "must be in" in err


def test_readme_states_the_input_limits_of_the_flag_table():
    """README's limits sentence names MAX_ELL and MAX_NU as they are, so a limit
    change edits one constant and its prose."""
    by_limit = {}
    for command, limit in cli.MAX_ELL.items():
        by_limit.setdefault(limit, []).append(f"`{command}`")
    ells = " and ".join(f"{limit} for {' / '.join(commands)}"
                        for limit, commands in sorted(by_limit.items(), reverse=True))
    sentence = (f"`ell` up to {ells}; `nu` and `--max-nu` up to {cli.MAX_NU}, `k` and "
                f"`--max-k` up to {cli.MAX_NU - 1}, and `r` in `Delta^r` up to {cli.MAX_NU};")
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    assert sentence in " ".join(readme.split())


# The longest single argument the kernel passes to a program (MAX_ARG_STRLEN,
# 128 KiB with its terminating NUL).
MAX_ARG = 128 * 1024 - 1


def maximal_terms(ell: int) -> list[str]:
    """The terms of a dimension-zero expression of nearly MAX_ARG characters that
    names every kind of atom and every gamma_u, in both spellings, many times over."""
    q = ell // 4
    pieces = ["+Theta1", "-2*Theta2", "+rho0-kappa1", "+kappa2-kappa3",
              *(f"+Delta^{r}" for r in range(1, cli.MAX_NU + 1)),
              *(f"+gamma_{u}-gamma{q - u}" for u in range(1, q))]
    out, size = [], 0
    while size + len(pieces[len(out) % len(pieces)]) <= MAX_ARG:
        out.append(pieces[len(out) % len(pieces)])
        size += len(out[-1])
    return out


def test_a_long_expression_builds_each_distinct_atom_once(monkeypatch):
    """parse_character adds up the coefficients per distinct atom and builds
    each one's class once, however often the expression repeats it."""
    params = GroupParams(64)
    terms = maximal_terms(params.ell)
    want = VirtualCharacter.zero(params)
    for term, count in Counter(terms).items():
        want = want + count * parse_character(params, term)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name, args] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "theta", counted("theta", theta))
    monkeypatch.setattr(cli, "delta_power", counted("delta_power", delta_power))
    monkeypatch.setattr(VirtualCharacter, "irreducible",
                        staticmethod(counted("irreducible", VirtualCharacter.irreducible)))
    text = "".join(terms)
    assert len(text) > MAX_ARG - 30 and len(terms) > 5000
    assert parse_character(params, text) == want
    assert calls and max(calls.values()) == 1, calls.most_common(3)


# The peak RSS that cli.py's MAX_ELL comment and README state for every command
# at its limit, and the one they state for the largest verify, with headroom.
STATED_PEAK_RSS_MB = 30
STATED_VERIFY_PEAK_RSS_MB = 22

# Runs one command, reports VmHWM, the peak RSS of its own address space, and
# exits with the command's code; ru_maxrss would also count the pytest process
# it was spawned from.
_PEAK_RSS = """
import sys
sys.path.insert(0, sys.argv.pop(1))
from qko.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


ALL_VERIFY_ORDERS = ",".join(str(2 ** j) for j in range(3, cli.MAX_ELL["verify"].bit_length()))
LARGEST_EXPRESSION = "".join(maximal_terms(cli.MAX_ELL["eta"]))


def _largest(command: str, *flags: str) -> tuple[str, ...]:
    return (command, "--ell", str(cli.MAX_ELL[command]), *flags)


@pytest.mark.slow
@pytest.mark.parametrize("argv, bound_mb", [
    (("verify", "--ell", ALL_VERIFY_ORDERS, "--max-nu", str(cli.MAX_NU),
      "--max-k", str(cli.MAX_NU - 1), "--format", "json"), STATED_VERIFY_PEAK_RSS_MB),
    (_largest("ksp", "--nu", str(cli.MAX_NU), "--format", "json"), STATED_PEAK_RSS_MB),
    (_largest("chartable", "--format", "json"), STATED_PEAK_RSS_MB),
    (_largest("chartable", "--format", "text"), STATED_PEAK_RSS_MB),
    (_largest("eta", "--nu", str(cli.MAX_NU), "--sigma", LARGEST_EXPRESSION,
              "--bundle", LARGEST_EXPRESSION, "--format", "json"), STATED_PEAK_RSS_MB),
], ids=["verify", "ksp", "chartable", "chartable-text", "eta"])
def test_largest_jobs_stay_under_the_stated_peak_rss(argv, bound_mb):
    """The largest verify, ksp, chartable and eta jobs the limits accept, each
    run cold in a fresh interpreter: exit 0 and a peak RSS under the stated
    bound.  verify empties each order's memo tables before the next order, so
    its bound is its own, below the one for every command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _PEAK_RSS, src, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) / 1024 < bound_mb <= STATED_PEAK_RSS_MB, proc.stderr


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
    # the child finds the package where this process did, PYTHONPATH set or not
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qko", "ksp", "--ell", "8", "--nu", "2",
         "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == (Path(__file__).parent / "golden" / "ksp_ell8_nu2.json").read_text()


# Registers an exit probe before any qko import; exit handlers run last in,
# first out, so the probe runs after every handler that qko registered.
_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}"))
sys.path.insert(0, sys.argv[1])
if sys.argv[2:]:
    from qko.cli import main
    main(sys.argv[2:])
else:
    import qko, qko.ktheory
"""


@pytest.mark.parametrize("argv, frozen", [
    (("ksp", "--ell", "8", "--nu", "2", "--format", "json"), True),
    ((), False),
], ids=["cli", "library"])
def test_only_the_cli_freezes_the_heap_at_exit(argv, frozen):
    """A qko process skips the teardown collections; importing the library
    alone leaves its host's exit as it was."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _EXIT_PROBE, src, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, f"frozen at exit: {frozen}")


_IMPORT_PROBE = """
import gc, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(gc.get_freeze_count())
"""


@pytest.mark.parametrize("imports, frozen", [
    ("import qko.cli", True),
    ("import qko, qko.ktheory, qko.verify", False),
], ids=["cli", "library"])
def test_only_the_cli_freezes_the_heap_it_loaded(imports, frozen):
    """Importing qko.cli freezes the loaded heap, so no collection in a qko
    process traverses it; importing the library alone freezes nothing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, src, imports],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout) > 0) == frozen, proc.stdout
