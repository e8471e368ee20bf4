"""Byte-for-byte comparison of ``--format json`` reports with frozen outputs.

Each file under ``tests/golden`` is the stdout of ``qko <argv> --format json``
as of the commit that added it.  The files are reference data: a mismatch
means the program changed its output, and the fix belongs in the program,
not in the file.
"""

from pathlib import Path

import pytest

from qko.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    [("chartable", "--ell", str(ell)) for ell in (8, 16, 32, 64)]
    + [("ksp", "--ell", str(ell), "--nu", str(nu))
       for ell in (8, 16, 32) for nu in range(2, 6)]
    + [("ko", "--ell", str(ell), "--k", str(k))
       for ell in (8, 16, 32) for k in range(1, 6)]
    + [("verify", "--ell", "8,16")]
    + [("eta", "--ell", "16", "--nu", "2", "--sigma", "Theta1", "--subgroup", sub)
       for sub in ("full", "I", "J", "xiJ")]
    + [("eta", "--ell", "16", "--nu", "2", "--sigma", "Theta1", "--bundle", "Delta^1")]
)


def golden_name(argv: tuple[str, ...]) -> str:
    """File name of a case: the argv with option names dropped, e.g.
    ``ksp_ell16_nu3.json`` or ``eta_ell16_nu2_sigma-Theta1_subgroup-J.json``."""
    parts = [argv[0]]
    for option, value in zip(argv[1::2], argv[2::2]):
        key = option.lstrip("-")
        if key in ("ell", "nu", "k"):
            parts.append(key + value.replace(",", "-"))
        else:
            parts.append(f"{key}-{value.replace('^', '')}")
    return "_".join(parts) + ".json"


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_name(argv)[:-5])
def test_json_report_matches_golden(argv, capsys):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / golden_name(argv)).read_text()


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(map(golden_name, CASES))
