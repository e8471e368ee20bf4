"""Byte-for-byte comparison of ``--format json`` reports with frozen outputs.

Each file under ``tests/golden`` is the stdout of ``qko <argv> --format json``
as of the commit that added it.  The files are reference data: a mismatch
means the program changed its output, and the fix belongs in the program,
not in the file.
"""

import hashlib
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


def test_chartable_512_matches_pinned_sha256(capsys):
    """No golden file holds this size: the digest pins the output as it was
    when gamma_trace still added two dense roots of unity."""
    assert main(["chartable", "--ell", "512", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7b80a9daac6fcd3d572533bf8d1b1b039c9e533f0aa30b2f7883dabdc1ef0422"


@pytest.mark.parametrize("argv, digest", [
    (("--ell", "128", "--format", "json"),
     "8474f058c4578c684f84a97ea75c174c4d97aa0e20bdb42954f99bed58a1d8c2"),
    (("--ell", "256", "--format", "json"),
     "2d07c029069b6272eb47abde00efb65e12905ee32fc8f896392b9357224609d9"),
    (("--ell", "64", "--format", "text"),
     "09a0d34a5f61ee7e90a31a26a86b3f835cb568b9165685b4c8363a7795757273"),
], ids=["json-128", "json-256", "text-64"])
def test_chartable_matches_pinned_sha256(argv, digest, capsys):
    """The benchmark's chartable sizes and the text table: the digests pin the
    output as it was when every entry was rendered from a Cyclo."""
    assert main(["chartable", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("ksp", "--ell", "16", "--nu", "3"),
     "d38fb17e50b918d37639449ddac12fe9d5a38d5f2ea7dfb3c384469ef4f8c01b"),
    (("ko", "--ell", "16", "--k", "3"),
     "5b31edc18f0eb8b70d27b10d14c34ce3a2d37f95497bbade2ce4501a767f5201"),
    (("eta", "--ell", "32", "--nu", "3", "--sigma", "Theta1", "--bundle", "Delta^1",
      "--subgroup", "J"),
     "bd3dfbf41be007a24a31973f2799a24569a975702cf3166c5c9786487052fa30"),
    (("verify", "--ell", "8,16"),
     "10f3a43ec878fce97c8de89b6b5f23561ce009af0c6dff1eb9bbdeb8ed7ab8e4"),
], ids=["ksp", "ko", "eta", "verify"])
def test_text_report_matches_pinned_sha256(argv, digest, capsys):
    """One text report per command besides chartable: the digests pin the
    output as it was when every command still built both renderings."""
    assert main([*argv, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_128_matches_pinned_sha256(capsys):
    """verify at its input limit, ell = 128: the digest pins the output as it
    was when each Cyclo still held a tuple of Fractions."""
    assert main(["verify", "--ell", "128", "--max-nu", "4", "--max-k", "3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b0819bf727c54544eae3c614483e6e348a20e3969b2526bf8ed2e73eeb643931"


def test_verify_warm_job_matches_pinned_sha256(capsys):
    """The benchmark's verify job: the digest pins the output as it was when
    each eta pairing still summed Fractions."""
    assert main(["verify", "--ell", "8,16,32", "--max-nu", "6", "--max-k", "5",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9a41b6821dd3e56c9611d0a8b721252c00b42abb544c0a6f67e921b0d63918d2"


@pytest.mark.slow
@pytest.mark.parametrize("argv, digest", [
    (("ksp", "--ell", "4096", "--nu", "16"),
     "129ca408fbb35d65620da48941ade4fa8712da202a7b279ad3f81f6bb3555bca"),
    (("ko", "--ell", "4096", "--k", "15"),
     "6d812d947d35bcb0c9420ad5a7b286665588ca721280e7bf8589ab3325c719c0"),
], ids=["ksp", "ko"])
def test_k_group_at_the_input_limit_matches_pinned_sha256(argv, digest, capsys):
    """ksp and ko at the input limits, ell = 4096: the digests pin the output as
    it was when each tau's inverse determinant was a product of conjugates of
    one inverted factor."""
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
