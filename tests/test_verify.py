"""How the verification suite reports failures of the code it checks."""

import pytest

from qko import oracles, verify
from qko.cyclotomic import NotRationalError
from qko.groups import GroupParams

P8 = GroupParams(8)


def _eta_pair_failing_on_nu3(monkeypatch, exc):
    # with max_nu = 2 only the rationality check uses the nu = 3 space form;
    # it evaluates the class sum of the oracle
    real = oracles.eta_pair

    def fake(space, sigma, bundle=None):
        if space.nu == 3:
            raise exc
        return real(space, sigma, bundle)

    monkeypatch.setattr(oracles, "eta_pair", fake)


def test_rationality_check_reports_irrational_sums(monkeypatch):
    _eta_pair_failing_on_nu3(monkeypatch, NotRationalError("irrational part"))
    checks = {c.name: c for c in verify._eta_checks(P8, 2)}
    check = checks["eta/rationality/ell8"]
    assert not check.passed
    assert "64 of 64" in check.actual and "irrational part" in check.actual
    assert all(c.passed for name, c in checks.items() if name != "eta/rationality/ell8")


def test_rationality_check_lets_internal_errors_propagate(monkeypatch):
    _eta_pair_failing_on_nu3(monkeypatch, KeyError("internal"))
    with pytest.raises(KeyError):
        verify._eta_checks(P8, 2)
