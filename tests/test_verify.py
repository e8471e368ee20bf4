"""How the verification suite reports failures of the code it checks."""

import hashlib
import random

import pytest

from qko import eta, groups, ktheory, oracles, verify
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


def test_substrate_trials_keep_their_inputs_and_random_stream(monkeypatch):
    # the Smith-form matrices, the spans handed to the enumeration oracle and
    # the generator state after the last draw are pinned, so that sharing work
    # in the trial loop cannot change which trials run
    matrices, spans, rngs = [], [], []
    real_snf, real_span = verify.smith_normal_form, verify.brute_force_span

    def snf(mat):
        matrices.append(repr(mat))
        return real_snf(mat)

    def span(gens):
        spans.append(repr(gens))
        return real_span(gens)

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(verify, "smith_normal_form", snf)
    monkeypatch.setattr(verify, "brute_force_span", span)
    monkeypatch.setattr(verify.random, "Random", Recorded)
    assert all(c.passed for c in verify._arith_checks())
    assert (len(matrices), len(spans), len(rngs)) == (200, 272 + 150, 1)
    assert hashlib.sha256("\n".join(matrices).encode()).hexdigest() == (
        "7a3990dd2b7dc1778a1ae3e1f95cda41a1da6e1b847a8ce594f4452400911d8a")
    assert hashlib.sha256("\n".join(spans).encode()).hexdigest() == (
        "b6798d35b113928bf2212a9b557e8bdd732562be1cb4dbdbb07d0c5f458ce3e2")
    assert rngs[0].getrandbits(64) == 12936391567819795641


def test_verify_forms_each_fusion_product_once_and_class_values_on_integers(monkeypatch):
    # a count guard: every product of two characters is formed once, and the
    # class values are built without the per-value Cyclo path of char_value
    for module in (groups, eta, ktheory, oracles):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    pairs, characters = [], set()
    product, class_values = groups.fusion_product, oracles.class_values

    def record_product(f1, f2):
        pairs.append((f1, f2))
        return product(f1, f2)

    def record_values(f):
        characters.add(f)
        return class_values(f)

    monkeypatch.setattr(groups, "fusion_product", record_product)
    monkeypatch.setattr(oracles, "class_values", record_values)
    assert all(c.passed for c in verify.run_verification([8, 16], 4, 3))
    assert product.cache_info().misses == len(set(pairs)) < len(pairs)

    def refuse(*args):
        raise AssertionError("class values went through a per-value Cyclo")

    want = {f: class_values(f) for f in characters}
    class_values.cache_clear()
    monkeypatch.setattr(oracles, "char_value", refuse)
    monkeypatch.setattr(oracles, "gamma_trace", refuse)
    assert len(want) > 20
    assert {f: class_values(f) for f in characters} == want
