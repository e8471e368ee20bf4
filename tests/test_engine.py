"""The representation-ring engine against the class-value oracles.

The engine multiplies characters by their fusion rules and pairs them with
one rational eta vector per space, summed over Galois orbits; the oracles in
``qko.oracles`` evaluate the same quantities from class values.  These tests
compare the two, count the tower inverses the engine makes, and check that
no K-group computation reaches an oracle.
"""

import sys
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qko import cli, oracles
from qko.cyclotomic import Cyclo
from qko.eta import eta_pair, eta_vector, quaternion_space
from qko.groups import (
    GroupParams,
    Subgroup,
    VirtualCharacter,
    c_constant,
    conjugacy_classes,
    delta_power,
    irreducible_labels,
    theta,
)
from qko.ktheory import ko_group, ksp_group

ELLS = (8, 16, 32, 64)
TAUS = ((1,), (1, 1), (1, 3), (3, 5, 1), (1,) * 5)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "qko" or name.startswith("qko."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.mark.parametrize("ell", ELLS + (pytest.param(128, marks=pytest.mark.slow),))
def test_eta_vector_matches_class_sum(ell):
    params = GroupParams(ell)
    for summands in TAUS:
        for subgroup in Subgroup:
            assert eta_vector(params, subgroup, summands) == \
                oracles.eta_vector(params, subgroup, summands), (summands, subgroup)


@pytest.mark.parametrize("ell", ELLS)
def test_distinguished_characters_match_their_defining_values(ell):
    params = GroupParams(ell)
    for i in (1, 2):
        assert theta(i, params) == oracles.theta(i, params)
    for r in range(1, 8):
        assert delta_power(r, params) == oracles.delta_power(r, params), r
    for i in range(-5, 21):
        assert c_constant(i, params) == oracles.c_constant(i, params), i


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(ELLS + (128,)).flatmap(
    lambda ell: st.tuples(st.just(ell),
                          st.sampled_from(irreducible_labels(GroupParams(ell))),
                          st.sampled_from(irreducible_labels(GroupParams(ell))))))
def test_fusion_product_is_the_pointwise_product(case):
    ell, first, second = case
    params = GroupParams(ell)
    f1 = VirtualCharacter.irreducible(params, first)
    f2 = VirtualCharacter.irreducible(params, second)
    pointwise = [x * y for x, y in zip(f1.class_values(), f2.class_values())]
    assert f1 * f2 == oracles.decompose(params, pointwise)


@pytest.mark.parametrize("ell", (16, 32, 64, 128, 256))
def test_inverse_count(ell, monkeypatch):
    params = GroupParams(ell)
    calls = []
    real = Cyclo.inverse

    def counted(self):
        calls.append(self.conductor)
        return real(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    bound = log2(ell // 4) + 3
    _clear_caches()
    ksp_group(4, params)
    assert len(calls) <= bound, calls
    # one tower inverse per order of rotation, 4 to ell/2
    assert sorted(calls) == [2 ** k for k in range(2, int(log2(ell)))]

    # the order-4 subgroups: only <I> has rotations other than -1, of order 4
    for subgroup, want in ((Subgroup.GEN_I, [4]), (Subgroup.GEN_J, []),
                           (Subgroup.GEN_XI_J, [])):
        _clear_caches()
        calls.clear()
        eta_vector(params, subgroup, (1, 1, 1))
        assert calls == want, subgroup
    _clear_caches()
    calls.clear()
    ko_group(3, params)
    assert len(calls) <= bound, calls


def test_k_groups_never_reach_an_oracle(monkeypatch, capsys):
    params = GroupParams(64)
    want = (ksp_group(4, params).matrix, ko_group(3, params).matrix,
            eta_pair(quaternion_space(params, 3), theta(1, params), delta_power(2, params)))
    functions = {id(obj): name for name, obj in vars(oracles).items()
                 if callable(obj) and not isinstance(obj, type)
                 and obj.__module__ == oracles.__name__}
    assert {"eta_pair", "eta_vector", "c_constant", "decompose", "_pairing", "gamma_matrix",
            "_det_powers"} <= set(functions.values())

    def raiser(name):
        def oracle_called(*args, **kwargs):
            raise AssertionError(f"oracles.{name} was called")
        return oracle_called

    # every binding of an oracle function, in every qko module
    for name, module in list(sys.modules.items()):
        if name == "qko" or name.startswith("qko."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in functions:
                    monkeypatch.setattr(module, attr, raiser(functions[id(obj)]))
    _clear_caches()
    got = (ksp_group(4, params).matrix, ko_group(3, params).matrix,
           eta_pair(quaternion_space(params, 3), theta(1, params), delta_power(2, params)))
    assert got == want
    for argv in (["ksp", "--ell", "32", "--nu", "5"], ["ko", "--ell", "32", "--k", "2"],
                 ["eta", "--ell", "32", "--nu", "2", "--sigma", "Theta1 - Delta^2",
                  "--bundle", "Delta^1", "--subgroup", "I"]):
        assert cli.main(argv + ["--format", "json"]) == 0
    capsys.readouterr()


def test_class_values_of_a_fusion_product():
    # the product of the twist characters, evaluated at every class
    params = GroupParams(32)
    chars = [theta(1, params), theta(2, params), delta_power(3, params)]
    for f1 in chars:
        for f2 in chars:
            product = f1 * f2
            assert product == f2 * f1
            for (rep, _), x, y in zip(conjugacy_classes(params), f1.class_values(),
                                      f2.class_values()):
                assert product.value(rep) == x * y
