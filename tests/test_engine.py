"""The representation-ring engine against the class-value oracles.

The engine multiplies characters by their fusion rules and pairs them with
one rational eta vector per space, summed over Galois orbits; the oracles in
``qko.oracles`` evaluate the same quantities from class values.  These tests
compare the two, check that an eta vector does not depend on how tau is
written, count the tower inverses the engine makes (one per tau and rotation
order), and check that no K-group computation reaches an oracle and that the
oracles run without the engine's determinant.
"""

import ast
import random
import re
import sys
from fractions import Fraction
from graphlib import TopologicalSorter
from itertools import permutations
from math import gcd, log2
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qko import cli, eta, groups, oracles
from qko.cyclotomic import Cyclo, NotRationalError
from qko.eta import SpaceForm, eta_pair, eta_vector, quaternion_space
from qko.groups import (
    FpfRep,
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
from qko.oracles import quaternion_group

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
def test_eta_vector_does_not_depend_on_how_tau_is_written(ell):
    """No oracle: the vector is the same for every way of writing tau, since
    reordering the summands permutes the blocks of tau(h), and gamma_(-u) and
    gamma_(u + ell/2) are both conjugate to gamma_u."""
    params = GroupParams(ell)
    for summands in TAUS:
        variants = set(permutations(summands))
        for i, u in enumerate(summands):
            variants |= {summands[:i] + (v,) + summands[i + 1:] for v in (-u, u + ell // 2)}
        for subgroup in Subgroup:
            want = eta_vector(params, subgroup, summands)
            for variant in variants:
                assert eta_vector(params, subgroup, variant) == want, (subgroup, variant)


@st.composite
def twisted_spaces(draw):
    params = GroupParams(draw(st.sampled_from(ELLS)))
    labels = irreducible_labels(params)

    def combination():
        # a small integer combination of a few irreducibles
        picked = draw(st.lists(st.sampled_from(labels), max_size=4))
        return VirtualCharacter(params, {label: draw(st.integers(-3, 3)) for label in picked})

    sigma = combination()
    sigma = sigma - sigma.dimension * VirtualCharacter.irreducible(params, "rho0")
    bundle = draw(st.one_of(st.none(), st.builds(combination)))
    tau = draw(st.lists(st.integers(-params.ell, params.ell).map(lambda k: 2 * k + 1),
                        min_size=1, max_size=4))
    space = SpaceForm(params, draw(st.sampled_from(list(Subgroup))), FpfRep(params, tau),
                      draw(st.integers(0, 2)))
    return space, sigma, bundle


@settings(derandomize=True, deadline=None, max_examples=150)
@given(twisted_spaces())
def test_eta_pair_matches_class_sum_on_random_inputs(case):
    space, sigma, bundle = case
    assert sigma.dimension == 0
    assert eta_pair(space, sigma, bundle) == oracles.eta_pair(space, sigma, bundle)


def _induced_from(params: GroupParams, subgroup: Subgroup) -> VirtualCharacter:
    """Ind_H^Q 1 from the oracles' group law: (1/|H|) * #{x : x g x^(-1) in H} at
    each class representative g, expanded by the oracles' decompose."""
    group = quaternion_group(params)
    members = set(group.subgroup_elements(subgroup))
    return oracles.decompose(params, [
        Fraction(sum(group.mul(group.mul(x, rep), group.inverse(x)) in members
                     for x in group.elements), len(members))
        for rep, _ in conjugacy_classes(params)])


def _pointwise_product(f: VirtualCharacter, g: VirtualCharacter) -> VirtualCharacter:
    """f * g from the product of their oracle class values, with no fusion rule."""
    return oracles.decompose(f.params, [x * y for x, y in zip(oracles.class_values(f),
                                                              oracles.class_values(g))])


@pytest.mark.parametrize("ell", ELLS + tuple(pytest.param(ell, marks=pytest.mark.slow)
                                             for ell in (128, 256)))
def test_transfer_law(ell):
    """eta(S/tau(H), sigma|_H, rho|_H) = eta(S/tau(Q), sigma, rho * Ind_H^Q 1) for
    each order-4 subgroup H: the eta invariant of a finite covering
    (Atiyah-Patodi-Singer II), since the sum over Q of a class function times
    Ind_H^Q 1 is |Q|/|H| times its sum over H.  The two sides come from
    different branches of the engine's subgroup shapes, and the induced
    character only from the oracles' group law; the engine is read only
    through eta_pair.  nu = 1..4, the standard tau and five seeded random odd
    tau each, a random dimension-zero sigma and a random rho per case."""
    params = GroupParams(ell)
    rng = random.Random(ell)
    labels = irreducible_labels(params)

    def combination():
        return VirtualCharacter(params, {label: rng.randint(-3, 3)
                                         for label in rng.sample(labels, min(4, len(labels)))})

    induced = {subgroup: _induced_from(params, subgroup)
               for subgroup in Subgroup if subgroup is not Subgroup.FULL}
    for nu in range(1, 5):
        taus = [(1,) * nu] + [tuple(rng.randrange(1, params.half, 2) for _ in range(nu))
                              for _ in range(5)]
        for tau in (FpfRep(params, summands) for summands in taus):
            for subgroup, ind in induced.items():
                sigma, rho = combination(), combination()
                sigma = sigma - sigma.dimension * VirtualCharacter.irreducible(params, "rho0")
                cover = eta_pair(SpaceForm(params, subgroup, tau), sigma, rho)
                base = eta_pair(SpaceForm(params, Subgroup.FULL, tau), sigma,
                                _pointwise_product(rho, ind))
                assert cover == base, (nu, tau.summands, subgroup, sigma, rho)


def test_eta_pair_is_integer_arithmetic_once_cached(monkeypatch):
    """With the eta vectors cached, a pairing adds and multiplies no Fraction:
    it is one integer dot product over the vector's one denominator."""
    rng = random.Random(12)
    cases = []
    for ell in (8, 32, 64):
        params = GroupParams(ell)
        labels = irreducible_labels(params)
        rho0 = VirtualCharacter.irreducible(params, "rho0")
        sigmas = [theta(1, params), theta(2, params), delta_power(1, params),
                  delta_power(3, params)]
        for _ in range(4):
            combo = VirtualCharacter(params, {label: rng.randint(-3, 3)
                                              for label in rng.sample(labels, 3)})
            sigmas.append(combo - combo.dimension * rho0)
        bundles = (None, delta_power(2, params), VirtualCharacter.irreducible(params, labels[-1]))
        for subgroup in Subgroup:
            for summands, z_factor in (((1,), 0), ((1, 3), 1), ((5, 1, 1), 2)):
                space = SpaceForm(params, subgroup, FpfRep(params, summands), z_factor)
                nums, den = eta._eta_numerators(params, subgroup, summands)
                assert den > 0 and gcd(den, *nums) == 1, (ell, subgroup, summands)
                cases += [(space, sigma, bundle, eta_pair(space, sigma, bundle))
                          for sigma in sigmas for bundle in bundles]

    def fraction_arithmetic(*args):
        raise AssertionError("eta_pair added or multiplied a Fraction")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__"):
        monkeypatch.setattr(Fraction, name, fraction_arithmetic)
    for space, sigma, bundle, want in cases:
        assert eta_pair(space, sigma, bundle) == want, (space, sigma, bundle)


@pytest.mark.parametrize("ell", ELLS)
def test_distinguished_characters_match_their_defining_values(ell):
    params = GroupParams(ell)
    for i in (1, 2):
        assert theta(i, params) == oracles.theta(i, params)
    for r in range(1, 8):
        assert delta_power(r, params) == oracles.delta_power(r, params), r
    for i in range(-5, 21):
        assert c_constant(i, params) == oracles.c_constant(i, params), i


@pytest.mark.parametrize("ell", (8, 16, 32))
def test_integer_class_sums_stay_exact(ell):
    params = GroupParams(ell)
    m = params.conductor
    # zeta at the class of xi, 0 elsewhere: zeta / det(I - tau(xi)) is not real
    values = [Cyclo.root_of_unity(m) if (rep.a, rep.b) == (1, 0) else Cyclo.zero(m)
              for rep, _ in conjugacy_classes(params)]
    order = len(quaternion_group(params).subgroup_elements(Subgroup.FULL))
    dets = oracles._class_inverse_dets(params, Subgroup.FULL, (1, 1))
    with pytest.raises(NotRationalError):
        oracles._rational_sum(m, ((Fraction(weight, order), values[idx], det_inv)
                                  for idx, weight, det_inv in dets))
    # the range cvals/parity asks for, and the negative powers
    for i in range(-5, 41):
        assert oracles.c_constant(i, params) == c_constant(i, params), i


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
    pointwise = [x * y for x, y in zip(oracles.class_values(f1), oracles.class_values(f2))]
    assert f1 * f2 == oracles.decompose(params, pointwise)


@pytest.mark.parametrize("ell", (16, 32, 64, 128, 256))
def test_inverse_count(ell, monkeypatch):
    """One tower inverse per tau and rotation order >= 4 of the eta vectors a
    job needs, each in the field whose conductor is that order."""
    params = GroupParams(ell)
    # the rotation orders >= 4 of each subgroup: 4 to ell/2 in the full group,
    # 4 in <I>, and none in <J> or <xi*J>, whose only rotation is -1
    orders = {Subgroup.FULL: [2 ** k for k in range(2, int(log2(ell)))],
              Subgroup.GEN_I: [4], Subgroup.GEN_J: [], Subgroup.GEN_XI_J: []}
    calls, vectors = [], set()
    real_inverse, real_numerators = Cyclo.inverse, eta._eta_numerators

    def counted(self):
        calls.append(self.conductor)
        return real_inverse(self)

    def recorded(*key):
        vectors.add(key[1:])
        return real_numerators(*key)

    recorded.cache_clear = real_numerators.cache_clear
    monkeypatch.setattr(Cyclo, "inverse", counted)
    monkeypatch.setattr(eta, "_eta_numerators", recorded)
    full = Subgroup.FULL
    # ksp_group(4) needs one vector of the full group, so one inverse at each order: its
    # c-constants are closed forms
    jobs = ((lambda: ksp_group(4, params), {(full, (1,) * 4)}),
            (lambda: ko_group(3, params), {(full, (1,)), (full, (1,) * 2), (full, (1,) * 3)}
             | {(subgroup, (1,) * 3) for subgroup in Subgroup if subgroup is not full}))
    for job, want in jobs:
        _clear_caches()
        calls.clear()
        vectors.clear()
        job()
        assert vectors == want
        assert sorted(calls) == sorted(m for subgroup, _ in want for m in orders[subgroup])

    # the order-4 subgroups: only <I> has rotations other than -1, of order 4
    for subgroup, want in ((Subgroup.GEN_I, [4]), (Subgroup.GEN_J, []),
                           (Subgroup.GEN_XI_J, [])):
        _clear_caches()
        calls.clear()
        eta_vector(params, subgroup, (1, 1, 1))
        assert calls == want, subgroup


def test_k_groups_never_reach_an_oracle(monkeypatch, capsys):
    params = GroupParams(64)
    want = (ksp_group(4, params).matrix, ko_group(3, params).matrix,
            eta_pair(quaternion_space(params, 3), theta(1, params), delta_power(2, params)))
    functions = {id(obj): name for name, obj in vars(oracles).items()
                 if callable(obj) and not isinstance(obj, type)
                 and obj.__module__ == oracles.__name__}
    assert {"class_values", "eta_pair", "eta_vector", "c_constant", "decompose", "_pairing",
            "gamma_matrix", "_det_powers", "quaternion_group", "char_value", "gamma_trace",
            "is_fixed_point_free", "explicit_det_I_minus"} <= set(functions.values())

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


def test_subgroup_shape_matches_the_enumeration():
    """The engine's closed-form order, order M of the rotations and reflection
    parity counts of each subgroup, against the oracles' element enumeration."""
    for ell in (2 ** j for j in range(3, 13)):
        params = GroupParams(ell)
        group, half = quaternion_group(params), params.half
        for subgroup in Subgroup:
            members = group.subgroup_elements(subgroup)
            # the engine sums over the rotations other than 1, -1 among them in every subgroup
            assert group.element(params.quarter, 0) in members
            rotations = {h.a for h in members if not h.b}
            order = max(half // gcd(a, half) for a in rotations)
            # every rotation is a power of xi^(ell/2M), so the engine's T on Z/M covers them
            assert all(a % (half // order) == 0 for a in rotations), (ell, subgroup)
            parities = tuple(sum(1 for h in members if h.b and h.a % 2 == r) for r in (0, 1))
            assert eta._subgroup_shape(params, subgroup) == \
                (len(members), order, parities), (ell, subgroup)


def test_oracles_never_reach_the_engine_determinant(monkeypatch):
    """The class-sum oracles take det(I - tau) from the explicit matrices, so
    they give the same values with every binding of the engine's closed-form
    determinant made to raise."""
    def oracle_values():
        out = []
        for ell in (8, 16, 32):
            params = GroupParams(ell)
            out += [oracles.eta_vector(params, subgroup, summands)
                    for subgroup in Subgroup for summands in TAUS]
            out += [oracles.c_constant(i, params) for i in range(-3, 4)]
        params = GroupParams(16)
        out.append(oracles.eta_pair(SpaceForm(params, Subgroup.GEN_J, FpfRep(params, (1, 3)), 1),
                                    theta(1, params) - delta_power(2, params), delta_power(1, params)))
        out += [oracles.is_fixed_point_free(params, summands)
                for summands in ((1, 3), (1, 2), (5,), (0, 1), ())]
        return out

    want = oracle_values()
    assert want[-5:] == [True, False, True, False, False]

    def raiser(name):
        def engine_called(*args, **kwargs):
            raise AssertionError(f"groups.{name} was called")
        return engine_called

    engine = {id(groups.det_I_minus): "det_I_minus"}
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "qko" or name.startswith("qko."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in engine:
                    monkeypatch.setattr(module, attr, raiser(engine[id(obj)]))
                    patched.add(f"{name}.{attr}")
    assert {"qko.groups.det_I_minus", "qko.eta.det_I_minus"} <= patched
    _clear_caches()
    assert oracle_values() == want


def test_only_the_oracles_enumerate_the_group():
    """No module but the oracles (and verify, which runs them) defines or names
    the element enumeration, the explicit matrices or the character values at
    elements; groups' char_strings docstring points at the oracle it matches."""
    banned = {"subgroup_elements", "quaternion_group", "QuaternionGroup", "gamma_matrix",
              "char_value", "gamma_trace"}
    found, defined = {}, set()
    for path in Path(oracles.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        exempt = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "char_strings"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                words = {node.name}
                if path.name == "oracles.py":
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                words = {node.id}
            elif isinstance(node, ast.Attribute):
                words = {node.attr}
            elif isinstance(node, ast.alias):
                words = {node.name, node.asname}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in exempt:
                words = set(re.findall(r"\w+", node.value))
            else:
                continue
            if words & banned and path.name not in ("oracles.py", "verify.py"):
                found.setdefault(path.name, set()).update(words & banned)
    assert banned <= defined
    assert found == {}


def test_only_det_I_minus_builds_a_cyclo_in_the_engine():
    """Outside the cyclotomic module, the oracles and verify, no function but
    groups.det_I_minus calls Cyclo, a Cyclo constructor or cyclotomic._make,
    and no module defines or names the per-summand determinant it replaced."""
    builders = set()
    for path in Path(oracles.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "det_one_minus_gamma" not in text, path.name
        if path.name in ("cyclotomic.py", "oracles.py", "verify.py"):
            continue
        tree = ast.parse(text)
        owners = {id(call): func.name for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  for call in ast.walk(func) if isinstance(call, ast.Call)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id in ("Cyclo", "_make")) \
                    or (isinstance(f, ast.Attribute) and f.attr == "Cyclo") \
                    or (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                        and f.value.id == "Cyclo"):
                builders.add(f"{path.stem}.{owners.get(id(call), '<module>')}")
    assert builders == {"groups.det_I_minus"}


@pytest.mark.parametrize("subgroup", ["full", "I", None])
def test_eta_vectors_reject_a_subgroup_that_is_not_a_subgroup(subgroup):
    # both once raised a bare KeyError from the closed form and the enumeration
    params = GroupParams(8)
    for function in (eta_vector, oracles.eta_vector):
        with pytest.raises(TypeError, match="is not a Subgroup"):
            function(params, subgroup, (1,))


def test_eta_vector_rejects_even_or_inexact_summands_for_every_subgroup():
    # <J> and <xi*J> have no rotation orders, so no determinant is built there
    params = GroupParams(16)
    for subgroup in Subgroup:
        with pytest.raises(ValueError, match="is even"):
            eta_vector(params, subgroup, (1, 2))
        for bad in (1.0, "1", Fraction(1)):
            with pytest.raises(TypeError):
                eta_vector(params, subgroup, (bad,))


@pytest.mark.parametrize("ell", [2 ** j for j in range(3, 11)])
def test_inverse_det_is_taken_in_its_own_field(ell):
    """The determinant at xi in the group of order 2M, inverted there, equals
    the determinant at the rotation xi^(ell/2M) of the group of order ell,
    restricted to the conductor-M subfield it lies in, inverted and rescaled."""
    params = GroupParams(ell)
    for summands in TAUS:
        tau = FpfRep(params, summands)
        for order in (2 ** k for k in range(2, params.half.bit_length())):
            step = params.half // order
            det = groups.det_I_minus(tau, groups.GroupElement(step, 0))
            assert not any(x for i, x in enumerate(det.nums) if i % step), (summands, order)
            old = Cyclo(order, det.nums[::step]).inverse() * det.den
            assert eta._inverse_det(summands, order) == old, (ell, summands, order)


def test_only_verify_imports_the_oracles():
    importers = set()
    for path in (Path(oracles.__file__).parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = {alias.name for alias in node.names}
                if module in (".oracles", "qko.oracles") or (
                        module in (".", "qko") and "oracles" in names):
                    importers.add(path.name)
            elif isinstance(node, ast.Import):
                if any(alias.name == "qko.oracles" for alias in node.names):
                    importers.add(path.name)
    assert importers == {"verify.py"}


def test_imports_sit_at_top_level_and_form_no_cycle():
    """Every import in the package is a module-level statement, the package's
    import graph is acyclic, groups builds on cyclotomic alone, and neither
    ktheory nor cli imports cyclotomic."""
    package = Path(oracles.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            assert node in tree.body, f"{path.name}:{node.lineno} imports inside a block"
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.Import):
                deps.update(name.removeprefix("qko.") for name in names)
            elif node.level or (node.module or "").startswith("qko"):
                module = (node.module or "").removeprefix("qko").lstrip(".")
                deps.update([module] if module else names)
        deps &= modules
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert graph["groups"] == {"cyclotomic"}
    assert "cyclotomic" not in graph["ktheory"] | graph["cli"]


def test_class_values_of_a_fusion_product():
    # the product of the twist characters, evaluated at every class
    params = GroupParams(32)
    group = quaternion_group(params)
    chars = [theta(1, params), theta(2, params), delta_power(3, params)]
    for f1 in chars:
        for f2 in chars:
            product = f1 * f2
            assert product == f2 * f1
            for (rep, _), x, y in zip(conjugacy_classes(params), oracles.class_values(f1),
                                      oracles.class_values(f2)):
                assert oracles.class_values(product)[group.class_index(rep)] == x * y
