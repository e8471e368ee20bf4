"""Group structure and character theory of the 2-power quaternion groups."""

import pickle
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qko.cli import parse_character
from qko.cyclotomic import Cyclo
from qko.groups import (
    FpfRep,
    GroupElement,
    GroupParams,
    InvalidParamsError,
    NotVirtualError,
    Subgroup,
    VirtualCharacter,
    c_constant,
    char_dim,
    char_value,
    conjugacy_classes,
    delta,
    delta_power,
    det_I_minus,
    det_one_minus_gamma,
    fs_indicator,
    gamma_trace,
    irreducible_labels,
    is_fixed_point_free,
    membership,
    quaternion_group,
    standard_fpf,
    theta,
)
from qko.oracles import class_values, decompose, gamma_matrix, inner_product

P8 = GroupParams(8)
P16 = GroupParams(16)
P32 = GroupParams(32)
P64 = GroupParams(64)
ALL = (P8, P16, P32, P64)


def value_at(f, g):
    """The virtual character f at the element g, from the class-value oracle."""
    return class_values(f)[quaternion_group(f.params).class_index(g)]


def test_params_validation():
    for bad in (4, 6, 12, 24, 0, -8):
        with pytest.raises(InvalidParamsError):
            GroupParams(bad)


def test_group_axioms_order_8():
    g8 = quaternion_group(P8)
    assert len(g8.elements) == 8
    for a in g8.elements:
        assert g8.mul(a, g8.inverse(a)) == g8.identity
        for b in g8.elements:
            for c in g8.elements:
                assert g8.mul(g8.mul(a, b), c) == g8.mul(a, g8.mul(b, c))


def test_multiplication_against_faithful_matrix_representation():
    # the 2x2 matrices of the index-1 summand multiply the same way
    def mat_mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))

    for params in (P8, P16):
        group = quaternion_group(params)
        for g in group.elements:
            for h in group.elements:
                lhs = gamma_matrix(params, 1, group.mul(g, h))
                rhs = mat_mul(gamma_matrix(params, 1, g), gamma_matrix(params, 1, h))
                assert lhs == rhs, (g, h)


def test_reflections_square_to_minus_one():
    for params in ALL:
        group = quaternion_group(params)
        minus_one = group.element(params.quarter, 0)
        assert group.square(group.element(0, 1)) == minus_one  # J^2
        for a in range(params.half):
            assert group.square(group.element(a, 1)) == minus_one


def test_conjugacy_class_counts_and_sizes():
    assert [s for _, s in conjugacy_classes(P8)] == [1, 1, 2, 2, 2]
    assert len(conjugacy_classes(P16)) == 7
    for params in ALL:
        classes = conjugacy_classes(params)
        assert len(classes) == params.ell // 4 + 3
        assert sum(s for _, s in classes) == params.ell


def test_class_of_J_by_brute_conjugation():
    group = quaternion_group(P8)
    j = group.element(0, 1)
    orbit = {group.mul(group.mul(g, j), group.inverse(g)) for g in group.elements}
    assert orbit == {GroupElement(0, 1), GroupElement(2, 1)}
    assert dict(conjugacy_classes(P8))[GroupElement(0, 1)] == 2


def test_brute_force_partition_matches_classes():
    for params in ALL:
        group = quaternion_group(params)
        orbits = {frozenset(group.mul(group.mul(g, x), group.inverse(g))
                            for g in group.elements)
                  for x in group.elements}
        induced = {}
        for x in group.elements:
            induced.setdefault(group.class_index(x), set()).add(x)
        assert orbits == {frozenset(members) for members in induced.values()}
        assert sorted(induced) == list(range(len(group.classes)))
        for idx, (rep, size) in enumerate(group.classes):
            assert rep == min(induced[idx])
            assert size == len(induced[idx])


def test_subgroup_elements():
    for params in ALL:
        group = quaternion_group(params)
        q = params.quarter
        e = params.eighth
        assert set(group.subgroup_elements(Subgroup.GEN_I)) == {
            group.element(0, 0), group.element(e, 0),
            group.element(q, 0), group.element(3 * e, 0)}
        assert set(group.subgroup_elements(Subgroup.GEN_J)) == {
            group.element(0, 0), group.element(0, 1),
            group.element(q, 0), group.element(q, 1)}
        assert set(group.subgroup_elements(Subgroup.GEN_XI_J)) == {
            group.element(0, 0), group.element(1, 1),
            group.element(q, 0), group.element(q + 1, 1)}
        for which in (Subgroup.GEN_I, Subgroup.GEN_J, Subgroup.GEN_XI_J):
            members = group.subgroup_elements(which)
            assert len(members) == 4
            for m in members:
                m2 = group.mul(m, m)
                assert group.mul(m2, m2) == group.identity
        assert len(group.subgroup_elements(Subgroup.FULL)) == params.ell


def test_character_values():
    assert char_value(P8, "kappa2", GroupElement(0, 1)) == -1
    for params in (P8, P16):
        for a in range(params.half):
            assert char_value(params, "gamma1", GroupElement(a, 1)).is_zero()
    # ell=8: gamma1(xi) = i + i^(-1) = 0
    assert char_value(P8, "gamma1", GroupElement(1, 0)).is_zero()
    # ell=16: gamma1(xi) = z8 + z8^7
    expected = Cyclo.root_of_unity(8) + Cyclo.root_of_unity(8, 7)
    assert char_value(P16, "gamma1", GroupElement(1, 0)) == expected


@pytest.mark.parametrize("ell", [8, 16, 32, 64, pytest.param(128, marks=pytest.mark.slow)])
def test_gamma_trace_is_the_sum_of_its_two_roots_of_unity(ell):
    params = GroupParams(ell)
    m = params.conductor
    for u in range(-ell, ell + 1):
        for g in quaternion_group(params).elements:
            value = gamma_trace(params, u, g)
            if g.b:
                expected = Cyclo.zero(m)
            else:
                expected = Cyclo.root_of_unity(m, u * g.a) + Cyclo.root_of_unity(m, -u * g.a)
            assert value == expected, (u, g)
            assert sum(1 for c in value.coeffs if c) <= 2


def test_full_character_table_order_8():
    # rows rho0, kappa1..3, gamma1; columns 1, -1, xi, J, xi*J
    expected = {
        "rho0": [1, 1, 1, 1, 1],
        "kappa1": [1, 1, -1, 1, -1],
        "kappa2": [1, 1, 1, -1, -1],
        "kappa3": [1, 1, -1, -1, 1],
        "gamma1": [2, -2, 0, 0, 0],
    }
    reps = [rep for rep, _ in conjugacy_classes(P8)]
    for label, values in expected.items():
        assert [char_value(P8, label, rep) for rep in reps] == values


def test_orthonormality_and_dimension_sum():
    for params in ALL:
        labels = irreducible_labels(params)
        assert len(labels) == params.ell // 4 + 3
        assert sum(char_dim(l) ** 2 for l in labels) == params.ell
        for i, l1 in enumerate(labels):
            for l2 in labels[i:]:
                got = inner_product(VirtualCharacter.irreducible(params, l1),
                                    VirtualCharacter.irreducible(params, l2))
                assert got == (1 if l1 == l2 else 0), (params.ell, l1, l2)


def test_frobenius_schur_classification():
    for params in ALL:
        group = quaternion_group(params)
        for label in irreducible_labels(params):
            got = fs_indicator(params, label)
            # the defining sum (1/ell) sum_g chi(g^2), over the classes
            total = sum((size * char_value(params, label, group.square(rep))
                         for rep, size in conjugacy_classes(params)),
                        Cyclo.zero(params.conductor))
            assert got == total.to_rational() / params.ell, (params.ell, label)
            if label.startswith("gamma"):
                assert got == (-1 if int(label[5:]) % 2 else 1), (params.ell, label)
            else:
                assert got == 1, (params.ell, label)
    with pytest.raises(ValueError):
        fs_indicator(P8, "gamma2")


def test_theta_inner_products_from_known_table():
    # against the 2-dimensional family: <Theta_i, gamma_{2i}> = (-1)^i
    for params in (P16, P32, P64):
        for n in range(1, params.ell // 8):
            g = VirtualCharacter.irreducible(params, f"gamma{2 * n}")
            assert inner_product(theta(1, params), g) == (-1) ** n
            assert inner_product(theta(2, params), g) == (-1) ** n
    # the order-8 pattern for the 1-dimensional characters
    k = {l: VirtualCharacter.irreducible(P8, l) for l in ("kappa1", "kappa2", "kappa3")}
    assert inner_product(theta(1, P8), k["kappa1"]) == -1
    assert inner_product(theta(1, P8), k["kappa2"]) == 1
    assert inner_product(theta(1, P8), k["kappa3"]) == 0
    assert inner_product(theta(2, P8), k["kappa1"]) == 0
    assert inner_product(theta(2, P8), k["kappa2"]) == 1
    assert inner_product(theta(2, P8), k["kappa3"]) == -1
    # and for larger orders
    for params in (P16, P32):
        k = {l: VirtualCharacter.irreducible(params, l)
             for l in ("rho0", "kappa1", "kappa2", "kappa3")}
        assert inner_product(theta(1, params), k["rho0"]) == 0
        assert inner_product(theta(1, params), k["kappa1"]) == 0
        assert inner_product(theta(1, params), k["kappa2"]) == 1
        assert inner_product(theta(1, params), k["kappa3"]) == 1
        assert inner_product(theta(2, params), k["kappa1"]) == 1
        assert inner_product(theta(2, params), k["kappa3"]) == 0


def test_theta_values_and_decompositions():
    t1 = theta(1, P16)
    assert value_at(t1, GroupElement(2, 0)) == 4          # +-I class, ell/4
    assert value_at(t1, GroupElement(0, 1)) == -2         # even reflection class
    assert value_at(t1, GroupElement(1, 0)).is_zero()     # xi is not order 4 here
    assert value_at(t1, GroupElement(1, 1)).is_zero()     # odd reflections untouched
    assert value_at(theta(2, P16), GroupElement(1, 1)) == -2

    assert theta(1, P8) == VirtualCharacter(P8, {"kappa2": 1, "kappa1": -1})
    assert theta(2, P8) == VirtualCharacter(P8, {"kappa2": 1, "kappa3": -1})
    assert theta(1, P16) == VirtualCharacter(P16, {"kappa2": 1, "kappa3": 1, "gamma2": -1})
    assert theta(2, P16) == VirtualCharacter(P16, {"kappa2": 1, "kappa1": 1, "gamma2": -1})
    expected = {"kappa2": 1, "kappa3": 1, "gamma2": -1, "gamma4": 1, "gamma6": -1}
    assert theta(1, P32) == VirtualCharacter(P32, expected)
    for params in ALL[1:]:
        # past ell = 8: kappa2 and one more 1-dimensional character, then the
        # even gamma_(2i) with alternating signs (-1)^i for 2i < ell/4
        tail = {f"gamma{2 * i}": (-1) ** i for i in range(1, params.ell // 8)}
        assert theta(1, params) == VirtualCharacter(params, {"kappa2": 1, "kappa3": 1, **tail})
        assert theta(2, params) == VirtualCharacter(params, {"kappa2": 1, "kappa1": 1, **tail})
    for params in ALL:
        for i in (1, 2):
            assert theta(i, params).dimension == 0
            assert membership(theta(i, params), "RO0")


def test_decompose_roundtrip_and_failure():
    reps = [rep for rep, _ in conjugacy_classes(P8)]
    assert decompose(P8, [1] * len(reps)) == VirtualCharacter.irreducible(P8, "rho0")
    values = [char_value(P8, "gamma1", rep) for rep in reps]
    assert decompose(P8, values) == VirtualCharacter.irreducible(P8, "gamma1")
    with pytest.raises(NotVirtualError):
        decompose(P8, [Fraction(1, 2)] * len(reps))


def test_decompose_rejects_values_it_cannot_give_back():
    # adding zeta_8^2 at the xi^1 class leaves every constant coefficient, so
    # every multiplicity, as for gamma1; only the round trip catches it
    values = [char_value(P16, "gamma1", rep) for rep, _ in conjugacy_classes(P16)]
    values[2] = values[2] + Cyclo.root_of_unity(8, 2)
    with pytest.raises(NotVirtualError):
        decompose(P16, values)


def test_delta_class_function_is_the_determinant():
    for params in ALL:
        d = delta(params)
        assert d == VirtualCharacter(params, {"rho0": 2, "gamma1": -1})
        assert d.dimension == 0
        assert membership(d, "RSp0")
        for rep, _ in conjugacy_classes(params):
            assert value_at(d, rep) == det_one_minus_gamma(params, 1, rep)


def test_delta_power():
    assert delta_power(1, P8) == delta(P8)
    for r in (1, 2):
        with pytest.raises(ValueError):
            delta_power(-r, P8)
    with pytest.raises(ValueError):
        delta_power(0, P8)
    # pointwise powers, re-expanded, evaluate back to the literal powers
    for params in (P8, P16):
        for r in (2, 3, 4):
            power = delta_power(r, params)
            for rep, _ in conjugacy_classes(params):
                assert value_at(power, rep) == det_one_minus_gamma(params, 1, rep) ** r


def test_c_constants():
    for params in ALL:
        assert c_constant(0, params) == Fraction(params.ell - 1, params.ell)
    # frozen values from the direct sum over the 7 nonidentity elements
    assert c_constant(1, P8) == 2
    assert c_constant(2, P8) == 5
    assert c_constant(-1, P8) == Fraction(13, 32)
    # c_r equals the rho0 multiplicity of the r-th power for r > 0
    for params in (P8, P16):
        for r in (1, 2, 3, 4):
            assert c_constant(r, params) == delta_power(r, params).mults.get("rho0", 0)


def test_c_parity():
    for params in ALL:
        for i in range(1, 21):
            even = c_constant(2 * i, params)
            odd = c_constant(2 * i - 1, params)
            assert even.denominator == 1, (params.ell, 2 * i, even)
            assert odd.denominator == 1 and odd % 2 == 0, (params.ell, 2 * i - 1, odd)


def test_membership():
    gamma1 = VirtualCharacter.irreducible(P8, "gamma1")
    assert not membership(gamma1, "RO")
    assert membership(2 * gamma1, "RO")
    assert membership(gamma1, "RSp")
    kappa1 = VirtualCharacter.irreducible(P8, "kappa1")
    assert membership(kappa1, "RO")
    assert not membership(kappa1, "RSp")
    assert membership(2 * kappa1, "RSp")
    gamma2 = VirtualCharacter.irreducible(P16, "gamma2")
    assert membership(gamma2, "RO")
    assert not membership(gamma2, "RSp")
    assert not membership(gamma2, "RO0")  # dimension 2
    with pytest.raises(ValueError):
        membership(kappa1, "RZ")


def test_det_I_minus():
    tau = standard_fpf(P8, 1)
    group = quaternion_group(P8)
    assert det_I_minus(tau, group.identity).is_zero()
    for a in range(P8.half):
        assert det_I_minus(tau, GroupElement(a, 1)) == 2
    assert det_I_minus(tau, GroupElement(2, 0)) == 4  # at -1
    # multiplicative over summands
    pair = FpfRep(P16, (1, 3))
    for rep, _ in conjugacy_classes(P16):
        expected = (det_one_minus_gamma(P16, 1, rep) * det_one_minus_gamma(P16, 3, rep))
        assert det_I_minus(pair, rep) == expected


def test_closed_form_determinant_against_explicit_matrix():
    # det(I - M) of the explicit matrix, for every index in [-ell, ell] (even
    # ones included, where det M = -1 at the reflections) and every element
    for params in ALL:
        one = Cyclo.one(params.conductor)
        for u in range(-params.ell, params.ell + 1):
            for g in quaternion_group(params).elements:
                (m00, m01), (m10, m11) = gamma_matrix(params, u, g)
                explicit = (one - m00) * (one - m11) - m01 * m10
                assert det_one_minus_gamma(params, u, g) == explicit, (params.ell, u, g)


def test_fixed_point_free_criterion():
    assert is_fixed_point_free(P8, (1, 1))
    assert is_fixed_point_free(P8, (1, 3))
    assert not is_fixed_point_free(P8, (2,))
    assert not is_fixed_point_free(P8, ())
    # the all-odd criterion, exhaustively over single summands
    for params in (P8, P16):
        for s in range(0, params.half):
            assert is_fixed_point_free(params, (s,)) == (s % 2 == 1), s
    with pytest.raises(ValueError):
        FpfRep(P8, (2,))
    with pytest.raises(ValueError):
        FpfRep(P8, ())


def test_virtual_character_algebra():
    t = theta(1, P8)
    d = delta(P8)
    assert (t + d) - d == t
    assert -(-t) == t
    assert 2 * t == t + t
    assert (2 * t).dimension == 0
    assert repr(d) == "2*rho0 - gamma1"
    with pytest.raises(ValueError):
        VirtualCharacter(P8, {"gamma7": 1})


@st.composite
def label_maps(draw):
    """A group of order 8, 16 or 64, two {label: int} maps on it (the second one
    often the first with explicit zeros added) and an integer scalar."""
    params = GroupParams(draw(st.sampled_from((8, 16, 64))))
    labels = irreducible_labels(params)
    maps = st.dictionaries(st.sampled_from(labels), st.integers(-5, 5), max_size=6)
    first = draw(maps)
    if draw(st.booleans()):
        second = {**dict.fromkeys(draw(st.lists(st.sampled_from(labels))), 0), **first}
    else:
        second = draw(maps)
    return params, first, second, draw(st.integers(-4, 4))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(label_maps())
def test_vector_form_agrees_with_a_dict_model(case):
    params, m1, m2, k = case
    labels = irreducible_labels(params)

    def model(op, a, b):
        # the plain-dict model: nonzero multiplicities in label order
        return {label: op(a.get(label, 0), b.get(label, 0)) for label in labels
                if op(a.get(label, 0), b.get(label, 0))}

    f, g = VirtualCharacter(params, m1), VirtualCharacter(params, m2)
    assert list(f.mults.items()) == list(model(add, m1, {}).items())
    assert (f + g).mults == model(add, m1, m2)
    assert (f - g).mults == model(sub, m1, m2)
    assert (-f).mults == model(sub, {}, m1)
    assert (k * f).mults == model(lambda x, _: k * x, m1, {})
    assert (f == g) == (model(add, m1, {}) == model(add, m2, {}))
    if f == g:
        assert hash(f) == hash(g)
    dimension = sum(m * char_dim(label) for label, m in m1.items())
    assert f.dimension == dimension
    # RO doubles the quaternionic irreducibles, RSp the real ones
    for ring, doubled in (("RO", -1), ("RSp", 1)):
        want = all(m % 2 == 0 for label, m in m1.items() if fs_indicator(params, label) == doubled)
        assert membership(f, ring) == want
        assert membership(f, ring + "0") == (want and dimension == 0)
    assert pickle.loads(pickle.dumps(f)) == f
    if f != VirtualCharacter.zero(params):
        assert parse_character(params, repr(f)) == f
