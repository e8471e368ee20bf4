"""The combinatorial eta invariant evaluator and its closed forms."""

from fractions import Fraction

import pytest

from qko.cyclotomic import Cyclo
from qko import oracles
from qko.eta import (
    NotReducedError,
    SpaceForm,
    eta_pair,
    eta_theta_closed_form,
    lens_space,
    quaternion_space,
)
from qko.groups import (
    FpfRep,
    GroupParams,
    Subgroup,
    VirtualCharacter,
    c_constant,
    delta_power,
    det_I_minus,
    standard_fpf,
    theta,
)
from qko.oracles import char_value, quaternion_group

P8 = GroupParams(8)
P16 = GroupParams(16)
P32 = GroupParams(32)


def test_closed_form_values():
    assert eta_theta_closed_form(1, 1, 2, P8) == Fraction(1, 2)
    assert eta_theta_closed_form(1, 2, 2, P8) == Fraction(1, 4)
    assert eta_theta_closed_form(2, 2, 2, P8) == Fraction(1, 2)
    assert eta_theta_closed_form(1, 1, 2, P16) == Fraction(3, 4)


def test_theta_pairings_match_closed_form():
    for params in (P8, P16, P32):
        for nu in range(2, 6):
            space = quaternion_space(params, nu)
            for i1 in (1, 2):
                for i2 in (1, 2):
                    got = eta_pair(space, theta(i1, params), theta(i2, params))
                    assert got == eta_theta_closed_form(i1, i2, nu, params), \
                        (params.ell, nu, i1, i2)


def test_delta_pairings_are_c_constants():
    # the pairing of two powers depends only on the total power minus nu
    for params in (P8, P16, P32):
        for nu in range(2, 6):
            space = quaternion_space(params, nu)
            for r in range(1, 6):
                for s in range(0, 6):
                    bundle = delta_power(s, params) if s else None
                    got = eta_pair(space, delta_power(r, params), bundle)
                    assert got == c_constant(r + s - nu, params), \
                        (params.ell, nu, r, s)


def _element_value(chi, h):
    # the character value from its irreducible multiplicities, element by element
    total = Cyclo.zero(chi.params.conductor)
    for label, m in chi.mults.items():
        total = total + m * char_value(chi.params, label, h)
    return total


@pytest.mark.parametrize("params", (P8, P16, P32), ids=lambda p: f"ell{p.ell}")
@pytest.mark.parametrize("subgroup", tuple(Subgroup), ids=lambda s: s.value)
def test_class_weighted_sum_matches_element_sum(params, subgroup):
    # the defining sum over the nonidentity elements of the subgroup, against
    # eta_pair's sum over classes; a wrong class weight changes some entry
    group = quaternion_group(params)
    nonidentity = [h for h in group.subgroup_elements(subgroup) if h != group.identity]
    order = len(nonidentity) + 1
    chars = [theta(1, params), theta(2, params)] + [delta_power(r, params) for r in (1, 2, 3)]
    values = {chi: [_element_value(chi, h) for h in nonidentity] for chi in chars}
    values[None] = [Cyclo.one(params.conductor)] * len(nonidentity)
    for summands in ((1, 1), (1, 3), (3, 5, 1)):
        tau = FpfRep(params, summands)
        det_inv = [det_I_minus(tau, h).inverse() for h in nonidentity]
        plain, crossed = SpaceForm(params, subgroup, tau), SpaceForm(params, subgroup, tau, 1)
        for sigma in chars:
            for bundle in [None] + chars:
                total = Cyclo.zero(params.conductor)
                for s, r, d in zip(values[sigma], values[bundle], det_inv):
                    total = total + s * r * d
                want = total.to_rational() / order
                assert eta_pair(plain, sigma, bundle) == want, (summands, sigma, bundle)
                # a Z^4 factor multiplies by its A-roof genus, 2
                assert eta_pair(crossed, sigma, bundle) == 2 * want


def test_delta_pairing_untwisted_equals_trivial_bundle():
    rho0 = VirtualCharacter.irreducible(P8, "rho0")
    space = quaternion_space(P8, 2)
    for r in range(1, 5):
        sigma = delta_power(r, P8)
        assert eta_pair(space, sigma) == eta_pair(space, sigma, rho0)


def test_untwisted_theta_on_minimal_space():
    # the full-group sum of theta against a single summand is already rational
    # and vanishes: its support sits where the determinant is constant
    for params in (P8, P16):
        for i in (1, 2):
            assert eta_pair(quaternion_space(params, 1), theta(i, params)) == 0


def test_theta_delta_pairings_vanish():
    for params in (P8, P16, P32):
        for nu in (2, 3, 4, 5):
            space = quaternion_space(params, nu)
            for i in (1, 2):
                for r in range(1, 6):
                    assert eta_pair(space, theta(i, params), delta_power(r, params)) == 0
                    assert eta_pair(space, delta_power(r, params), theta(i, params)) == 0
                assert eta_pair(space, theta(i, params)) == 0


def test_pairing_symmetry():
    for params in (P8, P16):
        for nu in (2, 3):
            space = quaternion_space(params, nu)
            fwd = eta_pair(space, theta(1, params), theta(2, params))
            rev = eta_pair(space, theta(2, params), theta(1, params))
            assert fwd == rev


def test_dimension_zero_required():
    rho0 = VirtualCharacter.irreducible(P8, "rho0")
    with pytest.raises(NotReducedError):
        eta_pair(quaternion_space(P8, 2), rho0)
    with pytest.raises(NotReducedError):
        eta_pair(quaternion_space(P8, 2), rho0, rho0)  # Delta^0 paired with Delta^0
    # but a nonzero-dimension bundle class is fine
    assert eta_pair(quaternion_space(P8, 2), theta(1, P8), rho0) == 0


def test_rationality_over_the_twist_menu():
    for params in (P8, P16, P32):
        sigmas = [theta(1, params), theta(2, params)]
        sigmas += [delta_power(r, params) for r in range(1, 7)]
        space = quaternion_space(params, 3)
        for sigma in sigmas:
            for bundle in sigmas:
                eta_pair(space, sigma, bundle)  # raises NotRationalError on failure


def test_z_factor_doubles_for_odd_j():
    base = eta_pair(quaternion_space(P8, 2), theta(1, P8), theta(1, P8))
    for z in range(5):
        got = eta_pair(quaternion_space(P8, 2, z_factor=z), theta(1, P8), theta(1, P8))
        assert got == base * (2 if z % 2 else 1), z
    with pytest.raises(ValueError):
        quaternion_space(P8, 2, z_factor=-1)


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1), "1", None],
                         ids=["half", "float-one", "Fraction", "str", "None"])
def test_z_factor_must_be_an_int(bad):
    # 0.5 once doubled the untwisted eta invariant, since 0.5 % 2 is truthy
    with pytest.raises(TypeError):
        quaternion_space(P8, 2, z_factor=bad)
    with pytest.raises(TypeError):
        SpaceForm(P8, Subgroup.FULL, standard_fpf(P8, 2), bad)


def test_lens_space_eta_over_each_subgroup():
    # over <I> the support is +-I with value ell/4 and det 2 per summand
    for params, k in ((P8, 1), (P8, 3), (P16, 2)):
        got = eta_pair(lens_space(params, Subgroup.GEN_I, k), theta(1, params))
        assert got == Fraction(params.ell, 8) * Fraction(1, 2 ** k)
    # over <J> both reflections are even so theta1 contributes -2 twice
    got = eta_pair(lens_space(P8, Subgroup.GEN_J, 2), theta(1, P8))
    assert got == Fraction(-1, 4)
    # and theta2 sees nothing
    assert eta_pair(lens_space(P8, Subgroup.GEN_J, 2), theta(2, P8)) == 0


def _lens_difference(subtrahend, k, sigma, params):
    # the eta invariant of M_I - M_J (or M_I - M_xiJ), term by term
    return (eta_pair(lens_space(params, Subgroup.GEN_I, k), sigma)
            - eta_pair(lens_space(params, subtrahend, k), sigma))


def test_lens_difference_triples_order_8():
    for k in (1, 2, 3, 4):
        scale = Fraction(1, 2 ** k)
        vals_j = (_lens_difference(Subgroup.GEN_J, k, theta(1, P8), P8),
                  _lens_difference(Subgroup.GEN_J, k, theta(2, P8), P8),
                  _lens_difference(Subgroup.GEN_J, k, delta_power(1, P8), P8))
        assert vals_j == (2 * scale, scale, 0)
        vals_xij = (_lens_difference(Subgroup.GEN_XI_J, k, theta(1, P8), P8),
                    _lens_difference(Subgroup.GEN_XI_J, k, theta(2, P8), P8),
                    _lens_difference(Subgroup.GEN_XI_J, k, delta_power(1, P8), P8))
        assert vals_xij == (scale, 2 * scale, 0)


def test_lens_difference_triples_larger_orders():
    # direct evaluation gives 2^-k (ell/8 + 1, ell/8, 0); the delta entries
    # vanish for every order because the three subgroups carry identical
    # det-value multisets
    for params in (P16, P32):
        side = params.ell // 8
        for k in (1, 2, 3):
            scale = Fraction(1, 2 ** k)
            assert _lens_difference(Subgroup.GEN_J, k, theta(1, params), params) \
                == (side + 1) * scale
            assert _lens_difference(Subgroup.GEN_J, k, theta(2, params), params) \
                == side * scale
            for i in (1, 2, 3):
                assert _lens_difference(
                    Subgroup.GEN_J, k, delta_power(i, params), params) == 0
                assert _lens_difference(
                    Subgroup.GEN_XI_J, k, delta_power(i, params), params) == 0


def test_lens_difference_validation():
    with pytest.raises(ValueError):
        lens_space(P8, Subgroup.GEN_J, 0)
    with pytest.raises(ValueError):
        lens_space(P8, Subgroup.FULL, 2)


def test_pairings_return_the_exact_fraction():
    # 2^-2 (ell/8 + 1) = 9/4 at ell 64, not its residue 1/4: only the pairing
    # matrices and `qko eta` reduce mod 2Z
    params = GroupParams(64)
    space, theta1 = quaternion_space(params, 2), theta(1, params)
    values = [eta_pair(space, theta1, theta1), oracles.eta_pair(space, theta1, theta1),
              _lens_difference(Subgroup.GEN_J, 2, theta1, params)]
    assert [(type(v), v) for v in values] == [(Fraction, Fraction(9, 4))] * 3


def test_space_form_validation():
    with pytest.raises(ValueError):
        SpaceForm(P8, Subgroup.FULL, standard_fpf(P16, 2))
    # a subgroup named by its value once passed, and eta_pair then raised KeyError
    for bad in ("full", "I", None):
        with pytest.raises(TypeError):
            SpaceForm(P8, bad, standard_fpf(P8, 2))
        with pytest.raises(TypeError):
            lens_space(P8, bad, 2)
    space = quaternion_space(P16, 3)
    assert space.nu == 3
    assert 4 * space.nu - 1 == 11
    assert space.a_roof_factor == 1


def test_space_form_rejects_tau_of_another_group():
    with pytest.raises(ValueError, match="tau is defined over a different group"):
        SpaceForm(P16, Subgroup.FULL, FpfRep(P8, (1, 1)))

