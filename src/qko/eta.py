"""Eta invariants of quaternion spherical space forms.

For a space form S^(4*nu-1)/tau(H) the invariant attached to a dimension-zero
virtual character sigma is the finite sum

    (1/|H|) * sum over h in H - {1} of  Tr sigma(h) * det(I - tau(h))^(-1),

read mod 2Z.  Twisting by a virtual bundle rho inserts the extra factor
Tr rho(h); a cartesian Z^(4j) factor multiplies the value by its A-roof genus
(2 for odd j, 1 otherwise).  The functions here return the exact rational;
whoever reads a residue reduces it ``% 2`` into [0, 2).

The sum is linear in the class function sigma * rho, so it is evaluated in
the representation ring.  The fusion rules of :mod:`qko.groups` expand
sigma * rho over the irreducibles chi in integers, and the invariant is that
integer combination of one rational eta vector per (group, subgroup, tau):

    e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)).

The vector is ``int`` numerators over one positive ``int`` denominator in
lowest terms, so a pairing is the dot product of two integer vectors, the
multiplicities of sigma * rho and these numerators, and one ``Fraction``.

Each subgroup H meets the rotations in the powers of xi^(ell/2M), M = ell/2 in
the full group, 4 in <I> and 2 in <J> and <xi*J>, so the vector is a fold of
one rotation sum T(u) = sum over zeta^M = 1, zeta != 1 of zeta^u /
det(I - tau(zeta)), u mod M (:func:`_rotation_sums`): a 1-dimensional
character reads T(0) or T(M/2), gamma_u reads T(u) + T(-u), and each
reflection xi^a J adds its sign over 2^nu.  In T, zeta = -1 gives
(-1)^u / 4^nu, and the roots of one order m >= 4 form an orbit of zeta ->
zeta^t (t odd), so their sum is a field trace: m/2 times one constant
coefficient in the field of conductor m, where det(I - tau) is that of xi in
the group of order 2m.  So each order costs one determinant and one tower
inverse, whatever tau is.  Every value is exact and rational by construction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .cyclotomic import Cyclo
from .groups import (
    FpfRep,
    GroupElement,
    GroupParams,
    Subgroup,
    VirtualCharacter,
    det_I_minus,
    one_dim_sign,
    standard_fpf,
)


class NotReducedError(ValueError):
    """Raised when the twisting character does not have dimension zero."""


class SpaceForm(namedtuple("SpaceForm", "params subgroup tau z_factor")):
    """A quotient of the sphere by a free action, optionally crossed with Z^(4j).

    A named tuple checked when built.  The subgroup field picks the full
    quaternion group or one of its order-4 cyclic subgroups; the acting
    representation is always the restriction of a fixed point free
    representation of the full group, which stays free.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, params: GroupParams, subgroup: Subgroup, tau: FpfRep,
                z_factor: int = 0) -> SpaceForm:
        if tau.params != params:
            raise ValueError("tau is defined over a different group")
        if not isinstance(subgroup, Subgroup):
            raise TypeError(f"subgroup {subgroup!r} is not a Subgroup")
        if not isinstance(z_factor, int):
            raise TypeError(f"z_factor {z_factor!r} is not an int")
        if z_factor < 0:
            raise ValueError(f"z_factor must be >= 0, got {z_factor}")
        return super().__new__(cls, params, subgroup, tau, z_factor)

    @property
    def nu(self) -> int:
        return self.tau.nu

    @property
    def a_roof_factor(self) -> int:
        return 2 if self.z_factor % 2 else 1


def quaternion_space(params: GroupParams, nu: int, z_factor: int = 0) -> SpaceForm:
    """The dimension 4*nu-1 space form of the full group, acting by nu standard summands."""
    return SpaceForm(params, Subgroup.FULL, standard_fpf(params, nu), z_factor)


def lens_space(params: GroupParams, subgroup: Subgroup, k: int) -> SpaceForm:
    """The lens-space companion over one of the order-4 cyclic subgroups."""
    if subgroup is Subgroup.FULL:
        raise ValueError("lens spaces are quotients by the proper cyclic subgroups")
    return SpaceForm(params, subgroup, standard_fpf(params, k))


def _inverse_det(summands: tuple[int, ...], order: int) -> Cyclo:
    """det(I - tau(g))^(-1) at a rotation g of the given order >= 4, taken at xi
    in the group of order 2*order, whose gamma_s agree, in that group's field."""
    return det_I_minus(FpfRep(GroupParams(2 * order), summands), GroupElement(1, 0)).inverse()


def _shifted_constant(y: Cyclo, j: int) -> int:
    """The numerator, over y.den, of the constant coefficient of zeta^j * y."""
    n = len(y.nums)
    e = -j % (2 * n)
    return y.nums[e] if e < n else -y.nums[e - n]


def _rotation_sums(summands: tuple[int, ...], order: int) -> tuple[tuple[int, ...], int]:
    """T(u) for each u mod M = order, as int numerators over one int denominator
    that 4^nu divides: zeta = -1 gives (-1)^u / 4^nu, and the roots of each order
    4 <= m | M their Galois trace (m/2) * c0(zeta_m^u * y), y = _inverse_det."""
    quad = 4 ** len(summands)
    levels = [_inverse_det(summands, 1 << k) for k in range(2, order.bit_length())]
    den = lcm(quad, *(y.den for y in levels))
    sums = [den // quad, -den // quad] * (order // 2)
    for y in levels:  # the trace of order m is m/2 = len(y.nums) times c0
        scale = len(y.nums) * (den // y.den)
        sums = [t + scale * _shifted_constant(y, u) for u, t in enumerate(sums)]
    return tuple(sums), den


def _subgroup_shape(params: GroupParams, subgroup: Subgroup) -> tuple[int, int, tuple[int, int]]:
    """|H|, the order M of its rotations (the powers of xi^(ell/2M), -1 among them)
    and its numbers of reflections xi^a J with a even and odd: ell/2 and ell/4 of
    each parity in the full group, 4 and none in <I> = {+-1, +-I}, and 2 and two of
    the parity of J, resp. xi*J, in <J> and <xi*J>, as -J = xi^(ell/4) J, ell/4 even."""
    if subgroup is Subgroup.FULL:
        return params.ell, params.half, (params.quarter, params.quarter)
    return {Subgroup.GEN_I: (4, 4, (0, 0)), Subgroup.GEN_J: (4, 2, (2, 0)),
            Subgroup.GEN_XI_J: (4, 2, (0, 2))}[subgroup]


@lru_cache(maxsize=None)
def _eta_numerators(params: GroupParams, subgroup: Subgroup,
                    summands: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    # The eta vector as int numerators over one positive int denominator in lowest terms.
    SpaceForm(params, subgroup, FpfRep(params, summands))  # rejects bad subgroups and summands
    order, rotations, reflections = _subgroup_shape(params, subgroup)
    sums, den = _rotation_sums(summands, rotations)
    step, at_reflection = params.half // rotations, den >> len(summands)
    # a 1-dimensional character is t^0 or t^(M/2) on <xi^step>; a reflection adds sign / 2^nu
    nums = [sums[0 if one_dim_sign(p, step, 0) > 0 else rotations // 2]
            + at_reflection * sum(one_dim_sign(p, a, 1) * count for a, count in enumerate(reflections))
            for p in range(4)]
    nums += [sums[u % rotations] + sums[-u % rotations] for u in range(1, params.quarter)]
    g = gcd(den * order, *nums)
    return tuple(x // g for x in nums), den * order // g


def eta_vector(params: GroupParams, subgroup: Subgroup,
               summands: tuple[int, ...]) -> tuple[Fraction, ...]:
    """e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)),
    for each irreducible chi in :func:`irreducible_labels` order."""
    nums, den = _eta_numerators(params, subgroup, summands)
    return tuple(Fraction(x, den) for x in nums)


def eta_pair(space: SpaceForm, sigma: VirtualCharacter,
             bundle: VirtualCharacter | None = None) -> Fraction:
    """Eta invariant of the space form twisted by sigma, evaluated on the
    (virtual, locally flat) bundle attached to ``bundle``; ``None`` means the
    untwisted invariant.

    sigma must have dimension zero, else the invariant is not well defined and
    :class:`NotReducedError` is raised.
    """
    if sigma.params != space.params or (bundle is not None and bundle.params != space.params):
        raise ValueError("characters live over a different group")
    if sigma.dimension != 0:
        raise NotReducedError(f"twisting character has dimension {sigma.dimension}, not 0")
    product = sigma if bundle is None else sigma * bundle
    nums, den = _eta_numerators(space.params, space.subgroup, space.tau.summands)
    total = sum(map(mul, product.vector, nums))
    return Fraction(total * space.a_roof_factor, den)


def eta_theta_closed_form(i1: int, i2: int, nu: int, params: GroupParams) -> Fraction:
    """Independent closed form for the theta-theta pairings on the full group:
    2^(-nu) * (ell/8 + [i1 == i2]).

    Both class functions are supported on the order-4 elements, where the
    acting representation contributes det = 2 per summand, so the sum
    collapses to counting support overlaps: the two +-I elements always
    contribute (ell/4)^2 each, and the ell/2 reflections contribute 4 apiece
    exactly when the two indices agree; (1/ell) * (2 (ell/4)^2 + 4 (ell/4))
    is ell/8 + 1.  The ktheory theta and lens blocks and verify's lens
    triples are this value, scaled.
    """
    if i1 not in (1, 2) or i2 not in (1, 2):
        raise ValueError("theta indices must be 1 or 2")
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    return Fraction(params.eighth + (i1 == i2), 2 ** nu)

