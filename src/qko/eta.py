"""Eta invariants of quaternion spherical space forms.

For a space form S^(4*nu-1)/tau(H) the invariant attached to a dimension-zero
virtual character sigma is the finite sum

    (1/|H|) * sum over h in H - {1} of  Tr sigma(h) * det(I - tau(h))^(-1),

reduced mod 2Z.  Twisting by a virtual bundle rho inserts the extra factor
Tr rho(h); a cartesian Z^(4j) factor multiplies the value by its A-roof genus
(2 for odd j, 1 otherwise).

The sum is linear in the class function sigma * rho, so it is evaluated in
the representation ring.  The fusion rules of :mod:`qko.groups` expand
sigma * rho over the irreducibles chi in integers, and the invariant is that
integer combination of one rational eta vector per (group, subgroup, tau):

    e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)).

The vector is summed over Galois orbits rather than classes.  The rotations
of H of one order M >= 4 form an orbit of zeta -> zeta^t (t odd), which
carries chi(h) / det(I - tau(h)) to its conjugates, so their sum is a field
trace: M/2 times the constant coefficient of that quotient at one rotation,
in the field of conductor M.  One tower inverse per order serves every tau,
since the factor of the summand gamma_u is the conjugate zeta -> zeta^u of
the factor of gamma_1.  The other classes are rational: det(I - tau) is 4^nu
at -1 and 2^nu at the reflections xi^a J.  Every value is exact and rational
by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from .cyclotomic import Cyclo, Mod2Z
from .groups import (
    FpfRep,
    GroupElement,
    GroupParams,
    Subgroup,
    VirtualCharacter,
    det_I_minus,
    irreducible_labels,
    label_positions,
    quaternion_group,
    standard_fpf,
)


class NotReducedError(ValueError):
    """Raised when the twisting character does not have dimension zero."""


@dataclass(frozen=True)
class SpaceForm:
    """A quotient of the sphere by a free action, optionally crossed with Z^(4j).

    The subgroup field picks the full quaternion group or one of its order-4
    cyclic subgroups; the acting representation is always the restriction of a
    fixed point free representation of the full group, which stays free.
    """

    params: GroupParams
    subgroup: Subgroup
    tau: FpfRep
    z_factor: int = 0

    def __post_init__(self) -> None:
        if self.tau.params != self.params:
            raise ValueError("tau is defined over a different group")
        if self.z_factor < 0:
            raise ValueError(f"z_factor must be >= 0, got {self.z_factor}")

    @property
    def nu(self) -> int:
        return self.tau.nu

    @property
    def a_roof_factor(self) -> int:
        return 2 if self.z_factor % 2 else 1


def quaternion_space(params: GroupParams, nu: int, z_factor: int = 0) -> SpaceForm:
    """The dimension 4*nu-1 space form of the full group, acting by nu standard summands."""
    return SpaceForm(params, Subgroup.FULL, standard_fpf(params, nu), z_factor)


def lens_space(params: GroupParams, subgroup: Subgroup, k: int, z_factor: int = 0) -> SpaceForm:
    """The lens-space companion over one of the order-4 cyclic subgroups."""
    if subgroup is Subgroup.FULL:
        raise ValueError("lens spaces are quotients by the proper cyclic subgroups")
    return SpaceForm(params, subgroup, standard_fpf(params, k), z_factor)


@dataclass(frozen=True)
class EtaValue:
    """An eta invariant: the exact rational kept for diagnostics, plus its residue mod 2Z."""

    exact: Fraction
    residue: Mod2Z

    @classmethod
    def from_exact(cls, exact: Fraction) -> EtaValue:
        return cls(exact, Mod2Z(exact))

    def __sub__(self, other: EtaValue) -> EtaValue:
        return EtaValue.from_exact(self.exact - other.exact)

    def __add__(self, other: EtaValue) -> EtaValue:
        return EtaValue.from_exact(self.exact + other.exact)


@lru_cache(maxsize=None)
def _factor_inverse(params: GroupParams, order: int) -> Cyclo:
    """det(I - gamma_1(g))^(-1) at the rotation g = xi^(ell/(2*order)) of the
    given order >= 4, in the field of conductor ``order`` that holds it."""
    step = params.half // order
    det = det_I_minus(standard_fpf(params, 1), GroupElement(step, 0))
    return Cyclo(order, det.coeffs[::step]).inverse()


@lru_cache(maxsize=None)
def _inverse_det_values(params: GroupParams, order: int, summands: tuple[int, ...]) -> Cyclo:
    # det(I - tau(g))^(-1) at the rotation g of the given order, for the
    # summands in ascending order: the product of the conjugates zeta ->
    # zeta^u of one factor.  Cached, with every prefix, because every twist
    # and every space whose summands share a prefix reuse it.
    last = _factor_inverse(params, order)
    if summands[-1] != 1:
        last = last.galois(summands[-1])
    if len(summands) == 1:
        return last
    return _inverse_det_values(params, order, summands[:-1]) * last


def _shifted_constant(y: Sequence[Fraction], j: int) -> Fraction:
    """The constant coefficient of zeta^j * y, y given in the power basis."""
    n = len(y)
    e = -j % (2 * n)
    return y[e] if e < n else -y[e - n]


@lru_cache(maxsize=None)
def eta_vector(params: GroupParams, subgroup: Subgroup,
               summands: tuple[int, ...]) -> tuple[Fraction, ...]:
    """e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)),
    for each irreducible chi in :func:`irreducible_labels` order."""
    members = quaternion_group(params).subgroup_elements(subgroup)
    half, nu = params.half, len(summands)
    # H meets every rotation of each order it meets, since it is a subgroup;
    # each one contains -1, the element of order 2
    orders = sorted({half // gcd(h.a, half) for h in members if not h.b and h.a} - {2})
    key = tuple(sorted(summands))
    levels = [(m, _inverse_det_values(params, m, key).coeffs) for m in orders]
    reflections = Counter(h.a % 2 for h in members if h.b)
    # det(I - tau) is 4^nu at -1 and 2^nu at every reflection xi^a J
    at_minus_one, at_reflection = Fraction(1, 4 ** nu), Fraction(1, 2 ** nu)
    out = []
    for p in range(len(irreducible_labels(params))):
        if p < 4:
            sign_xi, sign_j = (-1) ** (p & 1), (-1) ** (p >> 1)
            total = at_minus_one + at_reflection * sign_j * (reflections[0]
                                                             + sign_xi * reflections[1])
            # the rotation of order m is xi^(half/m), an odd power only when m = half
            total += sum(m // 2 * (sign_xi if m == half else 1) * y[0] for m, y in levels)
        else:
            u = p - 3
            total = 2 * (-1) ** u * at_minus_one
            total += sum(m // 2 * (_shifted_constant(y, u) + _shifted_constant(y, -u))
                         for m, y in levels)
        out.append(total / len(members))
    return tuple(out)


def eta_pair(space: SpaceForm, sigma: VirtualCharacter,
             bundle: VirtualCharacter | None = None) -> EtaValue:
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
    vector = eta_vector(space.params, space.subgroup, space.tau.summands)
    positions = label_positions(space.params)
    exact = sum((m * vector[positions[label]] for label, m in product.mults.items()),
                Fraction(0))
    return EtaValue.from_exact(exact * space.a_roof_factor)


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


def eta_lens_difference(subtrahend: Subgroup, k: int, sigma: VirtualCharacter,
                        params: GroupParams) -> EtaValue:
    """Eta invariant of the difference of lens spaces over <I> and over the
    given order-4 subgroup (<J> or <xi*J>), both with k standard summands."""
    if subtrahend not in (Subgroup.GEN_J, Subgroup.GEN_XI_J):
        raise ValueError("the subtracted lens space must be over <J> or <xi*J>")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    first = eta_pair(lens_space(params, Subgroup.GEN_I, k), sigma)
    second = eta_pair(lens_space(params, subtrahend, k), sigma)
    return first - second
