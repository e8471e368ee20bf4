"""Eta invariants of quaternion spherical space forms.

For a space form S^(4*nu-1)/tau(H) the invariant attached to a dimension-zero
virtual character sigma is the finite sum

    (1/|H|) * sum over h in H - {1} of  Tr sigma(h) * det(I - tau(h))^(-1),

reduced mod 2Z.  Twisting by a virtual bundle rho inserts the extra factor
Tr rho(h); a cartesian Z^(4j) factor multiplies the value by its A-roof genus
(2 for odd j, 1 otherwise).  Every factor is a class function, so the sum runs
over the conjugacy classes that H - {1} meets, each weighted by the number of
elements of H - {1} it contains.  Everything is computed in exact cyclotomic
arithmetic and the total must come out rational; a failure to do so signals a
bug, not a rounding problem.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import Cyclo, Mod2Z
from .groups import (
    FpfRep,
    GroupElement,
    GroupParams,
    Subgroup,
    VirtualCharacter,
    det_I_minus,
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
    def sphere_dim(self) -> int:
        return 4 * self.tau.nu - 1

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
def _inverse_det_values(params: GroupParams, subgroup: Subgroup, summands: tuple[int, ...]
                        ) -> tuple[tuple[GroupElement, int, Cyclo], ...]:
    # (representative, weight, det(I - tau)^(-1)) for each class that meets the
    # nonidentity part of the subgroup, weighted by the size of the meeting;
    # cached because every twist over the same space reuses these.
    group = quaternion_group(params)
    tau = FpfRep(params, summands)
    weights = Counter(group.class_index(h) for h in group.subgroup_elements(subgroup)
                      if h != group.identity)
    out = []
    for idx, weight in sorted(weights.items()):
        rep = group.classes[idx][0]
        out.append((rep, weight, det_I_minus(tau, rep).inverse()))
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
    group = quaternion_group(space.params)
    order = len(group.subgroup_elements(space.subgroup))
    total = Cyclo.zero(space.params.conductor)
    for rep, weight, det_inv in _inverse_det_values(space.params, space.subgroup,
                                                    space.tau.summands):
        term = sigma.value(rep) * det_inv
        if bundle is not None:
            term = term * bundle.value(rep)
        total = total + weight * term
    exact = total.to_rational() / order * space.a_roof_factor
    return EtaValue.from_exact(exact)


def eta_theta_closed_form(i1: int, i2: int, nu: int, params: GroupParams) -> Fraction:
    """Independent closed form for the theta-theta pairings on the full group.

    Both class functions are supported on the order-4 elements, where the
    acting representation contributes det = 2 per summand, so the sum
    collapses to counting support overlaps: the two +-I elements always
    contribute (ell/4)^2 each, and the ell/2 reflections contribute 4 apiece
    exactly when the two indices agree.
    """
    if i1 not in (1, 2) or i2 not in (1, 2):
        raise ValueError("theta indices must be 1 or 2")
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    support = 2 * Fraction(params.ell, 4) ** 2
    if i1 == i2:
        support += 4 * Fraction(params.ell, 4)
    return Fraction(1, params.ell) * Fraction(1, 2 ** nu) * support


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
