"""Exact computation of quaternion-group eta invariants and the symplectic /
real connective K-theory groups they determine."""

from .abelian import AbelianGroup, DimensionMismatchError, quotient_group
from .cyclotomic import Cyclo, NotRationalError, ZeroInverseError
from .eta import NotReducedError, SpaceForm, eta_pair, lens_space, quaternion_space
from .groups import (
    GroupParams,
    InvalidParamsError,
    NotVirtualError,
    Subgroup,
    VirtualCharacter,
    delta_power,
    irreducible_labels,
    theta,
)
from .ktheory import KGroupReport, StructureMismatchError, ko_group, ksp_group

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Cyclo",
    "DimensionMismatchError",
    "GroupParams",
    "InvalidParamsError",
    "KGroupReport",
    "NotRationalError",
    "NotReducedError",
    "NotVirtualError",
    "SpaceForm",
    "StructureMismatchError",
    "Subgroup",
    "VirtualCharacter",
    "ZeroInverseError",
    "delta_power",
    "eta_pair",
    "irreducible_labels",
    "ko_group",
    "ksp_group",
    "lens_space",
    "quaternion_space",
    "quotient_group",
    "theta",
]
