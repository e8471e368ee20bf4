"""Independent oracles: the class-value evaluations the engine no longer uses.

Every function here works on character values at conjugacy-class
representatives, in exact cyclotomic arithmetic, the way the definitions
read: class functions are paired by their class sums, theta and the powers
of delta are their defining values re-expanded over the irreducibles, and an
eta invariant is the sum over the classes of the subgroup with one inverse
determinant per class.  The engine in :mod:`qko.groups` / :mod:`qko.eta`
evaluates the same quantities in the representation ring instead, so the two
share no arithmetic path; ``verify`` and the tests compare them.  Only they
import this module: no ``ksp`` / ``ko`` / ``eta`` computation calls it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cyclotomic import Cyclo
from .eta import EtaValue, NotReducedError, SpaceForm
from .groups import (
    FpfRep,
    GroupElement,
    GroupParams,
    NotVirtualError,
    Subgroup,
    VirtualCharacter,
    char_value,
    conjugacy_classes,
    det_I_minus,
    det_one_minus_gamma,
    irreducible_labels,
    quaternion_group,
)


def gamma_matrix(params: GroupParams, u: int, g: GroupElement) -> tuple[tuple[Cyclo, ...], ...]:
    """The explicit 2x2 unitary matrix of the representation indexed by u at
    g = xi^a J^b, diag(zeta^(ua), zeta^(-ua)) times [[0, (-1)^u], [1, 0]]^b."""
    g = quaternion_group(params).element(g.a, g.b)
    m = params.conductor
    zero = Cyclo.zero(m)
    za = Cyclo.root_of_unity(m, u * g.a)
    zb = Cyclo.root_of_unity(m, -u * g.a)
    if g.b == 0:
        return ((za, zero), (zero, zb))
    sign = Cyclo.rational((-1) ** (u % 2), m)
    return ((zero, sign * za), (zb, zero))


# ---------------------------------------------------------------------------
# Class-function pairing
# ---------------------------------------------------------------------------

def _pairing(params: GroupParams, v: Sequence[Cyclo], w: Sequence[Cyclo]) -> Fraction:
    """(1/ell) * sum_g v(g) conj(w(g)) for class functions given on the class
    representatives, when that sum is rational.

    Only the constant coefficient is formed: in the power basis the constant
    coefficient of v * conj(w) is the dot product of the coefficient vectors.
    Zero coefficients of w are skipped; an irreducible character value has at
    most two nonzero ones.
    """
    total = Fraction(0)
    for (_, size), x, y in zip(conjugacy_classes(params), v, w):
        total += size * sum(a * b for a, b in zip(x.coeffs, y.coeffs) if b)
    return total / params.ell


def inner_product(f1: VirtualCharacter, f2: VirtualCharacter) -> Fraction:
    """The class-function inner product (1/ell) * sum_g f1(g) conj(f2(g))."""
    if f1.params != f2.params:
        raise ValueError("virtual characters live over different groups")
    return _pairing(f1.params, f1.class_values(), f2.class_values())


def decompose(params: GroupParams, values: Sequence[Cyclo | Fraction | int]) -> VirtualCharacter:
    """Expand a class function, given by its values on the class representatives
    in the :func:`~qko.groups.conjugacy_classes` order, over the irreducibles.

    Raises :class:`NotVirtualError` if a multiplicity is non-integral or the
    expansion does not give back the values.
    """
    classes = conjugacy_classes(params)
    if len(values) != len(classes):
        raise ValueError(f"expected {len(classes)} class values, got {len(values)}")
    vals = tuple(v if isinstance(v, Cyclo) else Cyclo.rational(v, params.conductor)
                 for v in values)
    mults = {}
    for label in irreducible_labels(params):
        m = _pairing(params, vals, [char_value(params, label, rep) for rep, _ in classes])
        if m.denominator != 1:
            raise NotVirtualError(f"multiplicity of {label} is {m}, not an integer")
        mults[label] = int(m)
    result = VirtualCharacter(params, mults)
    if result.class_values() != vals:
        raise NotVirtualError(f"{result} does not take the given class values")
    return result


# ---------------------------------------------------------------------------
# The distinguished class functions and constants, from their defining values
# ---------------------------------------------------------------------------

def theta(i: int, params: GroupParams) -> VirtualCharacter:
    """theta_i re-expanded from its values: ell/4 at +-I, -2 on the xi^even*J
    class (i=1) or the xi^odd*J class (i=2), 0 elsewhere."""
    if i not in (1, 2):
        raise ValueError(f"theta index must be 1 or 2, got {i}")
    values = []
    for rep, _ in conjugacy_classes(params):
        if rep.b == 0 and rep.a == params.eighth:
            values.append(Fraction(params.quarter))
        elif rep.b == 1 and rep.a == (0 if i == 1 else 1):
            values.append(Fraction(-2))
        else:
            values.append(Fraction(0))
    return decompose(params, values)


@lru_cache(maxsize=4)
def _det_powers(i: int, params: GroupParams) -> tuple[Cyclo, ...]:
    # det(I - gamma1(rep))^i at every nonidentity class representative, from
    # the power one step nearer to 0; the negative ones start from one
    # inverse per class.  The cache only needs to hold that neighbour, since
    # callers ask for the powers in order; c_constant keeps its results.
    reps = [rep for rep, _ in conjugacy_classes(params)[1:]]
    if i == 0:
        return tuple(Cyclo.one(params.conductor) for _ in reps)
    if i == 1:
        return tuple(det_one_minus_gamma(params, 1, rep) for rep in reps)
    if i == -1:
        return tuple(d.inverse() for d in _det_powers(1, params))
    step = _det_powers(1 if i > 0 else -1, params)
    return tuple(x * y for x, y in zip(_det_powers(i - 1 if i > 0 else i + 1, params), step))


def delta_power(r: int, params: GroupParams) -> VirtualCharacter:
    """delta^r re-expanded from the pointwise r-th power of its values (r >= 1);
    delta vanishes at the identity."""
    if r < 1:
        raise ValueError(f"delta_power needs r >= 1, got {r}")
    return decompose(params, (0, *_det_powers(r, params)))


@lru_cache(maxsize=None)
def c_constant(i: int, params: GroupParams) -> Fraction:
    """(1/ell) * sum over nonidentity g of det(I - gamma1(g))^i, summed over the
    classes; i may be negative."""
    total = Cyclo.zero(params.conductor)
    for (_, size), power in zip(conjugacy_classes(params)[1:], _det_powers(i, params)):
        total = total + size * power
    return total.to_rational() / params.ell


# ---------------------------------------------------------------------------
# The eta invariant as a class sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _class_inverse_dets(params: GroupParams, subgroup: Subgroup, summands: tuple[int, ...]
                        ) -> tuple[tuple[GroupElement, int, Cyclo], ...]:
    # (representative, weight, det(I - tau)^(-1)) for each class that meets the
    # nonidentity part of the subgroup, weighted by the size of the meeting
    group = quaternion_group(params)
    tau = FpfRep(params, summands)
    weights = Counter(group.class_index(h) for h in group.subgroup_elements(subgroup)
                      if h != group.identity)
    return tuple((group.classes[idx][0], weight, det_I_minus(tau, group.classes[idx][0]).inverse())
                 for idx, weight in sorted(weights.items()))


def _class_sum(space: SpaceForm, values) -> Fraction:
    # (1/|H|) * sum over the nonidentity h of values(rep) * det(I - tau(h))^(-1)
    order = len(quaternion_group(space.params).subgroup_elements(space.subgroup))
    total = Cyclo.zero(space.params.conductor)
    for rep, weight, det_inv in _class_inverse_dets(space.params, space.subgroup,
                                                    space.tau.summands):
        total = total + weight * (values(rep) * det_inv)
    return total.to_rational() / order


def eta_vector(params: GroupParams, subgroup: Subgroup,
               summands: tuple[int, ...]) -> tuple[Fraction, ...]:
    """e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)) for
    each irreducible chi, as a class sum."""
    space = SpaceForm(params, subgroup, FpfRep(params, summands))
    return tuple(_class_sum(space, lambda rep, label=label: char_value(params, label, rep))
                 for label in irreducible_labels(params))


def eta_pair(space: SpaceForm, sigma: VirtualCharacter,
             bundle: VirtualCharacter | None = None) -> EtaValue:
    """The eta invariant as the class-weighted sum of
    sigma(h) * bundle(h) * det(I - tau(h))^(-1) over the nonidentity elements;
    raises :class:`~qko.cyclotomic.NotRationalError` if the sum is not rational."""
    if sigma.params != space.params or (bundle is not None and bundle.params != space.params):
        raise ValueError("characters live over a different group")
    if sigma.dimension != 0:
        raise NotReducedError(f"twisting character has dimension {sigma.dimension}, not 0")
    if bundle is None:
        exact = _class_sum(space, sigma.value)
    else:
        exact = _class_sum(space, lambda rep: sigma.value(rep) * bundle.value(rep))
    return EtaValue.from_exact(exact * space.a_roof_factor)
