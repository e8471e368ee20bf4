"""Independent oracles: the group law, class values and explicit determinants.

Every function here works on group elements and character values at them,
in exact cyclotomic arithmetic, the way the definitions read: the group law
enumerates elements and subgroups (the powers of a generator), a character
at an element is read from its signs at xi and J or is :func:`gamma_trace`,
and det(I - tau(g)) is a product of det(I - M) over the explicit matrices.
:func:`class_values` is the one place a virtual character is evaluated at
the classes, as one integer numerator vector per class, from the same
signs and roots as :func:`char_value`.  Class functions are paired by their
class sums, on integer numerators over one common denominator; theta and the
powers of delta are their defining values re-expanded over the
irreducibles, and an eta invariant is the sum over the classes of the
subgroup with one inverse determinant per class.  The engine in
:mod:`qko.groups` / :mod:`qko.eta` reads the group in closed form and works
in the representation ring, so the two share no group code; ``verify`` and
the tests compare them.  Only they import this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .cyclotomic import Cyclo, NotRationalError, _make, _product
from .eta import NotReducedError, SpaceForm
from .groups import (
    GroupElement,
    GroupParams,
    NotVirtualError,
    Subgroup,
    VirtualCharacter,
    _int_summands,
    _position,
    conjugacy_classes,
    irreducible_labels,
)


class QuaternionGroup:
    """The elements, multiplication and subgroups of the group for fixed ell."""

    def __init__(self, params: GroupParams) -> None:
        self.params = params
        self.identity = GroupElement(0, 0)
        self.elements = tuple(GroupElement(a, b)
                              for b in (0, 1) for a in range(params.half))

    def element(self, a: int, b: int) -> GroupElement:
        return GroupElement(a % self.params.half, b % 2)

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        a = g.a + (h.a if g.b == 0 else -h.a)
        if g.b and h.b:
            a += self.params.quarter  # J^2 = xi^(ell/4)
        return self.element(a, g.b + h.b)

    def inverse(self, g: GroupElement) -> GroupElement:
        if g.b == 0:
            return self.element(-g.a, 0)
        return self.element(g.a + self.params.quarter, 1)

    def class_index(self, g: GroupElement) -> int:
        """Position of the class of g in :func:`~qko.groups.conjugacy_classes`."""
        half, quarter = self.params.half, self.params.quarter
        a = g.a % half
        if g.b % 2:
            return quarter + 1 + a % 2
        if a == 0:
            return 0
        if a == quarter:
            return 1
        return min(a, half - a) + 1

    def subgroup_elements(self, which: Subgroup) -> tuple[GroupElement, ...]:
        if which is Subgroup.FULL:
            return self.elements
        generator = self.element(*{Subgroup.GEN_I: (self.params.eighth, 0), Subgroup.GEN_J: (0, 1),
                                   Subgroup.GEN_XI_J: (1, 1)}[which])
        out = [self.identity]
        while (g := self.mul(out[-1], generator)) != self.identity:
            out.append(g)
        return tuple(out)


@lru_cache(maxsize=None)
def quaternion_group(params: GroupParams) -> QuaternionGroup:
    return QuaternionGroup(params)


# the 1-dimensional characters rho0, kappa1, kappa2, kappa3: their signs at xi and at J
_SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _add_value(out: list[int], conductor: int, p: int, u: int, g: GroupElement, m: int) -> None:
    # out += m * chi(g) on integer numerators: chi is the 1-dimensional
    # character at position p < 4, from its signs, or for p >= 4 the trace
    # zeta^(ua) + zeta^(-ua) at xi^a (0 at xi^a J) of the representation
    # indexed by any integer u, each root put in the basis by zeta^(m/2) = -1
    if p < 4:
        at_xi, at_j = _SIGNS[p]
        out[0] += m * at_xi ** (g.a % 2) * at_j ** (g.b % 2)
    elif g.b % 2 == 0:
        n = conductor // 2
        for e in (u * g.a % conductor, -u * g.a % conductor):
            out[e % n] += m if e < n else -m


def gamma_trace(params: GroupParams, u: int, g: GroupElement) -> Cyclo:
    """Trace of the 2-dimensional representation indexed by u (any integer u):
    zeta^(ua) + zeta^(-ua) at xi^a, 0 at xi^a J."""
    out = [0] * (params.conductor // 2)
    _add_value(out, params.conductor, 4, u, g, 1)  # any position p >= 4
    return _make(params.conductor, out, 1)


def char_value(params: GroupParams, label: str, g: GroupElement) -> Cyclo:
    """Value of the irreducible character at a group element."""
    p = _position(params, label)
    out = [0] * (params.conductor // 2)
    _add_value(out, params.conductor, p, p - 3, g, 1)
    return _make(params.conductor, out, 1)


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


def explicit_det_I_minus(params: GroupParams, summands: Iterable[int], g: GroupElement) -> Cyclo:
    """det(I - tau(g)) for tau the sum of the indexed summands: the product of
    (1 - m00)(1 - m11) - m01 m10 over the summands' explicit matrices at g."""
    one = result = Cyclo.one(params.conductor)
    for s in summands:
        (m00, m01), (m10, m11) = gamma_matrix(params, s, g)
        result = result * ((one - m00) * (one - m11) - m01 * m10)
    return result


def is_fixed_point_free(params: GroupParams, summands: Iterable[int]) -> bool:
    """True iff det(I - rep(g)) is nonzero for every g != 1 (no parity assumption)."""
    summands = _int_summands(summands)
    return bool(summands) and all(explicit_det_I_minus(params, summands, rep)
                                  for rep, _ in conjugacy_classes(params)[1:])


# ---------------------------------------------------------------------------
# Class values and the class-function pairing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def class_values(f: VirtualCharacter) -> tuple[Cyclo, ...]:
    """sum over chi of m_chi * chi(rep) at each class representative, in the
    :func:`~qko.groups.conjugacy_classes` order: one integer numerator vector
    per class."""
    m = f.params.conductor
    terms = [(p, mult) for p, mult in enumerate(f.vector) if mult]
    out = []
    for rep, _ in conjugacy_classes(f.params):
        nums = [0] * (m // 2)
        for p, mult in terms:
            _add_value(nums, m, p, p - 3, rep, mult)
        out.append(_make(m, nums, 1))
    return tuple(out)


def _rational_sum(conductor: int,
                  terms: Iterable[tuple[int | Fraction, Cyclo, Cyclo | None]]) -> Fraction:
    # the sum of scale * a * b over the (scale, a, b) terms (b = None for 1),
    # which must be rational: one numerator vector over the lcm of the
    # denominators, with no Cyclo per term
    total, den = [0] * (conductor // 2), 1
    for scale, a, b in terms:
        if b is None:
            nums, d = a.nums, a.den * scale.denominator
        else:
            nums, d = _product(a.nums, b.nums), a.den * b.den * scale.denominator
        common = lcm(den, d)
        if common != den:
            total = [x * (common // den) for x in total]
            den = common
        factor = scale.numerator * (den // d)
        total = [x + factor * y for x, y in zip(total, nums)]
    if any(total[1:]):
        raise NotRationalError(f"{_make(conductor, total, den)!r} has irrational parts")
    return Fraction(total[0], den)


def _pairing(params: GroupParams, v: Sequence[Cyclo], w: Sequence[Cyclo]) -> Fraction:
    """(1/ell) * sum_g v(g) conj(w(g)) for class functions given on the class
    representatives, when that sum is rational.

    Only the constant coefficient is formed: in the power basis the constant
    coefficient of v * conj(w) is the dot product of the coefficient vectors,
    taken on the integer numerators and added over the lcm of the
    denominators into one Fraction.
    """
    terms = [(size * sum(map(mul, x.nums, y.nums)), x.den * y.den)
             for (_, size), x, y in zip(conjugacy_classes(params), v, w)]
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den * params.ell)


def inner_product(f1: VirtualCharacter, f2: VirtualCharacter) -> Fraction:
    """The class-function inner product (1/ell) * sum_g f1(g) conj(f2(g))."""
    if f1.params != f2.params:
        raise ValueError("virtual characters live over different groups")
    return _pairing(f1.params, class_values(f1), class_values(f2))


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
        m = _pairing(params, vals, class_values(VirtualCharacter.irreducible(params, label)))
        if m.denominator != 1:
            raise NotVirtualError(f"multiplicity of {label} is {m}, not an integer")
        mults[label] = int(m)
    result = VirtualCharacter(params, mults)
    if class_values(result) != vals:
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
        return tuple(explicit_det_I_minus(params, (1,), rep) for rep in reps)
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
    terms = zip(conjugacy_classes(params)[1:], _det_powers(i, params))
    return _rational_sum(params.conductor,
                         ((size, power, None) for (_, size), power in terms)) / params.ell


# ---------------------------------------------------------------------------
# The eta invariant as a class sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _class_inverse_dets(params: GroupParams, subgroup: Subgroup, summands: tuple[int, ...]
                        ) -> tuple[tuple[int, int, Cyclo], ...]:
    # (class index, weight, det(I - tau)^(-1)) for each class that meets the
    # nonidentity part of the subgroup, weighted by the size of the meeting
    group, classes = quaternion_group(params), conjugacy_classes(params)
    weights = Counter(group.class_index(h) for h in group.subgroup_elements(subgroup)
                      if h != group.identity)
    return tuple((idx, weight, explicit_det_I_minus(params, summands, classes[idx][0]).inverse())
                 for idx, weight in sorted(weights.items()))


@lru_cache(maxsize=None)
def _sigma_side(sigma: VirtualCharacter, subgroup: Subgroup, summands: tuple[int, ...]
                ) -> tuple[tuple[int, Cyclo], ...]:
    # (class index, (weight/|H|) * sigma(c) * det(I - tau(c))^(-1)) for each class
    # c met by the nonidentity part of the subgroup: the half of an eta_pair
    # class sum that every bundle shares, and alone the summands of eta_vector
    params = sigma.params
    order = len(quaternion_group(params).subgroup_elements(subgroup))
    values = class_values(sigma)
    return tuple((idx, values[idx] * det_inv * Fraction(weight, order))
                 for idx, weight, det_inv in _class_inverse_dets(params, subgroup, summands))


def eta_vector(params: GroupParams, subgroup: Subgroup,
               summands: tuple[int, ...]) -> tuple[Fraction, ...]:
    """e[chi] = (1/|H|) * sum over h in H - {1} of chi(h) / det(I - tau(h)) for
    each irreducible chi, as a class sum."""
    if not isinstance(subgroup, Subgroup):
        raise TypeError(f"subgroup {subgroup!r} is not a Subgroup")
    sides = (_sigma_side(VirtualCharacter.irreducible(params, label), subgroup, summands)
             for label in irreducible_labels(params))
    return tuple(_rational_sum(params.conductor, ((1, value, None) for _, value in side))
                 for side in sides)


def eta_pair(space: SpaceForm, sigma: VirtualCharacter,
             bundle: VirtualCharacter | None = None) -> Fraction:
    """The eta invariant as the class-weighted sum of
    sigma(h) * bundle(h) * det(I - tau(h))^(-1) over the nonidentity elements;
    raises :class:`~qko.cyclotomic.NotRationalError` if the sum is not rational."""
    if sigma.params != space.params or (bundle is not None and bundle.params != space.params):
        raise ValueError("characters live over a different group")
    if sigma.dimension != 0:
        raise NotReducedError(f"twisting character has dimension {sigma.dimension}, not 0")
    side = _sigma_side(sigma, space.subgroup, space.tau.summands)
    if bundle is None:
        terms = ((1, value, None) for _, value in side)
    else:
        bundle_values = class_values(bundle)
        terms = ((1, value, bundle_values[idx]) for idx, value in side)
    return _rational_sum(space.params.conductor, terms) * space.a_roof_factor
