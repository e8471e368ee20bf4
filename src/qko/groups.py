"""The generalized quaternion group of 2-power order and its character theory.

The group of order ell = 2^j >= 8 is generated by a primitive (ell/2)-th root
of unity xi and the quaternion unit J, subject to J^2 = xi^(ell/4) and
J xi J^(-1) = xi^(-1).  Elements are written xi^a J^b with a mod ell/2 and
b in {0, 1}.  Character values live in the cyclotomic field of conductor
ell/2, handled exactly by :mod:`qko.cyclotomic`.

The ell/4 + 3 conjugacy classes are known in closed form -- {1}, {-1},
{xi^(+-a)} for 0 < a < ell/4, {xi^even J} and {xi^odd J} -- and so are the
irreducible characters: four 1-dimensional ones and gamma_u for
0 < u < ell/4.  Virtual characters are integer combinations of them and
multiply in the representation ring by integer fusion rules, never through
their class values: the 1-dimensional characters form a Klein group, a
1-dimensional character fixes or reflects the index u of gamma_u, and
gamma_u * gamma_v = gamma_(u+v) + gamma_(u-v), folded back into range.  The
distinguished classes theta_i and delta^r and the constants c_i are closed
forms or fusion products.  Class values remain for the character table, for
det(I - tau) and for the independent checks in :mod:`qko.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .cyclotomic import Cyclo


class InvalidParamsError(ValueError):
    """Raised for a group order that is not a 2-power >= 8."""


class NotVirtualError(ArithmeticError):
    """Raised when a class function has a non-integral irreducible multiplicity."""


@dataclass(frozen=True)
class GroupParams:
    """The order ell = 2^j >= 8 of the quaternion group under study."""

    ell: int

    def __post_init__(self) -> None:
        if self.ell < 8 or self.ell & (self.ell - 1):
            raise InvalidParamsError(f"group order must be a power of two >= 8, got {self.ell}")

    @property
    def half(self) -> int:
        return self.ell // 2

    @property
    def quarter(self) -> int:
        return self.ell // 4

    @property
    def eighth(self) -> int:
        return self.ell // 8

    @property
    def conductor(self) -> int:
        """Conductor of the field containing all character values."""
        return self.half


class GroupElement(NamedTuple):
    """xi^a J^b, with a reduced mod ell/2 and b mod 2."""

    a: int
    b: int


class Subgroup(Enum):
    """The full group or one of its three non-conjugate order-4 cyclic subgroups."""

    FULL = "full"
    GEN_I = "I"        # generated by I = xi^(ell/8)
    GEN_J = "J"        # generated by J
    GEN_XI_J = "xiJ"   # generated by xi*J


class QuaternionGroup:
    """Multiplication table, conjugacy classes and subgroups for fixed ell."""

    def __init__(self, params: GroupParams) -> None:
        self.params = params
        self.identity = GroupElement(0, 0)
        self.elements = tuple(GroupElement(a, b)
                              for b in (0, 1) for a in range(params.half))
        q = params.quarter
        # J xi^a J^(-1) = xi^(-a) and xi^c (xi^a J) xi^(-c) = xi^(a+2c) J;
        # each representative is the minimum of its class
        self.classes = ((GroupElement(0, 0), 1), (GroupElement(q, 0), 1),
                        *((GroupElement(a, 0), 2) for a in range(1, q)),
                        (GroupElement(0, 1), q), (GroupElement(1, 1), q))

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

    def square(self, g: GroupElement) -> GroupElement:
        return self.mul(g, g)

    def class_index(self, g: GroupElement) -> int:
        """Position of the class of g in :attr:`classes`."""
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
        generator = {
            Subgroup.GEN_I: self.element(self.params.eighth, 0),
            Subgroup.GEN_J: self.element(0, 1),
            Subgroup.GEN_XI_J: self.element(1, 1),
        }[which]
        out = [self.identity]
        g = generator
        while g != self.identity:
            out.append(g)
            g = self.mul(g, generator)
        return tuple(out)

    def element_name(self, g: GroupElement) -> str:
        g = self.element(g.a, g.b)
        if g.b == 0:
            if g.a == 0:
                return "1"
            if g.a == self.params.quarter:
                return "-1"
            return f"xi^{g.a}"
        if g.a == 0:
            return "J"
        if g.a == 1:
            return "xi*J"
        return f"xi^{g.a}*J"


@lru_cache(maxsize=None)
def quaternion_group(params: GroupParams) -> QuaternionGroup:
    return QuaternionGroup(params)


def conjugacy_classes(params: GroupParams) -> tuple[tuple[GroupElement, int], ...]:
    """Class representatives and sizes, ordered 1, -1, xi^a (a ascending), J, xi*J."""
    return quaternion_group(params).classes


# ---------------------------------------------------------------------------
# Irreducible characters
# ---------------------------------------------------------------------------

_ONE_DIM = {
    # label: (value at xi, value at J)
    "rho0": (1, 1),
    "kappa1": (-1, 1),
    "kappa2": (1, -1),
    "kappa3": (-1, -1),
}


@lru_cache(maxsize=None)
def irreducible_labels(params: GroupParams) -> tuple[str, ...]:
    """The ell/4 + 3 irreducible characters: four 1-dimensional, the rest 2-dimensional.

    Position p < 4 holds the 1-dimensional character with value
    (-1)^((p & 1) a + (p >> 1) b) at xi^a J^b; position 3 + u holds gamma_u.
    """
    return tuple(_ONE_DIM) + tuple(f"gamma{u}" for u in range(1, params.quarter))


@lru_cache(maxsize=None)
def label_positions(params: GroupParams) -> Mapping[str, int]:
    """Each irreducible label's position in :func:`irreducible_labels` (read-only)."""
    return MappingProxyType({label: p for p, label in enumerate(irreducible_labels(params))})


def char_dim(label: str) -> int:
    return 1 if label in _ONE_DIM else 2


def _gamma_index(label: str) -> int | None:
    if label.startswith("gamma"):
        return int(label[5:])
    return None


def gamma_trace(params: GroupParams, u: int, g: GroupElement) -> Cyclo:
    """Trace of the 2-dimensional representation indexed by u (any integer u)."""
    group = quaternion_group(params)
    g = group.element(g.a, g.b)
    if g.b:
        return Cyclo.zero(params.conductor)
    return (Cyclo.root_of_unity(params.conductor, u * g.a)
            + Cyclo.root_of_unity(params.conductor, -u * g.a))


@lru_cache(maxsize=None)
def _char_value(params: GroupParams, label: str, a: int, b: int) -> Cyclo:
    u = _gamma_index(label)
    if u is not None:
        return gamma_trace(params, u, GroupElement(a, b))
    sx, sj = _ONE_DIM[label]
    return Cyclo.rational(sx ** (a % 2) * sj ** b, params.conductor)


def char_value(params: GroupParams, label: str, g: GroupElement) -> Cyclo:
    """Value of the irreducible character at a group element."""
    if label not in label_positions(params):
        raise ValueError(f"unknown irreducible label {label!r} for ell={params.ell}")
    g = quaternion_group(params).element(g.a, g.b)
    return _char_value(params, label, g.a, g.b)


def det_one_minus_gamma(params: GroupParams, u: int, g: GroupElement) -> Cyclo:
    """det(I - gamma_u(g)) = 1 - chi_u(g) + det gamma_u(g), where det gamma_u(g)
    is -1 at the xi^a J elements for even u and +1 otherwise; for odd u this
    is 2 - chi_u(g)."""
    det = -1 if g.b % 2 and u % 2 == 0 else 1
    return Cyclo.rational(1 + det, params.conductor) - gamma_trace(params, u, g)


# ---------------------------------------------------------------------------
# Virtual characters
# ---------------------------------------------------------------------------

class VirtualCharacter:
    """An integer combination of irreducible characters, used as a class function.

    The multiplicity vector is the canonical exact form; the value vector on
    conjugacy-class representatives is derived (and cached) from it.
    """

    __slots__ = ("params", "_mults", "_values")

    def __init__(self, params: GroupParams, mults: Mapping[str, int]) -> None:
        positions = label_positions(params)
        clean = {}
        for label, m in mults.items():
            if label not in positions:
                raise ValueError(f"unknown irreducible label {label!r} for ell={params.ell}")
            if int(m) != m:
                raise NotVirtualError(f"multiplicity of {label} is not an integer: {m}")
            if m:
                clean[label] = int(m)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_mults", tuple(sorted(clean.items(),
                                                        key=lambda kv: positions[kv[0]])))
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VirtualCharacter values are immutable")

    @classmethod
    def zero(cls, params: GroupParams) -> VirtualCharacter:
        return cls(params, {})

    @classmethod
    def irreducible(cls, params: GroupParams, label: str) -> VirtualCharacter:
        return cls(params, {label: 1})

    @property
    def mults(self) -> dict[str, int]:
        return dict(self._mults)

    @property
    def dimension(self) -> int:
        return sum(m * char_dim(label) for label, m in self._mults)

    def class_values(self) -> tuple[Cyclo, ...]:
        cached = self._values
        if cached is None:
            reps = conjugacy_classes(self.params)
            zero = Cyclo.zero(self.params.conductor)
            cached = tuple(
                sum((m * char_value(self.params, label, rep) for label, m in self._mults),
                    zero)
                for rep, _ in reps)
            object.__setattr__(self, "_values", cached)
        return cached

    def value(self, g: GroupElement) -> Cyclo:
        idx = quaternion_group(self.params).class_index(g)
        return self.class_values()[idx]

    def _binary(self, other: VirtualCharacter, sign: int) -> VirtualCharacter:
        if self.params != other.params:
            raise ValueError("virtual characters live over different groups")
        mults = self.mults
        for label, m in other._mults:
            mults[label] = mults.get(label, 0) + sign * m
        return VirtualCharacter(self.params, mults)

    def __add__(self, other: VirtualCharacter) -> VirtualCharacter:
        return self._binary(other, 1)

    def __sub__(self, other: VirtualCharacter) -> VirtualCharacter:
        return self._binary(other, -1)

    def __neg__(self) -> VirtualCharacter:
        return VirtualCharacter(self.params, {label: -m for label, m in self._mults})

    def __mul__(self, other: object) -> VirtualCharacter:
        if isinstance(other, VirtualCharacter):
            return fusion_product(self, other)
        if not isinstance(other, int):
            return NotImplemented
        return VirtualCharacter(self.params, {label: other * m for label, m in self._mults})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.params == other.params and self._mults == other._mults

    def __hash__(self) -> int:
        return hash((self.params, self._mults))

    def __repr__(self) -> str:
        if not self._mults:
            return "0"
        parts = []
        for label, m in self._mults:
            if m == 1:
                text = label
            elif m == -1:
                text = f"-{label}"
            else:
                text = f"{m}*{label}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@lru_cache(maxsize=None)
def _folded(params: GroupParams) -> tuple[tuple[int, ...], ...]:
    """Positions of the constituents of gamma_w for each w mod ell/2, folded by
    gamma_(-w) = gamma_(w + ell/2) = gamma_w, gamma_0 = rho0 + kappa2 and
    gamma_(ell/4) = kappa1 + kappa3."""
    out = []
    for w in range(params.half):
        w = min(w, params.half - w)
        out.append((0, 2) if w == 0 else (1, 3) if w == params.quarter else (3 + w,))
    return tuple(out)


def fusion_product(f1: VirtualCharacter, f2: VirtualCharacter) -> VirtualCharacter:
    """The tensor product of two virtual characters, in integers alone, by the
    fusion rules of the irreducibles."""
    if f1.params != f2.params:
        raise ValueError("virtual characters live over different groups")
    params = f1.params
    positions = label_positions(params)
    labels = irreducible_labels(params)
    folded = _folded(params)
    out = [0] * len(labels)
    for l1, m1 in f1._mults:
        p = positions[l1]
        for l2, m2 in f2._mults:
            q = positions[l2]
            m = m1 * m2
            if p < 4 and q < 4:
                # the 1-dimensional characters multiply as the Klein group
                out[p ^ q] += m
            elif p < 4 or q < 4:
                # kappa2 * gamma_u = gamma_u, kappa1 * gamma_u = kappa3 * gamma_u = gamma_(ell/4 - u)
                one, g = (p, q) if p < 4 else (q, p)
                out[g if one % 2 == 0 else params.quarter + 6 - g] += m
            else:
                # gamma_u * gamma_v = gamma_(u+v) + gamma_(u-v)
                for r in folded[(p + q - 6) % params.half] + folded[(p - q) % params.half]:
                    out[r] += m
    return VirtualCharacter(params, {labels[r]: m for r, m in enumerate(out) if m})


# ---------------------------------------------------------------------------
# The distinguished class functions and constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def theta(i: int, params: GroupParams) -> VirtualCharacter:
    """The dimension-zero class function supported on the order-4 elements:
    ell/4 at +-I, -2 on the xi^even*J class (i=1) or the xi^odd*J class (i=2).

    In closed form: those classes have sizes 2 and ell/4, so a real
    irreducible chi occurs (chi(I) - chi(R))/2 times, R = J for i=1 and xi*J
    for i=2.  That is (-1)^j for gamma_(2j), 0 for odd gamma_u, and for the
    1-dimensional characters the difference of their signs at I and at R.
    """
    if i not in (1, 2):
        raise ValueError(f"theta index must be 1 or 2, got {i}")
    mults = {}
    for p, label in enumerate(_ONE_DIM):
        at_i = (-1) ** ((p & 1) * params.eighth)
        at_r = (-1) ** ((p & 1) * (i - 1) + (p >> 1))
        mults[label] = (at_i - at_r) // 2
    for j in range(1, params.eighth):
        mults[f"gamma{2 * j}"] = (-1) ** j
    return VirtualCharacter(params, mults)


def delta(params: GroupParams) -> VirtualCharacter:
    """The virtual character 2*rho0 - gamma1; its class function is det(I - gamma1(.))."""
    return VirtualCharacter(params, {"rho0": 2, "gamma1": -1})


@lru_cache(maxsize=None)
def delta_power(r: int, params: GroupParams) -> VirtualCharacter:
    """delta^r in the representation ring (r >= 1): r - 1 fusion products."""
    if r < 1:
        raise ValueError(f"delta_power needs r >= 1, got {r}")
    power = delta(params)
    for _ in range(r - 1):
        power = fusion_product(power, delta(params))
    return power


@lru_cache(maxsize=None)
def c_constant(i: int, params: GroupParams) -> Fraction:
    """(1/ell) * sum over nonidentity g of det(I - gamma1(g))^i; i may be negative.

    For i >= 1 that is the multiplicity of rho0 in delta^i (delta vanishes at
    the identity), for i = 0 it is (ell - 1)/ell, and for i < 0 it is the eta
    vector's rho0 entry for the full group acting by |i| copies of gamma1.
    """
    if i > 0:
        return Fraction(delta_power(i, params).mults.get("rho0", 0))
    if i == 0:
        return Fraction(params.ell - 1, params.ell)
    from .eta import eta_vector  # eta builds on this module
    return eta_vector(params, Subgroup.FULL, (1,) * -i)[0]


def fs_indicator(params: GroupParams, label: str) -> int:
    """Frobenius-Schur indicator: +1 real type, -1 quaternion type, 0 complex type.

    In closed form: every irreducible is self-dual; the 1-dimensional ones and
    the even gamma_u are real, the odd gamma_u quaternionic.
    """
    if label not in label_positions(params):
        raise ValueError(f"unknown irreducible label {label!r} for ell={params.ell}")
    u = _gamma_index(label)
    return -1 if u is not None and u % 2 else 1


_RINGS = ("RU", "RU0", "RO", "RO0", "RSp", "RSp0")


def membership(sigma: VirtualCharacter, ring: str) -> bool:
    """Whether sigma lies in the stated lattice of the unitary representation ring.

    The real span has 2*gamma_odd but plain gamma_even and 1-dim generators;
    the quaternionic span doubles exactly the complementary generators.  The
    trailing 0 adds the dimension-zero condition.
    """
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}; expected one of {_RINGS}")
    if ring.endswith("0") and sigma.dimension != 0:
        return False
    base = ring.rstrip("0")
    if base == "RU":
        return True
    for label, m in sigma.mults.items():
        u = _gamma_index(label)
        if base == "RO":
            doubled = u is not None and u % 2 == 1
        else:  # RSp
            doubled = u is None or u % 2 == 0
        if doubled and m % 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Fixed point free representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpfRep:
    """A direct sum of 2-dimensional representations indexed by odd integers,
    acting freely on the unit sphere in C^(2*nu)."""

    params: GroupParams
    summands: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "summands", tuple(int(s) for s in self.summands))
        if not self.summands:
            raise ValueError("a fixed point free representation needs at least one summand")
        for s in self.summands:
            if s % 2 == 0:
                raise ValueError(f"summand index {s} is even, so the action has fixed points")

    @property
    def nu(self) -> int:
        return len(self.summands)


def standard_fpf(params: GroupParams, nu: int) -> FpfRep:
    """nu copies of the index-1 summand; the 'which tau' choice never matters."""
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    return FpfRep(params, (1,) * nu)


def det_I_minus(tau: FpfRep, g: GroupElement) -> Cyclo:
    """det(I - tau(g)), the product of the per-summand 2x2 determinants."""
    result = Cyclo.one(tau.params.conductor)
    for s in tau.summands:
        result = result * det_one_minus_gamma(tau.params, s, g)
    return result


def is_fixed_point_free(params: GroupParams, summands: Iterable[int]) -> bool:
    """True iff det(I - rep(g)) is nonzero for every g != 1 (no parity assumption)."""
    summands = tuple(int(s) for s in summands)
    if not summands:
        return False
    for rep, _ in conjugacy_classes(params)[1:]:
        value = Cyclo.one(params.conductor)
        for s in summands:
            value = value * det_one_minus_gamma(params, s, rep)
        if value.is_zero():
            return False
    return True
