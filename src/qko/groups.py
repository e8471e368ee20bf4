"""The generalized quaternion group of 2-power order and its character theory.

The group of order ell = 2^j >= 8 is generated by a primitive (ell/2)-th root
of unity xi and the quaternion unit J, subject to J^2 = xi^(ell/4) and
J xi J^(-1) = xi^(-1).  Elements are written xi^a J^b with a mod ell/2 and
b in {0, 1}.  Character values live in the cyclotomic field of conductor
ell/2, handled exactly by :mod:`qko.cyclotomic`.

The ell/4 + 3 conjugacy classes are known in closed form -- {1}, {-1},
{xi^(+-a)} for 0 < a < ell/4, {xi^even J} and {xi^odd J} -- and so are the
irreducible characters: four 1-dimensional ones and gamma_u for
0 < u < ell/4, at positions 0-3 and 3 + u.  A virtual character is one
integer vector of multiplicities in that order, and labels are read or
written only at the boundary.  Virtual characters multiply in the
representation ring by integer fusion rules on positions, never through
their class values: the 1-dimensional characters form a Klein group, a
1-dimensional character fixes or reflects the index u of gamma_u, and
gamma_u * gamma_v = gamma_(u+v) + gamma_(u-v), folded back into range.  The
classes theta_i and delta^r are closed forms, and c_i is one entry of a
binomial row (i >= 1) or a cotangent power sum (i <= 0), so this module
imports from qko.cyclotomic alone.  No element is multiplied or enumerated
here: the group law, character values at elements and class values live in
:mod:`qko.oracles`.  The character table is written from the exponents of
the at most two roots of unity in each value; the one Cyclo the engine
builds is :func:`det_I_minus`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, sub
from types import MappingProxyType

from .cyclotomic import Cyclo, _format_terms


class InvalidParamsError(ValueError):
    """Raised for a group order that is not a 2-power >= 8."""


class NotVirtualError(ArithmeticError):
    """Raised when a class function has a non-integral irreducible multiplicity."""


class GroupParams(namedtuple("GroupParams", "ell")):
    """The order ell = 2^j >= 8 of the quaternion group, a named tuple checked when built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, ell: int) -> GroupParams:
        if ell < 8 or ell & (ell - 1):
            raise InvalidParamsError(f"group order must be a power of two >= 8, got {ell}")
        return super().__new__(cls, ell)

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


class GroupElement(namedtuple("GroupElement", "a b")):
    """xi^a J^b, with a reduced mod ell/2 and b mod 2."""

    __slots__ = ()


class Subgroup(Enum):
    """The full group or one of its three non-conjugate order-4 cyclic subgroups."""

    FULL = "full"
    GEN_I = "I"        # generated by I = xi^(ell/8)
    GEN_J = "J"        # generated by J
    GEN_XI_J = "xiJ"   # generated by xi*J


@lru_cache(maxsize=None)
def conjugacy_classes(params: GroupParams) -> tuple[tuple[GroupElement, int], ...]:
    """Class representatives and sizes, ordered 1, -1, xi^a (a ascending), J, xi*J,
    since J xi^a J^(-1) = xi^(-a) and xi^c (xi^a J) xi^(-c) = xi^(a+2c) J; each
    representative is the minimum of its class."""
    q = params.quarter
    return ((GroupElement(0, 0), 1), (GroupElement(q, 0), 1),
            *((GroupElement(a, 0), 2) for a in range(1, q)),
            (GroupElement(0, 1), q), (GroupElement(1, 1), q))


def element_name(params: GroupParams, g: GroupElement) -> str:
    """xi^a J^b written as 1, -1, xi^a, J, xi*J or xi^a*J, with a mod ell/2."""
    a = g.a % params.half
    if g.b % 2 == 0:
        return "1" if a == 0 else "-1" if a == params.quarter else f"xi^{a}"
    return "J" if a == 0 else "xi*J" if a == 1 else f"xi^{a}*J"


# ---------------------------------------------------------------------------
# Irreducible characters
# ---------------------------------------------------------------------------

_ONE_DIM_LABELS = ("rho0", "kappa1", "kappa2", "kappa3")


def one_dim_sign(p: int, a: int, b: int) -> int:
    """The 1-dimensional character at position p < 4, at xi^a J^b:
    (-1)^((p & 1) a + (p >> 1) b)."""
    return -1 if ((p & 1) * a + (p >> 1) * b) % 2 else 1


@lru_cache(maxsize=None)
def irreducible_labels(params: GroupParams) -> tuple[str, ...]:
    """The ell/4 + 3 irreducible characters: four 1-dimensional, the rest 2-dimensional.

    Position p < 4 holds the 1-dimensional character whose value at xi^a J^b is
    :func:`one_dim_sign` (p, a, b); position 3 + u holds gamma_u.
    """
    return _ONE_DIM_LABELS + tuple(f"gamma{u}" for u in range(1, params.quarter))


@lru_cache(maxsize=None)
def label_positions(params: GroupParams) -> Mapping[str, int]:
    """Each irreducible label's position in :func:`irreducible_labels` (read-only)."""
    return MappingProxyType({label: p for p, label in enumerate(irreducible_labels(params))})


def _position(params: GroupParams, label: str) -> int:
    try:
        return label_positions(params)[label]
    except KeyError:
        raise ValueError(f"unknown irreducible label {label!r} for ell={params.ell}") from None


def char_dim(label: str) -> int:
    return 1 if label in _ONE_DIM_LABELS else 2


@lru_cache(maxsize=None)
def _rotation_string(m: int, e: int) -> str:
    # zeta^e + zeta^(-e) in conductor m, written as char_strings describes
    n = m // 2
    if 2 * e in (n, 3 * n):
        return "0"
    if e % n == 0:
        return "2" if e == 0 else "-2"
    i, sign = e % n, 1 if e < n else -1
    terms = ((i, sign), (n - i, -sign)) if 2 * i < n else ((n - i, -sign), (i, sign))
    return _format_terms(m, terms)


def char_strings(params: GroupParams, label: str) -> list[str]:
    """The irreducible character's values at the classes, in
    :func:`conjugacy_classes` order, each written as ``str`` of its
    :func:`~qko.oracles.char_value` but from integers alone.

    With m the conductor and n = m/2, gamma_u(xi^a) = zeta^e + zeta^(-e) for
    e = ua mod m: 2 at e = 0, -2 at e = n, 0 at e = n/2 and 3n/2, and otherwise
    +-(z^i - z^(n-i)) with i = e mod n, + for e < n, in ascending powers.  The
    table has at most m distinct such entries, and each is formatted once.
    """
    p = _position(params, label)
    classes = conjugacy_classes(params)
    if p < 4:
        return [str(one_dim_sign(p, g.a, g.b)) for g, _ in classes]
    u, m = p - 3, params.conductor
    return ["0" if g.b else _rotation_string(m, u * g.a % m) for g, _ in classes]


# ---------------------------------------------------------------------------
# Virtual characters
# ---------------------------------------------------------------------------

class VirtualCharacter:
    """An integer combination of irreducible characters, used as a class function.

    It is its group and one read-only integer ``vector``, one multiplicity per
    irreducible in :func:`irreducible_labels` order; it is immutable and
    hashable, and products go by the fusion rules.  Labels are read and
    written only at the boundary: the ``{label: m}`` constructor,
    :meth:`irreducible`, :attr:`mults` and the repr.  A multiplicity that is
    not an ``int`` or :class:`~fractions.Fraction` raises ``TypeError``, and a
    ``Fraction`` that is not an integer :class:`NotVirtualError`.
    """

    __slots__ = ("params", "vector")

    def __init__(self, params: GroupParams, mults: Mapping[str, int]) -> None:
        vector = [0] * len(irreducible_labels(params))
        for label, m in mults.items():
            p = _position(params, label)
            if not isinstance(m, (int, Fraction)):
                raise TypeError(f"multiplicity of {label} is not an int or Fraction: {m!r}")
            if int(m) != m:
                raise NotVirtualError(f"multiplicity of {label} is not an integer: {m}")
            vector[p] = int(m)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "vector", tuple(vector))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VirtualCharacter values are immutable")

    def __reduce__(self) -> tuple:  # for pickle and copy, which would set the slots
        return _character, (self.params, self.vector)

    @classmethod
    def zero(cls, params: GroupParams) -> VirtualCharacter:
        return _character(params, (0,) * len(irreducible_labels(params)))

    @classmethod
    def irreducible(cls, params: GroupParams, label: str) -> VirtualCharacter:
        return cls(params, {label: 1})

    @property
    def mults(self) -> dict[str, int]:
        """The nonzero multiplicities by label, in :func:`irreducible_labels` order."""
        return {label: m for label, m in zip(irreducible_labels(self.params), self.vector) if m}

    @property
    def dimension(self) -> int:
        v = self.vector
        return sum(v[:4]) + 2 * sum(v[4:])

    def _binary(self, other: VirtualCharacter, op) -> VirtualCharacter:
        if self.params != other.params:
            raise ValueError("virtual characters live over different groups")
        return _character(self.params, tuple(map(op, self.vector, other.vector)))

    def __add__(self, other: VirtualCharacter) -> VirtualCharacter:
        return self._binary(other, add)

    def __sub__(self, other: VirtualCharacter) -> VirtualCharacter:
        return self._binary(other, sub)

    def __neg__(self) -> VirtualCharacter:
        return _character(self.params, tuple(-m for m in self.vector))

    def __mul__(self, other: object) -> VirtualCharacter:
        if isinstance(other, VirtualCharacter):
            return fusion_product(self, other)
        if not isinstance(other, int):
            return NotImplemented
        return _character(self.params, tuple(other * m for m in self.vector))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.params == other.params and self.vector == other.vector

    def __hash__(self) -> int:
        return hash((self.params, self.vector))

    def __repr__(self) -> str:
        out = ""
        for label, m in self.mults.items():
            term = label if abs(m) == 1 else f"{abs(m)}*{label}"
            if m < 0:
                out += f" - {term}" if out else f"-{term}"
            else:
                out += f" + {term}" if out else term
        return out or "0"


def _character(params: GroupParams, vector: tuple[int, ...]) -> VirtualCharacter:
    """The virtual character with the given multiplicity vector, unchecked."""
    f = object.__new__(VirtualCharacter)
    object.__setattr__(f, "params", params)
    object.__setattr__(f, "vector", vector)
    return f


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


@lru_cache(maxsize=None)
def fusion_product(f1: VirtualCharacter, f2: VirtualCharacter) -> VirtualCharacter:
    """The tensor product of two virtual characters, in integers alone, by the
    fusion rules of the irreducibles; each product is formed once."""
    if f1.params != f2.params:
        raise ValueError("virtual characters live over different groups")
    params = f1.params
    folded = _folded(params)
    out = [0] * len(f1.vector)
    terms2 = [(q, m2) for q, m2 in enumerate(f2.vector) if m2]
    for p, m1 in enumerate(f1.vector):
        if not m1:
            continue
        for q, m2 in terms2:
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
    return _character(params, tuple(out))


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
    # I = xi^(ell/8); R = J = xi^0 J for i = 1 and xi^1 J for i = 2
    one_dim = ((one_dim_sign(p, params.eighth, 0) - one_dim_sign(p, i - 1, 1)) // 2
               for p in range(4))
    gammas = (0 if u % 2 else (-1) ** (u // 2) for u in range(1, params.quarter))
    return _character(params, (*one_dim, *gammas))


def _binomial_row(r: int, w: int, m: int) -> int:
    """B_w, the coefficient of t^w in (2 - t - 1/t)^r = sum (-1)^e C(2r, r+e) t^e mod t^m - 1."""
    return sum((-1) ** (e % 2) * comb(2 * r, r + e) for e in range(w - (w + r) // m * m, r + 1, m))


@lru_cache(maxsize=None)
def delta_power(r: int, params: GroupParams) -> VirtualCharacter:
    """delta^r (r >= 1), delta = 2*rho0 - gamma1 = det(I - gamma1(.)): 2^r at J and xi*J,
    (2 - t - 1/t)^r on <xi>.  So gamma_u occurs B_u = _binomial_row(r, u, ell/2) times, 0 when
    r < min(u, ell/2 - u); kappa1 = kappa3 = B_(ell/4)/2, rho0 = c_r, kappa2 = c_r - 2^r."""
    if r < 1:
        raise ValueError(f"delta_power needs r >= 1, got {r}")
    m, q, c = params.half, params.quarter, int(c_constant(r, params))
    b = [_binomial_row(r, w, m) if w <= r or m - w <= r else 0 for w in range(1, q + 1)]
    return _character(params, (c, b[-1] // 2, c - 2 ** r, b[-1] // 2, *b[:-1]))


@lru_cache(maxsize=None)
def c_constant(i: int, params: GroupParams) -> Fraction:
    """(1/ell) * sum over nonidentity g of det(I - gamma1(g))^i; i may be negative.

    With M = ell/2, the M reflections give det 2 and the rotations 2 - z - 1/z at
    the M-th roots of unity z.  For i >= 1, summing over z keeps M times the
    constant term B_0 of (2 - z - 1/z)^i mod z^M - 1: c_i = (2^i + B_0)/2.
    For i = -k <= 0 the rotations but 1 give the M - 1 roots x of
    sin^2(Mt)/sin^2(t) = M^2 sum_r a_r x^r, x = 4 sin^2 t,
    a_r = (-1)^r C(M+r, 2r+1)/((r+1)M); c_i = (S_k + M/2^k)/ell.
    """
    m, k = params.half, -i
    if i > 0:
        return Fraction(2 ** i + _binomial_row(i, 0, m), 2)
    a = [Fraction((-1) ** r * comb(m + r, 2 * r + 1), (r + 1) * m) for r in range(k + 1)]
    sums = [Fraction(m - 1)]  # S_n, the sum of x^(-n), by Newton's identities
    for n in range(1, k + 1):
        sums.append(-n * a[n] - sum(a[r] * sums[n - r] for r in range(1, n)))
    return (sums[k] + Fraction(m, 2 ** k)) / params.ell


def fs_indicator(params: GroupParams, label: str) -> int:
    """Frobenius-Schur indicator: +1 real type, -1 quaternion type, 0 complex type.

    In closed form: every irreducible is self-dual; the 1-dimensional ones and
    the even gamma_u are real, the odd gamma_u quaternionic.
    """
    p = _position(params, label)
    return -1 if p > 3 and (p - 3) % 2 else 1


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
    v = sigma.vector  # the odd gamma_u sit at v[4::2]
    doubled = v[4::2] if base == "RO" else v[:4] + v[5::2]
    return not any(m % 2 for m in doubled)


# ---------------------------------------------------------------------------
# Fixed point free representations
# ---------------------------------------------------------------------------

def _int_summands(summands: Iterable[int]) -> tuple[int, ...]:
    """The summand indices as a tuple; any that is not an int raises TypeError
    rather than being truncated."""
    summands = tuple(summands)
    for s in summands:
        if not isinstance(s, int):
            raise TypeError(f"summand index {s!r} is not an int")
    return summands


class FpfRep(namedtuple("FpfRep", "params summands")):
    """A direct sum of 2-dimensional representations indexed by odd integers, acting
    freely on the unit sphere in C^(2*nu): a named tuple checked when built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, params: GroupParams, summands: Iterable[int]) -> FpfRep:
        summands = _int_summands(summands)
        if not summands:
            raise ValueError("a fixed point free representation needs at least one summand")
        for s in summands:
            if s % 2 == 0:
                raise ValueError(f"summand index {s} is even, so the action has fixed points")
        return super().__new__(cls, params, summands)

    @property
    def nu(self) -> int:
        return len(self.summands)


def standard_fpf(params: GroupParams, nu: int) -> FpfRep:
    """nu copies of the index-1 summand; the 'which tau' choice never matters."""
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    return FpfRep(params, (1,) * nu)


def det_I_minus(tau: FpfRep, g: GroupElement) -> Cyclo:
    """det(I - tau(g)), the product over the odd summands s (det gamma_s = 1) of
    2 - chi_s(g): 2 at xi^a J and 2 - zeta^(sa) - zeta^(-sa) at xi^a, each root
    put in the basis by zeta^(m/2) = -1.  The one Cyclo the engine builds."""
    m, n = tau.params.conductor, tau.params.conductor // 2
    result = Cyclo.one(m)
    for s in tau.summands:
        coeffs = [2] + [0] * (n - 1)
        for e in () if g.b % 2 else (s * g.a % m, -s * g.a % m):
            coeffs[e % n] -= 1 if e < n else -1
        result = result * Cyclo(m, coeffs)
    return result
