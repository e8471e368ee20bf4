"""Exact arithmetic in 2-power cyclotomic fields and in the circle group Q/2Z.

A :class:`Cyclo` stores an element of Q(zeta_m), m a power of two, by its
coordinates in the power basis {1, zeta, ..., zeta^(m/2 - 1)}.  Because the
minimal polynomial of zeta over Q is x^(m/2) + 1, that representation is
unique and equality is coefficient-wise.  All coefficients are
:class:`fractions.Fraction`; nothing in this module rounds.

Each value lives in one field: adding, multiplying or comparing values of
different conductors raises ``ValueError``.  Inversion needs no linear
algebra: it takes field norms down the 2-power tower to a rational reciprocal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]


class ZeroInverseError(ZeroDivisionError):
    """Raised when inverting the zero cyclotomic number."""


class NotRationalError(ArithmeticError):
    """Raised when a value expected to be rational has irrational parts."""


def _check_conductor(m: int) -> None:
    if m < 2 or m & (m - 1):
        raise ValueError(f"conductor must be a power of two >= 2, got {m}")


def _product(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """a * b modulo x^n + 1, n = len(a) = len(b): a negacyclic convolution.

    It runs on integers over the product of the two common denominators; the
    factor with fewer nonzero coefficients drives the outer loop.
    """
    n = len(a)
    if sum(1 for x in a if x) > sum(1 for y in b if y):
        a, b = b, a
    da = lcm(*(x.denominator for x in a))
    db = lcm(*(y.denominator for y in b))
    ib = [y.numerator * (db // y.denominator) for y in b]
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        c = x.numerator * (da // x.denominator)
        out[i:] = [o + c * y for o, y in zip(out[i:], ib)]
        out[:i] = [o - c * y for o, y in zip(out[:i], ib[n - i:])]
    d = da * db
    return [Fraction(c, d) for c in out]


def _inverse(a: Sequence[Fraction]) -> list[Fraction]:
    """1 / a modulo x^n + 1 for nonzero a, n = len(a) a power of two.

    a(x) * a(-x) has only even powers, so it is N(x^2) with N in
    Q[y]/(y^(n/2) + 1); then 1/a = a(-x) * N^(-1)(x^2).
    """
    n = len(a)
    if n == 1:
        return [1 / a[0]]
    flipped = [-c if i & 1 else c for i, c in enumerate(a)]
    spread = [Fraction(0)] * n
    spread[::2] = _inverse(_product(a, flipped)[::2])
    return _product(flipped, spread)


class Cyclo:
    """An element of the cyclotomic field of 2-power conductor.

    ``Cyclo(8, [2, -1, 0, -1])`` is 2 - zeta - zeta^3 with zeta = zeta_8.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[Scalar]) -> None:
        _check_conductor(conductor)
        n = conductor // 2
        if len(coeffs) != n:
            raise ValueError(f"conductor {conductor} needs {n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs",
                           tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cyclo values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> Cyclo:
        return cls(conductor, [0] * (conductor // 2))

    @classmethod
    def one(cls, conductor: int) -> Cyclo:
        return cls.rational(1, conductor)

    @classmethod
    def rational(cls, value: Scalar, conductor: int) -> Cyclo:
        coeffs = [Fraction(value)] + [Fraction(0)] * (conductor // 2 - 1)
        return cls(conductor, coeffs)

    @classmethod
    def root_of_unity(cls, conductor: int, power: int = 1) -> Cyclo:
        """zeta_m^power, reduced into the power basis via zeta^(m/2) = -1."""
        _check_conductor(conductor)
        n = conductor // 2
        e = power % conductor
        coeffs = [Fraction(0)] * n
        if e < n:
            coeffs[e] = Fraction(1)
        else:
            coeffs[e - n] = Fraction(-1)
        return cls(conductor, coeffs)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other: object) -> "Cyclo | None":
        if isinstance(other, Cyclo):
            if other.conductor != self.conductor:
                raise ValueError(f"conductors differ: {self.conductor} and {other.conductor}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(other, self.conductor)
        return None

    def __add__(self, other: object) -> Cyclo:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Cyclo(self.conductor, [x + y for x, y in zip(self.coeffs, rhs.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> Cyclo:
        return Cyclo(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other: object) -> Cyclo:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> Cyclo:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> Cyclo:
        if isinstance(other, (int, Fraction)):
            return Cyclo(self.conductor, [c * other for c in self.coeffs])
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Cyclo(self.conductor, _product(self.coeffs, rhs.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Cyclo:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclo.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> Cyclo:
        """Multiplicative inverse, by the field-norm recursion of :func:`_inverse`."""
        if self.is_zero():
            raise ZeroInverseError("zero has no inverse")
        return Cyclo(self.conductor, _inverse(self.coeffs))

    def galois(self, t: int) -> Cyclo:
        """The image under the field automorphism zeta -> zeta^t, t odd."""
        m, n = self.conductor, self.conductor // 2
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            e = i * t % m
            if e < n:
                out[e] += c
            else:
                out[e - n] -= c
        return Cyclo(m, out)

    def conjugate(self) -> Cyclo:
        """Complex conjugation, the field automorphism zeta -> zeta^(-1)."""
        return self.galois(-1)

    # -- predicates and extraction -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} has irrational parts")
        return self.coeffs[0]

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.coeffs == rhs.coeffs

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclo({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            sym = f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}"
            if c == 1:
                terms.append(sym)
            elif c == -1:
                terms.append(f"-{sym}")
            else:
                terms.append(f"{c}*{sym}")
        if not terms:
            return "0"
        text = terms[0]
        for t in terms[1:]:
            text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return text


class Mod2Z:
    """A rational residue modulo 2Z, held by its canonical representative in [0, 2)."""

    __slots__ = ("rep",)

    def __init__(self, value: Scalar) -> None:
        object.__setattr__(self, "rep", Fraction(value) % 2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Mod2Z values are immutable")

    def __add__(self, other: object) -> Mod2Z:
        if isinstance(other, Mod2Z):
            return Mod2Z(self.rep + other.rep)
        if isinstance(other, (int, Fraction)):
            return Mod2Z(self.rep + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Mod2Z:
        return Mod2Z(-self.rep)

    def __sub__(self, other: object) -> Mod2Z:
        if isinstance(other, Mod2Z):
            return Mod2Z(self.rep - other.rep)
        if isinstance(other, (int, Fraction)):
            return Mod2Z(self.rep - other)
        return NotImplemented

    def __mul__(self, other: object) -> Mod2Z:
        if isinstance(other, int):
            return Mod2Z(self.rep * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mod2Z):
            return self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == Fraction(other) % 2
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Mod2Z", self.rep))

    def __bool__(self) -> bool:
        return bool(self.rep)

    def __repr__(self) -> str:
        return f"Mod2Z({self.rep})"

    def __str__(self) -> str:
        return f"{self.rep.numerator}/{self.rep.denominator}"
