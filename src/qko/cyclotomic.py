"""Exact arithmetic in 2-power cyclotomic fields and in the circle group Q/2Z.

A :class:`Cyclo` stores an element of Q(zeta_m), m a power of two, by its
coordinates in the power basis {1, zeta, ..., zeta^(m/2 - 1)}.  Because the
minimal polynomial of zeta over Q is x^(m/2) + 1, that representation is
unique.  It is held as ``int`` numerators ``nums`` over one positive ``int``
``den`` in lowest terms, so equality is numerator-wise and the arithmetic runs
on integers.  Inputs must be ``int`` or :class:`fractions.Fraction`; nothing in
this module rounds.

Each value lives in one field: adding, multiplying or comparing values of
different conductors raises ``ValueError``.  Inversion needs no linear
algebra: it takes field norms down the 2-power tower to a rational reciprocal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]


class ZeroInverseError(ZeroDivisionError):
    """Raised when inverting the zero cyclotomic number."""


class NotRationalError(ArithmeticError):
    """Raised when a value expected to be rational has irrational parts."""


def _check_conductor(m: int) -> None:
    if m < 2 or m & (m - 1):
        raise ValueError(f"conductor must be a power of two >= 2, got {m}")


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b modulo x^n + 1, n = len(a) = len(b): a negacyclic convolution of
    integer vectors.  The factor with fewer nonzero entries drives the outer loop."""
    n = len(a)
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * n
    for i, c in enumerate(a):
        if not c:
            continue
        out[i:] = [o + c * y for o, y in zip(out[i:], b)]
        out[:i] = [o - c * y for o, y in zip(out[:i], b[n - i:])]
    return out


def _inverse(a: Sequence[int]) -> tuple[list[int], int]:
    """1 / a modulo x^n + 1 for a nonzero integer vector a, n = len(a) a power
    of two, as integer numerators over a positive denominator.

    a(x) * a(-x) has only even powers, so it is N(x^2) with N in
    Q[y]/(y^(n/2) + 1); then 1/a = a(-x) * N^(-1)(x^2).  Each level first
    divides a by its content, so the integers do not grow like den^(2^k).
    """
    content = gcd(*a)
    a = [x // content for x in a]
    if len(a) == 1:
        return a, content  # 1 / (content * (+-1))
    flipped = [-c if i & 1 else c for i, c in enumerate(a)]
    nums, den = _inverse(_product(a, flipped)[::2])
    spread = [0] * len(a)
    spread[::2] = nums
    return _product(flipped, spread), den * content


def _make(conductor: int, nums: Sequence[int], den: int) -> Cyclo:
    # the value nums / den (den > 0), put in lowest terms; no checks
    if den != 1 and (g := gcd(den, *nums)) != 1:
        nums, den = [x // g for x in nums], den // g
    value = object.__new__(Cyclo)
    object.__setattr__(value, "conductor", conductor)
    object.__setattr__(value, "nums", tuple(nums))
    object.__setattr__(value, "den", den)
    return value


class Cyclo:
    """An element of the cyclotomic field of 2-power conductor.

    ``Cyclo(8, [2, -1, 0, -1])`` is 2 - zeta - zeta^3 with zeta = zeta_8.
    """

    __slots__ = ("conductor", "nums", "den")

    def __new__(cls, conductor: int, coeffs: Sequence[Scalar]) -> Cyclo:
        _check_conductor(conductor)
        n = conductor // 2
        if len(coeffs) != n:
            raise ValueError(f"conductor {conductor} needs {n} coefficients, got {len(coeffs)}")
        if set(map(type, coeffs)) == {int}:
            return _make(conductor, coeffs, 1)
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError(f"coefficients must be int or Fraction, got {set(map(type, coeffs))}")
        den = lcm(*(c.denominator for c in coeffs))
        return _make(conductor, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cyclo values are immutable")

    def __reduce__(self) -> tuple:  # for pickle and copy, which would set the slots
        return _make, (self.conductor, self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as :class:`~fractions.Fraction` values."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> Cyclo:
        return cls(conductor, [0] * (conductor // 2))

    @classmethod
    def one(cls, conductor: int) -> Cyclo:
        return cls.rational(1, conductor)

    @classmethod
    def rational(cls, value: Scalar, conductor: int) -> Cyclo:
        return cls(conductor, [value] + [0] * (conductor // 2 - 1))

    @classmethod
    def root_of_unity(cls, conductor: int, power: int = 1) -> Cyclo:
        """zeta_m^power, reduced into the power basis via zeta^(m/2) = -1."""
        _check_conductor(conductor)
        n = conductor // 2
        e = power % conductor
        coeffs = [0] * n
        coeffs[e % n] = 1 if e < n else -1
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
        den = lcm(self.den, rhs.den)
        fx, fy = den // self.den, den // rhs.den
        return _make(self.conductor, [x * fx + y * fy for x, y in zip(self.nums, rhs.nums)], den)

    __radd__ = __add__

    def __neg__(self) -> Cyclo:
        return _make(self.conductor, [-x for x in self.nums], self.den)

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
            p, q = other.numerator, other.denominator
            return _make(self.conductor, [x * p for x in self.nums], self.den * q)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _make(self.conductor, _product(self.nums, rhs.nums), self.den * rhs.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Cyclo:
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}; use inverse()")
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
        nums, den = _inverse(self.nums)  # 1 / (nums / den) = den * (1 / nums)
        return _make(self.conductor, [x * self.den for x in nums], den)

    def galois(self, t: int) -> Cyclo:
        """The image under the field automorphism zeta -> zeta^t, t odd."""
        m, n = self.conductor, self.conductor // 2
        out = [0] * n
        for i, c in enumerate(self.nums):
            e = i * t % m
            if e < n:
                out[e] += c
            else:
                out[e - n] -= c
        return _make(m, out, self.den)

    # -- predicates and extraction -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} has irrational parts")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.nums == rhs.nums and self.den == rhs.den

    def __hash__(self) -> int:
        return hash((self.conductor, self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclo({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        terms = []
        for i in compress(range(len(self.nums)), self.nums):  # the nonzero numerators only
            c = Fraction(self.nums[i], self.den)
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
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"a residue needs an int or a Fraction, got {value!r}")
        rep = value % 2 if isinstance(value, Fraction) else Fraction(value % 2)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Mod2Z values are immutable")

    def __reduce__(self) -> tuple:  # for pickle and copy, which would set the slot
        return Mod2Z, (self.rep,)

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
