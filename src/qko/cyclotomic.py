"""Exact arithmetic in 2-power cyclotomic fields.

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

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

Scalar = int | Fraction


class ZeroInverseError(ZeroDivisionError):
    """Raised when inverting the zero cyclotomic number."""


class NotRationalError(ArithmeticError):
    """Raised when a value expected to be rational has irrational parts."""


def _check_conductor(m: int) -> None:
    if m < 2 or m & (m - 1):
        raise ValueError(f"conductor must be a power of two >= 2, got {m}")


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b modulo x^n + 1, n = len(a) = len(b): a negacyclic convolution of
    integer vectors, as one pass over the nonzero entries of the sparser factor
    (a character value has at most two, the tower inverse's even-slot spreads
    half).  Entry c at i adds c * b shifted by i, the part that wraps past
    x^n with its sign flipped.
    """
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
    _set_conductor(value, conductor)
    _set_nums(value, tuple(nums))
    _set_den(value, den)
    return value


def _format_terms(conductor: int, terms: Iterable[tuple[int, Scalar]]) -> str:
    """The sum of c * zeta^i over the (i, c) pairs, each c nonzero, in the order
    given: ``c`` for i = 0, then ``z{m}``, ``-z{m}^i`` or ``c*z{m}^i``, joined by
    `` + `` and `` - ``; ``0`` when there are no terms."""
    text = ""
    for i, c in terms:
        if i == 0:
            term = str(c)
        else:
            sym = f"z{conductor}" if i == 1 else f"z{conductor}^{i}"
            term = sym if c == 1 else f"-{sym}" if c == -1 else f"{c}*{sym}"
        if not text:
            text = term
        elif term.startswith("-"):
            text += f" - {term[1:]}"
        else:
            text += f" + {term}"
    return text or "0"


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

    def inverse(self) -> Cyclo:
        """Multiplicative inverse, by the field-norm recursion of :func:`_inverse`."""
        if self.is_zero():
            raise ZeroInverseError("zero has no inverse")
        nums, den = _inverse(self.nums)  # 1 / (nums / den) = den * (1 / nums)
        return _make(self.conductor, [x * self.den for x in nums], den)

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
        nonzero = compress(range(len(self.nums)), self.nums)
        return _format_terms(self.conductor, ((i, Fraction(self.nums[i], self.den)) for i in nonzero))


# each slot's own setter writes past Cyclo.__setattr__, which refuses every
# write, at less cost than object.__setattr__ (each product builds a value)
_set_conductor, _set_nums, _set_den = Cyclo.conductor.__set__, Cyclo.nums.__set__, Cyclo.den.__set__
