"""Integer-matrix Smith normal form and finite abelian group structure.

Matrices are plain row-major ``list[list[int]]``; Python integers give
arbitrary precision for free, and any other entry, like any non-int group
order, raises ``TypeError`` rather than being truncated.  The matrices
arising here are tiny (at most about 12x12), so there is one elimination,
:func:`_diagonalize`: each entry beside the pivot is cleared by one 2x2
unimodular step, an extended-gcd (Bezout) step when the pivot does not divide
it, with no search for a smallest pivot.  ``smith_normal_form`` gets ``U``
and ``V`` as the identity blocks that ride beside and below the matrix.

A span in (Q/2Z)^n is read off the diagonal of its scaled generator rows,
diagonalized alone modulo 2d with no transform; a direct sum of cyclic groups
is put in invariant-factor form by gcd / lcm alone.  No integer is factored
into primes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

IntMatrix = list[list[int]]


class DimensionMismatchError(ValueError):
    """Raised when generator vectors do not share a common length."""


def _ints(values: Iterable[int], what: str) -> list[int]:
    """The values as a list; any that is not an int raises TypeError rather
    than being truncated."""
    values = list(values)
    if not {int}.issuperset(map(type, values)):  # a non-int, or an int subclass such as bool
        for x in values:
            if not isinstance(x, int):
                raise TypeError(f"{what} {x!r} is not an int")
    return values


def identity_matrix(n: int) -> IntMatrix:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def matrix_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def matrix_determinant(mat: IntMatrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    a = [_ints(row, "matrix entry") for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _step(p: int, e: int) -> tuple[int, int, int, int]:
    """A unimodular [[x, y], [z, w]] taking the pair (p, e) to (g, 0), g a gcd:
    a plain subtraction when p divides e, else the extended-gcd (Bezout) step
    [[x, y], [-e/g, p/g]] with g = x*p + y*e."""
    if p and not e % p:
        return 1, 0, -(e // p), 1
    g, b, x, next_x, y, next_y = p, e, 1, 0, 0, 1
    while b:
        q, g, b = g // b, b, g % b
        x, next_x, y, next_y = next_x, x - q * next_x, next_y, y - q * next_y
    return x, y, -(e // g), p // g


def _row_step(m: IntMatrix, t: int, i: int, step: tuple[int, int, int, int], modulus: int) -> None:
    # rows t, i of m become x*row_t + y*row_i, z*row_t + w*row_i, each built
    # in one pass and reduced there mod a nonzero modulus; y = 0 only with
    # x = 1, which leaves row t as it is (already reduced under a modulus)
    x, y, z, w = step
    top, low = m[t], m[i]
    if modulus:
        if y:
            m[t] = [(x * a + y * b) % modulus for a, b in zip(top, low)]
        m[i] = [(z * a + w * b) % modulus for a, b in zip(top, low)]
    else:
        if y:
            m[t] = [x * a + y * b for a, b in zip(top, low)]
        m[i] = [z * a + w * b for a, b in zip(top, low)]


def _diagonalize(a: IntMatrix, rows: int, cols: int, modulus: int = 0) -> None:
    """The one Smith elimination: bring the leading ``rows x cols`` block of
    ``a`` to Smith form in place.  Row steps act on whole rows and column steps
    on whole columns, so whatever rides beside the block or below it takes the
    same steps; the pivot search and the stray test look only inside the block.
    With a nonzero ``modulus`` each step reduces what it writes mod ``modulus``,
    for a block read mod ``modulus``; ``gcd(modulus, p)`` of a pivot p still
    divides every later entry.

    At step t the first column holding a nonzero entry of the remaining
    block moves to column t.  One pass of 2x2 steps (:func:`_step`) on rows
    t and i clears column t, and one pass on columns t and j clears row t;
    the passes repeat while the column steps refill column t.  If the pivot
    does not divide the whole remaining block, an offending row is added to
    row t and the passes run again, which lowers the pivot to a gcd.  Last,
    each row with a negative pivot is negated.
    """
    for t in range(min(rows, cols)):
        if not a[t][t]:
            j = next((j for j in range(t, cols) if any(row[j] for row in a[t:rows])), None)
            if j is None:
                break
            for row in a:
                row[t], row[j] = row[j], row[t]
        refilled = True
        while refilled:
            for i in range(t + 1, rows):
                if a[i][t]:
                    _row_step(a, t, i, _step(a[t][t], a[i][t]), modulus)
            # column t is now clear below the pivot inside the block, so a column
            # step on columns t and j changes only row t and the rows below the
            # block until an extended-gcd step moves y * column j into column t
            refilled, top = False, a[t]
            for j in range(t + 1, cols):
                if top[j]:
                    x, y, z, w = _step(top[t], top[j])
                    top[t], top[j] = x * top[t] + y * top[j], 0
                    refilled = refilled or y != 0
                    below = a[t + 1 if refilled else rows:]
                    if modulus:
                        for row in below:
                            row[t], row[j] = ((x * row[t] + y * row[j]) % modulus,
                                              (z * row[t] + w * row[j]) % modulus)
                    else:
                        for row in below:
                            row[t], row[j] = x * row[t] + y * row[j], z * row[t] + w * row[j]
            p = top[t]
            if not refilled and p not in (1, -1):  # a unit pivot divides everything
                stray = next((i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:cols])), None)
                if stray is not None:  # add it to row t
                    _row_step(a, t, stray, (1, 1, 0, 1), modulus)
                    refilled = True
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(U, D, V)`` with ``U @ mat @ V == D``, ``U`` and ``V`` square of
    determinant +-1, and ``D`` diagonal with nonnegative entries satisfying
    ``D[0][0] | D[1][1] | ...``.  Works for any shape, including zero and
    non-square matrices.  ``U`` and ``V`` are what ``I_rows`` beside the
    matrix and ``I_cols`` below it become in :func:`_diagonalize`.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("matrix rows have unequal lengths")
    a = [_ints(row, "matrix entry") + e for row, e in zip(mat, identity_matrix(rows))]
    a += identity_matrix(cols)
    _diagonalize(a, rows, cols)
    return [row[cols:] for row in a[:rows]], [row[:cols] for row in a[:rows]], a[rows:]


class AbelianGroup:
    """A finite abelian group as its invariant factors d1 | d2 | ... , each >= 2.

    The trivial group is the empty factor list.  Construction validates the
    divisibility chain; :meth:`from_cyclic_orders` canonicalizes an arbitrary
    direct sum of cyclic groups first.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, factors: Iterable[int]) -> None:
        fs = tuple(_ints(factors, "invariant factor"))
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for small, big in zip(fs, fs[1:]):
            if big % small:
                raise ValueError(f"invariant factors must form a divisibility chain: {fs}")
        _set_factors(self, fs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AbelianGroup values are immutable")

    def __reduce__(self) -> tuple:  # for pickle and copy, which would set the slots
        return AbelianGroup, (self.invariant_factors,)

    @classmethod
    def trivial(cls) -> AbelianGroup:
        return cls(())

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> AbelianGroup:
        """The group ``sum_i Z_{orders[i]}`` in invariant-factor form, without
        factoring: by ``Z_a + Z_b = Z_gcd(a,b) + Z_lcm(a,b)`` each order runs
        down a chain kept largest first, leaving the lcm and carrying the gcd."""
        chain: list[int] = []
        for n in _ints(orders, "cyclic order"):
            if n < 1:
                raise ValueError(f"cyclic orders must be positive, got {n}")
            for i, d in enumerate(chain):
                chain[i], n = lcm(d, n), gcd(d, n)
            if n > 1:
                chain.append(n)
        return cls(reversed(chain))

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def direct_sum(self, other: AbelianGroup) -> AbelianGroup:
        return AbelianGroup.from_cyclic_orders(self.invariant_factors + other.invariant_factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.invariant_factors)})"

    def __str__(self) -> str:
        if self.is_trivial():
            return "0"
        return " x ".join(f"Z{d}" for d in self.invariant_factors)


# the slot's own setter writes past AbelianGroup.__setattr__, which refuses
# every write, at less cost than object.__setattr__ (each span builds a group)
_set_factors = AbelianGroup.invariant_factors.__set__


def quotient_group(generators: Sequence[Sequence[Fraction | int]]) -> AbelianGroup:
    """Isomorphism type of the subgroup of (Q/2Z)^n spanned by the generators.

    Scaling by d, the lcm of all denominators, identifies the subgroup with
    L / (L meet 2d*Z^n) for the integer row span L, which depends only on the rows
    mod 2d.  Unimodular row and column operations keep that type, so it is read
    off the diagonal d_i of the rows alone, diagonalized modulo 2d with no
    transform: the cyclic groups of order 2d / gcd(2d, d_i).
    Those orders run down a divisibility chain, largest first.  Entries must be
    ``int`` or :class:`~fractions.Fraction`; anything else raises ``TypeError``.
    """
    gens = [tuple(g) for g in generators]
    kinds = set(map(type, chain.from_iterable(gens)))
    if not all(issubclass(kind, (int, Fraction)) for kind in kinds):
        raise TypeError("generator entries must be int or Fraction")
    ambient_dim = len(gens[0]) if gens else 0
    if any(len(g) != ambient_dim for g in gens):
        raise DimensionMismatchError("generators have inconsistent lengths")

    d = lcm(*(x.denominator for g in gens for x in g))
    modulus = 2 * d
    diag = [[x.numerator * (d // x.denominator) % modulus for x in g] for g in gens]
    _diagonalize(diag, len(gens), ambient_dim, modulus)
    orders = [modulus // gcd(modulus, row[i]) for i, row in enumerate(diag[:ambient_dim])]
    return AbelianGroup(o for o in reversed(orders) if o > 1)
