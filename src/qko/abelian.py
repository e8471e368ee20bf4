"""Integer-matrix Smith normal form and finite abelian group structure.

Matrices are plain row-major ``list[list[int]]``; Python integers give
arbitrary precision for free.  The matrices arising here are tiny (at most
about 12x12) so the classical pivoting algorithm is used, with the
minimal-absolute-value entry as pivot to keep coefficients small.

A span in (Q/2Z)^n is read straight off the Smith diagonal of its scaled
generator rows, and a direct sum of cyclic groups is put in invariant-factor
form by gcd / lcm alone; no integer is ever factored into primes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

IntMatrix = list[list[int]]


class DimensionMismatchError(ValueError):
    """Raised when generator vectors do not share a common length."""


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def matrix_determinant(mat: IntMatrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    a = [list(map(int, row)) for row in mat]
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


def _swap_rows(m: IntMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: IntMatrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row_multiple(m: IntMatrix, dst: int, src: int, factor: int) -> None:
    m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]


def _add_col_multiple(m: IntMatrix, dst: int, src: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(U, D, V)`` with ``U @ mat @ V == D``, ``U`` and ``V`` square of
    determinant +-1, and ``D`` diagonal with nonnegative entries satisfying
    ``D[0][0] | D[1][1] | ...``.  Works for any shape, including zero and
    non-square matrices.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise ValueError("matrix rows have unequal lengths")
    a = [list(map(int, row)) for row in mat]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(a, pi, t)
            _swap_rows(u, pi, t)
        if pj != t:
            _swap_cols(a, pj, t)
            _swap_cols(v, pj, t)

        dirty = False
        for i in range(rows):
            if i != t and a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    _add_row_multiple(a, i, t, -q)
                    _add_row_multiple(u, i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(cols):
            if j != t and a[t][j]:
                q = a[t][j] // a[t][t]
                if q:
                    _add_col_multiple(a, j, t, -q)
                    _add_col_multiple(v, j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a smaller pivot appeared; pick it up again

        # The pivot must divide the whole remaining block for the chain
        # d_t | d_{t+1} | ... to hold; pull any offending row up and retry.
        stray = None
        for i in range(t + 1, rows):
            if any(a[i][j] % a[t][t] for j in range(t + 1, cols)):
                stray = i
                break
        if stray is not None:
            _add_row_multiple(a, t, stray, 1)
            _add_row_multiple(u, t, stray, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


class AbelianGroup:
    """A finite abelian group as its invariant factors d1 | d2 | ... , each >= 2.

    The trivial group is the empty factor list.  Construction validates the
    divisibility chain; :meth:`from_cyclic_orders` canonicalizes an arbitrary
    direct sum of cyclic groups first.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, factors: Iterable[int]) -> None:
        fs = tuple(int(d) for d in factors)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for small, big in zip(fs, fs[1:]):
            if big % small:
                raise ValueError(f"invariant factors must form a divisibility chain: {fs}")
        object.__setattr__(self, "invariant_factors", fs)

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
        for n in orders:
            n = int(n)
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


def quotient_group(generators: Sequence[Sequence[Fraction | int]]) -> AbelianGroup:
    """Isomorphism type of the subgroup of (Q/2Z)^n spanned by the generators.

    Scaling by d, the lcm of all denominators, identifies the subgroup with
    L / (L meet 2d*Z^n) for the integer row span L.  Unimodular row and column
    operations keep that type, so it is read off the Smith diagonal d_i of the
    rows alone: the sum of the cyclic groups of order 2d / gcd(2d, d_i).
    Those orders run down a divisibility chain, largest first.
    """
    gens = [tuple(Fraction(x) % 2 for x in g) for g in generators]
    ambient_dim = len(gens[0]) if gens else 0
    if any(len(g) != ambient_dim for g in gens):
        raise DimensionMismatchError("generators have inconsistent lengths")
    if not gens or ambient_dim == 0:
        return AbelianGroup.trivial()

    d = lcm(*(x.denominator for g in gens for x in g))
    modulus = 2 * d
    _, diag, _ = smith_normal_form([[int(x * d) for x in g] for g in gens])
    orders = [modulus // gcd(modulus, row[i]) for i, row in enumerate(diag[:ambient_dim])]
    return AbelianGroup(o for o in reversed(orders) if o > 1)
