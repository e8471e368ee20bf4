"""Integer arithmetic shared by the tests that check the engine against
Atiyah's theorem: folded taus, convolution in Z[t]/(t^M - 1) and Smith pivots
over Z/2^k.  None of it reads qko."""

from itertools import combinations_with_replacement


def folded_taus(order, max_nu):
    """Every tau on Z/M up to how it is written: multisets of odd summands in (0, M/2)."""
    odd = range(1, order // 2, 2)
    return [tau for nu in range(1, max_nu + 1) for tau in combinations_with_replacement(odd, nu)]


def pivots(rows, modulus):
    """The diagonal of the rows' Smith form over Z/modulus, modulus a power of 2,
    built with no transform: each step takes an entry of least 2-adic valuation v
    as the pivot, scales its row by the inverse of the unit part and clears the
    pivot column from every other row; the rest of the pivot row then clears by
    column steps that touch no other row.  Zero rows drop out."""
    assert modulus & (modulus - 1) == 0
    a = [r for r in ([x % modulus for x in row] for row in rows) if any(r)]
    out = []
    while a:
        # a unit if there is one, else the least valuation
        v, i, j = next(((1, i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x & 1),
                       None) or min((x & -x, i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x)
        pivot = a.pop(i)
        unit = pow(pivot[j] // v, -1, modulus)
        pivot = [x * unit % modulus for x in pivot]
        a = [r for r in ([(x - r[j] // v * y) % modulus for x, y in zip(r, pivot)] if r[j] else r
                         for r in a) if any(r)]
        out.append(v)
    return out


def convolve(a, b):
    """The product in Z[t]/(t^M - 1), M = len(a); it loops over the nonzero terms of a."""
    order = len(a)
    out = [0] * order
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % order] += x * y
    return out
