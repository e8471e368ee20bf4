"""The eta vector on the full group against Atiyah's theorem.

A free tau acts on S = S^(4nu-1), and Atiyah's theorem gives
K~(S/tau(Q)) = I(Q) / (lambda_{-1}(tau) R(Q)), with I(Q) the augmentation ideal
and lambda_{-1}(tau) = prod over the summands s of (2 - gamma_s): each gamma_s,
s odd, has trivial determinant.  Gilkey's theorem says that the pairings
e[(chi_i - d_i)(chi_j - d_j)] mod Z over the nontrivial irreducibles chi_i, of
dimension d_i, detect it.  So the span of those rows in (Q/Z)^(ell/4 + 2) must
be that quotient, and every lambda_{-1}(tau) chi must pair into Z against all
of I(Q).  The quotient is where the reflections, the fold into the
1-dimensional entries and the order |H| = ell meet a theorem.

R(Q) is modelled on its own.  A character is its restriction to <xi> = Z/M,
M = ell/2, a t -> t^(-1) symmetric element of Z[t]/(t^M - 1), with its values
at J and xi*J; these fix it as a class function, so a product is one
convolution and two integer products.  The 1-dimensional character at position
p sends xi to (-1)^(p & 1) and J to (-1)^(p >> 1); gamma_u restricts to
t^u + t^(-u) and is 0 at both reflections.  From the engine these tests read
only eta.eta_vector.
"""

import random
from math import lcm

import pytest
from integer_rings import convolve, folded_taus, pivots

from qko import eta
from qko.abelian import AbelianGroup
from qko.groups import GroupParams, Subgroup


class _Model:
    """R(Q) for one order ell as (restriction to <xi>, value at J, value at xi*J)."""

    def __init__(self, ell):
        self.half = ell // 2  # M, the order of xi
        self.size = ell // 4 + 3  # the number of irreducibles
        self.irreducibles = [self._irreducible(p) for p in range(self.size)]
        self.dims = [1] * 4 + [2] * (self.size - 4)

    def _irreducible(self, p):
        r = [0] * self.half
        if p < 4:
            r[(p & 1) * self.half // 2] = 1
            return r, (-1) ** (p >> 1), (-1) ** ((p & 1) + (p >> 1))
        r[p - 3] += 1
        r[3 - p] += 1
        return r, 0, 0

    @staticmethod
    def times(a, b):
        return convolve(a[0], b[0]), a[1] * b[1], a[2] * b[2]

    def reduced(self, p):
        """chi_p - d_p, an element of I(Q)."""
        r, j, x = self.irreducibles[p]
        d = self.dims[p]
        return [r[0] - d, *r[1:]], j - d, x - d

    def lambda_minus_one(self, summands):
        out = self.irreducibles[0]
        for s in summands:
            r, j, x = self.irreducibles[3 + s]
            out = self.times(out, ([2 - r[0], *(-y for y in r[1:])], 2 - j, 2 - x))
        return out

    def multiplicities(self, a):
        """The integer multiplicity of each irreducible in a, in position order."""
        r, j, x = a
        h = self.half // 2
        assert all(r[u] == r[-u] for u in range(self.half)), r
        # r[0] = n0 + n2, r[M/2] = n1 + n3, j + x = 2 (n0 - n2), j - x = 2 (n1 - n3)
        n0, n1 = _halve(r[0] + _halve(j + x)), _halve(r[h] + _halve(j - x))
        return [n0, n1, r[0] - n0, r[h] - n1, *r[1:h]]


def _halve(n):
    q, rest = divmod(n, 2)
    assert not rest, n
    return q


def _dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


def _check_atiyah(ell, taus):
    """The eta-detected group of each tau, after checking it against Atiyah's quotient."""
    model = _Model(ell)
    params = GroupParams(ell)
    reduced = [model.reduced(p) for p in range(1, model.size)]
    groups = {}
    for summands in taus:
        vector = eta.eta_vector(params, Subgroup.FULL, summands)
        den = lcm(*(e.denominator for e in vector))
        nums = [int(e * den) for e in vector]  # e[chi] = nums . multiplicities / den
        # Gilkey: the span in (Q/Z)^(ell/4 + 2) of the pairing rows, read in (Z/den)^(ell/4 + 2)
        pairings = [[_dot(nums, model.multiplicities(model.times(a, b))) for b in reduced]
                    for a in reduced]
        detected = AbelianGroup.from_cyclic_orders(den // v for v in pivots(pairings, den))
        # Atiyah: the rows lambda * chi_p in the basis chi_i - d_i (i >= 1) of I(Q)
        euler = model.lambda_minus_one(summands)
        relations = [model.times(chi, euler) for chi in model.irreducibles]
        rows = []
        for relation in relations:
            mults = model.multiplicities(relation)
            assert _dot(model.dims, mults) == 0, (ell, summands)
            rows.append(mults[1:])
        modulus = ell ** (2 * len(summands))
        diagonal = pivots(rows, modulus)
        assert len(diagonal) == model.size - 1, (ell, summands, diagonal)  # finite, exponent < modulus
        assert detected == AbelianGroup.from_cyclic_orders(diagonal), (ell, summands)
        # the pairing is well defined on the quotient: each relation pairs into Z against I(Q)
        assert all(_dot(nums, model.multiplicities(model.times(b, relation))) % den == 0
                   for relation in relations for b in reduced), (ell, summands)
        groups[summands] = detected
    return groups


@pytest.mark.parametrize("ell", (8, 16, 32))
def test_eta_pairings_detect_atiyahs_quotient(ell):
    taus = folded_taus(ell // 2, 4)
    assert len(_check_atiyah(ell, taus)) == len(taus)


@pytest.mark.parametrize("ell, groups", [
    (8, [(2, 2), (4, 4, 8), (2, 8, 8, 32), (4, 16, 16, 128)]),
    (64, [(2, 2), (4, 4, 64), (8, 8, 16, 256), (8, 16, 16, 32, 1024)]),
])
def test_atiyahs_quotient_for_the_standard_tau(ell, groups):
    detected = _check_atiyah(ell, [(1,) * nu for nu in (1, 2, 3, 4)])
    assert [group.invariant_factors for group in detected.values()] == groups


@pytest.mark.slow
@pytest.mark.parametrize("ell", (128, 256))
def test_eta_pairings_detect_atiyahs_quotient_at_larger_orders(ell):
    # a seeded sample of one folded tau for each nu <= 4
    rng = random.Random(ell)
    taus = [rng.choice([tau for tau in folded_taus(ell // 2, 4) if len(tau) == nu]) for nu in (1, 2, 3, 4)]
    assert len(_check_atiyah(ell, taus)) == 4
