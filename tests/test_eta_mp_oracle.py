"""The eta invariant's defining sum in arbitrary precision, past the float range.

For S^(4 nu - 1) / tau Q_ell with tau nu copies of gamma_1 and a character chi,
the engine's pairing eta_pair(quaternion_space(params, nu), chi - dim(chi) rho0)
is the defining sum

    (1/ell) * sum over g != 1 of (chi(g) - dim chi) / det(I - tau(g)).

Each summand is written here from cosines alone: with M = ell/2 and
c_k = cos(2 pi k / M), gamma_u is 2 c_(ua) at xi^a and 0 at xi^a J, the
1-dimensional characters are signs (-1)^a at xi^a and their own sign at J,
and det(I - tau) is (2 - 2 c_a)^nu at xi^a and 2^nu at each reflection.
float64 cannot hold these sums: at ell 4096 and nu 16 the terms reach about
10^80.  So they run in mpmath at about 2 nu log10(ell) + 30 digits, and every
comparison asks |mp - exact| < 10^-20.  Only public ``qko`` names are used.
"""

import random
from math import log10

import mpmath
import pytest

from qko import GroupParams, VirtualCharacter, eta_pair, irreducible_labels, quaternion_space

TOLERANCE = mpmath.mpf(10) ** -20


def _one_dim_sign(label, a, b):
    # rho0 is 1; kappa1 is (-1)^a at xi^a J^b, kappa2 (-1)^b and kappa3 (-1)^(a + b)
    flips = {"rho0": 0, "kappa1": a, "kappa2": b, "kappa3": a + b}[label]
    return -1 if flips % 2 else 1


def _defining_sums(ell, nu, labels):
    """(1/ell) sum over g != 1 of (chi(g) - dim chi) / det(I - tau(g)) for
    each label, as mpmath numbers at the working precision."""
    m = ell // 2
    cos = [mpmath.cos(2 * mpmath.pi * k / m) for k in range(m)]
    inv_det = [None] + [1 / (2 - 2 * cos[a]) ** nu for a in range(1, m)]
    reflection = mpmath.mpf(2) ** -nu
    out = {}
    for label in labels:
        total = mpmath.mpf(0)
        if label.startswith("gamma"):
            u = int(label[5:])
            for a in range(1, m):
                total += (2 * cos[u * a % m] - 2) * inv_det[a]
            total += m * -2 * reflection  # gamma_u is 0 at each of the m reflections
        else:
            for a in range(1, m):
                total += (_one_dim_sign(label, a, 0) - 1) * inv_det[a]
            for a in range(m):
                total += (_one_dim_sign(label, a, 1) - 1) * reflection
        out[label] = total / ell
    return out


def _check(ell, nu, labels):
    params = GroupParams(ell)
    space = quaternion_space(params, nu)
    rho0 = VirtualCharacter.irreducible(params, "rho0")
    with mpmath.workdps(int(2 * nu * log10(ell)) + 30):
        sums = _defining_sums(ell, nu, labels)
        for label in labels:
            chi = VirtualCharacter.irreducible(params, label)
            exact = eta_pair(space, chi - chi.dimension * rho0)
            error = abs(sums[label] - mpmath.mpf(exact.numerator) / exact.denominator)
            assert error < TOLERANCE, (ell, nu, label, exact, error)


def _gammas(ell, count, seed):
    gammas = [label for label in irreducible_labels(GroupParams(ell)) if label.startswith("gamma")]
    return random.Random(seed).sample(gammas, count)


@pytest.mark.parametrize("nu", [2, 8])
def test_eta_pair_against_mp_defining_sum_at_512(nu):
    _check(512, nu, ("rho0", "kappa1", "kappa2", "kappa3", *_gammas(512, 8, seed=nu)))


@pytest.mark.slow
def test_eta_pair_against_mp_defining_sum_at_4096():
    _check(4096, 16, ("kappa1", "kappa2", "kappa3", *_gammas(4096, 4, seed=16)))
