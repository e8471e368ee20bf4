"""The engine's rotation sums as the eta invariants of lens spaces.

Restricted to the cyclic subgroup <xi> = Z/M, a free tau acts on
L = S^(4nu-1)/(Z/M), and the engine's rotation sum T(u) is M times the eta
invariant of L for the character t^u.  Atiyah's theorem gives
K~(L) = I(Z/M) / (lambda_{-1}(tau) Z[t]/(t^M - 1)), with
lambda_{-1}(tau) = prod over the summands s of (1 - t^s)(1 - t^(-s)), and
Gilkey's theorem says the eta pairing against RU0 twists detects it in Q/Z.
So the span of the pairings of t^k - 1 with t^l - 1 must be that quotient,
of order M^(2nu - 1).  The quotient is built on its own convolution in
Z[t]/(t^M - 1) and shares only :mod:`qko.abelian` with the engine.

The Galois law is a metamorphic check that needs no oracle: reindexing the
defining sum by h -> h^t, t odd, gives e_(t tau)[gamma_(tu)] = e_tau[gamma_u]
and T_(t tau)(t u) = T_tau(u), with the 1-dimensional entries fixed.  So the
least permuted eta vector is an isometry invariant of S^(4nu-1)/tau(Q), and
over the orders tested it also separates the isometry classes (the orbits of
tau under s -> t*s).
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from integer_rings import convolve, folded_taus, pivots

from qko import eta
from qko.abelian import AbelianGroup, quotient_group
from qko.groups import GroupParams, Subgroup


def _eta_span(summands, order):
    """The span in (Q/Z)^(M-1) of the rows (T(k+l) - T(k) - T(l) + T(0)) / M,
    k, l = 1..M-1, as integer rows over D = M * den, read in (Z/D)^(M-1)."""
    nums, den = eta._rotation_sums(summands, order)
    rows = [[nums[(k + l) % order] - nums[k] - nums[l] + nums[0] for l in range(1, order)]
            for k in range(1, order)]
    modulus = den * order
    return rows, modulus, AbelianGroup.from_cyclic_orders(modulus // v for v in pivots(rows, modulus))


def _lens_k_group(summands, order):
    """I(Z/M) / (lambda_{-1}(tau) Z[t]/(t^M - 1)): the rows lambda * t^j, j mod M,
    in the basis t^k - 1 (k = 1..M-1) of I, diagonalized modulo M^(2nu)."""
    euler = [1] + [0] * (order - 1)
    for s in summands:
        factor = [0] * order
        factor[0] += 2
        factor[s % order] -= 1
        factor[-s % order] -= 1
        euler = convolve(euler, factor)
    rows = [[euler[(k - j) % order] for k in range(1, order)] for j in range(order)]
    modulus = order ** (2 * len(summands))
    diagonal = pivots(rows, modulus)
    return AbelianGroup.from_cyclic_orders(diagonal + [modulus] * (order - 1 - len(diagonal)))


def _check_lens(order, taus):
    for summands in taus:
        rows, modulus, span = _eta_span(summands, order)
        assert span == _lens_k_group(summands, order), (order, summands)
        assert span.order == order ** (2 * len(summands) - 1), (order, summands, span)
        # quotient_group spans in Q/2Z, so the entries are doubled
        assert quotient_group([[Fraction(2 * x, modulus) for x in row] for row in rows]) == span


@pytest.mark.parametrize("order", (4, 8, 16))
def test_rotation_sums_span_the_lens_space_k_group(order):
    _check_lens(order, folded_taus(order, 3))


@pytest.mark.slow
@pytest.mark.parametrize("order, per_nu", ((32, 8), (64, 6), (128, 2)))
def test_rotation_sums_span_the_lens_space_k_group_at_larger_orders(order, per_nu):
    # a seeded sample of per_nu folded taus for each nu <= 3
    rng = random.Random(order)
    _check_lens(order, [tau for nu in (1, 2, 3) for tau in rng.sample(
        [tau for tau in folded_taus(order, 3) if len(tau) == nu], per_nu)])


_SPAN = """
import ast, sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from qko.abelian import quotient_group
rows, modulus = ast.literal_eval(sys.stdin.read())
print(*quotient_group([[Fraction(2 * x, modulus) for x in row] for row in rows]).invariant_factors)
"""


def test_quotient_group_spans_the_63_row_pairing_at_order_64():
    # quotient_group reduces mod 2d at every step; over the integers these entries grow without bound
    rows, modulus, span = _eta_span((1, 3), 64)
    src = str(Path(eta.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _SPAN, src], input=repr((rows, modulus)),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(d) for d in span.invariant_factors]


def test_lens_k_group_examples():
    # Z/M with nu = 1 is cyclic of order M; M = 16, nu = 3 from the direct computation
    assert _lens_k_group((1,), 8) == AbelianGroup([8])
    assert _lens_k_group((1, 1, 1), 16) == AbelianGroup([4, 4, 16, 16, 256])
    assert pivots([[6, 4], [2, 8]], 16) == [2, 4]


def _check_galois(ell, taus):
    params = GroupParams(ell)
    half, quarter = params.half, params.quarter
    for summands in taus:
        vector = eta.eta_vector(params, Subgroup.FULL, summands)
        sums, den = eta._rotation_sums(summands, half)
        for t in range(1, half, 2):
            moved = tuple(t * s for s in summands)
            image = eta.eta_vector(params, Subgroup.FULL, moved)
            assert image[:4] == vector[:4], (ell, summands, t)
            for u in range(1, quarter):
                w = t * u % half
                assert image[3 + min(w, half - w)] == vector[3 + u], (ell, summands, t, u)
            moved_sums, moved_den = eta._rotation_sums(moved, half)
            assert moved_den == den and all(moved_sums[t * u % half] == sums[u]
                                            for u in range(half)), (ell, summands, t)


@pytest.mark.parametrize("ell", (8, 16, 32))
def test_galois_law(ell):
    _check_galois(ell, folded_taus(ell // 2, 4))


def test_galois_law_on_a_sample_at_ell_64():
    _check_galois(64, random.Random(64).sample(folded_taus(32, 4), 12))


def _isometry_classes(ell, max_nu):
    """For each nu <= max_nu, the number of automorphism orbits (s -> t*s, t odd)
    of folded tau on the full group, after asserting that the least permuted eta
    vector, min over t of e[gamma_(t*w)] in place w, is one per orbit (the Galois
    law) and that no two orbits share it."""
    params = GroupParams(ell)
    half, quarter = params.half, params.quarter
    units = range(1, half, 2)

    def fold(s):
        return min(s % half, -s % half)

    invariant_of, orbit_of = {}, {}
    for tau in folded_taus(half, max_nu):
        orbit = min(tuple(sorted(fold(t * s) for s in tau)) for t in units)
        vector = eta.eta_vector(params, Subgroup.FULL, tau)
        least = min(vector[:4] + tuple(vector[3 + fold(t * w)] for w in range(1, quarter))
                    for t in units)
        assert invariant_of.setdefault(orbit, least) == least, (ell, tau, orbit)
        assert orbit_of.setdefault(least, orbit) == orbit, (
            f"collision at ell {ell}: tau {orbit} and {orbit_of[least]} both give {least}")
    return [sum(len(orbit) == nu for orbit in invariant_of) for nu in range(1, max_nu + 1)]


def test_eta_vector_separates_the_isometry_classes():
    assert _isometry_classes(8, 4) == [1, 1, 1, 1]
    assert _isometry_classes(16, 4) == [1, 2, 2, 3]
    assert _isometry_classes(32, 4) == [1, 3, 5, 10]
    assert _isometry_classes(64, 4) == [1, 5, 15, 43]


@pytest.mark.slow
@pytest.mark.parametrize("ell, max_nu, orbits", (
    (16, 8, [1, 2, 2, 3, 3, 4, 4, 5]),
    (32, 8, [1, 3, 5, 10, 14, 22, 30, 43]),
    (64, 6, [1, 5, 15, 43, 99, 217]),
    (128, 4, [1, 9, 51, 245])))
def test_eta_vector_separates_the_isometry_classes_at_larger_orders(ell, max_nu, orbits):
    assert _isometry_classes(ell, max_nu) == orbits
