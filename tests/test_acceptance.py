"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything here is exact integer / rational arithmetic; there are no
tolerances anywhere.  Criterion 8 (character theory) is held by
``tests/test_groups.py``'s orthonormality and Frobenius-Schur tests, and
criterion 9 (quotients against brute force, Smith-form postconditions) by
``tests/test_abelian.py``.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from qko.abelian import AbelianGroup, quotient_group
from qko.eta import NotReducedError, eta_pair, eta_theta_closed_form, quaternion_space
from qko.groups import (
    GroupParams,
    VirtualCharacter,
    c_constant,
    delta_power,
    membership,
    theta,
)
from qko.ktheory import (
    ko_group,
    ko_ksp_isomorphism_check,
    ko_order_formula,
    ksp_group,
    ksp_order_formula,
)
from qko.verify import brute_force_span

ELLS = (8, 16, 32)
NUS = (2, 3, 4, 5)
KS = (1, 2, 3, 4)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def test_criterion_1_ksp_order_formulas():
    with criterion(1, "KSp orders match 4^nu ell^(nu-1) / 4^(nu-1) ell^(nu-1) exactly"):
        for ell in ELLS:
            params = GroupParams(ell)
            for nu in NUS:
                want = (4 ** nu if nu % 2 == 0 else 4 ** (nu - 1)) * ell ** (nu - 1)
                assert ksp_group(nu, params).order == want == ksp_order_formula(nu, params)


def test_criterion_2_ko_order_formulas():
    with criterion(2, "ko orders match 4^k ell^k / 4^(k+1) ell^k exactly"):
        for ell in ELLS:
            params = GroupParams(ell)
            for k in KS:
                want = (4 ** k if k % 2 == 0 else 4 ** (k + 1)) * ell ** k
                assert ko_group(k, params).order == want == ko_order_formula(k, params)


def test_criterion_3_ko_equals_ksp():
    with criterion(3, "ko in degree 4k-1 and KSp at nu=k+1 have identical invariant factors"):
        for ell in ELLS:
            params = GroupParams(ell)
            for k in KS:
                assert ko_ksp_isomorphism_check(k, params), (ell, k)
                assert (ko_group(k, params).group.invariant_factors
                        == ksp_group(k + 1, params).group.invariant_factors)


def test_criterion_4_concrete_structure_via_brute_force():
    with criterion(4, "ell=8, k=1 gives Z4 x Z4 x Z8 of order 128, "
                      "re-derived by brute-force enumeration"):
        report = ko_group(1, GroupParams(8))
        assert report.group == AbelianGroup((4, 4, 8))
        assert report.order == 128
        # independent oracle: close each block's rows under addition mod 2Z
        a_oracle = brute_force_span(report.a_matrix.entries)
        b_oracle = brute_force_span(report.b_matrix.entries)
        assert a_oracle == AbelianGroup((4, 4))
        assert b_oracle == AbelianGroup((8,))
        assert a_oracle.direct_sum(b_oracle) == AbelianGroup((4, 4, 8))
        assert a_oracle.order * b_oracle.order == 128


def test_criterion_5_theta_and_c_values():
    with criterion(5, "theta classes lie in RO0 with the stated decompositions; "
                      "c0 = (ell-1)/ell, c_2i integral, c_(2i-1) even, i <= 20, ell <= 64"):
        for ell in (8, 16, 32, 64):
            params = GroupParams(ell)
            for i in (1, 2):
                assert membership(theta(i, params), "RO0")
            if ell == 8:
                assert theta(1, params) == VirtualCharacter(params, {"kappa2": 1, "kappa1": -1})
                assert theta(2, params) == VirtualCharacter(params, {"kappa2": 1, "kappa3": -1})
            else:
                tail = {f"gamma{2 * i}": (-1) ** i for i in range(1, ell // 8)}
                assert theta(1, params) == VirtualCharacter(
                    params, {"kappa2": 1, "kappa3": 1, **tail})
                assert theta(2, params) == VirtualCharacter(
                    params, {"kappa2": 1, "kappa1": 1, **tail})
            assert c_constant(0, params) == Fraction(ell - 1, ell)
            for i in range(1, 21):
                assert c_constant(2 * i, params).denominator == 1
                odd = c_constant(2 * i - 1, params)
                assert odd.denominator == 1 and odd % 2 == 0


def test_criterion_6_eta_closed_forms():
    with criterion(6, "the evaluated pairings reproduce the delta-power and "
                      "theta closed forms exactly, 0 <= r,s <= 5, nu <= 5"):
        for ell in ELLS:
            params = GroupParams(ell)
            for nu in (2, 3, 4, 5):
                space = quaternion_space(params, nu)
                for r in range(0, 6):
                    for s in range(0, 6):
                        if r == 0 and s == 0:
                            # the twist slot needs dimension zero, and the
                            # zeroth power is the trivial character; the
                            # evaluator must refuse it
                            rho0 = VirtualCharacter.irreducible(params, "rho0")
                            with pytest.raises(NotReducedError):
                                eta_pair(space, rho0, rho0)
                            continue
                        # the summand is symmetric, so route the positive
                        # power through the twist slot
                        hi, lo = max(r, s), min(r, s)
                        bundle = delta_power(lo, params) if lo else None
                        got = eta_pair(space, delta_power(hi, params), bundle)
                        assert got == c_constant(r + s - nu, params), (ell, nu, r, s)
                for i1 in (1, 2):
                    for i2 in (1, 2):
                        got = eta_pair(space, theta(i1, params), theta(i2, params))
                        assert got == eta_theta_closed_form(i1, i2, nu, params)
                    for r in range(1, 6):
                        assert eta_pair(space, theta(i1, params),
                                        delta_power(r, params)) == 0
                        assert eta_pair(space, delta_power(r, params),
                                        theta(i1, params)) == 0


def test_criterion_7_matrix_reproduction():
    with criterion(7, "A entrywise, B against both printed parity patterns (nu <= 5); "
                      "C entrywise for ell=8 and span-by-span for ell=16,32"):
        for ell in ELLS:
            params = GroupParams(ell)
            for nu in NUS:
                report = ksp_group(nu, params)  # raises if a closed form is violated
                a = report.a_matrix
                scale = Fraction(2) ** ((1 if nu % 2 == 0 else 2) - nu)
                side = ell // 8
                assert a.entries[0][0] == scale * (side + 1) % 2
                assert a.entries[1][0] == scale * side % 2

                b = report.b_matrix
                for i in range(1, nu):
                    for j in range(1, nu):
                        eps = 2 if i % 2 == 0 else 1
                        dlt = (2 if j % 2 == 1 else 1) if nu % 2 == 0 \
                            else (2 if j % 2 == 0 else 1)
                        want = 0 if i + j > nu else \
                            eps * dlt * c_constant(i + j - nu, params) % 2
                        assert b.entries[i - 1][j - 1] == want, (ell, nu, i, j)

            for k in KS:
                ko_report = ko_group(k, params)  # raises unless entry/span check passes
                c = ko_report.a_matrix
                coeff = (2 if k % 2 == 0 else 1) * Fraction(1, 2 ** k)
                if ell == 8:
                    assert c.entries[0][0] == 2 * coeff % 2
                    assert c.entries[0][1] == coeff % 2
                else:
                    printed = [[coeff, Fraction(0)], [Fraction(0), coeff]]
                    assert c.span() == quotient_group(printed)
                assert ko_report.b_matrix.entries == ksp_group(k + 1, params).b_matrix.entries


def test_criterion_10_splitting_pattern():
    with criterion(10, "the theta/lens block is Z_(2^(2n+2))^2 in degrees 8n+3 and 8n+7"):
        for ell in ELLS:
            params = GroupParams(ell)
            for k in KS:
                degree = 4 * k - 1
                n = (k - 1) // 2
                assert degree in (8 * n + 3, 8 * n + 7)
                expected = AbelianGroup((2 ** (2 * n + 2),) * 2)
                assert ko_group(k, params).a_block == expected, (ell, k)
                assert ksp_group(k + 1, params).a_block == expected, (ell, k)
