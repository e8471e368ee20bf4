"""Eta matrices, K-group structures, order formulas and the main isomorphism."""

from fractions import Fraction

import pytest

from qko import ktheory
from qko.abelian import AbelianGroup, quotient_group
from qko.cyclotomic import Mod2Z
from qko.groups import GroupParams
from qko.ktheory import (
    StructureMismatchError,
    ahss_order_bound,
    ko_eta_matrix,
    ko_group,
    ko_ksp_isomorphism_check,
    ko_order_formula,
    ksp_eta_matrix,
    ksp_generators,
    ksp_group,
    ksp_order_formula,
    structure_checks,
    theta_block_exponent,
    twist_schedule,
)
from qko.groups import c_constant
from qko.verify import brute_force_span

P8 = GroupParams(8)
P16 = GroupParams(16)
P32 = GroupParams(32)
ELLS = (P8, P16, P32)


def test_twist_schedule_coefficient_pattern():
    # even nu: theta coefficient 1, delta coefficients 2,1,2,...; odd nu doubles
    # the thetas and the even powers
    labels4 = [lbl for lbl, _ in twist_schedule(4, P8)]
    assert labels4 == ["Theta1", "Theta2", "2*Delta^1", "Delta^2", "2*Delta^3"]
    labels5 = [lbl for lbl, _ in twist_schedule(5, P8)]
    assert labels5 == ["2*Theta1", "2*Theta2", "Delta^1", "2*Delta^2", "Delta^3", "2*Delta^4"]
    gens5 = [lbl for lbl, _ in ksp_generators(5, P8)]
    assert gens5 == ["2*Theta1", "2*Theta2", "Delta^1", "2*Delta^2", "Delta^3", "2*Delta^4"]


def test_matrix_a_order_8_nu_2():
    a = ksp_group(2, P8).a_matrix
    expected = [[Mod2Z(1), Mod2Z(Fraction(1, 2))], [Mod2Z(Fraction(1, 2)), Mod2Z(1)]]
    assert [list(row) for row in a.entries] == expected


def test_matrix_a_closed_form_all():
    # ksp_group itself raises on any mismatch with the closed form
    for params in ELLS:
        for nu in range(2, 6):
            a = ksp_group(nu, params).a_matrix
            scale = Fraction(2) ** ((1 if nu % 2 == 0 else 2) - nu)
            side = params.ell // 8
            assert a.entries[0][0] == Mod2Z(scale * (side + 1))
            assert a.entries[0][1] == Mod2Z(scale * side)
            assert a.entries[1][0] == a.entries[0][1]
            assert a.entries[1][1] == a.entries[0][0]


def test_matrix_b_order_8_nu_2():
    b = ksp_group(2, P8).b_matrix
    assert [list(row) for row in b.entries] == [[Mod2Z(Fraction(7, 4))]]


def test_matrix_b_printed_patterns():
    # the printed matrices: coefficient-scheduled c-values on and below the
    # antidiagonal, zeros above it (those entries are even integers mod 2Z)
    for params in ELLS:
        for nu in range(2, 6):
            b = ksp_group(nu, params).b_matrix
            for i in range(1, nu):
                for j in range(1, nu):
                    eps = 2 if i % 2 == 0 else 1
                    if nu % 2 == 0:
                        dlt = 2 if j % 2 == 1 else 1
                    else:
                        dlt = 2 if j % 2 == 0 else 1
                    got = b.entries[i - 1][j - 1]
                    if i + j > nu:
                        assert got == Mod2Z(0), (params.ell, nu, i, j)
                    else:
                        assert got == Mod2Z(eps * dlt * c_constant(i + j - nu, params)), \
                            (params.ell, nu, i, j)


def test_b_pattern_vanishes_above_antidiagonal():
    # above the antidiagonal the coefficient-scheduled c-values are even
    # integers, so the printed zeros there are the same entries mod 2Z
    for params in ELLS:
        for nu in range(2, 6):
            for i in range(1, nu):
                for j in range(nu - i + 1, nu):
                    eps = 2 if i % 2 == 0 else 1
                    dlt = (2 if j % 2 == 1 else 1) if nu % 2 == 0 else (2 if j % 2 == 0 else 1)
                    assert Mod2Z(eps * dlt * c_constant(i + j - nu, params)) == Mod2Z(0), \
                        (params.ell, nu, i, j)


def test_off_diagonal_blocks_vanish():
    for params in ELLS:
        for nu in (2, 3, 4, 5):
            full = ksp_eta_matrix(nu, params)
            for i in range(nu + 1):
                for j in range(nu + 1):
                    if (i < 2) != (j < 2):
                        assert full.entries[i][j] == Mod2Z(0), (params.ell, nu, i, j)
        for k in (1, 2, 3):
            full = ko_eta_matrix(k, params)
            for i in range(k + 2):
                for j in range(k + 2):
                    if (i < 2) != (j < 2):
                        assert full.entries[i][j] == Mod2Z(0), (params.ell, k, i, j)


def test_matrix_c_order_8_entries():
    for k in (1, 2, 3, 4):
        c = ko_group(k, P8).a_matrix
        coeff = (2 if k % 2 == 0 else 1) * Fraction(1, 2 ** k)
        expected = [[Mod2Z(2 * coeff), Mod2Z(coeff)], [Mod2Z(coeff), Mod2Z(2 * coeff)]]
        assert [list(row) for row in c.entries] == expected


def test_matrix_c_span_larger_orders():
    # the computed block is row-equivalent to the printed scaled identity
    for params in (P16, P32):
        for k in (1, 2, 3, 4):
            c = ko_group(k, params).a_matrix
            coeff = (2 if k % 2 == 0 else 1) * Fraction(1, 2 ** k)
            printed = [[coeff, Fraction(0)], [Fraction(0), coeff]]
            assert c.span() == quotient_group(printed), (params.ell, k)
            # the directly computed off-diagonal entry is eps * 2^-k * ell/8,
            # which the printed normal form clears by row reduction
            side = params.ell // 8
            assert c.entries[0][1] == Mod2Z(coeff * side)


def test_b_manifold_equals_b_bundle():
    for params in ELLS:
        for k in (1, 2, 3, 4):
            manifold = ko_group(k, params).b_matrix
            bundle = ksp_group(k + 1, params).b_matrix
            assert manifold.entries == bundle.entries, (params.ell, k)


def test_manifold_row_labels():
    m = ko_eta_matrix(3, P8)
    assert m.row_labels == ("M_I - M_J (dim 11)", "M_I - M_xiJ (dim 11)",
                            "M_Q^11", "M_Q^7 x Z^4", "M_Q^3 x Z^8")


def test_ahss_order_bound():
    assert ahss_order_bound(2, P8) == 128
    assert ahss_order_bound(2, P16) == 256
    for params in ELLS:
        for nu in range(2, 7):
            want = (4 ** nu if nu % 2 == 0 else 4 ** (nu - 1)) * params.ell ** (nu - 1)
            assert ahss_order_bound(nu, params) == want
    with pytest.raises(ValueError):
        ahss_order_bound(1, P8)


def test_ksp_group_order_8_nu_2():
    report = ksp_group(2, P8)
    assert report.group == AbelianGroup((4, 4, 8))
    assert report.order == 128
    assert report.ahss_bound == 128
    assert report.a_block == AbelianGroup((4, 4))
    assert report.b_block == AbelianGroup((8,))
    assert dict(report.splitting).keys() == {"A", "B"}


def test_ksp_orders_match_both_formulas():
    for params in ELLS:
        for nu in (2, 3, 4, 5):
            report = ksp_group(nu, params)
            assert report.order == ksp_order_formula(nu, params), (params.ell, nu)
            assert report.order == ahss_order_bound(nu, params), (params.ell, nu)
            assert report.group == report.a_block.direct_sum(report.b_block)


def test_ksp_a_block_structure():
    for params in ELLS:
        for nu in (2, 3, 4, 5):
            expected = 2 ** (nu if nu % 2 == 0 else nu - 1)
            assert ksp_group(nu, params).a_block == AbelianGroup((expected, expected))


def test_ko_group_order_8_k_1():
    report = ko_group(1, P8)
    assert report.group == AbelianGroup((4, 4, 8))
    assert report.order == 128


def test_ko_orders():
    for params in ELLS:
        for k in (1, 2, 3, 4):
            report = ko_group(k, params)
            want = (4 ** k if k % 2 == 0 else 4 ** (k + 1)) * params.ell ** k
            assert report.order == want == ko_order_formula(k, params), (params.ell, k)
            assert report.ahss_bound == ahss_order_bound(k + 1, params)


def test_ko_c_block_structure():
    for params in ELLS:
        for k in (1, 2, 3, 4):
            expected = 2 ** (k if k % 2 == 0 else k + 1)
            assert ko_group(k, params).a_block == AbelianGroup((expected, expected))


def test_splitting_block_pattern():
    # in degrees 8n+3 and 8n+7 the theta/lens block is two copies of the
    # cyclic group of order 2^(2n+2)
    for params in ELLS:
        for k in (1, 2, 3, 4):
            n = (k - 1) // 2
            degree = 4 * k - 1
            assert degree % 8 in (3, 7)
            assert 2 * n + 2 == theta_block_exponent(k + 1)
            assert ko_group(k, params).a_block == AbelianGroup((2 ** (2 * n + 2),) * 2)
            assert ksp_group(k + 1, params).a_block == AbelianGroup((2 ** (2 * n + 2),) * 2)


def test_structure_check_rows():
    ksp_rows = structure_checks(ksp_group(3, P16))
    assert [c.name for c in ksp_rows] == [
        "matrix/a-closed-form/ell16/nu3", "matrix/b-printed-pattern/ell16/nu3",
        "ksp/a-block/ell16/nu3", "ksp/order/ell16/nu3", "ksp/ahss-bound/ell16/nu3",
        "ksp/block-sum/ell16/nu3"]
    for params, kind in ((P8, "entries"), (P16, "span")):
        ko_rows = structure_checks(ko_group(2, params))
        assert [c.name for c in ko_rows] == [
            f"matrix/c-{kind}/ell{params.ell}/k2", f"ko/c-block/ell{params.ell}/k2",
            f"ko/order/ell{params.ell}/k2", f"splitting/theta-block/ell{params.ell}/k2"]
        assert all(c.passed for c in ko_rows)
    assert all(c.passed for c in ksp_rows)


def _doubled(real):
    return lambda nu, params: [[2 * x for x in row] for row in real(nu, params)]


@pytest.mark.parametrize("name, wrong", [
    ("theta_block_exponent", lambda real: lambda nu: real(nu) + 2),
    ("_theta_pattern", _doubled),
])
def test_wrong_expectation_makes_the_groups_raise(monkeypatch, name, wrong):
    monkeypatch.setattr(ktheory, name, wrong(getattr(ktheory, name)))
    ksp_group.cache_clear()
    ko_group.cache_clear()
    for params in (P8, P16):
        with pytest.raises(StructureMismatchError):
            ksp_group(2, params)
        with pytest.raises(StructureMismatchError):
            ko_group(1, params)


def test_wrong_b_pattern_makes_ksp_group_raise(monkeypatch):
    real = ktheory._printed_b_entry
    monkeypatch.setattr(ktheory, "_printed_b_entry",
                        lambda nu, i, j, params: real(nu, i, j, params) + Mod2Z(1))
    ksp_group.cache_clear()
    with pytest.raises(StructureMismatchError, match="b-printed-pattern"):
        ksp_group(3, P8)


def test_main_isomorphism():
    for params in ELLS:
        for k in (1, 2, 3, 4):
            assert ko_ksp_isomorphism_check(k, params), (params.ell, k)
            assert (ko_group(k, params).group.invariant_factors
                    == ksp_group(k + 1, params).group.invariant_factors)


def test_blocks_against_brute_force_enumeration():
    # the n <= 2 blocks of the order-8 computation, re-derived by closing the
    # generating rows under addition mod 2Z
    report = ksp_group(2, P8)
    assert brute_force_span(report.a_matrix.rows()) == AbelianGroup((4, 4))
    assert brute_force_span(report.b_matrix.rows()) == AbelianGroup((8,))
    ko_report = ko_group(1, P8)
    a_oracle = brute_force_span(ko_report.a_matrix.rows())
    b_oracle = brute_force_span(ko_report.b_matrix.rows())
    assert a_oracle == AbelianGroup((4, 4))
    assert b_oracle == AbelianGroup((8,))
    assert a_oracle.direct_sum(b_oracle) == ko_report.group == AbelianGroup((4, 4, 8))


def test_input_validation():
    with pytest.raises(ValueError):
        ksp_group(1, P8)
    with pytest.raises(ValueError):
        ko_group(0, P8)
    with pytest.raises(ValueError):
        ksp_eta_matrix(1, P8)
    with pytest.raises(ValueError):
        ko_eta_matrix(0, P8)
