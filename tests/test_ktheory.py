"""Eta matrices, K-group structures, order formulas and the main isomorphism."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qko import eta, ktheory
from qko.abelian import AbelianGroup, quotient_group
from qko.groups import GroupParams, c_constant, delta_power, theta
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
    # the coefficients of (Theta_i, Delta^odd, Delta^even): the generators are
    # quaternionic, the twists real for even nu and quaternionic for odd nu
    table = {"generators": (2, 1, 2), "twists, nu even": (1, 2, 1), "twists, nu odd": (2, 1, 2)}
    for params in (P8, GroupParams(4096)):
        for nu in range(2, 17):
            twists = table["twists, nu even" if nu % 2 == 0 else "twists, nu odd"]
            for schedule, (ct, c_odd, c_even) in ((twist_schedule(nu, params), twists),
                                                  (ksp_generators(nu, params),
                                                   table["generators"])):
                want = [("Theta1", ct, theta(1, params)), ("Theta2", ct, theta(2, params))]
                want += [(f"Delta^{j}", c_odd if j % 2 else c_even, delta_power(j, params))
                         for j in range(1, nu)]
                assert len(schedule) == len(want) == nu + 1
                for (label, character), (base, c, plain) in zip(schedule, want):
                    assert label == (base if c == 1 else f"{c}*{base}"), (params, nu)
                    assert character == c * plain, (params, nu, label)


def test_matrix_a_order_8_nu_2():
    a = ksp_group(2, P8).a_matrix
    expected = [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
    assert [list(row) for row in a.entries] == expected


def test_matrix_a_closed_form_all():
    # ksp_group itself raises on any mismatch with the closed form
    for params in ELLS:
        for nu in range(2, 6):
            a = ksp_group(nu, params).a_matrix
            scale = Fraction(2) ** ((1 if nu % 2 == 0 else 2) - nu)
            side = params.ell // 8
            assert a.entries[0][0] == scale * (side + 1) % 2
            assert a.entries[0][1] == scale * side % 2
            assert a.entries[1][0] == a.entries[0][1]
            assert a.entries[1][1] == a.entries[0][0]


def test_matrix_b_order_8_nu_2():
    b = ksp_group(2, P8).b_matrix
    assert [list(row) for row in b.entries] == [[Fraction(7, 4)]]


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
                        assert got == 0, (params.ell, nu, i, j)
                    else:
                        assert got == eps * dlt * c_constant(i + j - nu, params) % 2, \
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
                    assert eps * dlt * c_constant(i + j - nu, params) % 2 == 0, \
                        (params.ell, nu, i, j)


def test_off_diagonal_blocks_vanish():
    for params in ELLS:
        for nu in (2, 3, 4, 5):
            full = ksp_eta_matrix(nu, params)
            for i in range(nu + 1):
                for j in range(nu + 1):
                    if (i < 2) != (j < 2):
                        assert full.entries[i][j] == 0, (params.ell, nu, i, j)
        for k in (1, 2, 3):
            full = ko_eta_matrix(k, params)
            for i in range(k + 2):
                for j in range(k + 2):
                    if (i < 2) != (j < 2):
                        assert full.entries[i][j] == 0, (params.ell, k, i, j)


def test_entries_are_fractions_in_zero_to_two():
    # each residue mod 2Z is held as its representative in [0, 2)
    for params in map(GroupParams, (8, 16, 32, 64)):
        reports = [ksp_group(nu, params) for nu in range(2, 7)]
        reports += [ko_group(k, params) for k in range(1, 6)]
        for report in reports:
            for matrix in (report.matrix, report.a_matrix, report.b_matrix):
                for e in (e for row in matrix.entries for e in row):
                    assert type(e) is Fraction and 0 <= e < 2, (report.kind, report.index, e)


def test_entries_are_the_residues_of_their_rows_eta_sums(monkeypatch):
    # the reference for the assembly: each entry is sum(c * eta_pair(space,
    # sigma, bundle)) % 2 over its row's terms, summed as Fractions from 0
    assembled = []
    real = ktheory._eta_matrix

    def recorded(twists, rows):
        matrix = real(twists, rows)
        assembled.append((twists, rows, matrix))
        return matrix

    monkeypatch.setattr(ktheory, "_eta_matrix", recorded)
    for params in map(GroupParams, (8, 16, 32, 64)):
        for nu in range(2, 9):
            ksp_eta_matrix(nu, params)
        for k in range(1, 8):
            ko_eta_matrix(k, params)
    assert len(assembled) == 4 * 14
    for twists, rows, matrix in assembled:
        want = tuple(tuple(sum(c * eta.eta_pair(space, sigma, bundle) for c, space, bundle in terms) % 2
                           for _, sigma in twists)
                     for _, terms in rows)
        assert matrix.entries == want, matrix.row_labels


def test_matrix_c_order_8_entries():
    for k in (1, 2, 3, 4):
        c = ko_group(k, P8).a_matrix
        coeff = (2 if k % 2 == 0 else 1) * Fraction(1, 2 ** k)
        expected = [[2 * coeff % 2, coeff % 2], [coeff % 2, 2 * coeff % 2]]
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
            assert c.entries[0][1] == coeff * side % 2


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
                        lambda nu, i, j, params: (real(nu, i, j, params) + 1) % 2)
    ksp_group.cache_clear()
    with pytest.raises(StructureMismatchError, match="b-printed-pattern"):
        ksp_group(3, P8)


def test_printed_b_block_never_reaches_the_eta_engine(monkeypatch):
    cases = [(nu, GroupParams(2 ** e)) for e in range(3, 13) for nu in range(2, 17)]

    def block(nu, params):
        return [[ktheory._printed_b_entry(nu, i, j, params) for j in range(1, nu)]
                for i in range(1, nu)]

    want = [block(*case) for case in cases]
    c_constant.cache_clear()

    def engine_called(*args, **kwargs):
        raise AssertionError("the eta engine was called")

    for name in ("_eta_numerators", "eta_vector"):
        monkeypatch.setattr(eta, name, engine_called)
    assert [block(*case) for case in cases] == want


_PAST_THE_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from qko import eta, ktheory
from qko.groups import GroupParams, c_constant

def engine_called(*args, **kwargs):
    raise AssertionError("the eta engine was called")

eta._eta_numerators = eta.eta_vector = engine_called
for e in range(3, 65):
    params, m = GroupParams(2 ** e), 2 ** (e - 1)
    s1, s2 = Fraction(m ** 2 - 1, 12), Fraction(m ** 4 + 10 * m ** 2 - 11, 720)
    assert c_constant(-1, params) == (s1 + Fraction(m, 2)) / params.ell, e
    assert c_constant(-2, params) == (s2 + Fraction(m, 4)) / params.ell, e
params = GroupParams(2 ** 64)
block = [ktheory._printed_b_entry(16, i, j, params) for i in range(1, 16) for j in range(1, 16)]
print(len(block), sum(entry != 0 for entry in block))
"""


def test_c_constants_past_the_input_limit():
    """c_(-1) and c_(-2) against the published cotangent power sums S_1 and S_2
    (plus the M = ell/2 reflections, each with det 2) for ell = 2^3 .. 2^64, and
    the whole printed delta block at nu = 16 for ell = 2^64, in a child process
    capped at 1 GiB of address space with the eta engine disabled."""
    src = str(Path(ktheory.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _PAST_THE_LIMIT, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # 120 entries on and below the antidiagonal, none of them 0 mod 2Z
    assert proc.stdout.split() == ["225", "120"]


def test_main_isomorphism():
    for params in ELLS:
        for k in (1, 2, 3, 4):
            assert ko_ksp_isomorphism_check(k, params), (params.ell, k)
            assert (ko_group(k, params).group.invariant_factors
                    == ksp_group(k + 1, params).group.invariant_factors)


def test_ko_and_ksp_have_one_eta_image():
    # ko_eta_matrix(k) and ksp_eta_matrix(k + 1) pair against the same twists,
    # so the isomorphism predicts one subgroup, not only one isomorphism type:
    # two spans of one order are equal when their stacked rows span no more
    for params in map(GroupParams, (8, 16, 32, 64, 128, 256)):
        for k in range(1, 7):
            ko, ksp = ko_group(k, params), ksp_group(k + 1, params)
            assert ko.matrix.col_labels == ksp.matrix.col_labels, (params.ell, k)
            assert ko.order == ksp.order, (params.ell, k)
            stacked = quotient_group(ko.matrix.entries + ksp.matrix.entries)
            assert stacked.order == ko.order, (params.ell, k)
    # negative control: swapping a theta column with a delta column keeps the
    # KSp group's type but moves its image off the ko image
    ko, ksp = ko_group(1, P8), ksp_group(2, P8)
    assert ksp.matrix.col_labels == ("Theta1", "Theta2", "2*Delta^1")
    swapped = [[delta, theta2, theta1] for theta1, theta2, delta in ksp.matrix.entries]
    assert quotient_group(swapped) == ksp.group
    assert quotient_group([*ko.matrix.entries, *swapped]).order == 2 * ko.order


def test_isomorphism_check_compares_images_not_types(monkeypatch):
    # the swapped KSp matrix above spans a group of the same type, off the ko image
    ksp = ksp_group(2, P8)
    swapped = ksp.matrix._replace(entries=tuple(
        (delta, theta2, theta1) for theta1, theta2, delta in ksp.matrix.entries))
    fake = ksp._replace(matrix=swapped)
    assert swapped.span() == ksp.group
    monkeypatch.setattr(ktheory, "ksp_group", lambda nu, params: fake)
    assert not ko_ksp_isomorphism_check(1, P8)


@pytest.mark.slow
def test_main_isomorphism_at_the_input_limit():
    assert ko_ksp_isomorphism_check(15, GroupParams(4096))


def _stable_offsets(nu):
    # o(nu): the exponents of the delta block's invariant factors at ell = 2^12, less 12
    return [f.bit_length() - 13 for f in ksp_group(nu, GroupParams(4096)).b_block.invariant_factors]


def _check_stable_law(nus):
    """Each KSp invariant factor is 2^(j + o_i(nu)) at ell = 2^j: the delta block
    has the positive exponents among j + o(nu) exactly when j + min(o) >= 0, and
    the theta block is Z_(2^(2 floor(nu/2)))^2 at every j."""
    for nu in nus:
        offsets = _stable_offsets(nu)
        assert len(offsets) == nu - 1, nu
        # the observed extremes: the top offset 2nu - 4 + (nu mod 2), the least -(floor(log2(nu-1)) + 2)
        assert offsets[-1] == 2 * nu - 4 + nu % 2, (nu, offsets)
        assert nu < 3 or offsets[0] == -((nu - 1).bit_length() + 1), (nu, offsets)
        for j in range(3, 12):
            report = ksp_group(nu, GroupParams(2 ** j))
            law = AbelianGroup(2 ** (j + o) for o in offsets if j + o > 0)
            assert (report.b_block == law) == (j + offsets[0] >= 0), (nu, j, offsets, report.b_block)
            assert report.a_block == AbelianGroup((4 ** (nu // 2),) * 2), (nu, j)


def test_stable_range_law():
    _check_stable_law(range(2, 9))
    assert [_stable_offsets(nu) for nu in (3, 4, 8)] == [
        [-3, 3], [-3, -1, 4], [-4, -4, -4, -2, -1, 3, 12]]


@pytest.mark.slow
def test_stable_range_law_to_nu_16():
    _check_stable_law(range(9, 17))
    assert _stable_offsets(12) == [-5, -5, -5, -4, -3, -3, -3, 0, 1, 7, 20]
    assert _stable_offsets(16) == [-5, -5, -5, -5, -5, -5, -5, -3, -2, -2, -2, 2, 3, 11, 28]


def test_blocks_against_brute_force_enumeration():
    # the n <= 2 blocks of the order-8 computation, re-derived by closing the
    # generating rows under addition mod 2Z
    report = ksp_group(2, P8)
    assert brute_force_span(report.a_matrix.entries) == AbelianGroup((4, 4))
    assert brute_force_span(report.b_matrix.entries) == AbelianGroup((8,))
    ko_report = ko_group(1, P8)
    a_oracle = brute_force_span(ko_report.a_matrix.entries)
    b_oracle = brute_force_span(ko_report.b_matrix.entries)
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
