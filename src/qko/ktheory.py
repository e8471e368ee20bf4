"""Eta-invariant pairing matrices and the K-group structures they cut out.

For the dimension 4*nu-1 quotient of the sphere by the full quaternion group,
the vector of eta invariants against the scheduled twists maps the subgroup
of KSp spanned by the standard virtual bundles onto a block-diagonal matrix
in (Q/2Z)^(nu+1): a 2x2 block A from the theta classes and an
(nu-1)x(nu-1) block B from the powers of delta.  The connective real
K-groups of the classifying space are hit the same way by manifold
generators (lens-space differences and products with the auxiliary
A-roof-genus manifolds), giving blocks C and B with a dimension shift of one.
Both matrices come from one assembly: a generator row is a formal sum of
twisted space forms, and its entries are that sum's eta invariants.
The group structures are read off with exact Smith-form quotients.  Every
closed form the blocks must meet is stated once, in :func:`structure_checks`:
the group constructors raise on the first row that fails and keep the rows
on the report, and ``verify`` reports them.

Coefficient schedules: theta_1, theta_2 and the even powers of delta are
real, and the odd powers of delta are quaternionic.  The KSp generators are
quaternionic, and the twists are real for even nu and quaternionic for odd
nu.  One rule scales each class into its target structure: by 1 when its
own structure is the target, and by 2 otherwise, since 2*RO lies in RSp and
2*RSp in RO.  The ko-side schedule at degree 4k-1 equals the KSp-side
schedule at nu = k+1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .abelian import AbelianGroup, quotient_group
from .checks import Check, _check, _check_all
from .eta import SpaceForm, eta_pair, eta_theta_closed_form, lens_space, quaternion_space
from .groups import (
    GroupParams,
    Subgroup,
    VirtualCharacter,
    c_constant,
    delta_power,
    theta,
)


class StructureMismatchError(RuntimeError):
    """A computed matrix or group contradicts its independently known shape."""


def _coeff(quaternionic: bool, target: bool) -> int:
    """1 when a class's own structure (quaternionic or real) is the target
    structure, and 2 otherwise."""
    return 1 if quaternionic == target else 2


def _scaled_basis(nu: int, params: GroupParams, quaternionic: bool
                  ) -> tuple[tuple[str, VirtualCharacter], ...]:
    # Theta1, Theta2 (real) and Delta^1 .. Delta^(nu-1) (quaternionic exactly
    # at the odd powers), each scaled by _coeff into the target structure
    basis = [("Theta1", False, theta(1, params)), ("Theta2", False, theta(2, params))]
    basis += [(f"Delta^{i}", i % 2 == 1, delta_power(i, params)) for i in range(1, nu)]
    out = []
    for base, own, character in basis:
        c = _coeff(own, quaternionic)
        out.append((base if c == 1 else f"{c}*{base}", c * character))
    return tuple(out)


def twist_schedule(nu: int, params: GroupParams) -> tuple[tuple[str, VirtualCharacter], ...]:
    """The nu+1 twisting characters of the eta vector, coefficients included:
    real for even nu, quaternionic for odd nu."""
    return _scaled_basis(nu, params, quaternionic=nu % 2 == 1)


def ksp_generators(nu: int, params: GroupParams) -> tuple[tuple[str, VirtualCharacter], ...]:
    """The nu+1 quaternionic virtual bundle classes spanning the KSp image."""
    return _scaled_basis(nu, params, quaternionic=True)


class EtaMatrix(namedtuple("EtaMatrix", "row_labels col_labels entries")):
    """A named tuple: a matrix of eta invariants in Q/2Z, generator rows against
    twist columns, each entry its representative in [0, 2)."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def submatrix(self, row_range: range, col_range: range) -> EtaMatrix:
        return EtaMatrix(
            tuple(self.row_labels[i] for i in row_range),
            tuple(self.col_labels[j] for j in col_range),
            tuple(tuple(self.entries[i][j] for j in col_range) for i in row_range),
        )

    def span(self) -> AbelianGroup:
        return quotient_group(self.entries)


_Term = tuple[int, SpaceForm, VirtualCharacter | None]


def _eta_matrix(twists: tuple[tuple[str, VirtualCharacter], ...],
                rows: list[tuple[str, list[_Term]]]) -> EtaMatrix:
    """The one assembly: each labelled row is a formal sum of twisted space
    forms, terms (c, space, bundle or None), and its entry against the twist
    sigma is the residue of the sum of c * eta_pair(space, sigma, bundle).
    A term with c = 1 is its pairing, and the sum starts from the first term,
    so a one-term row does no Fraction arithmetic beyond the residue."""
    def entry(terms: list[_Term], sigma: VirtualCharacter) -> Fraction:
        first, *rest = (eta_pair(space, sigma, bundle) if c == 1
                        else c * eta_pair(space, sigma, bundle) for c, space, bundle in terms)
        return sum(rest, first) % 2

    entries = tuple(tuple(entry(terms, sigma) for _, sigma in twists) for _, terms in rows)
    return EtaMatrix(tuple(lbl for lbl, _ in rows), tuple(lbl for lbl, _ in twists), entries)


def ksp_eta_matrix(nu: int, params: GroupParams) -> EtaMatrix:
    """The full (nu+1)x(nu+1) pairing matrix for KSp of the 4*nu-1 space form."""
    if nu < 2:
        raise ValueError(f"need nu >= 2, got {nu}")
    space = quaternion_space(params, nu)
    return _eta_matrix(twist_schedule(nu, params),
                       [(lbl, [(1, space, bundle)]) for lbl, bundle in ksp_generators(nu, params)])


def ko_eta_matrix(k: int, params: GroupParams) -> EtaMatrix:
    """The full (k+2)x(k+2) pairing matrix for ko in degree 4k-1, from manifold
    generators: two lens-space differences, then products of the top space form
    with the auxiliary manifolds."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m_i = lens_space(params, Subgroup.GEN_I, k)
    rows = [(f"M_I - {name} (dim {4 * k - 1})",
             [(1, m_i, None), (-1, lens_space(params, subgroup, k), None)])
            for name, subgroup in (("M_J", Subgroup.GEN_J), ("M_xiJ", Subgroup.GEN_XI_J))]
    rows += [(f"M_Q^{4 * (k - mu) - 1}" + (f" x Z^{4 * mu}" if mu else ""),
              [(1, quaternion_space(params, k - mu, z_factor=mu), None)]) for mu in range(k)]
    return _eta_matrix(twist_schedule(k + 1, params), rows)


def ahss_order_bound(nu: int, params: GroupParams) -> int:
    """Order bound from the spectral-sequence page for the 4*nu-1 quotient.

    Tabulates the nonzero reduced-cohomology contributions in total degree
    zero: one cyclic factor of order ell for each u = 0, 4 mod 8 with
    0 < u < 4*nu - 1 (integral coefficients), and a Klein four-group for each
    u = 5, 6 mod 8 with u <= 4*nu - 1 (where the coefficient group is Z_2).
    """
    if nu < 2:
        raise ValueError(f"need nu >= 2, got {nu}")
    top = 4 * nu - 1
    bound = 1
    for u in range(1, top + 1):
        if u % 8 in (0, 4) and u < top:
            bound *= params.ell
        elif u % 8 in (5, 6):
            bound *= 4
    return bound


def theta_block_exponent(nu: int) -> int:
    """The exponent e of the theta block Z_(2^e)^2 of KSp at nu: nu for even
    nu, nu - 1 for odd nu.  The ko group in degree 4k-1 has it at nu = k + 1."""
    return nu if nu % 2 == 0 else nu - 1


def ksp_order_formula(nu: int, params: GroupParams) -> int:
    """Closed form for |KSp|: 4^e ell^(nu-1), e the theta block exponent."""
    return 4 ** theta_block_exponent(nu) * params.ell ** (nu - 1)


def ko_order_formula(k: int, params: GroupParams) -> int:
    """Closed form for |ko| in degree 4k-1: the order of KSp at nu = k + 1."""
    return ksp_order_formula(k + 1, params)


def _theta_pattern(nu: int, params: GroupParams) -> list[list[Fraction]]:
    """The theta block at nu, and the lens block at nu = k + 1: the pairings
    of 2*Theta_i against the twist coefficient times Theta_j."""
    scale = 2 * _coeff(False, nu % 2 == 1)
    return [[scale * eta_theta_closed_form(i, j, nu, params) for j in (1, 2)] for i in (1, 2)]


def _printed_b_entry(nu: int, i: int, j: int, params: GroupParams) -> Fraction:
    """Entry (i, j) of the printed delta block: eps_i * delta_j * c_(i+j-nu)
    on and below the antidiagonal, 0 above it (an even integer there)."""
    if i + j > nu:
        return Fraction(0)
    return (_coeff(i % 2 == 1, True) * _coeff(j % 2 == 1, nu % 2 == 1)
            * c_constant(i + j - nu, params)) % 2


def _entry_mismatches(block: EtaMatrix, expected: list[list[Fraction]]) -> list[str]:
    return [f"({i},{j}) is {block.entries[i][j]}, expected {want % 2}"
            for i, row in enumerate(expected) for j, want in enumerate(row)
            if block.entries[i][j] != want % 2]


def _form_check(name: str, form: str, mismatches: list[str]) -> Check:
    return Check(name, not mismatches, form, "; ".join(mismatches) or form)


class KGroupReport(namedtuple("KGroupReport", "kind params index group a_block b_block order "
                                "ahss_bound matrix a_matrix b_matrix splitting checks",
                                defaults=((),))):
    """A computed K-group, as a named tuple: its kind ("ksp" or "ko"), its
    structure, the per-block structures, and the matrices the computation went
    through.  The field index is nu for ksp and k for ko, and hides
    tuple.index; checks holds the structure_checks rows once they have passed."""

    __slots__ = ()


def structure_checks(report: KGroupReport) -> list[Check]:
    """Every closed-form expectation of a KSp or ko report, as named rows.

    KSp at nu: the theta block entry by entry, the delta block against its
    printed pattern, the theta block's structure, the order formula, the
    spectral-sequence bound and the block sum.  ko in degree 4k-1: the lens
    block against the theta pattern at nu = k + 1, its structure, the order
    formula and the splitting pattern.  For ell > 8 the printed lens block is
    the scaled identity, a row reduction of that pattern (whose determinant
    is odd), so only the spans are compared.
    """
    params, ell, index = report.params, report.params.ell, report.index
    nu = index if report.kind == "ksp" else index + 1
    theta_block = AbelianGroup((2 ** theta_block_exponent(nu),) * 2)
    pattern = _theta_pattern(nu, params)
    if report.kind == "ksp":
        where = f"ell{ell}/nu{nu}"
        b_bad = [f"({i},{j})" for i in range(1, nu) for j in range(1, nu)
                 if report.b_matrix.entries[i - 1][j - 1] != _printed_b_entry(nu, i, j, params)]
        return [
            _form_check(f"matrix/a-closed-form/{where}", "closed form",
                        _entry_mismatches(report.a_matrix, pattern)),
            _check_all(f"matrix/b-printed-pattern/{where}", b_bad, (nu - 1) ** 2),
            _check(f"ksp/a-block/{where}", theta_block, report.a_block),
            _check(f"ksp/order/{where}", ksp_order_formula(nu, params), report.order),
            _check(f"ksp/ahss-bound/{where}", report.ahss_bound, report.order),
            _check(f"ksp/block-sum/{where}",
                   report.a_block.direct_sum(report.b_block), report.group),
        ]
    where = f"ell{ell}/k{index}"
    if ell == 8:
        kind, c_bad = "entries", _entry_mismatches(report.a_matrix, pattern)
    else:
        kind, printed = "span", quotient_group(pattern)
        c_bad = [] if report.a_block == printed else [
            f"lens block spans {report.a_block}, printed form spans {printed}"]
    return [
        _form_check(f"matrix/c-{kind}/{where}", "printed form", c_bad),
        _check(f"ko/c-block/{where}", theta_block, report.a_block),
        _check(f"ko/order/{where}", ko_order_formula(index, params), report.order),
        _check(f"splitting/theta-block/{where}", theta_block, report.a_block),
    ]


_SPLITTING_A = "two copies of ko(desuspended BS^3/BN); the theta/lens rows"
_SPLITTING_B = "ko(B SL_2(F_q)); the delta-power rows"


def _check_off_blocks(full: EtaMatrix, split: int) -> None:
    n_rows, n_cols = full.shape
    for i in range(n_rows):
        for j in range(n_cols):
            if (i < split) == (j < split):
                continue
            if full.entries[i][j]:
                raise StructureMismatchError(
                    f"off-diagonal block entry ({full.row_labels[i]}, "
                    f"{full.col_labels[j]}) is {full.entries[i][j]}, expected 0")


def _assemble(kind: str, index: int, params: GroupParams, full: EtaMatrix,
              bound: int) -> KGroupReport:
    _check_off_blocks(full, 2)
    n = full.shape[0]
    a_matrix = full.submatrix(range(2), range(2))
    b_matrix = full.submatrix(range(2, n), range(2, n))
    group, a_block, b_block = full.span(), a_matrix.span(), b_matrix.span()
    if group != a_block.direct_sum(b_block):
        raise StructureMismatchError(
            f"{kind} group {group} is not the direct sum of its blocks "
            f"{a_block} and {b_block}")
    report = KGroupReport(
        kind=kind, params=params, index=index, group=group,
        a_block=a_block, b_block=b_block, order=group.order, ahss_bound=bound,
        matrix=full, a_matrix=a_matrix, b_matrix=b_matrix,
        splitting=(("A", _SPLITTING_A), ("B", _SPLITTING_B)),
    )
    checks = tuple(structure_checks(report))
    for row in checks:
        if not row.passed:
            raise StructureMismatchError(row.line())
    return report._replace(checks=checks)


@lru_cache(maxsize=None)
def ksp_group(nu: int, params: GroupParams) -> KGroupReport:
    """Structure of KSp of the 4*nu-1 dimensional quaternion space form (nu >= 2)."""
    return _assemble("ksp", nu, params, ksp_eta_matrix(nu, params),
                     ahss_order_bound(nu, params))


@lru_cache(maxsize=None)
def ko_group(k: int, params: GroupParams) -> KGroupReport:
    """Structure of the degree 4k-1 real connective K-group of the classifying
    space (k >= 1).  Uses the dimension shift nu = k + 1 throughout."""
    return _assemble("ko", k, params, ko_eta_matrix(k, params),
                     ahss_order_bound(k + 1, params))


def ko_ksp_isomorphism_check(k: int, params: GroupParams) -> bool:
    """Whether ko in degree 4k-1 and KSp of the 4(k+1)-1 space form are one
    subgroup of (Q/2Z)^(k+2): both matrices pair against twist_schedule(k + 1),
    and their stacked rows span no more than either group's order."""
    ko, ksp = ko_group(k, params), ksp_group(k + 1, params)
    return quotient_group(ko.matrix.entries + ksp.matrix.entries).order == ko.order == ksp.order
