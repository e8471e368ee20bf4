"""Named consistency checks aggregating every invariant the library promises.

Each check compares an independently stated expectation (a closed form, a
printed matrix pattern, an explicit matrix, a brute-force enumeration, or a
class-value evaluation from :mod:`qko.oracles`) against the computed value,
and reports name / pass / expected / actual.  Where both sides would
otherwise run through the representation-ring engine, the expectation is
the oracle's.  The K-group rows are :func:`qko.ktheory.structure_checks`,
the table that ``ksp_group`` / ``ko_group`` assert.  The CLI ``verify``
command runs the whole list and fails its exit code on any mismatch.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from . import oracles
from .abelian import (
    AbelianGroup,
    matrix_determinant,
    matrix_product,
    quotient_group,
    smith_normal_form,
)
from .checks import Check, _check, _check_all
from .cyclotomic import Cyclo, NotRationalError
from .eta import eta_lens_difference, eta_pair, eta_theta_closed_form, quaternion_space
from .groups import (
    GroupParams,
    Subgroup,
    VirtualCharacter,
    char_dim,
    char_value,
    conjugacy_classes,
    delta,
    delta_power,
    det_one_minus_gamma,
    fs_indicator,
    gamma_trace,
    irreducible_labels,
    membership,
    quaternion_group,
    theta,
)
from .ktheory import ko_group, ko_ksp_isomorphism_check, ksp_group, structure_checks

RANDOM_SEED = 1789


# ---------------------------------------------------------------------------
# Character theory
# ---------------------------------------------------------------------------

def _character_checks(params: GroupParams) -> list[Check]:
    ell = params.ell
    out = []
    classes = conjugacy_classes(params)
    out.append(_check(f"chars/class-count/ell{ell}", ell // 4 + 3, len(classes)))
    out.append(_check(f"chars/class-size-sum/ell{ell}", ell, sum(s for _, s in classes)))

    labels = irreducible_labels(params)
    chars = [VirtualCharacter.irreducible(params, label) for label in labels]
    bad = []
    for i, (l1, f1) in enumerate(zip(labels, chars)):
        for l2, f2 in zip(labels[i:], chars[i:]):
            got = oracles.inner_product(f1, f2)
            want = Fraction(1 if l1 == l2 else 0)
            if got != want:
                bad.append(f"<{l1},{l2}>={got}")
    out.append(_check_all(f"chars/orthonormal/ell{ell}", bad, len(labels) * (len(labels) + 1) // 2))

    out.append(_check(f"chars/dim-square-sum/ell{ell}", ell,
                      sum(char_dim(l) ** 2 for l in labels)))

    # the indicator's defining sum (1/ell) sum_g chi(g^2), over the classes
    group = quaternion_group(params)
    bad = []
    for label in labels:
        got = fs_indicator(params, label)
        total = sum((size * char_value(params, label, group.square(rep))
                     for rep, size in classes), Cyclo.zero(params.conductor))
        if got != total.to_rational() / ell:
            bad.append(f"fs({label})={got}")
    out.append(_check_all(f"chars/fs-types/ell{ell}", bad, len(labels)))

    # folding of the 2-dimensional family at and beyond its index range
    bad = []
    for rep, _ in classes:
        rho_kappa2 = char_value(params, "rho0", rep) + char_value(params, "kappa2", rep)
        if gamma_trace(params, 0, rep) != rho_kappa2:
            bad.append("u=0")
        k1_k3 = char_value(params, "kappa1", rep) + char_value(params, "kappa3", rep)
        if gamma_trace(params, params.quarter, rep) != k1_k3:
            bad.append("u=ell/4")
        for u in range(1, params.quarter):
            if gamma_trace(params, -u, rep) != gamma_trace(params, u, rep):
                bad.append(f"u=-{u}")
            if gamma_trace(params, u + params.half, rep) != gamma_trace(params, u, rep):
                bad.append(f"u={u}+ell/2")
    out.append(_check_all(f"chars/gamma-fold/ell{ell}", bad, len(classes)))
    return out


def _theta_and_c_checks(params: GroupParams) -> list[Check]:
    ell = params.ell
    out = []
    t1, t2 = theta(1, params), theta(2, params)
    out.append(_check(f"theta/dimension-zero/ell{ell}", (0, 0), (t1.dimension, t2.dimension)))
    out.append(_check(f"theta/real-span/ell{ell}", (True, True),
                      (membership(t1, "RO0"), membership(t2, "RO0"))))

    # the defining values, re-expanded by the class-sum oracle
    want1, want2 = oracles.theta(1, params), oracles.theta(2, params)
    out.append(_check(f"theta/decomposition/ell{ell}", f"{want1} ; {want2}", f"{t1} ; {t2}"))

    # the class sums, whose values the engine has in closed form
    out.append(_check(f"cvals/c0/ell{ell}", Fraction(ell - 1, ell), oracles.c_constant(0, params)))
    bad = []
    for i in range(1, 21):
        even, odd = oracles.c_constant(2 * i, params), oracles.c_constant(2 * i - 1, params)
        if even.denominator != 1:
            bad.append(f"c_{2 * i}={even}")
        if odd.denominator != 1 or odd % 2:
            bad.append(f"c_{2 * i - 1}={odd}")
    out.append(_check_all(f"cvals/parity/ell{ell}", bad, 40))

    # delta's class function, the closed-form determinant and det(I - M) of
    # the explicit matrix agree
    one = Cyclo.one(params.conductor)
    bad = []
    for rep, _ in conjugacy_classes(params):
        (m00, m01), (m10, m11) = oracles.gamma_matrix(params, 1, rep)
        explicit = (one - m00) * (one - m11) - m01 * m10
        if not delta(params).value(rep) == det_one_minus_gamma(params, 1, rep) == explicit:
            bad.append(str(rep))
    out.append(_check_all(f"delta/det-match/ell{ell}", bad, len(conjugacy_classes(params))))
    return out


# ---------------------------------------------------------------------------
# Eta invariants
# ---------------------------------------------------------------------------

def _eta_checks(params: GroupParams, max_nu: int) -> list[Check]:
    ell = params.ell
    out = []
    for nu in range(2, max_nu + 1):
        space = quaternion_space(params, nu)

        bad = []
        for r in range(1, 6):
            for s in range(0, 6):
                bundle = delta_power(s, params) if s else None
                got = eta_pair(space, delta_power(r, params), bundle).exact
                want = oracles.c_constant(r + s - nu, params)
                if got != want:
                    bad.append(f"(r={r},s={s})")
        out.append(_check_all(f"eta/delta-pairing/ell{ell}/nu{nu}", bad, 30))

        bad = []
        for i in (1, 2):
            for r in range(1, 5):
                fwd = eta_pair(space, theta(i, params), delta_power(r, params)).exact
                rev = eta_pair(space, delta_power(r, params), theta(i, params)).exact
                if fwd != 0 or rev != 0:
                    bad.append(f"(i={i},r={r})")
            if eta_pair(space, theta(i, params)).exact != 0:
                bad.append(f"untwisted i={i}")
        out.append(_check_all(f"eta/theta-delta-zero/ell{ell}/nu{nu}", bad, 18))

        bad = []
        for i1 in (1, 2):
            for i2 in (1, 2):
                got = eta_pair(space, theta(i1, params), theta(i2, params)).exact
                if got != eta_theta_closed_form(i1, i2, nu, params):
                    bad.append(f"({i1},{i2})")
        out.append(_check_all(f"eta/theta-pairing/ell{ell}/nu{nu}", bad, 4))

        sym_a = eta_pair(space, theta(1, params), theta(2, params)).exact
        sym_b = eta_pair(space, theta(2, params), theta(1, params)).exact
        out.append(_check(f"eta/symmetry/ell{ell}/nu{nu}", sym_a, sym_b))

    plain = eta_pair(quaternion_space(params, 2), theta(1, params), theta(1, params)).exact
    once = eta_pair(quaternion_space(params, 2, z_factor=1),
                    theta(1, params), theta(1, params)).exact
    twice = eta_pair(quaternion_space(params, 2, z_factor=2),
                     theta(1, params), theta(1, params)).exact
    out.append(_check(f"eta/z-doubling/ell{ell}", (2 * plain, plain), (once, twice)))

    # every pairing over the twist menu must produce a rational class sum
    sigmas = [theta(1, params), theta(2, params)] + [delta_power(r, params) for r in range(1, 7)]
    bad = []
    for sigma in sigmas:
        for bundle in sigmas:
            try:
                oracles.eta_pair(quaternion_space(params, 3), sigma, bundle)
            except NotRationalError as exc:
                bad.append(f"{sigma} x {bundle}: {exc}")
    out.append(_check_all(f"eta/rationality/ell{ell}", bad, len(sigmas) ** 2))
    return out


def _lens_checks(params: GroupParams, max_k: int) -> list[Check]:
    ell = params.ell
    out = []
    for k in range(1, max_k + 1):
        triples = {}
        for name, sub in (("J", Subgroup.GEN_J), ("xiJ", Subgroup.GEN_XI_J)):
            triples[name] = (
                eta_lens_difference(sub, k, theta(1, params), params).exact,
                eta_lens_difference(sub, k, theta(2, params), params).exact,
                eta_lens_difference(sub, k, delta_power(1, params), params).exact,
            )
        # the theta-theta closed form gives 2^-k (ell/8 + 1, ell/8, 0) against <J>
        # and the swap against <xi*J>; for ell = 8 that is the printed (2, 1, 0) / (1, 2, 0)
        same = eta_theta_closed_form(1, 1, k, params)
        other = eta_theta_closed_form(1, 2, k, params)
        want_j = (same, other, Fraction(0))
        want_xij = (other, same, Fraction(0))
        out.append(_check(f"lens/triple/ell{ell}/k{k}",
                          (want_j, want_xij), (triples["J"], triples["xiJ"])))
    return out


# ---------------------------------------------------------------------------
# Matrices and groups
# ---------------------------------------------------------------------------

def _matrix_checks(params: GroupParams, max_nu: int, max_k: int) -> list[Check]:
    ell = params.ell
    out = []
    for nu in range(2, max_nu + 1):
        out.extend(structure_checks(ksp_group(nu, params)))
    # ktheory states each closed form; verify adds the rows that compare two reports
    for k in range(1, max_k + 1):
        report = ko_group(k, params)
        c_form, c_block, order, splitting = structure_checks(report)
        bundle_b = ksp_group(k + 1, params).b_matrix
        out += [c_form,
                _check(f"matrix/b-manifold-vs-bundle/ell{ell}/k{k}",
                       [[str(e) for e in row] for row in bundle_b.entries],
                       [[str(e) for e in row] for row in report.b_matrix.entries]),
                c_block, order,
                _check(f"ko-ksp-iso/ell{ell}/k{k}", True, ko_ksp_isomorphism_check(k, params)),
                splitting]
    return out


# ---------------------------------------------------------------------------
# Arithmetic substrate
# ---------------------------------------------------------------------------

def brute_force_span(generators: list[tuple[Fraction, ...]]) -> AbelianGroup:
    """Independent oracle: enumerate the subgroup of (Q/2Z)^n generated by the
    vectors (closure under addition), then read the structure off the sizes of
    the p^k-torsion layers."""
    if not generators:
        return AbelianGroup.trivial()
    n = len(generators[0])
    gens = [tuple(Fraction(x) % 2 for x in g) for g in generators]

    def add(u, v):
        return tuple((a + b) % 2 for a, b in zip(u, v))

    elements = {tuple(Fraction(0) for _ in range(n))}
    frontier = list(elements)
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = add(base, g)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)

    order = len(elements)
    factors = []
    remaining = order
    p = 2
    while remaining > 1:
        if remaining % p:
            p += 1 if p == 2 else 2
            continue
        exponents = []
        k = 1
        prev_count = 1
        while True:
            count = sum(1 for e in elements
                        if all((p ** k * x) % 2 == 0 for x in e))
            layer = count // prev_count
            if layer == 1:
                break
            # layer = p^(number of cyclic summands of order >= p^k)
            summands = 0
            while layer > 1:
                layer //= p
                summands += 1
            exponents.append(summands)
            prev_count = count
            k += 1
        counts = exponents  # counts[k-1] = #summands with order >= p^k
        for depth, c in enumerate(counts, start=1):
            following = counts[depth] if depth < len(counts) else 0
            factors.extend([p ** depth] * (c - following))
        while remaining % p == 0:
            remaining //= p
        p += 1 if p == 2 else 2
    return AbelianGroup.from_cyclic_orders(factors)


def _arith_checks() -> list[Check]:
    out = []
    rng = random.Random(RANDOM_SEED)

    bad = []
    for trial in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        if matrix_product(matrix_product(u, mat), v) != d:
            bad.append(f"trial {trial}: U*M*V != D")
            continue
        if abs(matrix_determinant(u)) != 1 or abs(matrix_determinant(v)) != 1:
            bad.append(f"trial {trial}: transform not unimodular")
            continue
        diag = [d[i][i] for i in range(min(rows, cols))]
        if any(x < 0 for x in diag):
            bad.append(f"trial {trial}: negative diagonal")
            continue
        chain = [x for x in diag if x]
        if any(b % a for a, b in zip(chain, chain[1:])):
            bad.append(f"trial {trial}: chain broken {diag}")
        if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
            bad.append(f"trial {trial}: not diagonal")
    out.append(_check_all("snf/random-postconditions", bad, 200))

    bad = []
    cases = 0
    for q in range(1, 17):
        for p_num in range(0, 2 * q):
            gens = [(Fraction(p_num, q),)]
            if quotient_group(gens) != brute_force_span(gens):
                bad.append(f"p/q={p_num}/{q}")
            cases += 1
    out.append(_check_all("quotient/bruteforce-n1", bad, cases))

    bad = []
    cases = 0
    while cases < 150:
        gens = []
        denominators = []
        for _ in range(rng.randint(1, 3)):
            q1, q2 = rng.randint(1, 16), rng.randint(1, 16)
            denominators += [q1, q2]
            gens.append((Fraction(rng.randint(0, 2 * q1 - 1), q1),
                         Fraction(rng.randint(0, 2 * q2 - 1), q2)))
        joint = 1
        for q in denominators:
            joint = joint * q // gcd(joint, q)
        if joint > 24:  # keep the enumeration oracle at desk scale
            continue
        if quotient_group(gens) != brute_force_span(gens):
            bad.append(str(gens))
        cases += 1
    out.append(_check_all("quotient/bruteforce-n2", bad, cases))

    bad = []
    for trial in range(50):
        m = rng.choice([4, 8, 16])
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m // 2)]
        a = Cyclo(m, coeffs)
        if not a.is_zero() and a * a.inverse() != Cyclo.one(m):
            bad.append(f"trial {trial}: inverse")
    out.append(_check_all("cyclo/roundtrips", bad, 50))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_verification(ells: list[int], max_nu: int = 4, max_k: int = 3) -> list[Check]:
    checks = _arith_checks()
    for ell in ells:
        params = GroupParams(ell)
        checks.extend(_character_checks(params))
        checks.extend(_theta_and_c_checks(params))
        checks.extend(_eta_checks(params, max_nu))
        checks.extend(_lens_checks(params, max_k))
        checks.extend(_matrix_checks(params, max_nu, max_k))
    return checks
