"""Named consistency checks aggregating every invariant the library promises.

Each check compares an independently stated expectation (a closed form, a
printed matrix pattern, an explicit matrix, a brute-force enumeration, or a
class-value evaluation from :mod:`qko.oracles`) against the computed value,
and reports name / pass / expected / actual.  Where both sides would
otherwise run through the representation-ring engine, the expectation is
the oracle's.  The K-group rows are :func:`qko.ktheory.structure_checks`,
the table that ``ksp_group`` / ``ko_group`` assert and keep on each report.
The CLI ``verify`` command runs the whole list and fails its exit code on
any mismatch.
"""

from __future__ import annotations

import gc
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import and_, floordiv, rshift

from . import oracles
from .abelian import (
    AbelianGroup,
    DimensionMismatchError,
    matrix_determinant,
    matrix_product,
    quotient_group,
    smith_normal_form,
)
from .checks import Check, _check, _check_all
from .cyclotomic import Cyclo, NotRationalError
from .eta import eta_pair, eta_theta_closed_form, lens_space, quaternion_space
from .groups import (
    GroupParams,
    Subgroup,
    VirtualCharacter,
    char_dim,
    conjugacy_classes,
    delta_power,
    det_I_minus,
    element_name,
    fs_indicator,
    irreducible_labels,
    membership,
    standard_fpf,
    theta,
)
from .ktheory import ko_group, ko_ksp_isomorphism_check, ksp_group

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
    group, char_value = oracles.quaternion_group(params), oracles.char_value
    bad = []
    for label in labels:
        got = fs_indicator(params, label)
        total = sum((size * char_value(params, label, group.mul(rep, rep))
                     for rep, size in classes), Cyclo.zero(params.conductor))
        if got != total.to_rational() / ell:
            bad.append(f"fs({label})={got}")
    out.append(_check_all(f"chars/fs-types/ell{ell}", bad, len(labels)))

    # folding of the 2-dimensional family at and beyond its index range
    bad, gamma_trace = [], oracles.gamma_trace
    for rep, _ in classes:
        failed = []
        rho_kappa2 = char_value(params, "rho0", rep) + char_value(params, "kappa2", rep)
        if gamma_trace(params, 0, rep) != rho_kappa2:
            failed.append("u=0")
        k1_k3 = char_value(params, "kappa1", rep) + char_value(params, "kappa3", rep)
        if gamma_trace(params, params.quarter, rep) != k1_k3:
            failed.append("u=ell/4")
        for u in range(1, params.quarter):
            if gamma_trace(params, -u, rep) != gamma_trace(params, u, rep):
                failed.append(f"u=-{u}")
            if gamma_trace(params, u + params.half, rep) != gamma_trace(params, u, rep):
                failed.append(f"u={u}+ell/2")
        if failed:
            bad.append(f"{element_name(params, rep)} at {', '.join(failed)}")
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

    # delta's class function, the engine's determinant and det(I - M) of the
    # explicit matrix agree
    bad, tau, delta = [], standard_fpf(params, 1), delta_power(1, params)
    for (rep, _), value in zip(conjugacy_classes(params), oracles.class_values(delta)):
        explicit = oracles.explicit_det_I_minus(params, (1,), rep)
        if not value == det_I_minus(tau, rep) == explicit:
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
                got = eta_pair(space, delta_power(r, params), bundle)
                want = oracles.c_constant(r + s - nu, params)
                if got != want:
                    bad.append(f"(r={r},s={s})")
        out.append(_check_all(f"eta/delta-pairing/ell{ell}/nu{nu}", bad, 30))

        bad = []
        for i in (1, 2):
            for r in range(1, 5):
                fwd = eta_pair(space, theta(i, params), delta_power(r, params))
                rev = eta_pair(space, delta_power(r, params), theta(i, params))
                if fwd != 0 or rev != 0:
                    bad.append(f"(i={i},r={r})")
            if eta_pair(space, theta(i, params)) != 0:
                bad.append(f"untwisted i={i}")
        out.append(_check_all(f"eta/theta-delta-zero/ell{ell}/nu{nu}", bad, 18))

        bad = []
        for i1 in (1, 2):
            for i2 in (1, 2):
                got = eta_pair(space, theta(i1, params), theta(i2, params))
                if got != eta_theta_closed_form(i1, i2, nu, params):
                    bad.append(f"({i1},{i2})")
        out.append(_check_all(f"eta/theta-pairing/ell{ell}/nu{nu}", bad, 4))

        sym_a = eta_pair(space, theta(1, params), theta(2, params))
        sym_b = eta_pair(space, theta(2, params), theta(1, params))
        out.append(_check(f"eta/symmetry/ell{ell}/nu{nu}", sym_a, sym_b))

    plain, once, twice = (eta_pair(quaternion_space(params, 2, z_factor=z), theta(1, params),
                                   theta(1, params)) for z in range(3))
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
    sigmas = (theta(1, params), theta(2, params), delta_power(1, params))
    for k in range(1, max_k + 1):
        m_i = lens_space(params, Subgroup.GEN_I, k)
        triples = {}
        for name, sub in (("J", Subgroup.GEN_J), ("xiJ", Subgroup.GEN_XI_J)):
            m_sub = lens_space(params, sub, k)
            triples[name] = tuple(eta_pair(m_i, sigma) - eta_pair(m_sub, sigma) for sigma in sigmas)
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
        out.extend(ksp_group(nu, params).checks)
    # ktheory states each closed form; verify adds the rows that compare two reports
    for k in range(1, max_k + 1):
        report = ko_group(k, params)
        c_form, c_block, order, splitting = report.checks
        bundle_b = ksp_group(k + 1, params).b_matrix
        out += [c_form,
                _check(f"matrix/b-manifold-vs-bundle/ell{ell}/k{k}",
                       [[f"{e.numerator}/{e.denominator}" for e in row]
                        for row in bundle_b.entries],
                       [[f"{e.numerator}/{e.denominator}" for e in row]
                        for row in report.b_matrix.entries]),
                c_block, order,
                _check(f"ko-ksp-iso/ell{ell}/k{k}", True, ko_ksp_isomorphism_check(k, params)),
                splitting]
    return out


# ---------------------------------------------------------------------------
# Arithmetic substrate
# ---------------------------------------------------------------------------

def brute_force_span(generators: list[tuple[Fraction | int, ...]]) -> AbelianGroup:
    """Independent oracle: enumerate the subgroup of (Q/2Z)^n generated by the
    vectors (closure under addition), then peel its invariant factors off,
    largest first, from how many elements each n kills.  Scaled by the common
    denominator d of the entries, the vectors are integer vectors mod 2d, each
    held as one int whose coordinates sit in fixed-width bit fields wide enough
    for the sum of two residues: adding a generator is one integer add and one
    masked subtraction of 2d from each field that reached 2d."""
    n = len(generators[0]) if generators else 0
    if any(len(g) != n for g in generators):
        raise DimensionMismatchError("generators have inconsistent lengths")
    if not n:  # no generator, or no coordinate: the trivial group
        return AbelianGroup.trivial()
    d = lcm(*(x.denominator for g in generators for x in g))
    modulus = 2 * d
    # with 2^(w-1) >= 2d, a field plus 2^(w-1) - 2d carries into its top bit
    # exactly when the field is at least 2d, and never into the next field
    w = modulus.bit_length() + 1
    offsets = range(0, w * n, w)
    top = sum(1 << (s + w - 1) for s in offsets)
    bias = top - sum(modulus << s for s in offsets)
    shifts = [sum((x.numerator * (d // x.denominator) % modulus) << s for x, s in zip(g, offsets))
              for g in generators]

    # found grows while the loop reads it, so every element is visited once
    elements, found = {0}, [0]
    for base in found:
        for shift in shifts:
            nxt = base + shift
            nxt -= (((nxt + bias) & top) >> (w - 1)) * modulus
            if nxt not in elements:
                elements.add(nxt)
                found.append(nxt)

    # an element's order is 2d / gcd(2d, its coordinates), and n kills the
    # elements whose order divides n, prod gcd(n, d_i) of them.  The largest
    # invariant factor is the exponent, the largest order; with the largest
    # factors f found, the next is the least order n that kills
    # |rest| * prod gcd(n, f) elements (the orders met are the exponent's divisors)
    gcds, mask = repeat(modulus), (1 << w) - 1
    for s in offsets:
        gcds = map(gcd, gcds, map(and_, map(rshift, found, repeat(s)), repeat(mask)))
    orders = Counter(map(floordiv, repeat(modulus), gcds))
    factors = [max(orders)]
    rest = len(found) // factors[0]
    while rest > 1:
        factors.append(next(n for n in sorted(orders)
                            if sum(c for o, c in orders.items() if n % o == 0)
                            == rest * prod(gcd(n, f) for f in factors)))
        rest //= factors[-1]
    return AbelianGroup(f for f in reversed(factors) if f > 1)


def _arith_checks() -> list[Check]:
    out = []
    rng = random.Random(RANDOM_SEED)  # randrange(a, b + 1) draws exactly as randint(a, b)

    bad = []
    for trial in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)]
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
        # draw the integers first and build Fractions only for accepted spans
        draws = []
        for _ in range(rng.randrange(1, 4)):
            q1, q2 = rng.randrange(1, 17), rng.randrange(1, 17)
            draws.append((rng.randrange(2 * q1), q1, rng.randrange(2 * q2), q2))
        if lcm(*(q for _, q1, _, q2 in draws for q in (q1, q2))) > 24:
            continue  # keep the enumeration oracle at desk scale
        gens = [(Fraction(p1, q1), Fraction(p2, q2)) for p1, q1, p2, q2 in draws]
        if quotient_group(gens) != brute_force_span(gens):
            bad.append(str(gens))
        cases += 1
    out.append(_check_all("quotient/bruteforce-n2", bad, cases))

    bad = []
    for trial in range(50):
        m = rng.choice([4, 8, 16])
        coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(m // 2)]
        a = Cyclo(m, coeffs)
        if not a.is_zero() and a * a.inverse() != Cyclo.one(m):
            bad.append(f"trial {trial}: inverse")
    out.append(_check_all("cyclo/roundtrips", bad, 50))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Every memo table of the package: each qko module loaded by now (this one
# included), read when this module is imported, so that a name patched later
# over one of them still has its table emptied.  Each is keyed by a group
# order or by values that carry one.
_MEMO_TABLES = frozenset(obj for name, module in list(sys.modules.items())
                         if name.partition(".")[0] == __package__
                         for obj in vars(module).values() if hasattr(obj, "cache_clear"))


def _release_memo_tables() -> None:
    for table in _MEMO_TABLES:
        table.cache_clear()


def run_verification(ells: list[int], max_nu: int, max_k: int) -> list[Check]:
    """The substrate checks, then each order's checks in turn.  No order reads
    another's memo entries, so after each order's checks every memo table of
    the qko package is emptied: a caller's own cached values (a ``ksp_group``
    report, say) go too, and are recomputed on their next call.  One full
    collection follows, which empties the interpreter's free lists, so the next
    order reuses that memory and the peak stays near one order's working set.
    ``qko.cli`` freezes the heap it loaded, so there the collection is cheap; a
    host with an unfrozen heap pays one traversal of all of it per order."""
    checks = _arith_checks()
    for ell in ells:
        params = GroupParams(ell)
        checks.extend(_character_checks(params))
        checks.extend(_theta_and_c_checks(params))
        checks.extend(_eta_checks(params, max_nu))
        checks.extend(_lens_checks(params, max_k))
        checks.extend(_matrix_checks(params, max_nu, max_k))
        _release_memo_tables()
        gc.collect()
    return checks
