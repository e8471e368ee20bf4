"""Smith normal form, lattice quotients and invariant-factor bookkeeping."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qko import abelian, verify
from qko.abelian import (
    AbelianGroup,
    DimensionMismatchError,
    _diagonalize,
    identity_matrix,
    matrix_determinant,
    matrix_product,
    quotient_group,
    smith_normal_form,
)
from qko.groups import GroupParams
from qko.ktheory import ksp_group
from qko.verify import brute_force_span


def snf_postconditions(mat):
    u, d, v = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    assert matrix_product(matrix_product(u, mat), v) == d
    assert abs(matrix_determinant(u)) == 1
    assert abs(matrix_determinant(v)) == 1
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    chain = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    # zeros must come after the nonzero chain
    assert diag == chain + [0] * (len(diag) - len(chain))
    return diag


def test_snf_identity():
    diag = snf_postconditions([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_snf_coprime_diagonal():
    diag = snf_postconditions([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_symmetric_determinant_five():
    # gcd of the entries is 1 and the determinant is 5
    diag = snf_postconditions([[3, 2], [2, 3]])
    assert diag == [1, 5]


def test_snf_zero_and_degenerate_shapes():
    assert snf_postconditions([[0, 0], [0, 0]]) == [0, 0]
    assert snf_postconditions([[4, 6, 8]]) == [2]
    assert snf_postconditions([[4], [6], [8]]) == [2]
    assert snf_postconditions([[-3]]) == [3]
    # no rows, and one row of no columns
    assert snf_postconditions([]) == []
    assert snf_postconditions([[]]) == []
    # a zero first column: the column swap must be carried into V
    assert snf_postconditions([[0, 2], [0, 3]]) == [1, 0]
    # a negative pivot below row 0: its row of U is negated too
    assert snf_postconditions([[1, 0], [0, -2]]) == [1, 2]


def test_snf_random_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        snf_postconditions(mat)


@st.composite
def int_matrices(draw, size=6):
    """Up to size x size integer matrices with entries in -20..20, empty shapes included."""
    rows, cols = draw(st.integers(0, size)), draw(st.integers(0, size))
    row = st.lists(st.integers(-20, 20), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(int_matrices())
def test_snf_postconditions_on_random_matrices(mat):
    snf_postconditions(mat)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(int_matrices())
def test_bare_elimination_leaves_the_smith_diagonal(mat):
    # a span's matrix goes through the same elimination with nothing riding along
    a = [list(row) for row in mat]
    _diagonalize(a, len(mat), len(mat[0]) if mat else 0)
    assert a == smith_normal_form(mat)[1]


def test_spans_build_no_transforms(monkeypatch):
    ksp_group.cache_clear()
    want = ksp_group(4, GroupParams(16))
    ksp_group.cache_clear()

    def no_transform(n):
        raise AssertionError("a span built a transform")

    monkeypatch.setattr(abelian, "identity_matrix", no_transform)
    gens = [(Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]
    assert quotient_group(gens) == AbelianGroup((4, 4))
    try:
        assert ksp_group(4, GroupParams(16)) == want
    finally:
        ksp_group.cache_clear()


def determinantal_divisors_hold(mat):
    """d_1 * ... * d_k of the Smith diagonal is the gcd of all k x k minors,
    each minor a determinant from matrix_determinant."""
    _, d, _ = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    for k in range(1, min(rows, cols) + 1):
        minors = (matrix_determinant([[mat[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(rows), k) for cs in combinations(range(cols), k))
        assert prod(d[i][i] for i in range(k)) == gcd(*minors), (mat, k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(int_matrices(5))
def test_smith_diagonal_is_the_determinantal_divisors(mat):
    determinantal_divisors_hold(mat)


def test_smith_diagonal_is_the_determinantal_divisors_on_the_verify_trials(monkeypatch):
    matrices = []
    real = verify.smith_normal_form

    def record(mat):
        matrices.append(mat)
        return real(mat)

    monkeypatch.setattr(verify, "smith_normal_form", record)
    verify._arith_checks()
    assert len(matrices) == 200
    for mat in matrices:
        determinantal_divisors_hold(mat)


def test_determinant_bareiss():
    assert matrix_determinant([[3, 2], [2, 3]]) == 5
    assert matrix_determinant([[2, 0, 0], [0, 0, 1], [0, 1, 0]]) == -2
    assert matrix_determinant(identity_matrix(4)) == 1
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        # expansion by minors as the oracle
        def minors_det(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j, head in enumerate(m[0]):
                if head:
                    rest = [row[:j] + row[j + 1:] for row in m[1:]]
                    total += (-1) ** j * head * minors_det(rest)
            return total
        assert matrix_determinant(mat) == minors_det(mat)


def test_abelian_group_validation():
    assert AbelianGroup((4, 4, 8)).order == 128
    assert AbelianGroup(()).is_trivial()
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        AbelianGroup((1, 2))


def test_abelian_group_merge():
    assert AbelianGroup.from_cyclic_orders([2, 3]) == AbelianGroup((6,))
    assert AbelianGroup.from_cyclic_orders([2, 6, 4]) == AbelianGroup((2, 2, 12))
    assert AbelianGroup.from_cyclic_orders([1, 1]) == AbelianGroup(())
    a = AbelianGroup((4, 4))
    b = AbelianGroup((8,))
    assert a.direct_sum(b) == AbelianGroup((4, 4, 8))
    assert str(a.direct_sum(b)) == "Z4 x Z4 x Z8"
    assert str(AbelianGroup(())) == "0"


def prime_power_invariant_factors(orders):
    """Reference canonical form: split each order into prime powers, sort each
    prime's exponents largest first, and multiply the k-th exponents of all
    primes into the k-th largest invariant factor."""
    by_prime = {}
    for n in orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
    for exps in by_prime.values():
        exps.sort(reverse=True)
    width = max((len(e) for e in by_prime.values()), default=0)
    return tuple(sorted(prod(p ** exps[k] for p, exps in by_prime.items() if k < len(exps))
                        for k in range(width)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(1, 500), max_size=8), st.integers(-3, 0))
def test_from_cyclic_orders_matches_prime_power_reference(orders, bad):
    group = AbelianGroup.from_cyclic_orders(orders)
    assert group.invariant_factors == prime_power_invariant_factors(orders)
    assert group.order == prod(orders)
    with pytest.raises(ValueError, match="positive"):
        AbelianGroup.from_cyclic_orders(orders + [bad])


def test_quotient_single_generator_7_4():
    # multiples of 7/4 mod 2 form a cyclic group of order 8
    assert quotient_group([(Fraction(7, 4),)]) == AbelianGroup((8,))


def test_quotient_empty():
    assert quotient_group([]) == AbelianGroup(())


def test_quotient_lens_rows_order_16():
    # the k=2 lens rows for the order-8 group: 2^(1-k) * {(2,1), (1,2)}
    gens = [(Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]
    assert quotient_group(gens) == AbelianGroup((4, 4))


def test_quotient_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        quotient_group([(Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 4))])


@pytest.mark.parametrize("bad", [0.1, "1/2", Decimal("0.5"), None],
                         ids=["float", "str", "Decimal", "None"])
def test_quotient_refuses_inexact_entries(bad):
    # nothing may round: "1/2" once spanned Z4 and 0.1 a cyclic group of order 2^56
    for gens in ([(bad,)], [(Fraction(1, 2), 0), (1, bad)]):
        with pytest.raises(TypeError):
            quotient_group(gens)
    assert quotient_group([(1, Fraction(1, 2))]) == AbelianGroup((4,))


@pytest.mark.parametrize("call", [
    lambda bad: AbelianGroup([bad]),
    lambda bad: AbelianGroup([2, bad]),
    lambda bad: AbelianGroup.from_cyclic_orders([bad, 4]),
    lambda bad: smith_normal_form([[1, 0], [0, bad]]),
    lambda bad: matrix_determinant([[bad]]),
], ids=["group", "group-second", "cyclic-orders", "smith", "determinant"])
@pytest.mark.parametrize("bad", [4.7, 2.9, "8", Fraction(7, 2), Fraction(4), Decimal("2")],
                         ids=["float", "float-low", "str", "Fraction", "Fraction-int", "Decimal"])
def test_inexact_entries_raise_type_error(call, bad):
    # nothing truncates: AbelianGroup([4.7]) was once Z4 and AbelianGroup(["8"]) Z8
    with pytest.raises(TypeError):
        call(bad)


def test_brute_force_oracle_sanity():
    # the oracle itself on groups whose structure is known by inspection
    assert brute_force_span([(Fraction(1, 2),)]) == AbelianGroup((4,))
    assert brute_force_span([(Fraction(2, 3),)]) == AbelianGroup((3,))
    assert brute_force_span([(Fraction(1, 2), Fraction(0)),
                             (Fraction(0), Fraction(1, 2))]) == AbelianGroup((4, 4))
    assert brute_force_span([(Fraction(1),)]) == AbelianGroup((2,))
    # n = 3 and the primes 3, 5: Z6 + Z10 + Z8
    assert brute_force_span([(Fraction(1, 3), Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(1, 5), Fraction(0)),
                             (Fraction(0), Fraction(0), Fraction(1, 4))]) \
        == AbelianGroup((2, 2, 120))
    # Z3 + Z4
    assert brute_force_span([(Fraction(2, 3),), (Fraction(1, 2),)]) == AbelianGroup((12,))
    # the prime 7: orders 28 and 12, meeting in (0, 1, 0)
    assert brute_force_span([(Fraction(1, 7), Fraction(1, 2), Fraction(0)),
                             (Fraction(0), Fraction(1, 2), Fraction(1, 3))]) \
        == AbelianGroup((2, 84))


@pytest.mark.parametrize("gens, want", [
    ([(Fraction(1, 9), 0), (0, Fraction(1, 3))], (6, 18)),
    ([(Fraction(1, 4), Fraction(1, 3))], (24,)),
    ([(Fraction(1, 25),), (Fraction(1, 5),)], (50,)),
    ([(Fraction(1, 9), Fraction(1, 3)), (Fraction(1, 3), 0)], (2, 18)),
], ids=["Z6xZ18", "Z24", "Z50", "Z2xZ18"])
def test_span_oracle_peels_factors_in_order(gens, want):
    # factors sharing the prime 3 at two depths, a cyclic group of mixed
    # primes, a nested cyclic pair, and a span whose two generators meet
    assert brute_force_span(gens) == quotient_group(gens) == AbelianGroup(want)


@pytest.mark.parametrize("gens", [[()], [(), ()]], ids=["one", "two"])
def test_spans_with_no_coordinates_are_trivial(gens):
    assert brute_force_span(gens) == quotient_group(gens) == AbelianGroup.trivial()


@pytest.mark.parametrize("gens", [
    [(Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 3))],
    [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2),)],
], ids=["short-first", "long-first"])
def test_spans_of_unequal_lengths_raise(gens):
    for span in (brute_force_span, quotient_group):
        with pytest.raises(DimensionMismatchError):
            span(gens)


@pytest.mark.parametrize("gens, want", [
    ([(1, 0)], (2,)),
    ([(3,)], (2,)),
    ([(-1, Fraction(1, 2)), (Fraction(3, 4), 0)], (4, 8)),
    ([(2, Fraction(-5, 3)), (Fraction(1, 2), 4)], (2, 12)),
], ids=["int-pair", "int-above-2", "mixed", "mixed-even-ints"])
def test_spans_with_int_entries(gens, want):
    # plain ints carry .numerator / .denominator like Fractions; both sides scale by them
    assert quotient_group(gens) == brute_force_span(gens) == AbelianGroup(want)


def test_quotient_matches_brute_force_n1():
    for q in range(1, 17):
        for p in range(0, 2 * q):
            gens = [(Fraction(p, q),)]
            assert quotient_group(gens) == brute_force_span(gens), f"{p}/{q}"


def test_quotient_matches_brute_force_n2():
    # systematic: each denominator up to 16 paired with 1, with 2 and with itself
    rng = random.Random(424242)
    for q in range(1, 17):
        for q2 in {1, 2, q}:
            for _ in range(4):
                gens = [(Fraction(rng.randint(0, 2 * q - 1), q),
                         Fraction(rng.randint(0, 2 * q2 - 1), q2))
                        for _ in range(rng.randint(1, 2))]
                assert quotient_group(gens) == brute_force_span(gens), gens
    # random mixtures
    rng = random.Random(99)
    count = 0
    while count < 200:
        gens = []
        denominators = []
        for _ in range(rng.randint(1, 3)):
            q1 = rng.randint(1, 16)
            q2 = rng.randint(1, 16)
            denominators += [q1, q2]
            gens.append((Fraction(rng.randint(0, 2 * q1 - 1), q1),
                         Fraction(rng.randint(0, 2 * q2 - 1), q2)))
        joint = 1
        for q in denominators:
            joint = joint * q // gcd(joint, q)
        if joint > 24:  # keep the enumeration oracle at desk scale
            continue
        assert quotient_group(gens) == brute_force_span(gens), gens
        count += 1


@st.composite
def spans(draw):
    """1-3 generators of one length 1-3 over a common denominator d, often
    with the odd prime factors 3, 5 and 7, and with numerators in [-4d, 4d),
    so unreduced and negative entries too; the span has at most (2d)^length
    elements, kept at desk scale."""
    length = draw(st.integers(1, 3))
    d = draw(st.sampled_from([d for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24)
                              if (2 * d) ** length <= 3000]))
    return [tuple(Fraction(draw(st.integers(-4 * d, 4 * d - 1)), d) for _ in range(length))
            for _ in range(draw(st.integers(1, 3)))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spans())
def test_quotient_matches_brute_force_on_random_spans(gens):
    assert quotient_group(gens) == brute_force_span(gens)


@st.composite
def spans_in_three_coordinates(draw):
    """1-4 generators of length 3 whose denominators divide one bound of at
    most 12, so their lcm is at most 12; numerators in [-4q, 4q) give
    unreduced and negative entries too."""
    bound = draw(st.integers(1, 12))
    denominator = st.sampled_from([q for q in range(1, bound + 1) if bound % q == 0])

    def entry():
        q = draw(denominator)
        return Fraction(draw(st.integers(-4 * q, 4 * q - 1)), q)

    return [(entry(), entry(), entry()) for _ in range(draw(st.integers(1, 4)))]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(spans_in_three_coordinates())
def test_quotient_matches_brute_force_in_three_coordinates(gens):
    # the fused mod-2d row and column steps on wider blocks than verify's trials
    assert quotient_group(gens) == brute_force_span(gens)
