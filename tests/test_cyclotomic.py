"""Exact 2-power cyclotomic arithmetic and residues mod 2Z."""

import operator
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, Poly, Rational, invert, symbols

from qko.cyclotomic import Cyclo, NotRationalError, ZeroInverseError, _product
from qko.groups import FpfRep, GroupParams, conjugacy_classes, det_I_minus


def poly_mult_mod(a, b, n):
    """Independent oracle: multiply coefficient lists mod x^n + 1."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            while k >= n:
                k -= n
                x, y = x, -y  # each wrap of x^n contributes a sign flip
            out[k] += x * y
    return out


def test_rational_type_is_exact_and_reduced():
    # the rational substrate keeps everything reduced with positive denominator
    a = Fraction(6, 4)
    assert (a.numerator, a.denominator) == (3, 2)
    assert Fraction(2, -4) == Fraction(-1, 2)
    assert Fraction(2, -4).denominator == 2
    b = Fraction(-7, 3)
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_one_minus_i_times_one_plus_i():
    i = Cyclo.root_of_unity(4)
    assert (Cyclo.one(4) - i) * (Cyclo.one(4) + i) == 2


def test_primitive_eighth_root_fourth_power():
    z = Cyclo.root_of_unity(8)
    assert z * z * z * z == -1
    assert z * z * z * z * z * z * z * z == 1


def test_delta_product_against_poly_oracle():
    # det(I - gamma1) values at xi and xi^3 for the order-16 group, conductor 8
    a = Cyclo.rational(2, 8) - Cyclo.root_of_unity(8, 1) - Cyclo.root_of_unity(8, 7)
    b = Cyclo.rational(2, 8) - Cyclo.root_of_unity(8, 3) - Cyclo.root_of_unity(8, 5)
    oracle = poly_mult_mod(list(a.coeffs), list(b.coeffs), 4)
    product = a * b
    assert list(product.coeffs) == oracle
    assert product == 2


def test_poly_oracle_on_random_products():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.choice([4, 8, 16])
        n = m // 2
        a = Cyclo(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        b = Cyclo(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        assert list((a * b).coeffs) == poly_mult_mod(list(a.coeffs), list(b.coeffs), n)


def _negacyclic(a, b):
    # the product modulo x^n + 1 by its definition: a_i * b_j lands on
    # x^(i + j), and x^(i + j) = -x^(i + j - n) past the top
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
            else:
                out[i + j - n] -= x * y
    return out


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(2 ** 100, 2 ** 140),
                     st.integers(-2 ** 140, -2 ** 100))


@st.composite
def product_factors(draw):
    """Two integer vectors of one length n = 1, 2, 4, ..., 64, each filled in
    all places or in any number of them, with small signed entries and
    entries of 100 to 140 bits, so that the sparser factor is either one."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))

    def vector():
        out = [0] * n
        for i in draw(st.permutations(range(n)))[:draw(st.one_of(st.just(n), st.integers(0, n)))]:
            out[i] = draw(_ENTRIES)
        return out

    return vector(), vector()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(product_factors())
def test_product_is_the_negacyclic_convolution(factors):
    a, b = factors
    want = _negacyclic(a, b)
    assert _product(a, b) == want
    assert _product(tuple(b), tuple(a)) == want


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
def test_product_at_every_sparsity(n):
    # the sparser factor's nonzero count runs from 0 to n against a dense
    # factor, so the per-nonzero loop runs from no pass to n passes
    rng = random.Random(n)
    dense = [rng.choice([-1, 1]) * rng.getrandbits(120) or 1 for _ in range(n)]
    for count in range(n + 1):
        sparse = [0] * n
        for i in rng.sample(range(n), count):
            sparse[i] = rng.randint(-9, 9) or 5
        want = _negacyclic(sparse, dense)
        assert _product(sparse, dense) == want == _product(dense, sparse), (n, count)


@pytest.mark.slow
def test_product_at_conductor_2048():
    # n = 1024, the length of the largest products of the tower inverse
    rng = random.Random(1024)
    dense = [rng.getrandbits(110) - 2 ** 109 for _ in range(1024)]
    spread = [0] * 1024
    spread[::2] = [rng.getrandbits(110) - 2 ** 109 for _ in range(512)]
    for a, b in ((dense, dense[::-1]), (spread, dense)):
        assert _product(a, b) == _negacyclic(a, b)


def test_inverse_simple():
    assert Cyclo.rational(2, 4).inverse() == Fraction(1, 2)
    i = Cyclo.root_of_unity(4)
    assert i.inverse() == -i


def test_inverse_multiplies_back_to_one():
    a = Cyclo.rational(2, 8) - Cyclo.root_of_unity(8, 1) - Cyclo.root_of_unity(8, 7)
    assert a * a.inverse() == 1
    rng = random.Random(11)
    for _ in range(40):
        m = rng.choice([4, 8, 16, 32])
        value = Cyclo(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                          for _ in range(m // 2)])
        if value.is_zero():
            continue
        assert value * value.inverse() == Cyclo.one(m)
    for m in (2, 4, 8, 16, 32, 64, 128, 256):
        z = Cyclo.root_of_unity(m)
        values = [
            z,                                   # even half zero (odd half at m = 2)
            z + 3 * z * z * z,                   # even half zero
            1 + z * z,                           # odd half zero; zero at m = 4
            Cyclo.rational(Fraction(-3, 7), m),  # odd half zero
            2 - z - Cyclo.root_of_unity(m, -1),  # the shape of det(I - gamma(xi))
            Cyclo(m, [rng.randint(-2, 2) for _ in range(m // 2)]),
        ]
        for value in values:
            if value.is_zero():
                continue
            assert value * value.inverse() == Cyclo.one(m), (m, value)


TAUS = [(1,), (1, 1), (1, 3), (3, 5, 1)]


@pytest.mark.parametrize("ell", [8, 16, 32, 64])
def test_inverse_det_against_sympy(ell):
    # sympy's extended Euclid modulo x^n + 1 shares no code with Cyclo.inverse
    params = GroupParams(ell)
    n = params.conductor // 2
    x = symbols("x")
    modulus = x ** n + 1
    cases = 0
    for summands in TAUS:
        tau = FpfRep(params, summands)
        for rep, _ in conjugacy_classes(params)[1:]:
            det = det_I_minus(tau, rep)
            poly = sum(Rational(c.numerator, c.denominator) * x ** i
                       for i, c in enumerate(det.coeffs))
            want = Poly(invert(poly, modulus, x, domain=QQ), x, domain=QQ).all_coeffs()[::-1]
            want = [Fraction(str(c)) for c in want] + [Fraction(0)] * (n - len(want))
            assert list(det.inverse().coeffs) == want, (ell, summands, rep)
            cases += 1
    assert cases == len(TAUS) * (ell // 4 + 2)


@st.composite
def cyclo_pairs(draw):
    m = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    x = Cyclo(m, draw(st.lists(coeff, min_size=m // 2, max_size=m // 2)))
    y = Cyclo(m, draw(st.lists(coeff, min_size=m // 2, max_size=m // 2)))
    return x, y


@settings(derandomize=True, deadline=None)
@given(cyclo_pairs())
def test_inverse_properties(pair):
    x, y = pair
    assume(not x.is_zero() and not y.is_zero())
    assert x * x.inverse() == Cyclo.one(x.conductor)
    assert (x * y).inverse() == x.inverse() * y.inverse()


def assert_lowest_terms(value):
    assert type(value.den) is int and value.den > 0
    assert all(type(x) is int for x in value.nums)
    assert gcd(value.den, *value.nums) == 1, (value.nums, value.den)
    assert len(value.nums) == value.conductor // 2


@st.composite
def kernel_cases(draw):
    m = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))
    x = draw(st.lists(coeff, min_size=m // 2, max_size=m // 2))
    y = draw(st.lists(coeff, min_size=m // 2, max_size=m // 2))
    scalar = draw(st.one_of(st.integers(-4, 4), coeff))
    return m, x, y, scalar


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kernel_cases())
def test_kernel_against_fraction_lists(case):
    # every operation on integer numerators against the same operation on
    # Fraction lists, and every result in lowest terms with a positive denominator
    m, x, y, scalar = case
    n = m // 2
    a, b = Cyclo(m, x), Cyclo(m, y)
    assert list(a.coeffs) == x
    results = {
        "add": (a + b, [p + q for p, q in zip(x, y)]),
        "sub": (a - b, [p - q for p, q in zip(x, y)]),
        "neg": (-a, [-p for p in x]),
        "mul": (a * b, poly_mult_mod(x, y, n)),
        "scale": (a * scalar, [p * scalar for p in x]),
        "rscale": (scalar * a, [scalar * p for p in x]),
    }
    if any(x):
        inv = a.inverse()
        assert poly_mult_mod(x, list(inv.coeffs), n) == [Fraction(1)] + [Fraction(0)] * (n - 1)
        assert_lowest_terms(inv)
    for name, (got, want) in results.items():
        assert list(got.coeffs) == want, name
        assert got == Cyclo(m, want), name
        assert hash(got) == hash(Cyclo(m, want)), name
        assert_lowest_terms(got)
    # unreduced inputs: all-even numerators over an even denominator, rebuilt
    # from the numerators, plain ints scaled down, and a sum whose common
    # factor cancels
    doubled = Cyclo(m, [2 * p for p in x]) * Fraction(1, 2)
    rebuilt = Cyclo(m, [Fraction(2 * p, 2 * a.den) for p in a.nums])
    scaled = Cyclo(m, [int(p * 2 * a.den) for p in x]) * Fraction(1, 2 * a.den)
    cancelled = (a + a + a) * Fraction(1, 3)
    for value in (doubled, rebuilt, scaled, cancelled):
        assert value == a and hash(value) == hash(a)
        assert (value.nums, value.den) == (a.nums, a.den)
        assert_lowest_terms(value)


def test_unreduced_inputs_compare_and_hash_equal():
    half = Cyclo(4, [Fraction(2, 4), 1])
    assert half == Cyclo(4, [Fraction(1, 2), Fraction(4, 4)])
    assert hash(half) == hash(Cyclo(4, [Fraction(1, 2), Fraction(4, 4)]))
    assert (half.nums, half.den) == ((1, 2), 2)
    even = Cyclo(8, [2, 4, -6, 0]) * Fraction(1, 2)
    assert (even.nums, even.den) == ((1, 2, -3, 0), 1)
    assert even == Cyclo(8, [1, 2, -3, 0]) and hash(even) == hash(Cyclo(8, [1, 2, -3, 0]))
    zero = Cyclo(8, [Fraction(1, 3), 0, Fraction(-5, 6), 0]) * 0
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)


@pytest.mark.parametrize("bad", [0.1, "1/2", Decimal("0.5"), None, 1j],
                         ids=["float", "str", "Decimal", "None", "complex"])
def test_inexact_input_raises(bad):
    # nothing may round: a float, a string or a Decimal is refused, not converted
    with pytest.raises(TypeError):
        Cyclo(4, [bad, 0])
    with pytest.raises(TypeError):
        Cyclo(8, [0, 0, 0, bad])
    with pytest.raises(TypeError):
        Cyclo.rational(bad, 8)


def test_zero_inverse_raises():
    with pytest.raises(ZeroInverseError):
        Cyclo.zero(8).inverse()


def test_to_rational():
    assert Cyclo.rational(Fraction(7, 4), 8).to_rational() == Fraction(7, 4)
    with pytest.raises(NotRationalError):
        Cyclo.root_of_unity(8).to_rational()


def test_mixed_conductors_raise():
    a = Cyclo.root_of_unity(4)        # i
    b = Cyclo.root_of_unity(8, 2)     # also i, but in the field of conductor 8
    for op in (operator.add, operator.mul, operator.eq):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)


def test_add_sub_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.choice([4, 8])
        a = Cyclo(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m // 2)])
        b = Cyclo(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m // 2)])
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) * b.inverse() == a


def test_str_rendering():
    assert str(Cyclo.zero(8)) == "0"
    assert str(Cyclo.rational(Fraction(-7, 4), 8)) == "-7/4"
    assert str(Cyclo(8, [2, -1, 0, -1])) == "2 - z8 - z8^3"
