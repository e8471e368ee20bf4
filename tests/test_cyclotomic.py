"""Exact 2-power cyclotomic arithmetic and residues mod 2Z."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, Poly, Rational, invert, symbols

from qko.cyclotomic import Cyclo, Mod2Z, NotRationalError, ZeroInverseError
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
    assert z ** 8 == 1
    assert z ** 4 == -1


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
            z + 3 * z ** 3,                      # even half zero
            1 + z ** 2,                          # odd half zero; zero at m = 4
            Cyclo.rational(Fraction(-3, 7), m),  # odd half zero
            2 - z - z.conjugate(),               # the shape of det(I - gamma(xi))
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


def test_conjugation():
    z = Cyclo.root_of_unity(8)
    assert z.conjugate() == z ** 7
    assert (z + z.conjugate()).conjugate() == z + z.conjugate()
    assert Cyclo.rational(Fraction(3, 5), 8).conjugate() == Fraction(3, 5)
    # conjugation is multiplicative
    a = Cyclo(8, [1, 2, 0, -1])
    b = Cyclo(8, [0, 1, 1, 1])
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    # conjugation is zeta -> zeta^(-1); every odd t gives an automorphism
    for t in (1, 3, 5, 7, -3, 11):
        assert z.galois(t) == z ** (t % 8)
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)


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


def test_mod2z_canonical_range():
    assert Mod2Z(Fraction(7, 4)).rep == Fraction(7, 4)
    assert Mod2Z(Fraction(9, 4)).rep == Fraction(1, 4)
    assert Mod2Z(Fraction(-1, 4)).rep == Fraction(7, 4)
    assert Mod2Z(2).rep == 0
    assert Mod2Z(Fraction(317, 2)).rep == Fraction(1, 2)


def test_mod2z_arithmetic():
    a = Mod2Z(Fraction(7, 4))
    b = Mod2Z(Fraction(1, 2))
    assert a + b == Mod2Z(Fraction(1, 4))
    assert -a == Mod2Z(Fraction(1, 4))
    assert a - b == Mod2Z(Fraction(5, 4))
    assert 3 * b == Mod2Z(Fraction(3, 2))
    assert 4 * b == Mod2Z(0)
    assert str(a) == "7/4"


def test_mod2z_equality_is_representation_equality():
    assert Mod2Z(Fraction(3, 2)) == Mod2Z(Fraction(-1, 2))
    assert Mod2Z(Fraction(3, 2)) != Mod2Z(Fraction(1, 2))
    assert hash(Mod2Z(Fraction(3, 2))) == hash(Mod2Z(Fraction(-1, 2)))
