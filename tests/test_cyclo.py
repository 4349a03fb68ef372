import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mqg.cyclo import (
    ConductorLimitError,
    CycloNum,
    InvalidConductorError,
    cyclotomic_polynomial,
    euler_phi,
    int_vec_zero_mod_phi,
    mult_order,
    root_exponent,
    root_of_unity,
    rotate,
)
from mqg.shuffle import gauss_binomial_poly


def test_minimal_polynomial_relations():
    z3 = root_of_unity(3)
    assert CycloNum.one() + z3 + z3**2 == CycloNum.zero()
    z4 = root_of_unity(4)
    assert z4 * z4 == CycloNum.from_rational(-1)
    z5 = root_of_unity(5)
    assert sum((z5**k for k in range(1, 5)), CycloNum.zero()) == \
        CycloNum.from_rational(-1)


def test_rational_embedding():
    half = CycloNum.from_rational(Fraction(1, 2))
    assert half + half == CycloNum.one()
    assert half * 2 == CycloNum.one()
    assert (half - half).is_zero()


def test_inverse():
    z7 = root_of_unity(7)
    x = z7**3 + CycloNum.from_rational(2)
    assert x * x.inverse() == CycloNum.one()
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero().inverse()


def test_division_and_power():
    z8 = root_of_unity(8)
    assert z8**8 == CycloNum.one()
    assert z8**-1 == z8**7
    assert (z8 / z8) == CycloNum.one()
    assert z8**0 == CycloNum.one()


def test_cross_conductor_equality_and_hash():
    a = root_of_unity(4, 2)        # -1 at conductor 4
    b = CycloNum.from_rational(-1)  # -1 at conductor 1
    assert a == b
    assert hash(a) == hash(b)
    c = root_of_unity(6, 3)
    assert c == b and hash(c) == hash(b)


def test_equal_values_hash_equally():
    # a root of unity: tagged, untagged, lifted, and from a product of tags
    u = CycloNum(8, [0, 0, 1])
    z4 = root_of_unity(4)
    forms = [u, z4, z4.lift(8), u.lift(24), CycloNum(4, [0, 1]),
             root_of_unity(2) * root_of_unity(8, 6)]
    assert all(x == z4 and hash(x) == hash(z4) for x in forms)
    # roots, non-roots (integral and not) and rationals across conductors
    z3, z8 = root_of_unity(3), root_of_unity(8)
    values = [
        CycloNum.zero(), CycloNum.one(), CycloNum.from_rational(-1),
        CycloNum.from_rational(2), CycloNum.from_rational(Fraction(1, 3)),
        z3 - z3**2,                      # sqrt(-3)
        z8 + z8**7,                      # sqrt(2)
        root_of_unity(5) + 2,
        (root_of_unity(12) + 1) * Fraction(1, 3),
        root_of_unity(9, 4) * Fraction(-1, 2),
    ]
    for x in values:
        for k in (2, 3, 4):
            y = x.lift(x.n * k)
            untagged = CycloNum(y.n, y.c)
            assert y == x == untagged
            assert hash(y) == hash(x) == hash(untagged)
    # the same non-root value reached at two conductors by arithmetic
    assert 2 * root_of_unity(12, 4) + 1 == z3 - z3**2
    assert hash(2 * root_of_unity(12, 4) + 1) == hash(z3 - z3**2)


def test_roots_of_unity_hash_apart():
    # every root of order dividing 144 (the conductor of q for n = 12, the
    # largest the n <= 12 sweeps build) has its own hash, tagged or not,
    # at any conductor
    tagged = [root_of_unity(144, e) for e in range(144)]
    assert len({hash(z) for z in tagged}) == 144
    for e in range(0, 144, 7):
        assert hash(CycloNum(144, tagged[e].c)) == hash(tagged[e])
    for k in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 36, 48, 72):
        for e in range(k):
            assert hash(root_of_unity(k, e)) == hash(tagged[e * (144 // k)])


def test_mult_order():
    assert mult_order(root_of_unity(12, 1)) == 12
    assert mult_order(root_of_unity(12, 8)) == 3
    assert mult_order(CycloNum.one()) == 1
    assert mult_order(CycloNum.from_rational(2)) is None
    assert mult_order(CycloNum.zero()) is None


def test_as_root_of_unity():
    k, e = (root_of_unity(9, 6)).as_root_of_unity()
    assert root_of_unity(k, e) == root_of_unity(9, 6)
    assert (k, e) == (3, 2)
    assert root_exponent(root_of_unity(9, 6), 9) == 6
    assert root_exponent(root_of_unity(4, 3), 16) == 12
    assert root_exponent(CycloNum.one(), 5) == 0


def test_untagged_roots_of_unity():
    # +-zeta_n^e built from coefficients carry no tag; at odd n the
    # negatives are the roots of even order, which no zeta_n^e is
    for n in (1, 2, 3, 5, 8, 9, 12, 15):
        for e in range(n):
            for sign in (1, -1):
                x = CycloNum(n, [0] * e + [sign])
                assert x._root is None
                k, f = x.as_root_of_unity()
                assert 0 <= f < k and math.gcd(f, k) == 1
                assert x == root_of_unity(k, f) and x.mult_order() == k
                assert x**k == 1 and all(x**j != 1 for j in range(1, k))
    for x in (CycloNum.zero(), CycloNum.from_rational(2),
              root_of_unity(5) + 1, root_of_unity(12) * Fraction(1, 2)):
        assert x.as_root_of_unity() is None and x.mult_order() is None


def test_as_root_of_unity_leaves_the_value_untouched():
    # a root tag decides the conductor of a product, so asking for the
    # root form must not add one
    u = CycloNum(8, [0, 0, 1])
    before = (u * root_of_unity(4)).n
    assert u.as_root_of_unity() == (4, 1)
    assert (u * root_of_unity(4)).n == before == 8


def test_json_round_trip():
    x = root_of_unity(5) * Fraction(3, 7) + CycloNum.from_rational(1)
    doc = x.to_json()
    assert set(doc) == {"conductor", "num", "den"}
    assert CycloNum.from_json(doc) == x
    assert CycloNum.from_json(doc).to_json() == doc


def test_invalid_and_capped_conductor(monkeypatch):
    with pytest.raises(InvalidConductorError):
        CycloNum(0, [1])
    with pytest.raises(InvalidConductorError):
        root_of_unity(-3)
    monkeypatch.setenv("MQG_MAX_CONDUCTOR", "10")
    with pytest.raises(ConductorLimitError):
        CycloNum(11, [1] * 3)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    for n in (9, 12, 15, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def cyclic_mul(a, b) -> list[int]:
    """The product of two integer vectors of length N modulo x^N - 1."""
    N = len(a)
    out = [0] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % N] += x * y
    return out


def test_cyclic_mul_is_product_then_bucketing():
    # bucketing at x -> x^step is a ring map Z[x] -> Z[x]/(x^N - 1)
    def bucket(poly, N, step):
        out = [0] * N
        for e, c in enumerate(poly):
            out[e * step % N] += c
        return out

    for N in (1, 2, 3, 4, 6, 9, 16):
        for step in range(N):
            for l1, m1, l2, m2 in ((0, 0, 3, 2), (1, 1, 2, 2), (4, 3, 5, 1),
                                   (2, 5, 3, 3), (6, 6, 0, 4)):
                a = gauss_binomial_poly(l1 + m1, l1)
                b = gauss_binomial_poly(l2 + m2, l2)
                ab = [0] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        ab[i + j] += x * y
                assert (cyclic_mul(bucket(a, N, step), bucket(b, N, step))
                        == bucket(ab, N, step))
        # rotation by e is the cyclic product with x^e
        v = bucket(gauss_binomial_poly(5, 2), N, 1)
        for e in range(-N, 2 * N):
            x_e = bucket([0] * (e % N) + [1], N, 1)
            assert rotate(v, e) == cyclic_mul(v, x_e)


def test_int_vec_reduction():
    # 1 + z3 + z3^2 = 0 as an integer vector
    assert int_vec_zero_mod_phi([1, 1, 1], 3)
    assert not int_vec_zero_mod_phi([1, 1, 0], 3)
    assert int_vec_zero_mod_phi([0] * 8, 8)


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=5
)


@st.composite
def cyclo_numbers(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    coeffs = draw(st.lists(small_rationals, min_size=1, max_size=euler_phi(n)))
    return CycloNum(n, coeffs)


@settings(deadline=None, max_examples=60)
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(deadline=None, max_examples=60)
@given(cyclo_numbers())
def test_additive_inverse_and_json(a):
    assert (a - a).is_zero()
    assert CycloNum.from_json(a.to_json()) == a


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 4, 5, 6, 8, 12]), st.integers(0, 30))
def test_root_exponent_arithmetic(n, e):
    z = root_of_unity(n)
    assert z**e == root_of_unity(n, e % n)
    assert (z**e) * (z ** (n - e % n)) == CycloNum.one()
