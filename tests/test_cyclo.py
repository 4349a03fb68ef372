import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mqg.cyclo import (
    ConductorLimitError,
    CycloNum,
    InvalidConductorError,
    _reduce_mod_phi,
    cyclotomic_polynomial,
    euler_phi,
    int_vec_zero_mod_phi,
    root_exponent,
    root_of_unity,
    rotate,
)


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
    # every nonzero value inverts: irrational values at their own
    # conductor, rationals at conductor 1
    invertible = [
        root_of_unity(8, 3),
        root_of_unity(12, 1),
        -root_of_unity(3),                       # -zeta_3, order 6
        CycloNum(8, [0, 0, 1]),                  # untagged zeta_4
        CycloNum(9, [0, 0, 0, 0, 0, 0]) + root_of_unity(9, 4),
        CycloNum.from_rational(Fraction(-2, 3)),
        CycloNum(8, [Fraction(5, 2)]),           # a rational at conductor 8
        root_of_unity(7)**3 + CycloNum.from_rational(2),  # not a root
    ]
    for x in invertible:
        inv = x.inverse()
        assert x * inv == CycloNum.one()
        assert inv.n == (1 if x.is_rational() else x.n)
    for zero in (CycloNum.zero(), CycloNum(5, [0])):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()


def test_division_and_power():
    z8 = root_of_unity(8)
    assert z8**8 == CycloNum.one()
    assert z8**-1 == z8**7
    assert (z8 / z8) == CycloNum.one()
    assert z8**0 == CycloNum.one()
    x = root_of_unity(7)**3 + CycloNum.from_rational(2)  # not a root
    assert x**-2 * x * x == CycloNum.one() == (1 / x) * x


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
            untagged = CycloNum.from_json(y.to_json())
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
        untagged = CycloNum.from_json(tagged[e].to_json())
        assert hash(untagged) == hash(tagged[e])
    for k in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 36, 48, 72):
        for e in range(k):
            assert hash(root_of_unity(k, e)) == hash(tagged[e * (144 // k)])


def test_mult_order():
    assert root_of_unity(12, 1).mult_order() == 12
    assert root_of_unity(12, 8).mult_order() == 3
    assert CycloNum.one().mult_order() == 1
    assert CycloNum.from_rational(2).mult_order() is None
    assert CycloNum.zero().mult_order() is None


def test_as_root_of_unity():
    k, e = (root_of_unity(9, 6)).as_root_of_unity()
    assert root_of_unity(k, e) == root_of_unity(9, 6)
    assert (k, e) == (3, 2)
    assert root_exponent(root_of_unity(9, 6), 9) == 6
    assert root_exponent(root_of_unity(4, 3), 16) == 12
    assert root_exponent(CycloNum.one(), 5) == 0
    # an untagged root, and the rational -1 (order 2) read at 6
    assert root_exponent(CycloNum(8, [0, 0, 1]), 8) == 2
    assert root_exponent(CycloNum.from_rational(-1), 6) == 3


def test_root_exponent_rejects_what_is_not_a_root_at_the_conductor():
    # an order that does not divide the conductor
    for x, conductor in ((root_of_unity(8), 4), (root_of_unity(4, 2), 3),
                         (CycloNum(8, [0, 0, 1]), 2)):
        with pytest.raises(ValueError):
            root_exponent(x, conductor)
    # not a root of unity at all
    for x in (CycloNum(4, [1, 1]), CycloNum.from_rational(2),
              CycloNum.zero(), root_of_unity(3) / 2):
        with pytest.raises(ValueError):
            root_exponent(x, 12)


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


def _fractions(x):
    """The coefficients of x as Fractions, read from its JSON form."""
    doc = x.to_json()
    return [Fraction(v, doc["den"]) for v in doc["num"]]


def _ref_lift(c, n, m):
    """Fraction coefficients at conductor n, embedded at conductor m."""
    k = m // n
    out = [Fraction(0)] * max(euler_phi(m), (len(c) - 1) * k + 1)
    for t, v in enumerate(c):
        out[t * k] = v
    return list(_reduce_mod_phi(out, m))


def _ref_mul(a, b, m):
    """Polynomial product of two Fraction vectors at conductor m,
    reduced modulo Phi_m."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return list(_reduce_mod_phi(out, m))


def _lcm_to_json(n, c):
    """The JSON form of Fraction coefficients c at conductor n: the
    numerators over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in c))
    return {"conductor": n, "num": [int(x * den) for x in c], "den": den}


def _assert_integral_form(x):
    assert len(x.num) == euler_phi(x.n)
    assert type(x.den) is int and all(type(v) is int for v in x.num)
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.is_zero() == (not any(x.num))
    assert any(x.num) or x.den == 1


@pytest.mark.parametrize("seed", range(3))
def test_integral_form_agrees_with_a_fraction_oracle(seed):
    # sums, differences, products, lifts, inverses (rationals at
    # conductor 1, any other value at its own) and equality across
    # conductors against plain Fraction coefficient vectors
    rng = random.Random(seed)
    dens = (1, 1, 2, 3, 4, 6, 9, 12, 35)

    def draw():
        n = rng.choice((1, 3, 4, 8, 9, 12, 16))
        phi, kind = euler_phi(n), rng.random()
        c = [Fraction(rng.randint(-9, 9), rng.choice(dens))
             if rng.random() < 0.7 else Fraction(0) for _ in range(phi)]
        if kind < 0.1:
            c = [Fraction(0)] * phi
        elif kind < 0.3:
            c[1:] = [Fraction(0)] * (phi - 1)
        x = CycloNum(n, c)
        _assert_integral_form(x)
        assert x.to_json() == _lcm_to_json(n, c)
        return n, c, x

    for _ in range(60):
        (n1, a, x), (n2, b, y) = draw(), draw()
        m = math.lcm(n1, n2)
        A, B = _ref_lift(a, n1, m), _ref_lift(b, n2, m)
        for got, want in ((x + y, [p + q for p, q in zip(A, B)]),
                          (x - y, [p - q for p, q in zip(A, B)]),
                          (x * y, _ref_mul(A, B, m)),
                          (x.lift(m), A)):
            _assert_integral_form(got)
            assert got.n == m and _fractions(got) == want
            assert got.to_json() == _lcm_to_json(m, want)
        assert (x == y) == (A == B)
        assert x == CycloNum(m, A) and CycloNum(m, A) == x
        assert x != CycloNum(m, A) + CycloNum(m, [0, Fraction(1, 7)])
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        inv = x.inverse()
        _assert_integral_form(inv)
        if x.is_rational():
            assert inv.n == 1 and _fractions(inv) == [1 / a[0]]
            assert inv.to_json() == _lcm_to_json(1, [1 / a[0]])
        else:
            assert inv.n == n1 and x * inv == CycloNum.one()


def test_only_cyclo_knows_the_scalar_representation():
    # one scalar representation: no other module imports Fraction or
    # reads a CycloNum's coefficient storage
    src = Path(__file__).resolve().parents[1] / "src" / "mqg"
    for path in sorted(src.glob("*.py")):
        if path.name == "cyclo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", path.name
            elif isinstance(node, ast.Import):
                assert all(a.name != "fractions" for a in node.names), path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("num", "den", "c"), \
                    f"{path.name}:{node.lineno} reads .{node.attr}"


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


def gauss_binomial_rows(top: int):
    """The rows t = 0..top of Gaussian binomials, row t the coefficient
    tuples of (t choose k)_x for k = 0..t, by the q-Pascal recursion on
    polynomials, (t choose k)_x = (t-1 choose k-1)_x + x^k (t-1 choose k)_x:
    the reference for the folded vectors of `QuiverAlgebra.binomial`."""
    row = [(1,)]
    yield row
    for t in range(1, top + 1):
        up, row = row, [(1,)]
        for k in range(1, t):
            a, b = up[k - 1], up[k]  # b times x^k
            out = [0] * max(len(a), len(b) + k)
            for i, c in enumerate(a):
                out[i] += c
            for i, c in enumerate(b):
                out[i + k] += c
            row.append(tuple(out))
        row.append((1,))
        yield row


def gauss_binomial_poly(total: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial (total choose k)_x."""
    if k < 0 or k > total:
        return (0,)
    for row in gauss_binomial_rows(total):
        pass
    return row[k]


def bucket(poly, N, step) -> list[int]:
    """poly(x^step) modulo x^N - 1: degree e goes to entry e * step mod
    N, a ring map Z[x] -> Z[x]/(x^N - 1), and degrees congruent mod N
    go to the same entry."""
    out = [0] * N
    for r in range(min(N, len(poly))):
        out[r * step % N] += sum(poly[r::N])
    return out


def test_cyclic_mul_is_product_then_bucketing():
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
