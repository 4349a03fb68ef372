import itertools
import json
import random
from functools import reduce
from math import comb

import pytest

from mqg.cyclo import CycloNum, _reduce_mod_phi, int_vec_zero_mod_phi, rotate
from mqg.cocycle import CocycleParams, legal_q_values
from mqg.majid import MajidAlgebra
from mqg.quiver import Path, PathVector
from mqg.shuffle import (
    CrossCheckReport,
    QuiverAlgebra,
    _unpack_lanes,
)
from test_cyclo import bucket, cyclic_mul, gauss_binomial_poly, gauss_binomial_rows


def _families(max_n):
    """QuiverAlgebra of every family with n <= max_n."""
    for n in range(2, max_n + 1):
        for s in range(n):
            for q in legal_q_values(CocycleParams.standard(n, s)):
                yield QuiverAlgebra.build(n, s, q)


def _at(Q, hb):
    """A family whose binomials are taken at conductor Q and hbar =
    zeta_Q^hb."""
    return next(A for A in _families(6) if (A.conductor, A._hb) == (Q, hb))


def test_gauss_binomial_poly():
    assert gauss_binomial_poly(4, 2) == (1, 1, 2, 1, 1)
    assert gauss_binomial_poly(3, 1) == (1, 1, 1)
    assert gauss_binomial_poly(5, 0) == (1,)
    assert gauss_binomial_poly(5, 5) == (1,)
    assert gauss_binomial_poly(3, 7) == (0,)
    # classical specialization at x = 1
    for total in range(8):
        for k in range(total + 1):
            assert sum(gauss_binomial_poly(total, k)) == comb(total, k)


def test_gauss_binomial_at_roots():
    # (4 choose 2) at a primitive 4th root vanishes (q-Lucas)
    A = _at(4, 1)
    assert not any(_reduce_mod_phi(A.binomial(2, 2), 4))
    # (2 choose 1) at zeta_4 is 1 + zeta_4
    assert _reduce_mod_phi(A.binomial(1, 1), 4) == (1, 1)
    # at hbar = 1: comb(5, 2), all in entry 0
    assert _at(2, 0).binomial(3, 2) == (10, 0)
    # [3]_{zeta_3} = 0
    assert not any(_reduce_mod_phi(_at(3, 1).binomial(2, 1), 3))


def test_family_binomials_fold_the_gauss_polynomial():
    # degree r of (l+m choose l)_x goes to entry r * hb mod Q, for every
    # family n <= 6 and every l + m <= 2d
    algebras = list(_families(6))
    top = max(2 * A.hbar.mult_order() for A in algebras)
    cells = 0
    for t, row in enumerate(gauss_binomial_rows(top)):
        for A in algebras:
            if t <= 2 * A.hbar.mult_order():
                for l, poly in enumerate(row):
                    assert A.binomial(l, t - l) == tuple(
                        bucket(poly, A.conductor, A._hb)), (A.n, l, t - l)
                    cells += 1
    assert cells == 73293


def test_binomial_rejects_a_negative_length():
    A = _at(4, 1)
    for l, m in ((-1, 0), (0, -1), (-1, 1)):
        with pytest.raises(ValueError, match="l, m >= 0"):
            A.binomial(l, m)


def test_gauss_scalar():
    # at zeta_5: [k] = 1 + x + ... + x^(k-1) and [k]! = [1] [2] ... [k],
    # as integer vectors mod x^5 - 1
    N = 5
    A = _at(N, 1)

    def integer(k):
        vec = [0] * N
        for r in range(k):
            vec[r % N] += 1
        return vec

    def factorial(k):
        return reduce(cyclic_mul, (integer(t) for t in range(1, k + 1)),
                      integer(1))

    def equal(a, b):
        return _reduce_mod_phi(a, N) == _reduce_mod_phi(b, N)

    assert not any(_reduce_mod_phi(integer(0), N))
    assert equal(integer(1), [1, 0, 0, 0, 0])
    assert not any(_reduce_mod_phi(integer(5), N))
    assert equal(factorial(0), integer(1))
    assert equal(factorial(2), integer(2))
    assert equal(A.binomial(2, 1), integer(3))
    # binom(l+m, l) [l]! [m]! = [l+m]!
    for l in range(4):
        for m in range(4):
            lhs = cyclic_mul(cyclic_mul(A.binomial(l, m),
                                        factorial(l)), factorial(m))
            assert equal(lhs, factorial(l + m)), (l, m)


def _algebra(n, s, which=0):
    params = CocycleParams.standard(n, s)
    return QuiverAlgebra.build(n, s, legal_q_values(params)[which])


def test_arrow_square():
    A = _algebra(2, 1)
    x = PathVector.monomial(Path(2, 0, 1))
    got = A.shuffle_multiply(x, x)
    want = PathVector(2, {Path(2, 0, 2): CycloNum.one() + A.hbar})
    assert got == want
    assert MajidAlgebra(A).multiply(x, x) == want


def test_vertex_products():
    A = _algebra(3, 2)
    one = CycloNum.one()
    for i in range(3):
        for j in range(3):
            c, t = A.closed_form_product(Path(3, i, 0), Path(3, j, 0))
            assert c == one and t == Path(3, (i + j) % 3, 0)


def test_vertex_action_on_paths():
    A = _algebra(3, 1)
    p = Path(3, 1, 2)
    # g^j . p picks up hbar^{j l} on the left factor position
    for j in range(3):
        c, t = A.closed_form_product(p, Path(3, j, 0))
        assert t == Path(3, (1 + j) % 3, 2)
        assert c == A.hbar ** (2 * j)


def thin_splits(p: Path, parts: int):
    """All thin splits of p into `parts` slots.

    Returns a list of (d, segments): d is the 0/1 indicator tuple and
    segments the corresponding vertices/arrows, read left to right along
    the path.
    """
    n, i, l = p.cycle, p.source, p.length
    if parts < l:
        raise ValueError(f"need parts >= path length, got {parts} < {l}")
    out = []
    for ones in itertools.combinations(range(parts), l):
        ones_set = set(ones)
        d = tuple(1 if t in ones_set else 0 for t in range(parts))
        segments = []
        k = 0  # arrows consumed so far
        for t in range(parts):
            if d[t]:
                segments.append(Path(n, i + k, 1))
                k += 1
            else:
                segments.append(Path(n, i + k, 0))
        out.append((d, tuple(segments)))
    assert len(out) == comb(parts, l)
    return out


def _thin_split_sum(A, p1, p2):
    """Coefficient of p1 . p2 as the explicit sum over thin splits: slot t
    pairs the t-th segment of p1 with the t-th of p2, an arrow of one
    with a vertex of the other, and contributes the bimodule scalar."""
    n, parts = A.n, p1.length + p2.length
    splits2 = dict(thin_splits(p2, parts))
    total = CycloNum.zero()
    for d, segs1 in thin_splits(p1, parts):
        segs2 = splits2[tuple(1 - x for x in d)]
        scal = CycloNum.one()
        for u, v in zip(segs1, segs2):
            if u.length:
                c, _ = A.bimodule.right[(v.source % n, u.source + 1)]
            else:
                c, _ = A.bimodule.left[(u.source % n, v.source + 1)]
            scal = scal * c
        total = total + scal
    return total


def test_routes_agree_small():
    for n, s in ((2, 0), (2, 1), (3, 0), (3, 2)):
        A = _algebra(n, s)
        for i in range(n):
            for j in range(n):
                for l in range(4):
                    for m in range(4 - l):
                        p1, p2 = Path(n, i, l), Path(n, j, m)
                        enum = _thin_split_sum(A, p1, p2)
                        width, F = A._shuffle_grid(i, j, l, m)
                        grid = CycloNum(A.conductor, _unpack_lanes(
                            F[l][m], width, A.conductor))
                        closed, _ = A.closed_form_product(p1, p2)
                        assert enum == grid == closed, (n, s, i, j, l, m)
                        got = A.shuffle_multiply(PathVector.monomial(p1),
                                                 PathVector.monomial(p2))
                        assert got == PathVector(
                            n, {Path(n, i + j, l + m): enum}), (n, s, i, j, l, m)


def test_cross_check_reports():
    # M(6, 4): hbar and the bracket scalars have order 9, which n = 6
    # does not divide
    for n, s in ((2, 1), (3, 0), (4, 3), (6, 4)):
        params = CocycleParams.standard(n, s)
        for q in legal_q_values(params):
            A = QuiverAlgebra.build(n, s, q)
            rep = A.cross_check(4)
            assert rep.passed and rep.witness is None
            assert rep.pairs_checked == n * n * 15  # pairs (l,m), l+m <= 4


def _list_grid(A, i, j, T):
    """The thin-split grid F[a][b], a + b <= T, as plain coefficient
    lists mod x^Q - 1: the oracle for the packed `_shuffle_grid`."""
    lexp, rexp = A._exponent_tables()
    n = A.n
    F = [[None] * (T + 1) for _ in range(T + 1)]
    F[0][0] = [1] + [0] * (A.conductor - 1)
    for a in range(T + 1):
        for b in range(T + 1 - a):
            if a == 0 and b == 0:
                continue
            acc = None
            if a > 0:
                e = rexp[((j + b) % n, (i + a - 1) % n + 1)][0]
                acc = rotate(F[a - 1][b], e)
            if b > 0:
                e = lexp[((i + a) % n, (j + b - 1) % n + 1)][0]
                v = rotate(F[a][b - 1], e)
                acc = v if acc is None else [x + y for x, y in zip(acc, v)]
            F[a][b] = acc
    return F


def _oracle_cross_check(A, T):
    """`QuiverAlgebra.cross_check` on coefficient lists, cell by cell."""
    Q = A.conductor
    checked = 0
    for i in range(A.n):
        for j in range(A.n):
            F = _list_grid(A, i, j, T)
            for l in range(T + 1):
                for m in range(T + 1 - l):
                    got = F[l][m]
                    want = A._closed_form_vec(i, l, j, m)
                    checked += 1
                    if got != want and not int_vec_zero_mod_phi(
                            [a - b for a, b in zip(got, want)], Q):
                        return CrossCheckReport(False, checked, {
                            "i": i, "j": j, "l": l, "m": m,
                            "shuffle": CycloNum(Q, got).to_json(),
                            "closed_form": CycloNum(Q, want).to_json(),
                        })
    return CrossCheckReport(True, checked)


def _assert_grid_matches_oracle(A, T):
    for i in range(A.n):
        for j in range(A.n):
            width, F = A._shuffle_grid(i, j, T, T, bound=T)
            want = _list_grid(A, i, j, T)
            for a in range(T + 1):
                for b in range(T + 1):
                    if a + b > T:
                        assert F[a][b] is None
                    else:
                        got = _unpack_lanes(F[a][b], width, A.conductor)
                        assert got == want[a][b], (A.n, i, j, a, b)


def test_cross_check_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="max_total_length"):
        _algebra(2, 1).cross_check(-1)
    rep = _algebra(2, 1).cross_check(0)
    assert rep.passed and rep.pairs_checked == 4


def test_cross_check_matches_the_oracle_when_tampered():
    # negative control: one seeded action exponent shifted by a root of
    # order 2, 3, 4 or 8 must fail the check exactly where the list
    # oracle does, witness included
    rng = random.Random(14)
    cases = failed = 0
    for n in range(2, 5):
        for s in range(n):
            for q in legal_q_values(CocycleParams.standard(n, s)):
                for order in (2, 3, 4, 8):
                    A = QuiverAlgebra.build(n, s, q)
                    Q = A.conductor
                    if Q % order:
                        continue
                    table = A._exponent_tables()[rng.randrange(2)]
                    key = rng.choice(sorted(table))
                    e, target = table[key]
                    table[key] = ((e + Q // order) % Q, target)
                    T = 2 * A.hbar.mult_order()
                    got, want = A.cross_check(T), _oracle_cross_check(A, T)
                    assert got == want, (n, s, q, order, key)
                    assert json.dumps(got.witness) == json.dumps(want.witness)
                    cases += 1
                    failed += not got.passed
    assert cases == failed == 59


def test_cross_check_reduces_a_packed_difference_mod_phi(monkeypatch):
    # one more in every bucket adds the sum of all Q-th roots of unity,
    # zero for Q > 1: the packed ints differ, the scalars do not.  One
    # more in bucket 0 only is a real difference.
    original = QuiverAlgebra.binomial
    for n, s in ((2, 0), (2, 1), (3, 2)):
        q = legal_q_values(CocycleParams.standard(n, s))[-1]
        for shift, passes in ((lambda v: [c + 1 for c in v], True),
                              (lambda v: [v[0] + 1] + list(v[1:]), False)):
            monkeypatch.setattr(QuiverAlgebra, "binomial",
                                lambda *a: tuple(shift(original(*a))))
            A = QuiverAlgebra.build(n, s, q)
            T = 2 * A.hbar.mult_order()
            got, want = A.cross_check(T), _oracle_cross_check(A, T)
            assert got == want and got.passed is passes, (n, s, passes)


def test_grid_lanes_hold_the_largest_binomial():
    # M(2, 0, 1): hbar = 1 and every action exponent is 0, so each cell
    # puts all of binom(a+b, a) into lane 0; binom(60, 30) > 2^56
    A = QuiverAlgebra.build(2, 0, CycloNum.one())
    assert A.hbar == CycloNum.one()
    assert comb(60, 30) > 2 ** 56
    rep = A.cross_check(60)
    assert rep.passed and rep.pairs_checked == 4 * 61 * 62 // 2
    _assert_grid_matches_oracle(A, 60)
    width, F = A._shuffle_grid(0, 0, 30, 30, bound=60)
    assert _unpack_lanes(F[30][30], width, 2) == [comb(60, 30), 0]


def test_grid_matches_the_list_oracle():
    for n in range(2, 5):
        for s in range(n):
            for q in legal_q_values(CocycleParams.standard(n, s)):
                A = QuiverAlgebra.build(n, s, q)
                _assert_grid_matches_oracle(A, 2 * A.hbar.mult_order())


def test_left_powers_are_gauss_factorials():
    A = _algebra(2, 1)
    x = PathVector.monomial(Path(2, 0, 1))
    factorial = CycloNum.one()
    for k in range(1, 4):
        # [k]_hbar = 1 + hbar + ... + hbar^(k-1)
        factorial *= sum((A.hbar ** r for r in range(k)), CycloNum.zero())
        want = PathVector(2, {Path(2, 0, k): factorial})
        assert A.power_left(x, k) == want
        assert reduce(MajidAlgebra(A).multiply, [x] * k) == want
    with pytest.raises(ValueError):
        A.power_left(x, 0)


def test_right_powers_agree_when_associative():
    # s = 0: the reassociator is trivial, so the right-nested powers
    # p.(p.(..p)) equal the left-nested ones
    A = _algebra(3, 0, which=1)
    x = PathVector.monomial(Path(3, 0, 1))
    acc = x
    for k in range(1, 4):
        assert acc == A.power_left(x, k)
        acc = A.shuffle_multiply(x, acc)


def test_truncation_emerges():
    # d = order of hbar: the d-th power of the arrow dies in every family
    A = _algebra(2, 1)
    d = A.hbar.mult_order()
    x = PathVector.monomial(Path(2, 0, 1))
    assert not A.power_left(x, d - 1).is_zero()
    assert A.power_left(x, d).is_zero()
