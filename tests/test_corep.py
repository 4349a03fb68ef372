import math
import random
from fractions import Fraction

import pytest

from mqg.cyclo import (CycloNum, cached_mul, cyclotomic_polynomial,
                       euler_phi, root_of_unity)
from mqg.cocycle import CocycleParams, legal_q_values
from mqg.algebra import MajidAlgebra, classify
from mqg.corep import (
    CycleModule,
    IntervalModule,
    NotAComoduleError,
    brute_force_decompose,
    comodule_tensor,
    decompose,
    direct_sum,
    fp_dimension,
    fusion_data,
    hom_dim,
    indecomposables,
    parse_interval,
    random_module,
    _coaction,
    _mat,
    _rank,
    _tensor_index,
    tensor_consistency_check,
)
from mqg.quiver import Path
from corep_oracle import (_kernel_basis, _row_reduce, is_indecomposable,
                          uniserial_check)


def _M(n, s, which=0):
    params = CocycleParams.standard(n, s)
    return MajidAlgebra.build(n, s, legal_q_values(params)[which])


def test_interval_realization():
    I = IntervalModule(3, 3, 1, 2)
    assert I.dims() == (0, 1, 1)
    M = I.realize()
    assert M.total_dim() == 2
    assert M.rank_table()[1][1:3] == [1, 0]
    assert str(I) == "I(1,2)"
    with pytest.raises(ValueError):
        IntervalModule(3, 3, 0, 4)
    with pytest.raises(ValueError):
        IntervalModule(3, 3, 0, 0)


def test_parse_interval():
    I = parse_interval("I(2, 3)", 4, 4)
    assert (I.top, I.length) == (2, 3)
    assert parse_interval("I(-1,1)", 4, 4).top == 3
    with pytest.raises(ValueError):
        parse_interval("J(0,1)", 4, 4)


def test_indecomposables_count():
    mods = indecomposables(3, 4)
    assert len(mods) == 12
    assert len({(I.top, I.length) for I in mods}) == 12
    with pytest.raises(ValueError):
        indecomposables(1, 2)


def test_nilpotency_enforced():
    one = CycloNum.one()
    # a length-2 cycle rep with invertible arrows is not nilpotent
    with pytest.raises(NotAComoduleError):
        CycleModule(2, 2, (1, 1), [[[one]], [[one]]])
    # wrong arrow shape
    with pytest.raises(ValueError):
        CycleModule(2, 2, (1, 1), [[[one, one]], [[one]]])
    # dims that are not ints: a float or a bool is refused, not rounded
    for dims in ([1.9, True], [1, True], [1.0, 1]):
        with pytest.raises(ValueError):
            CycleModule(2, 2, dims, [[[1]], [[0]]])


def test_module_json_round_trip():
    M = IntervalModule(3, 3, 0, 3).realize()
    doc = M.to_json()
    M2 = CycleModule.from_json(doc)
    assert M2.dims == M.dims
    assert M2.to_json() == doc


def test_decompose_intervals_and_sums():
    n, d = 3, 3
    for I in indecomposables(n, d):
        assert decompose(I.realize()) == {(I.top, I.length): 1}
    S = direct_sum([IntervalModule(n, d, 0, 2).realize(),
                    IntervalModule(n, d, 0, 2).realize(),
                    IntervalModule(n, d, 2, 1).realize()])
    assert decompose(S) == {(0, 2): 2, (2, 1): 1}
    with pytest.raises(ValueError):
        direct_sum([])


def test_hom_dims_between_intervals():
    n, d = 3, 3
    I = IntervalModule(n, d, 0, 3).realize()
    S0 = IntervalModule(n, d, 0, 1).realize()
    S2 = IntervalModule(n, d, 2, 1).realize()
    assert hom_dim(I, I) == 1
    assert hom_dim(I, S0) == 1   # top of I is vertex 0
    assert hom_dim(S2, I) == 1   # socle of I is vertex 2
    assert hom_dim(S0, I) == 0
    assert hom_dim(I, S2) == 0
    assert hom_dim(S0, S2) == 0
    with pytest.raises(ValueError):
        hom_dim(S0, IntervalModule(2, 2, 0, 1).realize())


def test_indecomposability_tests():
    n, d = 3, 3
    I = IntervalModule(n, d, 1, 3)
    assert is_indecomposable(I.realize())
    assert uniserial_check(I.realize())
    S = direct_sum([I.realize(), IntervalModule(n, d, 1, 1).realize()])
    assert not is_indecomposable(S)
    assert not uniserial_check(S)


def test_brute_force_decompose_matches():
    rng = random.Random(7)
    for _ in range(5):
        M, multiset = random_module(3, 3, rng, max_total=6)
        assert decompose(M) == multiset
        assert brute_force_decompose(M) == multiset


def test_random_module_is_scrambled_but_equivalent():
    rng = random.Random(1)
    M, multiset = random_module(2, 4, rng, max_total=7)
    assert M.total_dim() == sum(l * m for (_, l), m in multiset.items())
    assert decompose(M) == multiset


def test_tensor_of_simples_shifts():
    M = _M(2, 1)
    Vi = IntervalModule(2, 4, 1, 1).realize()
    Vj = IntervalModule(2, 4, 1, 1).realize()
    T = comodule_tensor(M, Vi, Vj)
    assert decompose(T) == {(0, 1): 1}


def test_unit_comodule_is_neutral():
    M = _M(2, 1)
    unit = IntervalModule(2, 4, 0, 1).realize()
    for I in indecomposables(2, 4):
        X = I.realize()
        assert decompose(comodule_tensor(M, unit, X)) == {(I.top, I.length): 1}
        assert decompose(comodule_tensor(M, X, unit)) == {(I.top, I.length): 1}


def test_tensor_consistency():
    M = _M(2, 1)
    X = IntervalModule(2, 4, 0, 2).realize()
    Y = IntervalModule(2, 4, 1, 3).realize()
    assert tensor_consistency_check(M, X, Y)
    assert tensor_consistency_check(M, Y, X)
    with pytest.raises(ValueError):
        comodule_tensor(M, X, IntervalModule(3, 3, 0, 1).realize())


def test_tensor_consistency_rejects_a_wrong_tensor():
    M = _M(2, 1)
    assert M.q == root_of_unity(4)
    X = IntervalModule(2, 4, 0, 2).realize()
    Y = IntervalModule(2, 4, 1, 3).realize()
    T = comodule_tensor(M, X, Y)
    # one nonzero arrow entry of T times zeta_4, each in turn
    z4, tampered = root_of_unity(4), 0
    for v, mat in enumerate(T.arrows):
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                if x.is_zero():
                    continue
                arrows = [[list(line) for line in m] for m in T.arrows]
                arrows[v][r][c] = x * z4
                bad = CycleModule(T.n, T.d, T.dims, arrows)
                assert not tensor_consistency_check(M, X, Y, bad), (v, r, c)
                tampered += 1
    assert tampered > 0
    # the tensor over M(2, 1, zeta_4^3) is not the one over M(2, 1, zeta_4)
    other = MajidAlgebra.build(2, 1, root_of_unity(4, 3))
    assert not tensor_consistency_check(M, X, Y, comodule_tensor(other, X, Y))


def test_tensor_additive_in_summands():
    M = _M(2, 1)
    X = IntervalModule(2, 4, 0, 2).realize()
    Y = IntervalModule(2, 4, 1, 1).realize()
    Z = IntervalModule(2, 4, 1, 2).realize()
    lhs = decompose(comodule_tensor(M, direct_sum([X, Y]), Z))
    a = decompose(comodule_tensor(M, X, Z))
    b = decompose(comodule_tensor(M, Y, Z))
    want = dict(a)
    for k, v in b.items():
        want[k] = want.get(k, 0) + v
    assert lhs == want


def test_fusion_is_the_group_ring():
    M = _M(3, 1)
    F = fusion_data(M)
    for i in range(3):
        for r in range(3):
            for c in range(3):
                assert F.matrices[i][r][c] == (1 if r == (i + c) % 3 else 0)


def test_trivial_coradical_fusion_is_the_group_ring():
    # d = 1: every arrow is zero, and the tensor never asks for p(i, 1)
    families = [e for n in (2, 3, 4) for e in classify(n) if e.d == 1]
    assert [(e.n, e.s, e.q_exp) for e in families] == \
        [(2, 0, 0), (3, 0, 0), (4, 0, 0)]
    for e in families:
        n = e.n
        M = MajidAlgebra.build(n, e.s, root_of_unity(e.conductor, e.q_exp))
        F = fusion_data(M)
        for i in range(n):
            for r in range(n):
                for c in range(n):
                    assert F.matrices[i][r][c] == (1 if r == (i + c) % n else 0)
            value, cert = fp_dimension(
                F, IntervalModule(n, 1, i, 1).simple_class())
            assert cert == 1 and abs(value - 1) < 1e-9


def test_fp_dimensions():
    M = _M(2, 1)
    F = fusion_data(M)
    for i in range(2):
        value, cert = fp_dimension(F, IntervalModule(2, 4, i, 1).simple_class())
        assert cert == 1 and abs(value - 1) < 1e-9
    value, cert = fp_dimension(F, IntervalModule(2, 4, 0, 3).simple_class())
    assert cert == 3 and abs(value - 3) < 1e-9
    value, cert = fp_dimension(F, (0, 0))
    assert value == 0.0 and cert == 0


def test_fp_dimension_multiplicative_on_tensor():
    M = _M(2, 1)
    F = fusion_data(M)
    X = IntervalModule(2, 4, 0, 2)
    Y = IntervalModule(2, 4, 1, 3)
    T = comodule_tensor(M, X.realize(), Y.realize())
    cls_T = tuple(T.dims)
    _, cert = fp_dimension(F, cls_T)
    assert cert == 2 * 3


def _naive_composite(M, i, k):
    """The k-fold arrow composite from vertex i as a left fold of the
    arrow matrices, each product written out entry by entry."""
    n, zero = M.n, CycloNum.zero()
    cols = M.dims[i]
    C = [[CycloNum.one() if a == b else zero for b in range(cols)]
         for a in range(cols)]
    for t in range(k):
        A = M.arrows[(i + t) % n]
        rows = M.dims[(i + t + 1) % n]
        C = [[sum((A[r][m] * C[m][c] for m in range(len(C))), zero)
              for c in range(cols)] for r in range(rows)]
    return C


def _chain_modules():
    rng = random.Random(11)
    X = IntervalModule(2, 4, 0, 2).realize()
    Y = IntervalModule(2, 4, 1, 3).realize()
    return [
        IntervalModule(4, 4, 0, 2).realize(),  # dims (1, 1, 0, 0)
        IntervalModule(3, 3, 2, 3).realize(),
        comodule_tensor(_M(2, 1), X, Y),
        random_module(3, 3, rng, max_total=8)[0],
        direct_sum([IntervalModule(3, 4, 0, 4).realize(),
                    IntervalModule(3, 4, 0, 1).realize(),
                    IntervalModule(3, 4, 1, 2).realize()]),
    ]


@pytest.mark.parametrize("M", _chain_modules(),
                         ids=["interval-zero-vertices", "interval",
                              "tensor", "random", "sum-unequal-heights"])
def test_composite_chain_is_the_naive_fold(M):
    n, d = M.n, M.d
    table = M.rank_table()
    for i in range(n):
        chain = M.composite_chain(i)
        assert len(chain) == d + 1
        naive = [_naive_composite(M, i, k) for k in range(d + 1)]
        for k, C in enumerate(chain):
            assert len(C) == M.dims[(i + k) % n]
            assert all(len(row) == M.dims[i] for row in C)
            assert C == naive[k]
            # the rank table against the realified rational rank
            N = math.lcm(1, *(x.n for row in C for x in row))
            assert _q_rank(_realify(C, N)) == euler_phi(N) * table[i][k]
        # the height is the first length whose naive composite vanishes
        assert M._heights[i] == next(
            k for k, C in enumerate(naive)
            if all(x.is_zero() for row in C for x in row))


def test_zero_vertex_composite_shapes():
    M = IntervalModule(4, 4, 0, 2).realize()
    assert M.composite_chain(0)[2] == []          # 0 x 1
    assert M.composite_chain(0)[4] == [[CycloNum.zero()]]  # 1 x 1, back at 0
    assert M.composite_chain(2)[2] == [[]]        # 1 x 0
    assert M.composite_chain(3)[1] == [[]]        # 1 x 0


def _plain_coaction(M, X, Y, k, blocks, pos):
    """The degree-k coaction on X (x) Y with a product looked up for
    every t + u = k with t, u < d, whether or not A^t x or B^u y is
    already zero: the loop `corep._coaction` shortens by the heights."""
    n, d = M.n, M.d
    chains = [(X.composite_chain(i), Y.composite_chain(i)) for i in range(n)]
    out = []
    for v in range(n):
        mat = _mat(len(blocks[(v + k) % n]), len(blocks[v]))
        for col, (i, j, a, b) in enumerate(blocks[v]):
            for t in range(max(0, k - d + 1), min(k, d - 1) + 1):
                u = k - t
                coeff, target = M.product(Path(n, i, t), Path(n, j, u))
                if target is None or coeff.is_zero():
                    continue
                Ax, By = chains[i][0][t], chains[j][1][u]
                for r in range(X.dims[(i + t) % n]):
                    if Ax[r][a].is_zero():
                        continue
                    for s2 in range(Y.dims[(j + u) % n]):
                        if By[s2][b].is_zero():
                            continue
                        row = pos[((i + t) % n, (j + u) % n, r, s2)]
                        mat[row][col] = mat[row][col] + coeff * (
                            Ax[r][a] * By[s2][b])
        out.append(mat)
    return out


def _bits(mats):
    return [[[(x.n, x.num, x.den) for x in row] for row in mat]
            for mat in mats]


def _coaction_cases(family):
    """(M, [(X, Y), ...]) for one family: interval factors, a sum whose
    summands have unequal heights, and seeded random modules."""
    n, s, N = family
    M = MajidAlgebra.build(n, s, root_of_unity(N))
    d = M.d

    def I(top, length):
        return IntervalModule(n, d, top, length).realize()

    if d == 4:  # every pair of intervals of M(2, 1, zeta_4)
        pairs = [(A.realize(), B.realize()) for A in indecomposables(n, d)
                 for B in indecomposables(n, d)]
    else:
        pairs = [(I(0, 2), I(1, 3)), (I(0, d), I(1, 1)), (I(1, d), I(2, d)),
                 (I(2, d - 1), I(0, d // 2)), (I(1, 1), I(0, d))]
    pairs.append((direct_sum([I(0, d), I(0, 1), I(1, 2)]),
                  direct_sum([I(1, 1), I(0, d // 2 + 1)])))
    rng = random.Random(N + s)
    mods = [random_module(n, d, rng, max_total=6)[0] for _ in range(4)]
    pairs += [(mods[0], mods[1]), (mods[2], mods[3]), (mods[1], I(0, d))]
    return M, pairs


@pytest.mark.parametrize("family", [(2, 1, 4), (3, 1, 9), (4, 2, 16),
                                    (4, 1, 16)],
                         ids=["M(2,1,z4)", "M(3,1,z9)", "M(4,2,z16)",
                              "M(4,1,z16)"])
def test_coaction_matches_the_plain_loop(family):
    M, pairs = _coaction_cases(family)
    for X, Y in pairs:
        blocks, pos = _tensor_index(X, Y)
        for k in range(M.d + 1):
            assert _bits(_coaction(M, X, Y, k, blocks, pos)) == _bits(
                _plain_coaction(M, X, Y, k, blocks, pos)), (X.dims, Y.dims, k)


def test_coaction_looks_up_only_live_terms(monkeypatch):
    M = MajidAlgebra.build(4, 1, root_of_unity(16))
    X = IntervalModule(4, 16, 0, 2).realize()
    Y = IntervalModule(4, 16, 1, 3).realize()
    assert X._heights == [2, 1, 0, 0] and Y._heights == [0, 3, 2, 1]
    seen, product = [], M.product

    def spy(a, b):
        seen.append((a.source, a.length, b.source, b.length))
        return product(a, b)

    monkeypatch.setattr(M, "product", spy)
    assert tensor_consistency_check(M, X, Y)
    # (i, t, j, u) is live when A^t and B^u are nonzero on vertices i, j
    live = {(i, t, j, u) for i in range(4) for j in range(4)
            for t in range(X._heights[i]) for u in range(Y._heights[j])}
    assert len(live) == 18
    assert set(seen) == live


def _small_tensors():
    """(I, J, I (x) J) for the intervals I, J of M(2, 1, zeta_4) (d = 4,
    conductor 4) with len(I) len(J) <= 6."""
    M = _M(2, 1)
    assert M.d == 4
    mods = indecomposables(2, 4)
    return [(I, J, comodule_tensor(M, I.realize(), J.realize()))
            for I in mods for J in mods if I.length * J.length <= 6]


def test_decompose_tensor_modules_matches_brute_force():
    tensors = _small_tensors()
    for I, J, T in tensors:
        assert decompose(T) == brute_force_decompose(T), (str(I), str(J))
    assert len(tensors) == 40


def test_composites_keep_the_conductor_of_their_entries():
    # a product of conductor-144 roots in the global product cache that
    # equals zeta_16 * zeta_16 must not leak conductor 144 into corep
    cached_mul(root_of_unity(144, 9), root_of_unity(144, 9))
    z = root_of_unity(16, 1)
    I = IntervalModule(2, 4, 0, 4).realize()
    arrows = [[[x if x.is_zero() else z for x in row] for row in mat]
              for mat in I.arrows]
    M = CycleModule(2, 4, I.dims, arrows)
    for i in range(2):
        for k, C in enumerate(M.composite_chain(i)):
            for row in C:
                for x in row:
                    assert 16 % x.n == 0, (i, k, x.n)
    assert decompose(M) == {(0, 4): 1}


# ---- an independent oracle for the elimination: realified Q-rank --------


def _times_zeta(col, N):
    """Coefficients of zeta_N times the element with coefficients col,
    reduced modulo Phi_N."""
    phi = cyclotomic_polynomial(N)
    top, out = col[-1], [Fraction(0)] + list(col[:-1])
    return [a - top * b for a, b in zip(out, phi)]


def _realify(A, N):
    """A over Q(zeta_N) as a rational matrix: each entry x becomes the
    phi(N) x phi(N) matrix of y -> x y on the basis 1, zeta_N, ..."""
    phi = euler_phi(N)
    out = []
    for row in A:
        blocks = []
        for x in row:
            doc = x.lift(N).to_json()
            cols = [[Fraction(v, doc["den"]) for v in doc["num"]]]
            while len(cols) < phi:
                cols.append(_times_zeta(cols[-1], N))
            blocks.append(cols)
        for a in range(phi):
            out.append([col[a] for cols in blocks for col in cols])
    return out


def _q_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_matrices(N, rng):
    z = root_of_unity(N)
    one, two = CycloNum.one(), CycloNum.from_rational(2)
    # non-unit pivots (2, 1 + zeta, zeta + zeta^2) as well as units
    pool = [CycloNum.zero()] * 3 + [
        one, two, -z, one + z, z + z * z, z ** 3 - two,
        CycloNum.from_rational(Fraction(1, 2))]
    yield [[one + z, two], [two, z + z * z]]
    for _ in range(8):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        inner = rng.randint(0, min(rows, cols))
        B = [[rng.choice(pool) for _ in range(inner)] for _ in range(rows)]
        C = [[rng.choice(pool) for _ in range(cols)] for _ in range(inner)]
        yield [[sum((B[r][k] * C[k][c] for k in range(inner)), CycloNum.zero())
                for c in range(cols)] for r in range(rows)]  # rank <= inner
        yield [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("N", [1, 3, 4, 8, 9, 16])
def test_rank_and_kernel_match_the_realified_rational_rank(N):
    phi = euler_phi(N)
    full = set()
    matrices = list(_oracle_matrices(N, random.Random(N)))
    if N == 4:  # and every nonempty composite of the small tensors
        matrices += [C for _, _, T in _small_tensors() for v in range(2)
                     for C in T.composite_chain(v) if C and C[0]]
    for A in matrices:
        cols = len(A[0])
        rank = _rank(A, cols)
        # forward elimination counts the pivots of the reduced form
        assert rank == len(_row_reduce(A, cols)[1]), A
        full.add(rank == min(len(A), cols))
        assert _q_rank(_realify(A, N)) == phi * rank, A
        kernel = _kernel_basis(A, cols)
        assert len(kernel) == cols - rank
        for vec in kernel:
            for row in A:
                assert sum((x * y for x, y in zip(row, vec)),
                           CycloNum.zero()).is_zero()
        if kernel:
            assert _q_rank(_realify(kernel, N)) == phi * len(kernel)
    assert full == {True, False}  # full and deficient ranks both occur


@pytest.mark.parametrize("N", [1, 4, 9, 16])
def test_row_reduce_gives_the_reduced_echelon_form(N):
    # the reduced row echelon form is unique: a nonsingular square matrix
    # reduces to the identity, whatever its pivots (a routine that never
    # divides leaves products of pivots there instead, and its entries
    # double in size with each pivot)
    rng = random.Random(100 + N)
    z = root_of_unity(N)
    one, zero = CycloNum.one(), CycloNum.zero()
    checked = 0
    for size in range(1, 11):
        A = [[z ** rng.randrange(N) + rng.randint(-2, 2)
              for _ in range(size)] for _ in range(size)]
        A[rng.randrange(size)][0] = zero  # some need a row swap
        R, pivots = _row_reduce(A, size)
        if len(pivots) < size:
            continue
        assert R == [[one if a == b else zero for b in range(size)]
                     for a in range(size)]
        checked += 1
    assert checked >= 6
