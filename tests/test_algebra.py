import json
import os
import subprocess
import sys

import pytest

from mqg import algebra, majid
from mqg.cyclo import (
    CycloNum,
    _reduce_mod_phi,
    int_vec_zero_mod_phi,
    root_exponent,
    root_of_unity,
    rotate,
)
from mqg.cocycle import CocycleParams, legal_q_values, q_conductor
from mqg.quiver import Path, PathVector
from mqg.shuffle import QuiverAlgebra
from mqg.algebra import (
    MajidAlgebra,
    StructureError,
    TruncationError,
    admissible_truncations,
    build_truncated,
    classify,
    export_algebra,
    import_algebra,
    solve_antipode,
    verify_quasi_bialgebra,
)
from mqg.algebra import _coproduct, _quasi_associativity
from mqg.majid import _verify_antipode
import antipode_oracle
import bialgebra_oracle
from test_cyclo import cyclic_mul


def _M(n, s, which=0):
    params = CocycleParams.standard(n, s)
    return MajidAlgebra.build(n, s, legal_q_values(params)[which])


def test_dimensions():
    M = MajidAlgebra.build(2, 1, root_of_unity(4))
    assert M.d == 4 and M.dim == 8
    assert len(M.basis) == 8
    # s = 0 with primitive q: the classical dimension n * n
    M0 = MajidAlgebra.build(3, 0, root_of_unity(3))
    assert M0.d == 3 and M0.dim == 9
    # s = 0 with q = 1: hbar = 1, the bare group algebra
    M1 = MajidAlgebra.build(3, 0, CycloNum.one())
    assert M1.d == 1 and M1.dim == 3
    with pytest.raises(ValueError):
        MajidAlgebra.build(1, 0, CycloNum.one())


def test_sign_family_is_sweedler_sized():
    M = MajidAlgebra.build(2, 0, root_of_unity(2))
    assert M.d == 2 and M.dim == 4


def test_product_truncation_and_cache():
    M = _M(2, 1)
    a = Path(2, 0, 2)
    c, t = M.product(a, a)
    assert t is None and c.is_zero()
    c2, t2 = M.product(Path(2, 0, 1), Path(2, 0, 1))
    assert t2 == Path(2, 0, 2) and c2 == CycloNum.one() + M.hbar
    with pytest.raises(ValueError):
        M.product(Path(2, 0, M.d), Path(2, 0, 0))


def test_multiply_path_vectors():
    M = _M(2, 1)
    x = PathVector.monomial(Path(2, 0, 1))
    g = PathVector.monomial(Path(2, 1, 0))
    gx = M.multiply(g, x)
    assert list(gx.terms) == [Path(2, 1, 1)]
    assert M.multiply(x, M.multiply(x, M.multiply(x, x))).is_zero()


def test_reassociator_and_functionals():
    M = _M(2, 1)
    one = CycloNum.one()
    assert M.reassociator(Path(2, 1, 0), Path(2, 1, 0), Path(2, 1, 0)) == \
        CycloNum.from_rational(-1)
    assert M.reassociator(Path(2, 0, 1), Path(2, 1, 0), Path(2, 1, 0)).is_zero()
    assert M.alpha(Path(2, 1, 0)) == one
    assert M.alpha(Path(2, 0, 1)).is_zero()
    assert M.beta(Path(2, 0, 0)) == one
    # beta(g) = 1/Phi(g, g^-1, g) = qq^{-s}
    assert M.beta(Path(2, 1, 0)) == M.params.qq ** (-1)
    assert M.beta(Path(2, 0, 1)).is_zero()


def test_verify_small_families():
    for n, s in ((2, 0), (2, 1), (3, 0), (3, 1)):
        M = _M(n, s)
        rep = verify_quasi_bialgebra(M)
        assert rep["passed"], (n, s, rep)
        assert rep["failed"] is None
        assert all(rep["checks"].values())


def test_fast_and_generic_engines_agree():
    # the library's integer engine against the CycloNum loops of
    # tests/bialgebra_oracle.py, full reports, every family n <= 3
    families = [(n, s, q) for n in (2, 3) for s in range(n)
                for q in legal_q_values(CocycleParams.standard(n, s))]
    assert len(families) == 13
    for n, s, q in families:
        M = MajidAlgebra.build(n, s, q)
        fast = verify_quasi_bialgebra(M)
        assert fast == bialgebra_oracle.verify_quasi_bialgebra(M), (n, s, q)
        assert fast["passed"]


def test_verify_negative_control():
    M = _M(2, 1)
    bad_key = (0, 1, 0, 1)

    def mutated(a, b):
        c, t = M.product(a, b)
        if (a.source, a.length, b.source, b.length) == bad_key:
            return (c * root_of_unity(8), t)
        return (c, t)

    rep = bialgebra_oracle.verify_quasi_bialgebra(M, product=mutated)
    assert not rep["passed"]
    assert rep["failed"] in ("quasi-associativity", "coproduct-multiplicative")
    assert rep["witness"] is not None


def test_counit_check_reads_the_vertex_products():
    # the sweeps work from the exponent rule, so besides the unit law only
    # the counit check reads M.product: a wrong g * g reaches it
    M = _M(3, 1)
    g = Path(3, 1, 0)
    c, t = M.product(g, g)
    M._prod[(1, 0, 1, 0)] = (c * root_of_unity(3), t)
    rep = verify_quasi_bialgebra(M)
    assert rep["failed"] == "counit-multiplicative"
    assert rep["witness"] == {"a": str(g), "b": str(g)}


def _first_associativity_failure(M):
    """Quasi-associativity triple by triple in the integer encoding, with
    no skipping and no memo: the first failing (a, b, c)."""
    n, d, Q, E, phi_e = M.n, M.d, M.algebra.conductor, M.E, M.phi_e

    def pair(l1, m1, l2, m2):
        return cyclic_mul(M.algebra.binomial(l1, m1),
                          M.algebra.binomial(l2, m2))

    for l in range(d):
        for m in range(d):
            for t in range(d):
                b1, b2 = pair(m, t, l, m + t), pair(l, m, l + m, t)
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            eL = (phi_e(i, j, k) + E(j, m, k, t)
                                  + E(i, l, (j + k) % n, m + t))
                            eR = (phi_e((i + l) % n, (j + m) % n, (k + t) % n)
                                  + E(i, l, j, m) + E((i + j) % n, l + m, k, t))
                            diff = [x - y for x, y in
                                    zip(rotate(b1, eL), rotate(b2, eR))]
                            if not int_vec_zero_mod_phi(diff, Q):
                                return {"a": f"p({i},{l})", "b": f"p({j},{m})",
                                        "c": f"p({k},{t})"}
    return None


def _first_coproduct_failure(M):
    """Multiplicativity of the coproduct split by split in the integer
    encoding, with no memo: the first failing (a, b, split)."""
    n, d, Q, E, binom = M.n, M.d, M.algebra.conductor, M.E, M.algebra.binomial
    for l in range(d):
        for m in range(d):
            for i in range(n):
                for j in range(n):
                    target = rotate(binom(l, m), E(i, l, j, m))
                    for r in range(l + m + 1):
                        acc = [-x for x in target]
                        for k in range(max(0, r - m), min(l, r) + 1):
                            u = r - k
                            e = (E((i + k) % n, l - k, (j + u) % n, m - u)
                                 + E(i, k, j, u))
                            v = rotate(cyclic_mul(binom(l - k, m - u),
                                                  binom(k, u)), e)
                            acc = [x + y for x, y in zip(acc, v)]
                        if not int_vec_zero_mod_phi(acc, Q):
                            return {"a": f"p({i},{l})", "b": f"p({j},{m})",
                                    "split": r}
    return None


def _hbar_of_order_4_at_s_0():
    """M(2, 1, zeta_4), whose hbar is zeta_4, with s moved to 0: the
    sweeps read hbar and its binomials from the family and s from M."""
    M = _M(2, 1)
    M.s = 0
    assert (M.n, M.d, M.hbar) == (2, 4, root_of_unity(4))
    return M


def test_integer_engine_negative_control():
    # an inconsistent s: the reassociator no longer matches the products
    M = _M(3, 1)
    M.s = 2
    witness = _quasi_associativity(M)
    assert witness is not None
    assert witness == _first_associativity_failure(M)
    rep = verify_quasi_bialgebra(M)
    assert not rep["passed"]
    assert rep["failed"] == "quasi-associativity"
    assert rep["witness"] == witness
    # hbar of order 4 on the cycle of order 2 (d = 4) with s = 0:
    # quasi-associativity fails first in the report, so the coproduct
    # check is run on its own
    M = _hbar_of_order_4_at_s_0()
    witness = _coproduct(M)
    assert witness is not None
    assert witness == _first_coproduct_failure(M)
    assert _first_coproduct_failure(_M(2, 1)) is None


def _families(max_n):
    return [(n, s, which) for n in range(2, max_n + 1) for s in range(n)
            for which in range(len(legal_q_values(CocycleParams.standard(n, s))))]


@pytest.mark.parametrize("n,s,which", _families(4))
def test_q_lucas_vanishing_matches_the_vectors(n, s, which):
    # every binomial the sweeps read: a, b <= 2d - 2 with a < d or b < d
    M = _M(n, s, which)
    d, Q = M.d, M.algebra.conductor
    for a in range(2 * d - 1):
        for b in range(2 * d - 1 if a < d else d):
            low = _reduce_mod_phi(M.algebra.binomial(a, b), Q)
            assert M.vanishes(a, b) == (not any(low)), (a, b)


def _tampered_algebras(n, s, which):
    """Algebras whose structure constants no longer fit: s moved by one,
    and one exponent E(i0, l0, j0, m0) moved by one, late in loop order.
    (Inverting hbar keeps every identity, so it would test nothing.)"""
    M = _M(n, s, which)
    M.s = (s + 1) % n
    yield M
    M = _M(n, s, which)
    E, d = M.E, M.d
    at = (n - 1, d // 2, 1, (d - 1) // 2)

    def tampered(i, l, j, m):
        # works on integers and on numpy arrays alike
        hit = (i == at[0]) & (l == at[1]) & (j == at[2]) & (m == at[3])
        return E(i, l, j, m) + hit

    M.E = tampered
    yield M


def test_sweep_witnesses_match_the_plain_loops():
    witnesses = set()
    for n, s, which in _families(3):
        for M in _tampered_algebras(n, s, which):
            witness = _quasi_associativity(M)
            assert witness == _first_associativity_failure(M), (n, s, which)
            witnesses.add(json.dumps(witness))
            witness = _coproduct(M)
            assert witness == _first_coproduct_failure(M), (n, s, which)
            witnesses.add(json.dumps(witness))
    assert len(witnesses) >= 10


@pytest.fixture
def counts_seen(monkeypatch):
    """What algebra._source_count returns, call by call: 2 where a sweep
    takes the first sources {0, 1}, n where it falls back to all."""
    seen = []
    source_count = algebra._source_count

    def spy(M):
        seen.append(source_count(M))
        return seen[-1]

    monkeypatch.setattr(algebra, "_source_count", spy)
    return seen


def _swept_over(count, sweep, M):
    """sweep(M) with the first source over range(count), whatever the
    tables: count = n is the full sweep, the oracle of the reduced one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_source_count", lambda M: count)
        return sweep(M)


def test_reduced_sweeps_match_the_full_sweeps(counts_seen):
    # every n <= 6 family: verification takes sources {0, 1} in both
    # sweeps and passes, as the sweeps over every source do.  With s moved
    # the tables stay affine, and the sweeps on sources {0, 1} give the
    # witnesses of the sweeps over all; with E moved at i0 = n - 1 they
    # are not, and the sweeps fall back to every source, which is the full
    # sweep itself
    for n, s, which in _families(6):
        M = _M(n, s, which)
        assert verify_quasi_bialgebra(M)["passed"]
        assert counts_seen == [2, 2], (n, s, which)
        for sweep in (_quasi_associativity, _coproduct):
            assert _swept_over(n, sweep, M) is None, (n, s, which, sweep)
        moved_s, moved_e = _tampered_algebras(n, s, which)
        counts_seen.clear()
        for sweep in (_quasi_associativity, _coproduct):
            assert sweep(moved_s) == _swept_over(n, sweep, moved_s), (
                n, s, which, sweep)
        assert counts_seen == [2, 2], (n, s, which)
        counts_seen.clear()
        _quasi_associativity(moved_e)
        _coproduct(moved_e)
        assert counts_seen == [n, n], (n, s, which)
        counts_seen.clear()


def test_opposite_multiplication_is_decided_by_the_exact_check(
        monkeypatch, counts_seen):
    # E(i, l, j, m) = hb i m is the opposite algebra of the s = 0 family,
    # again a bialgebra; its splits carry the other q-Vandermonde exponents,
    # hb k (m - u), so the exponent rule flags them and the exact sum in
    # Q(zeta_Q) must pass each one.  E is affine in i, so the sweeps take
    # the sources {0, 1}, and every flagged chunk is flagged again over
    # every source: the same splits, in the same order, as the full sweep
    reached = []
    split_holds = algebra._split_holds

    def spy(M, *split):
        reached.append(split)
        return split_holds(M, *split)

    monkeypatch.setattr(algebra, "_split_holds", spy)
    for which in (1, 3):  # M(4,0,zeta_4) and M(4,0,zeta_4^3)
        M = _M(4, 0, which)
        hb = M.algebra._hb
        assert hb in (1, 3)
        M.E = lambda i, l, j, m: hb * i * m
        reached.clear()
        counts_seen.clear()
        assert _quasi_associativity(M) is None
        assert _coproduct(M) is None
        assert counts_seen == [2, 2]
        assert reached
        full, reached[:] = reached[:], []
        assert _swept_over(4, _coproduct, M) is None
        assert reached == full
        assert _first_coproduct_failure(M) is None


def test_a_slope_that_n_does_not_kill_takes_every_source(counts_seen):
    # phi_e + i and E - l on M(3,1,zeta_9), Q = 9: both tables are affine
    # in the first source, but n times the slope 1 is not 0 mod Q, so
    # phi_e((i + l) mod n) is not.  The exponents of a triple move by
    # (i + l) mod n - i - l, which for l = 1 vanishes at the sources 0
    # and 1 but not at 2: two sources would miss the first failure
    M = _M(3, 1)
    E, phi_e = M.E, M.phi_e
    M.E = lambda i, l, j, m: E(i, l, j, m) - l
    M.phi_e = lambda i, j, k: phi_e(i, j, k) + i
    witness = _quasi_associativity(M)
    assert counts_seen == [3]
    assert witness == _first_associativity_failure(M) == {
        "a": "p(2,1)", "b": "p(0,0)", "c": "p(0,0)"}
    assert _swept_over(2, _quasi_associativity, M) != witness


# (n, s, index into legal_q_values): every family with n <= 3, M(4,1,zeta_16)
# and three families where lcm(d, n) < Q: d = 8, 12 and 9
_ANTIPODE_FAMILIES = [
    (n, s, which) for n in (2, 3) for s in range(n)
    for which in range(len(legal_q_values(CocycleParams.standard(n, s))))
] + [(4, 1, 0), (4, 2, 0), (6, 3, 0), (6, 4, 0)]


@pytest.mark.parametrize("n,s,which", _ANTIPODE_FAMILIES)
def test_antipode_matches_the_field_oracle(n, s, which):
    table = solve_antipode(_M(n, s, which))
    oracle = antipode_oracle.solve_antipode(_M(n, s, which))
    assert list(table) == list(oracle)
    for key, (coeff, target) in table.items():
        assert coeff.to_json() == oracle[key][0].to_json(), key
        assert target == oracle[key][1]


def test_antipode_verifiers_reject_a_tampered_coefficient():
    M = _M(3, 1)
    table = solve_antipode(M)
    coeff, target = table[(1, 2)]
    for bad in (coeff * root_of_unity(9), coeff * 2, -coeff):
        tampered = {**table, (1, 2): (bad, target)}
        with pytest.raises(StructureError):
            antipode_oracle.verify_antipode(M, tampered)
        with pytest.raises(StructureError):
            _verify_antipode(M, tampered)
    # a table the oracle accepts passes the library verifier too
    antipode_oracle.verify_antipode(M, table)
    _verify_antipode(M, table)


def test_antipode_vertices_and_arrow():
    M = _M(3, 1)
    table = M.antipode()
    one = CycloNum.one()
    for i in range(3):
        c, t = table[(i, 0)]
        assert c == one and t == Path(3, -i, 0)
    # degree 1 at vertex 0: S(p(0,1)) = -p(n-1,1)
    c, t = table[(0, 1)]
    assert t == Path(3, 2, 1)
    assert c == -one


def test_antipode_target_pattern():
    M = _M(2, 1)
    for (i, l), (c, t) in M.antipode().items():
        assert t == Path(2, (-i - l) % 2, l)
        assert not c.is_zero()


def test_antipode_coalgebra_antimorphism_scalars():
    M = _M(3, 2)
    table = M.antipode()
    for (i, l), (c, _) in table.items():
        for k in range(l + 1):
            assert table[(i, k)][0] * table[((i + k) % 3, l - k)][0] == c


def test_hopf_antipode_involutivity_on_grouplikes():
    M = _M(3, 0, which=1)
    table = solve_antipode(M)
    for i in range(3):
        c, t = table[(i, 0)]
        c2, t2 = table[(t.source, 0)]
        assert t2 == Path(3, i, 0) and (c * c2) == CycloNum.one()


def test_classify_grid():
    entries = classify(2)
    assert len(entries) == 4
    by_key = {(e.s, e.q_exp): e for e in entries}
    assert by_key[(0, 0)].d == 1 and by_key[(0, 0)].trivial_coradical
    assert by_key[(0, 1)].d == 2 and by_key[(0, 1)].dim == 4
    assert by_key[(1, 1)].d == 4 and by_key[(1, 1)].dim == 8
    assert by_key[(1, 3)].d == 4
    assert all(e.is_hopf == (e.s == 0) for e in entries)
    assert all(e.conductor == (2 if e.s == 0 else 4) for e in entries)
    with pytest.raises(ValueError):
        classify(1)


def test_classify_dim_formula():
    for n in (2, 3, 4, 5):
        entries = classify(n)
        assert len(entries) == n * n
        for e in entries:
            assert e.dim == n * e.d
            M = MajidAlgebra.build(
                e.n, e.s, root_of_unity(e.conductor, e.q_exp)
            )
            assert M.d == e.d
            assert e.to_json()["dim"] == e.dim


def test_admissible_truncations():
    assert admissible_truncations(2) == {1, 2, 4}
    assert admissible_truncations(3) == {1, 3, 9}
    assert admissible_truncations(4) == {1, 2, 4, 8, 16}
    assert admissible_truncations(6) == {1, 2, 3, 6, 9, 12, 18, 36}


def test_build_truncated():
    M = build_truncated(2, 4)
    assert M.d == 4 and M.dim == 8
    assert build_truncated(3, 3).d == 3
    with pytest.raises(TruncationError) as exc:
        build_truncated(2, 3)
    assert "families rejected" in str(exc.value)
    with pytest.raises(ValueError):
        build_truncated(2, 0)


def generation_check(M: MajidAlgebra) -> bool:
    """The vertex g and the arrow X_1 generate the whole basis: left
    powers of X_1 reach p(0, l) and left multiplication by g shifts the
    source through every vertex."""
    n = M.n
    g = PathVector.monomial(Path(n, 1, 0))
    reached = set()
    acc = PathVector.monomial(M.unit)
    x1 = PathVector.monomial(Path(n, 0, 1))
    for l in range(M.d):
        if l:
            acc = M.multiply(acc, x1)
            if acc.is_zero():
                return False
        shifted = acc
        for _ in range(n):
            for p in shifted.terms:
                reached.add((p.source, p.length))
            shifted = M.multiply(g, shifted)
    return len(reached) == M.dim


def test_generation():
    for n, s in ((2, 1), (3, 0), (3, 2)):
        assert generation_check(_M(n, s))


def test_export_schema():
    M = _M(2, 1)
    doc = export_algebra(M)
    assert doc["n"] == 2 and doc["s"] == 1
    assert doc["q_exp"] == 1 and doc["conductor"] == 4
    assert doc["d"] == 4 and doc["dim"] == 8
    assert len(doc["basis"]) == 8
    assert len(doc["mult"]) == 64
    assert len(doc["antipode"]) == 8
    assert len(doc["phi_s_on_grouplikes"]) == 8
    assert {row["g"] for row in doc["alpha"]} == {"g^0", "g^1"}
    text = export_algebra(M, "json")
    assert json.loads(text) == doc == export_algebra(M, "dict")
    with pytest.raises(ValueError):
        export_algebra(M, "xml")


def test_export_import_round_trip():
    M = _M(3, 1, which=2)
    text = export_algebra(M, "json")
    M2 = import_algebra(text)
    assert (M2.n, M2.s, M2.d) == (M.n, M.s, M.d)
    assert export_algebra(M2, "json") == text


def test_export_keeps_no_product():
    # the export reads each of the dim^2 products once, so it reads them
    # past the memo of MajidAlgebra.product
    M = _M(3, 1)
    M.product(Path(3, 1, 2), Path(3, 2, 3))
    export_algebra(M, "json")
    assert len(M._prod) == 1


@pytest.mark.parametrize("n,s,q", [
    (3, 1, CycloNum(9, [0, 1])),  # zeta_9 with no root tag
    (3, 1, root_of_unity(18, 2)),  # zeta_9 at conductor 18
    (2, 1, CycloNum(4, [0, 1])),  # i with no root tag
    (2, 1, root_of_unity(8, 2)),  # i at conductor 8
], ids=["untagged-zeta9", "zeta18^2", "untagged-i", "zeta8^2"])
def test_export_does_not_depend_on_how_q_is_written(n, s, q):
    # the structure constants take the conductor of the family, not of q
    Q = q_conductor(n, s)
    canonical = MajidAlgebra.build(n, s, root_of_unity(Q, root_exponent(q, Q)))
    text = export_algebra(MajidAlgebra.build(n, s, q), "json")
    assert text == export_algebra(canonical, "json")
    assert export_algebra(import_algebra(text), "json") == text


def test_import_rejects_tampering():
    M = _M(2, 1)
    doc = export_algebra(M)
    doc["mult"][5]["coeff"]["num"][0] += 1
    with pytest.raises(StructureError):
        import_algebra(json.dumps(doc))
    doc = export_algebra(M)
    doc["s"] = True  # JSON true, not the integer 1
    with pytest.raises(ValueError):
        import_algebra(json.dumps(doc))


# an M(2, 1, zeta_4) dump (d = 4, dim = 8) edited so that it is too small
# for the family it names
_SHORT_DOCUMENTS = {
    "n40-parameters-only": lambda doc: {"n": 40, "s": 0, "q_exp": 1,
                                        "conductor": 40},
    "d-float": lambda doc: {**doc, "d": 4.0},
    "d-bool": lambda doc: {**doc, "d": True},
    "dim-string": lambda doc: {**doc, "dim": "8"},
    "dim-not-n-d": lambda doc: {**doc, "dim": 9},
    "mult-object": lambda doc: {**doc, "mult": {}},
    "mult-short": lambda doc: {**doc, "mult": doc["mult"][:-1]},
    # the shape fits d = 5, the rebuilt family has d = 4
    "d-rebuilt": lambda doc: {**doc, "d": 5, "dim": 10, "mult": [None] * 100},
}


@pytest.mark.parametrize("edit", _SHORT_DOCUMENTS.values(),
                         ids=_SHORT_DOCUMENTS.keys())
def test_import_rejects_a_document_too_small_for_its_family(
        edit, monkeypatch):
    # the shape is checked before the rebuild and d after it, so no
    # product of the named family is computed and nothing is exported
    doc = edit(export_algebra(_M(2, 1)))

    def never(*args, **kwargs):
        raise AssertionError("the document was compared by export")

    monkeypatch.setattr(majid, "export_algebra", never)
    monkeypatch.setattr(QuiverAlgebra, "closed_form_product", never)
    with pytest.raises(StructureError, match="disagrees"):
        import_algebra(json.dumps(doc))


# Prints the export of M(2, 1, zeta_4), after verifying M(3, 1, zeta_9) and
# M(4, 2, zeta_16) and solving their antipodes when given the argument
# "after"; given "import", imports the dump read from stdin instead.
_DUMP_ALGEBRA = """
import sys
from mqg import (MajidAlgebra, export_algebra, import_algebra, root_of_unity,
                 solve_antipode, verify_quasi_bialgebra)
if sys.argv[1:] == ["import"]:
    import_algebra(sys.stdin.read())
    sys.exit()
if sys.argv[1:] == ["after"]:
    for n, s, N in ((3, 1, 9), (4, 2, 16)):
        M = MajidAlgebra.build(n, s, root_of_unity(N))
        verify_quasi_bialgebra(M)
        solve_antipode(M)
print(export_algebra(MajidAlgebra.build(2, 1, root_of_unity(4)), "json"))
"""


def _run_dump(*args, stdin=None, code=_DUMP_ALGEBRA):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src}, input=stdin,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise RuntimeError(proc.stderr)
    return proc.stdout


def test_export_does_not_depend_on_earlier_calls():
    fresh = _run_dump()
    after = _run_dump("after")
    assert after == fresh
    _run_dump("import", stdin=after)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_export_peak_rss_is_bounded():
    # M(6, 1, zeta_36): 46,656 products; the export peaked at 62 MB when
    # this bound was set at twice that.  VmHWM is the peak of this image
    # alone, where ru_maxrss would also count the forked test runner
    peak_kib = int(_run_dump(code="""
from mqg.cyclo import root_of_unity
from mqg.majid import MajidAlgebra, export_algebra
export_algebra(MajidAlgebra.build(6, 1, root_of_unity(36)), "json")
with open("/proc/self/status") as fh:
    print(next(l.split()[1] for l in fh if l.startswith("VmHWM:")))
"""))
    assert peak_kib < 124 * 1024
