import json
import os
import subprocess
import sys

import pytest

from mqg import algebra
from mqg.cyclo import (
    CycloNum,
    _reduce_mod_phi,
    int_vec_zero_mod_phi,
    root_of_unity,
    rotate,
)
from mqg.cocycle import CocycleParams, legal_q_values
from mqg.quiver import Path, PathVector
from mqg.algebra import (
    MajidAlgebra,
    _IntegerEngine,
    _verify_antipode,
    StructureError,
    TruncationError,
    admissible_truncations,
    build,
    build_truncated,
    classify,
    export_algebra,
    generation_check,
    import_algebra,
    solve_antipode,
    verify_quasi_bialgebra,
)
import antipode_oracle
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
    # the integer engine against the CycloNum oracle, every family n <= 3
    families = [(n, s, q) for n in (2, 3) for s in range(n)
                for q in legal_q_values(CocycleParams.standard(n, s))]
    assert len(families) == 13
    for n, s, q in families:
        M = MajidAlgebra.build(n, s, q)
        fast = verify_quasi_bialgebra(M)
        assert fast == verify_quasi_bialgebra(M, product=M.product), (n, s, q)
        assert fast["passed"]


def test_verify_negative_control():
    M = _M(2, 1)
    bad_key = (0, 1, 0, 1)

    def mutated(a, b):
        c, t = M.product(a, b)
        if (a.source, a.length, b.source, b.length) == bad_key:
            return (c * root_of_unity(8), t)
        return (c, t)

    rep = verify_quasi_bialgebra(M, product=mutated)
    assert not rep["passed"]
    assert rep["failed"] in ("quasi-associativity", "coproduct-multiplicative")
    assert rep["witness"] is not None


def _first_associativity_failure(engine):
    """Quasi-associativity triple by triple in the integer encoding, with
    no skipping and no memo: the first failing (a, b, c)."""
    n, d, N, E, phi_e = engine.n, engine.d, engine.N, engine.E, engine.phi_e

    def pair(l1, m1, l2, m2):
        return cyclic_mul(engine.binomial(l1, m1), engine.binomial(l2, m2))

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
                            if not int_vec_zero_mod_phi(diff, N):
                                return {"a": f"p({i},{l})", "b": f"p({j},{m})",
                                        "c": f"p({k},{t})"}
    return None


def _first_coproduct_failure(engine):
    """Multiplicativity of the coproduct split by split in the integer
    encoding, with no memo: the first failing (a, b, split)."""
    n, d, N, E, binom = engine.n, engine.d, engine.N, engine.E, engine.binomial
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
                        if not int_vec_zero_mod_phi(acc, N):
                            return {"a": f"p({i},{l})", "b": f"p({j},{m})",
                                    "split": r}
    return None


def test_integer_engine_negative_control():
    # an inconsistent s: the reassociator no longer matches the products
    M = _M(3, 1)
    M.s = 2
    engine = _IntegerEngine(M)
    witness = engine.quasi_associativity()
    assert witness is not None
    assert witness == _first_associativity_failure(engine)
    rep = verify_quasi_bialgebra(M)
    assert not rep["passed"]
    assert rep["failed"] == "quasi-associativity"
    assert rep["witness"] == witness
    # hbar of order 4 on the cycle of order 2 (d = 4): quasi-associativity
    # fails first in the report, so the coproduct check is run on its own
    M = _M(2, 0, which=1)
    M.hbar, M.d = root_of_unity(4), 4
    engine = _IntegerEngine(M)
    witness = engine.coproduct()
    assert witness is not None
    assert witness == _first_coproduct_failure(engine)
    assert _first_coproduct_failure(_IntegerEngine(_M(2, 1))) is None


def _families(max_n):
    return [(n, s, which) for n in range(2, max_n + 1) for s in range(n)
            for which in range(len(legal_q_values(CocycleParams.standard(n, s))))]


@pytest.mark.parametrize("n,s,which", _families(4))
def test_q_lucas_vanishing_matches_the_vectors(n, s, which):
    # every binomial the sweeps read: a, b <= 2d - 2 with a < d or b < d
    engine = _IntegerEngine(_M(n, s, which))
    d, N = engine.d, engine.N
    T = engine._tables()[0]
    for a in range(2 * d - 1):
        for b in range(2 * d - 1 if a < d else d):
            low = _reduce_mod_phi(engine.binomial(a, b), N)
            assert engine.vanishes(a, b) == (not any(low)), (a, b)
            assert list(T[a, b]) == list(low) + [0] * (N - len(low)), (a, b)


def _tampered_engines(n, s, which):
    """Engines whose structure constants no longer fit: s moved by one,
    and one exponent E(i0, l0, j0, m0) moved by one, late in loop order.
    (Inverting hbar keeps every identity, so it would test nothing.)"""
    M = _M(n, s, which)
    M.s = (s + 1) % n
    yield _IntegerEngine(M)
    engine = _IntegerEngine(_M(n, s, which))
    E, d = engine.E, engine.d
    at = (n - 1, d // 2, 1, (d - 1) // 2)

    def tampered(i, l, j, m):
        # works on integers and on numpy arrays alike
        hit = (i == at[0]) & (l == at[1]) & (j == at[2]) & (m == at[3])
        return E(i, l, j, m) + hit

    engine.E = tampered
    yield engine


def test_sweep_witnesses_match_the_plain_loops():
    witnesses = set()
    for n, s, which in _families(3):
        for engine in _tampered_engines(n, s, which):
            witness = engine.quasi_associativity()
            assert witness == _first_associativity_failure(engine), (n, s, which)
            witnesses.add(json.dumps(witness))
            witness = engine.coproduct()
            assert witness == _first_coproduct_failure(engine), (n, s, which)
            witnesses.add(json.dumps(witness))
    assert len(witnesses) >= 10


def test_object_dtype_sweeps_give_the_same_reports(monkeypatch):
    good, bad = _M(3, 1), _M(3, 1)
    bad.s = 2
    reports = [verify_quasi_bialgebra(M) for M in (good, bad)]
    tampered = _M(2, 0, which=1)
    tampered.hbar, tampered.d = root_of_unity(4), 4
    coproduct = _IntegerEngine(tampered).coproduct()
    assert coproduct is not None
    monkeypatch.setattr(algebra, "_INT64_BOUND", 0)
    assert _IntegerEngine(good)._tables()[0].dtype == object
    assert [verify_quasi_bialgebra(M) for M in (good, bad)] == reports
    assert _IntegerEngine(tampered).coproduct() == coproduct


# (n, s, index into legal_q_values): every family with n <= 3 and M(4,1,zeta_16)
_ANTIPODE_FAMILIES = [
    (n, s, which) for n in (2, 3) for s in range(n)
    for which in range(len(legal_q_values(CocycleParams.standard(n, s))))
] + [(4, 1, 0)]


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
    assert json.loads(text) == json.loads(export_algebra(M, "pretty"))
    with pytest.raises(ValueError):
        export_algebra(M, "xml")


def test_export_import_round_trip():
    M = _M(3, 1, which=2)
    text = export_algebra(M, "json")
    M2 = import_algebra(text)
    assert (M2.n, M2.s, M2.d) == (M.n, M.s, M.d)
    assert export_algebra(M2, "json") == text


def test_import_rejects_tampering():
    M = _M(2, 1)
    doc = export_algebra(M)
    doc["mult"][5]["coeff"]["num"][0] += 1
    with pytest.raises(StructureError):
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


def _run_dump(*args, stdin=None):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _DUMP_ALGEBRA, *args],
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


def test_build_helper():
    M = build(2, 1, root_of_unity(4))
    assert isinstance(M, MajidAlgebra)
