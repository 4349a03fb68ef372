"""Acceptance suite: ten exhaustive end-to-end checks of the library.

Each test prints a single PASS/FAIL line with the checked range, the
tolerance (exact unless stated otherwise) and the elapsed time.  Run
with `pytest -v` for the per-criterion verdict lines.
"""
import random
import time
from math import gcd

import pytest

import mqg.cyclo
import mqg.shuffle
from mqg.cyclo import CycloNum, root_of_unity
from mqg.cocycle import (
    CocycleParams,
    legal_q_values,
    one_dim_modules,
    pentagon_report,
    sigma,
    twisted_power,
)
from mqg.bimodule import build_bimodule, quasi_axiom_check
from mqg.shuffle import QuiverAlgebra
from mqg.algebra import (
    MajidAlgebra,
    TruncationError,
    admissible_truncations,
    build_truncated,
    classify,
    solve_antipode,
    verify_quasi_bialgebra,
)
from mqg.corep import (
    IntervalModule,
    brute_force_decompose,
    brute_force_indecomposables,
    decompose,
    fp_dimension,
    fusion_data,
    indecomposables,
    random_module,
    uniserial_check,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each criterion is timed from a cold cache.

    The scalar product cache `cyclo.cached_mul` (used by the cocycle and
    bimodule layers) stays small: 528 entries after the n <= 12 pentagon
    and sigma sweeps, 5,124 after the n <= 8 bimodule sweep.  But it is
    keyed by value, so what one criterion leaves in it decides the
    conductor of the products a later one gets back; the integer
    q-binomial buckets of `shuffle._binomial_buckets` grow with every
    conductor seen.  Clearing both between criteria makes each criterion
    compute, and take, what it would in isolation.
    """
    for f in (
        mqg.cyclo.cached_mul,
        mqg.shuffle._binomial_buckets,
    ):
        f.cache_clear()
    yield


def _families(n):
    for s in range(n):
        params = CocycleParams.standard(n, s)
        for q in legal_q_values(params):
            yield params, s, q


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_01_cocycle_suite():
    """Pentagon identity and normalization, n <= 12, all s, exact."""
    t0 = time.time()
    checked = 0
    ok = True
    for n in range(2, 13):
        for s in range(n):
            rep = pentagon_report(CocycleParams.standard(n, s))
            checked += 1
            if not rep["passed"]:
                ok = False
        if not ok:
            break
    dt = time.time() - t0
    _verdict(1, ok and dt < 10,
             f"pentagon+normalization exact on {checked} (n,s) pairs, "
             f"n <= 12, in {dt:.2f}s (< 10s)")


def test_criterion_02_twisted_algebra_suite():
    """Twisted powers of g and the one-dimensional module scalars,
    n <= 12, all s, exact."""
    t0 = time.time()
    ok = True
    pairs = mods = 0
    for n in range(2, 13):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            # iterated twisted products of g reproduce the closed scalar
            # g^(*i) = qq^(-(i-1)s) g^i
            cum = CycloNum.one()
            for i in range(2, n + 1):
                cum = cum * sigma(params, i - 1, 1)
                if cum != twisted_power(params, i):
                    ok = False
            if twisted_power(params, 1) != CycloNum.one():
                ok = False
            pairs += 1
            # all n one-dimensional modules exist and satisfy lam^n = qq^s
            one_dims = one_dim_modules(params)
            if len(one_dims) != n:
                ok = False
            want = params.qq**s
            for m in one_dims:
                mods += 1
                if m.lam**n != want:
                    ok = False
    dt = time.time() - t0
    _verdict(2, ok,
             f"twisted powers and {mods} one-dim module scalars exact on "
             f"{pairs} (n,s) pairs, n <= 12, in {dt:.2f}s")


def test_criterion_03_bimodule_suite():
    """Quasi-associativity and the bicomodule-morphism property of the
    arrow bimodule, n <= 8, all legal (s, q), exhaustive."""
    t0 = time.time()
    ok = True
    count = 0
    for n in range(2, 9):
        for params, s, q in _families(n):
            if not quasi_axiom_check(build_bimodule(params, q)):
                ok = False
            count += 1
    dt = time.time() - t0
    _verdict(3, ok,
             f"bimodule axioms exact on all {count} families, n <= 8, "
             f"in {dt:.2f}s")


def test_criterion_04_oracle_equivalence():
    """Thin-split product sum equals the closed product formula for every
    source pair and l+m <= 2d, n <= 5, every family, exact."""
    t0 = time.time()
    ok = True
    pairs = 0
    for n in range(2, 6):
        for params, s, q in _families(n):
            A = QuiverAlgebra.build(n, s, q)
            d = A.hbar.mult_order()
            rep = A.cross_check(2 * d)
            pairs += rep.pairs_checked
            if not rep.passed:
                ok = False
    dt = time.time() - t0
    _verdict(4, ok and dt < 60,
             f"shuffle sum == closed formula on {pairs} path pairs "
             f"(l+m <= 2d, n <= 5, all families), exact, in {dt:.2f}s (< 60s)")


def test_criterion_05_dimension_claim():
    """dim M(n,s,q) = n d with d = n^2/gcd(s, n^2) for s != 0 and
    d = order(q^-1) | n for s = 0, for all n <= 8."""
    t0 = time.time()
    ok = True
    count = 0
    for n in range(2, 9):
        for params, s, q in _families(n):
            M = MajidAlgebra.build(n, s, q)
            count += 1
            if s != 0:
                want_d = n * n // gcd(s, n * n)
            else:
                want_d = q.inverse().mult_order()
                if n % want_d != 0:
                    ok = False
            if M.d != want_d or M.dim != n * M.d or len(M.basis) != M.dim:
                ok = False
    special = MajidAlgebra.build(2, 1, root_of_unity(4))
    if special.dim != 8:
        ok = False
    dt = time.time() - t0
    _verdict(5, ok,
             f"dim = n*d dichotomy exact on {count} families, n <= 8, "
             f"plus the dimension-8 (2,1) instance, in {dt:.2f}s")


def test_criterion_06_axiom_suite():
    """Full quasi-bialgebra verification on all basis triples and the
    solved antipode with every antipode identity, n <= 6, all (s, q)."""
    t0 = time.time()
    ok = True
    count = 0
    for n in range(2, 7):
        for params, s, q in _families(n):
            M = MajidAlgebra.build(n, s, q)
            rep = verify_quasi_bialgebra(M)
            if not rep["passed"]:
                ok = False
            # raises StructureError on any failed antipode identity;
            # the s = 0 classical Hopf identity is part of the check
            solve_antipode(M)
            count += 1
    dt = time.time() - t0
    _verdict(6, ok and dt < 300,
             f"axioms + antipode exact on all {count} families, n <= 6, "
             f"in {dt:.2f}s (< 300s)")


def test_criterion_07_corepresentation_counts():
    """Exactly n*d indecomposables, all uniserial, cross-validated by
    brute-force enumeration at total dimension <= 6."""
    t0 = time.time()
    ok = True
    details = []
    for n, d in ((2, 2), (2, 4), (3, 3), (4, 4)):
        mods = indecomposables(n, d)
        if len(mods) != n * d:
            ok = False
        if not all(uniserial_check(I.realize()) for I in mods):
            ok = False
        classes = brute_force_indecomposables(n, d, max_total=6)
        expect = sum(1 for I in mods if I.length <= 6)
        if len(classes) != expect:
            ok = False
        details.append(f"({n},{d}): {len(mods)} intervals, "
                       f"{len(classes)} brute-force classes")
    dt = time.time() - t0
    _verdict(7, ok,
             f"{'; '.join(details)}; all uniserial, in {dt:.2f}s")


def test_criterion_08_decomposition_oracle():
    """Rank-formula multiplicities equal independent brute-force summand
    search on >= 100 random modules of total dimension <= 9, exact."""
    t0 = time.time()
    rng = random.Random(20260823)
    ok = True
    count = 0
    for n, d in ((2, 2), (2, 4), (3, 3), (4, 4)):
        for _ in range(26):
            M, truth = random_module(n, d, rng, max_total=9)
            count += 1
            if decompose(M) != truth or brute_force_decompose(M) != truth:
                ok = False
    dt = time.time() - t0
    _verdict(8, ok and count >= 100,
             f"rank formula == ground truth == brute-force search on "
             f"{count} random modules (dim <= 9), exact, in {dt:.2f}s")


def test_criterion_09_tensor_fusion():
    """Simples fuse as the group ring of Z_n; FP dimension 1 for simples
    and ell for intervals, power iteration within 1e-9 of the exact
    certificate."""
    t0 = time.time()
    ok = True
    for n, s in ((2, 1), (3, 1), (4, 3), (3, 0)):
        params = CocycleParams.standard(n, s)
        q = legal_q_values(params)[1 if s == 0 else 0]
        M = MajidAlgebra.build(n, s, q)
        F = fusion_data(M)
        for i in range(n):
            for r in range(n):
                for c in range(n):
                    if F.matrices[i][r][c] != (1 if r == (i + c) % n else 0):
                        ok = False
        for I in indecomposables(n, M.d):
            value, cert = fp_dimension(F, I.simple_class())
            if cert != I.length or abs(value - cert) > 1e-9:
                ok = False
    dt = time.time() - t0
    _verdict(9, ok,
             "fusion = Z[Z_n], FPdim(simple) = 1, FPdim(I(i,l)) = l, "
             f"power iteration within 1e-9 of the certificate, in {dt:.2f}s")


def test_criterion_10_classification_consistency():
    """The family enumerator lists exactly the instances passing the
    dimension and axiom criteria, and every illegal truncation length
    rejects with a witness, sampled over n <= 6."""
    t0 = time.time()
    ok = True
    # classify output matches rebuilt instances (dimension criterion for
    # n <= 6, full axiom + antipode criterion for n <= 3)
    for n in range(2, 7):
        entries = classify(n)
        if len(entries) != n * n:
            ok = False
        for e in entries:
            M = MajidAlgebra.build(e.n, e.s, root_of_unity(e.conductor, e.q_exp))
            if M.d != e.d or M.dim != e.dim or e.dim != n * e.d:
                ok = False
            if n <= 3:
                if not verify_quasi_bialgebra(M)["passed"]:
                    ok = False
                solve_antipode(M)
    # legal truncations build, illegal ones raise with rejection witnesses
    for n in range(2, 7):
        legal = admissible_truncations(n)
        for d in sorted(legal):
            if build_truncated(n, d).d != d:
                ok = False
        illegal = [d for d in range(1, 2 * n + 2) if d not in legal][:4]
        for d in illegal:
            try:
                build_truncated(n, d)
                ok = False
            except TruncationError:
                pass
    dt = time.time() - t0
    _verdict(10, ok,
             "classify grid == instances passing the dimension/axiom "
             f"criteria and illegal truncations reject, n <= 6, in {dt:.2f}s")
