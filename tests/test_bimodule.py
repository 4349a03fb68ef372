import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mqg.cyclo import CycloNum, root_of_unity
from mqg.cocycle import CocycleParams, legal_q_values, phi
from mqg.bimodule import build_bimodule, quasi_axiom_check


def _families(n_max):
    for n in range(2, n_max + 1):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            for q in legal_q_values(params):
                yield params, q


def test_generator_actions():
    params = CocycleParams.standard(3, 1)
    q = legal_q_values(params)[0]
    bim = build_bimodule(params, q)
    one = CycloNum.one()
    # g . X_i = X_{i+1}, with the wrap factor qq^s at i = n
    assert bim.left[(1, 1)] == (one, 2)
    assert bim.left[(1, 2)] == (one, 3)
    assert bim.left[(1, 3)] == (params.qq, 1)
    # X_i . g picks up the deformation scalar
    for i in range(1, 4):
        c, j = bim.right[(1, i)]
        assert c == bim.deformation and j == i % 3 + 1


def test_unit_acts_trivially():
    params = CocycleParams.standard(4, 2)
    bim = build_bimodule(params, legal_q_values(params)[1])
    one = CycloNum.one()
    for i in range(1, 5):
        assert bim.left[(0, i)] == (one, i)
        assert bim.right[(0, i)] == (one, i)


def test_deformation_scalar():
    params = CocycleParams.standard(2, 1)
    q = root_of_unity(4)
    bim = build_bimodule(params, q)
    # qq^{-s} lam^{-1} with lam = q^s = zeta_4
    assert bim.deformation == params.qq ** (-1) * q.inverse()
    assert bim.deformation.mult_order() == 4


def test_isotypic_components():
    params = CocycleParams.standard(3, 0)
    bim = build_bimodule(params, root_of_unity(3))
    assert bim.isotypic(1) == (1, 0)
    assert bim.isotypic(3) == (0, 2)


def test_illegal_q_rejected():
    params = CocycleParams.standard(3, 1)
    with pytest.raises(ValueError):
        build_bimodule(params, root_of_unity(3))


def test_quasi_axioms_small():
    for params, q in _families(5):
        bim = build_bimodule(params, q)
        assert quasi_axiom_check(bim), (params.n, params.s)


def test_quasi_axioms_negative_control():
    params = CocycleParams.standard(3, 1)
    bim = build_bimodule(params, legal_q_values(params)[0])
    c, j = bim.left[(2, 1)]
    bim.left[(2, 1)] = (c * root_of_unity(9), j)
    ok, failures = quasi_axiom_check(bim, collect=True)
    assert not ok
    assert any(f["identity"] == "left" for f in failures)


def _quasi_axiom_oracle(bim):
    """quasi_axiom_check(bim, collect=True) as a plain loop over CycloNum
    products and Phi values, with no exponents."""
    params, left, right = bim.params, bim.left, bim.right
    n = params.n
    failures = []

    def record(kind, e, f, i):
        failures.append({"identity": kind, "e": e, "f": f, "arrow": i})

    for i in range(1, n + 1):
        g_exp, h_exp = bim.isotypic(i)
        for e in range(n):
            for f in range(n):
                # e.(f.m) = Phi(e,f,g)/Phi(e,f,h) (ef).m
                c1, j1 = left[(f, i)]
                c2, j2 = left[(e, j1)]
                c3, j3 = left[((e + f) % n, i)]
                ratio = phi(params, e, f, g_exp) / phi(params, e, f, h_exp)
                if j2 != j3 or c1 * c2 != ratio * c3:
                    record("left", e, f, i)
                # (m.e).f = Phi(h,e,f)/Phi(g,e,f) m.(ef)
                c1, j1 = right[(e, i)]
                c2, j2 = right[(f, j1)]
                c3, j3 = right[((e + f) % n, i)]
                ratio = phi(params, h_exp, e, f) / phi(params, g_exp, e, f)
                if j2 != j3 or c1 * c2 != ratio * c3:
                    record("right", e, f, i)
                # (e.m).f = Phi(e,h,f)/Phi(e,g,f) e.(m.f)
                c1, j1 = left[(e, i)]
                c2, j2 = right[(f, j1)]
                c3, j3 = right[(f, i)]
                c4, j4 = left[(e, j3)]
                ratio = phi(params, e, h_exp, f) / phi(params, e, g_exp, f)
                if j2 != j4 or c1 * c2 != ratio * (c3 * c4):
                    record("mixed", e, f, i)
        for a in range(n):
            if left[(a, i)][1] % n != (i + a) % n:
                record("bicomodule-left", a, None, i)
            if right[(a, i)][1] % n != (i + a) % n:
                record("bicomodule-right", a, None, i)
    return not failures, failures


def test_quasi_axioms_match_the_cyclonum_oracle():
    # every family n <= 6, as built and with one seeded coefficient times
    # a primitive root of each order (the check's conductor grows to the
    # lcm with it)
    rng = random.Random(13)
    cases = failed = 0
    for params, q in _families(6):
        bim = build_bimodule(params, q)
        assert quasi_axiom_check(bim, collect=True) == (True, [])
        assert _quasi_axiom_oracle(bim) == (True, [])
        for order in (2, 3, 5, 8, 9, 16):
            bim = build_bimodule(params, q)
            table = rng.choice((bim.left, bim.right))
            key = rng.choice(sorted(table))
            c, j = table[key]
            table[key] = (c * root_of_unity(order), j)
            got = quasi_axiom_check(bim, collect=True)
            assert got == _quasi_axiom_oracle(bim), (params, q, order, key)
            cases += 1
            failed += not got[0]
    assert cases == 540 and failed == cases


def test_quasi_axioms_reject_a_coefficient_that_is_not_a_root():
    params = CocycleParams.standard(3, 1)
    bim = build_bimodule(params, legal_q_values(params)[0])
    c, j = bim.right[(2, 3)]
    bim.right[(2, 3)] = (c * 2, j)
    with pytest.raises(ValueError):
        quasi_axiom_check(bim)


def test_to_json_shape():
    params = CocycleParams.standard(2, 1)
    bim = build_bimodule(params, root_of_unity(4))
    doc = bim.to_json()
    assert doc["n"] == 2 and doc["s"] == 1
    assert len(doc["left"]) == 4 and len(doc["right"]) == 4
    assert all({"g", "x", "coeff", "image"} <= set(row) for row in doc["left"])


# Dumps the bimodule of M(3, 0, zeta_3), after the pentagon and 2-cocycle
# reports of every n = 9 family when given the argument "after".
_DUMP_BIMODULE = """
import json, sys
from mqg import (CocycleParams, build_bimodule, pentagon_report,
                 root_of_unity, sigma_report)
if sys.argv[1:] == ["after"]:
    for s in range(9):
        pentagon_report(CocycleParams.standard(9, s))
        sigma_report(CocycleParams.standard(9, s))
bim = build_bimodule(CocycleParams.standard(3, 0), root_of_unity(3))
print(json.dumps(bim.to_json()))
"""


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: cyclo.cached_mul, still used by cocycle.sigma, "
           "sigma_report and build_bimodule, hands back equal values at "
           "other conductors, so the n = 9 reports leave conductor-9 "
           "coefficients in the later bimodule")
def test_output_does_not_depend_on_earlier_calls():
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    dumps = []
    for args in ([], ["after"]):
        proc = subprocess.run([sys.executable, "-c", _DUMP_BIMODULE, *args],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode:
            raise RuntimeError(proc.stderr)
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
