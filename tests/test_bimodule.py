import os
import subprocess
import sys
from pathlib import Path

import pytest

from mqg.cyclo import CycloNum, root_of_unity
from mqg.cocycle import CocycleParams, legal_q_values
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
    assert bim.left_act(1, 1) == (one, 2)
    assert bim.left_act(1, 2) == (one, 3)
    assert bim.left_act(1, 3) == (params.qq, 1)
    # X_i . g picks up the deformation scalar
    for i in range(1, 4):
        c, j = bim.right_act(i, 1)
        assert c == bim.deformation and j == i % 3 + 1


def test_unit_acts_trivially():
    params = CocycleParams.standard(4, 2)
    bim = build_bimodule(params, legal_q_values(params)[1])
    one = CycloNum.one()
    for i in range(1, 5):
        assert bim.left_act(0, i) == (one, i)
        assert bim.right_act(i, 0) == (one, i)


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
    reason="ROADMAP item 2: global caches keyed by CycloNum hand back equal "
           "values at other conductors, so the n = 9 reports leave "
           "conductor-9 coefficients in the later bimodule")
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
